"""Test-suite settings: hypothesis runs a fixed, bounded set of examples, so
that every run of the suite tests the same inputs in about the same time."""

from hypothesis import settings

settings.register_profile(
    "alphaturn", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.load_profile("alphaturn")
