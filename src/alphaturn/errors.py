"""Exception types shared across the package, and the one reader of input
files that turns their failures into a ValidationError."""

import os


class ValidationError(ValueError):
    """Input fails a structural or numerical precondition."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced an inconsistent result."""


def read_file(path, kind, parse, newline=None):
    """parse(fh) of the text file at `path`, opened with `newline`. A file
    that is missing, unreadable (a directory, say) or not text in the
    locale's encoding raises ValidationError naming `path`; `kind` names
    the file."""
    if not os.path.exists(path):
        raise ValidationError(f"{kind} file not found: {path}")
    try:
        with open(path, newline=newline) as fh:
            return parse(fh)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read {kind} file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: cannot read {kind} file: not {exc.encoding} text") from None
