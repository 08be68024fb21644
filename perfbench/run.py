"""Benchmark of the alphaturn CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload panel --seed 1 --seconds 30 --trace 0

With ``--trace 0`` each command of the workload runs as its own
``alphaturn`` process, one at a time (a closed loop with one client), and
the end-to-end metrics are printed. With ``--trace 1`` the same commands
run in-process through ``alphaturn.cli.main`` with timing wrappers
installed, and the per-layer metrics are printed. Every command's outputs
are checked against an independent numpy oracle. The last line of output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``;
the line before it is a report with the environment, the sha256 of every
input and per-command details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SUBCOMMANDS = ["analyze", "clusters", "model", "synth", "ftest"]
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end within 180 s
# One client process with one BLAS thread. On a shared 2-core machine, a
# second thread made the times of the dense `corr` commands spread about
# twice as wide (IQR/median of wall_s over seeds: 9% with 2, 4% with 1).
BLAS_THREADS = 1
CLI = "import sys; from alphaturn.cli import main; sys.exit(main())"
SETUP = "from alphaturn.cli import build_parser; build_parser()"

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
METHODS = ["closed-form-binary", "closed-form-nondiagonal", "reduced-nonbinary", "dense"]
PER_LAYER = (
    [(f"panel.{f}.{m}", u) for f in ("load_panel", "save_panel", "load_correlation")
     for m, u in (("self_s", "s"), ("mb_per_s", "MB/s"))]
    + [(f"{n}.self_s", "s") for n in (
        "panel.pairwise_correlation", "panel.regress_out", "panel.canonicalize_signs",
        "panel.deform_correlation", "spectral.spectral_summary", "clusters.lower_bound_F",
        "clusters.residual_correlation_sweep", "clusters.new_cluster_ftest", "linalg.lstsq",
        "cli.model_eigenstructure", "factor_model.build_covariance",
        "factor_model.dense_rho_star", "synth.gen_model", "synth.gen_panel", "linalg.decomp")]
    + [(f"{n}.calls", "count") for n in (
        "linalg.lstsq", "factor_model.build_covariance", "factor_model.dense_rho_star",
        "factor_model.binary_eigensystem", "factor_model.reduce_nondiagonal",
        "factor_model.reduce_nonbinary", "factor_model.secular_roots")]
    + [(f"cli.method.{m}.count", "count") for m in METHODS]
    + [(f"linalg.decomp.{c}", "count") for c in ("calls", "redundant", "n3_computed")]
    + [(f"cli.{c}.self_s", "s") for c in SUBCOMMANDS]
    + [("trace.wall_s", "s")]
)


def environment(root, threads):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    # identifies the program where there is no git commit (an exported checkout)
    src = hashlib.sha256()
    for path in sorted(pathlib.Path(root, "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return self.end - time.monotonic()


def spawn(code, args, env, deadline, log):
    """Run `python -c code args` to exit; returns (exit code, seconds,
    (peak RSS in MB, CPU seconds)). The child is killed when the run's
    deadline passes."""
    with open(log, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(deadline.left(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, (usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)


def run_command(command, execute):
    """Remove stale outputs, run, then check. Returns (ok, seconds, extra, error)."""
    for path in command.outputs:
        if os.path.exists(path):
            os.unlink(path)
    code, seconds, extra = execute(command)
    if code != 0:
        return False, seconds, extra, f"exit code {code}"
    try:
        command.check()
    except Exception as exc:  # any failed check counts the command as failed
        return False, seconds, extra, f"{type(exc).__name__}: {exc}"
    return True, seconds, extra, None


def passes(commands, seconds, deadline, execute, after_pass=None):
    """Run the command list round-robin for about `seconds`, at least one
    pass. A command starts only if its previous time still fits; with
    `after_pass` (called after each pass), a pass starts only if the
    previous pass still fits. Returns per-command samples and extras,
    attempted and failed counts and the first error of each command."""
    samples = {c.label: [] for c in commands}
    extras = {c.label: [] for c in commands}
    attempted = failed = 0
    errors = {}
    begin = time.perf_counter()

    def fits(expected):
        return (time.perf_counter() - begin + expected <= seconds
                and deadline.left() > 2 * expected)

    while True:
        t0 = time.perf_counter()
        for command in commands:
            if samples[command.label] and after_pass is None \
                    and not fits(samples[command.label][-1]):
                return samples, extras, attempted, failed, errors
            ok, secs, extra, error = run_command(command, execute)
            attempted += 1
            samples[command.label].append(secs)
            extras[command.label].append(extra)
            if not ok:
                failed += 1
                errors.setdefault(command.label, error)
        if after_pass:
            after_pass()
            if not fits(time.perf_counter() - t0):
                return samples, extras, attempted, failed, errors


def untraced(workload, seconds, env, deadline):
    logs = os.path.join(workload.work, "stderr")
    os.makedirs(logs, exist_ok=True)
    setup_runs = [spawn(SETUP, [], env, deadline, os.path.join(logs, "setup.log"))
                  for _ in range(SETUP_SAMPLES)]
    setup = [r[1] for r in setup_runs]

    def execute(command):
        return spawn(CLI, command.argv, env, deadline,
                     os.path.join(logs, command.label.replace(":", "_") + ".log"))

    samples, usage, attempted, failed, errors = passes(
        workload.commands, seconds, deadline, execute)
    median = {label: statistics.median(v) for label, v in samples.items()}
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(median.values()),
        "peak_rss_mb": max(statistics.median(u[0] for u in v) for v in usage.values()),
    }
    by_cmd = {}
    for command in workload.commands:
        by_cmd[command.cmd] = by_cmd.get(command.cmd, 0.0) + median[command.label]
    report = {
        "setup_samples_s": setup,
        "setup_cpu_s": [r[2][1] for r in setup_runs],
        "samples_per_command": {k: len(v) for k, v in samples.items()},
        "subcommand_s": by_cmd,
        "command_s": samples,
        "command_cpu_s": {k: [u[1] for u in v] for k, v in usage.items()},
        "command_peak_rss_mb": {k: [u[0] for u in v] for k, v in usage.items()},
    }
    return values, attempted, failed, errors, report


def traced(workload, seconds, root, deadline):
    sys.path.insert(0, os.path.join(root, "src"))
    from alphaturn import cli, clusters, factor_model, panel, spectral, synth
    from tracing import Tracer

    modules = {"panel": panel, "spectral": spectral, "clusters": clusters,
               "factor_model": factor_model, "synth": synth, "cli": cli}
    tracer = Tracer()
    per_command = {}
    pass_metrics = []

    def execute(command):
        before = dict(tracer.counts)
        try:
            code, secs = tracer.command(f"cli.{command.cmd}", cli.main, command.argv)
        except Exception as exc:  # an uncaught error fails the command, not the run
            return f"{type(exc).__name__}: {exc}", 0.0, None
        per_command[command.label] = {
            k: tracer.counts[k] - before.get(k, 0) for k in
            ("linalg.decomp.calls", "linalg.decomp.redundant", "linalg.decomp.n3_computed")}
        return code, secs, None

    def after_pass():
        m = {}
        for name, secs in tracer.self_s.items():
            m[f"{name}.self_s"] = secs
            m[f"{name}.calls"] = tracer.calls[name]
        for name, size in tracer.bytes.items():
            m[f"{name}.mb_per_s"] = size / 1e6 / tracer.self_s[name]
        m.update(tracer.counts)
        pass_metrics.append(m)
        tracer.reset()

    tracer.install(modules)
    try:
        samples, _, attempted, failed, errors = passes(
            workload.commands + workload.probes, seconds, deadline, execute, after_pass)
    finally:
        tracer.uninstall()
    values = {"trace.wall_s": sum(statistics.median(samples[c.label])
                                  for c in workload.commands)}
    for name, unit in PER_LAYER:
        if name in values:
            continue
        missing = sum(name not in m for m in pass_metrics)
        if missing:
            raise RuntimeError(f"{name} was not measured in {missing} of "
                               f"{len(pass_metrics)} passes: no command reached its layer")
        values[name] = statistics.median(m[name] for m in pass_metrics)
    report = {"passes": len(pass_metrics), "command_s": samples,
              "command_decompositions": per_command}
    return values, attempted, failed, errors, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["panel", "corr", "model"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    deadline = Deadline(DEADLINE_S)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "alphaturn", "cli.py")):
        print("error: run from the root of an alphaturn checkout (src/alphaturn missing)",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    import workloads

    work = os.path.join(BENCH_DIR, ".work", f"{args.workload}-{os.getpid()}")
    try:
        t0 = time.perf_counter()
        workload = workloads.build(args.workload, args.seed, work)
        build_s = time.perf_counter() - t0
        if args.trace:
            values, attempted, failed, errors, report = traced(workload, args.seconds, root, deadline)
            units = dict(PER_LAYER)
        else:
            env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
            values, attempted, failed, errors, report = untraced(
                workload, args.seconds, env, deadline)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only if no other run is using it
        except OSError:
            pass
    report.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_build_s": build_s, "inputs_sha256": workload.inputs,
        "commands": [{"label": c.label, "argv": c.argv}
                     for c in workload.commands + workload.probes * args.trace],
        "errors": errors, "environment": environment(root, BLAS_THREADS),
    })
    print(json.dumps({"report": report}))
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
