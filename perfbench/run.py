"""Run one workload of the quartetsim benchmark and print its metrics.

    python3 perfbench/run.py --workload powder-photo --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``, never from an installed copy.  Set-up (imports, input generation
and a cheap warm-up call) is repeated and timed; then whole rounds of the
workload's CLI calls run in this one process until ``--seconds`` have
passed.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the first half of
the time runs untraced rounds and the second half traced ones, and the JSON
holds the per-layer metrics plus the tracing overhead.  Inputs, outputs
and a record of the run (environment, round times, spans) are written
under ``perfbench/work/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: the batched 48 x 48 eigensolvers gain nothing from a
# second one, and a fixed count keeps runs steady on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("powder-photo", "weak-thermal", "trepr-fit", "ta-fit")
SETUP_REPEATS = 3


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_package() -> float:
    """Import numpy and quartetsim from the checkout's src/; returns seconds taken."""
    start = time.perf_counter()
    import numpy  # noqa: F401

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import quartetsim.cli

    if Path(quartetsim.__file__).resolve().parent != src / "quartetsim":
        raise ImportError(f"quartetsim imported from {quartetsim.__file__}, not {src}")
    return time.perf_counter() - start


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def invoke(entry, argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call; returns its exit code and standard error."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = entry(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, not the end of the run
        rc = -1
        err.write(traceback.format_exc())
    return rc, err.getvalue()


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Runner:
    """Runs rounds of one workload and keeps the operation counts."""

    def __init__(self, workload, entry):
        self.workload = workload
        self.entry = entry
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def round(self, tracer=None) -> tuple[float, float]:
        """One round of CLI calls; returns (wall seconds, CPU seconds) of the calls."""
        wall = cpu = 0.0
        for call in self.workload.round(self.rounds):
            entry = self.entry
            if tracer is not None:
                tracer.install()
                entry = tracer.wrap("cli.entry", self.entry)
            c0, t0 = cpu_seconds(), time.perf_counter()
            rc, err = invoke(entry, call.argv)
            wall += time.perf_counter() - t0
            cpu += cpu_seconds() - c0
            if tracer is not None:
                tracer.uninstall()
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                print(f"failed: {' '.join(call.argv[:1])} exit {rc}: {err.strip()[-400:]}",
                      file=sys.stderr)
                continue
            try:
                problems = call.check()
            except Exception:  # unreadable output is wrong output, not the end of the run
                problems = [traceback.format_exc(limit=1).strip()]
            if problems:
                self.failed += 1
                self.wrong += 1
                print(f"wrong output: {' '.join(call.argv)}: {'; '.join(problems)}", file=sys.stderr)
        self.rounds += 1
        return wall, cpu


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"error: cannot import quartetsim from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from quartetsim import cli

    import tracing
    import workloads

    workdir = BENCH / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](workdir, args.seed)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        for warm in workload.warmup():
            rc, err = invoke(cli.entry, warm)
            if rc != 0:
                print(f"warm-up exit {rc}: {err.strip()[-400:]}", file=sys.stderr)
        setup_times.append(time.perf_counter() - start)

    runner = Runner(workload, cli.entry)
    start = time.perf_counter()
    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    walls = []
    while not walls or time.perf_counter() - start < untraced_budget:
        walls.append(runner.round()[0])

    record = {"workload": args.workload, "seed": args.seed, "environment": environment(),
              "setup_s": setup_times, "import_s": import_s, "round_wall_s": walls}
    if args.trace:
        tracer = tracing.Tracer()
        traced = []
        while not traced or time.perf_counter() - start < args.seconds:
            traced.append(runner.round(tracer))
        metrics = tracing.layer_metrics(tracer.spans, len(traced))
        cpu = sum(c for _, c in traced)
        metrics["spectra.stick_field_err_mt"] = workload.worst_stick_error_mt
        metrics["process.cpu_s"] = cpu / len(traced)
        metrics["process.cpu_util"] = cpu / sum(w for w, _ in traced)
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(w for w, _ in traced) / statistics.median(walls) - 1.0)
        units = tracing.LAYER_UNITS
        record["traced_round_wall_s"] = [w for w, _ in traced]
        record["spans"] = [s[:4] for s in tracer.spans]
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

    record["metrics"] = metrics
    (workdir / f"record-trace{args.trace}.json").write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"rounds: {len(walls)} untraced" + (f", {len(record['traced_round_wall_s'])} traced"
                                               if args.trace else ""))
    for name in units:
        print(f"{name}: {metrics[name]:.6g} {units[name]}")
    print(f"operations: {runner.attempted} attempted, {runner.failed} failed")
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
