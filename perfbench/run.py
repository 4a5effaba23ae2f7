"""thermoplate benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  The run times passes over the workload's operations (see
workloads.py) until the measuring window is used up, at least one pass, and
verifies every output.  It prints an ``environment:`` line and, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics.

--trace 0 reports the end-to-end metrics:
  run_s        seconds of one verified pass: each operation's median over
               the passes in the window, summed over the operations
  setup_s      median over fresh interpreters of the seconds from start to
               thermoplate.cli imported and the workload's inputs generated
  peak_rss_mb  peak resident memory of this process
  ok_frac      verified operations / attempted operations (1 - fail_frac)
run_s is rescaled by the host speed that hostspeed.py's reference job
measures during the passes, to read as seconds on the host where that job
takes hostspeed.REFERENCE_S; the result file keeps the wall-clock value.
--trace 1 adds one traced pass after the untraced ones and reports the
per-layer metrics of tracing.py plus the tracing overhead (traced pass over
the untraced run_s).

BLAS and OpenMP threads are pinned to 1 for every run.  Results, with the
environment block, go to .perfbench/ in the checkout; a traced run also
writes its spans there.  CLI artifacts go to temporary directories under
.perfbench/tmp that are removed after verification.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("scan", "torus", "bounded-rect", "bounded-free")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 7

# A probe interpreter: import the CLI, generate the workload's inputs, and
# print the monotonic clock (system-wide on Linux) when done.
PROBE = ("import sys, time\n"
         "sys.path[:0] = sys.argv[1:3]\n"
         "import thermoplate.cli, workloads\n"
         "workloads.build(sys.argv[3], int(sys.argv[4]))\n"
         "print(time.monotonic())\n")


def setup_seconds(workload: str, seed: int) -> float:
    """Seconds from a fresh interpreter's start to its inputs generated."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(BENCH), workload,
                           str(seed)], capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1]) - start


def git_head(root: Path):
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_head": git_head(ROOT),
        "src_lines": src_lines,
    }


class Runner:
    """Runs passes over one workload's operations and counts failures."""

    def __init__(self, run_operation, ops, scratch, reference=None):
        self.run_operation, self.ops, self.scratch = run_operation, ops, scratch
        self.reference = reference
        self.reference_samples = []
        self.attempted = 0
        self.failures = []
        self.artifact_bytes = 0

    def one_pass(self, span=None) -> list:
        """Seconds of each operation of one pass, verification included.

        The reference, if any, is called after every operation with its
        seconds and returns the host speed samples it took, outside that time.
        """
        self.artifact_bytes = 0
        times = []
        for op in self.ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                self.artifact_bytes += self.run_operation(op, self.scratch, span)
            except Exception as exc:  # every failure is counted, the run goes on
                self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - start)
            if self.reference:
                self.reference_samples.extend(self.reference(times[-1]))
        return times

    def passes(self, seconds: float) -> list:
        """Passes until the next one would overrun the window; at least one."""
        start = time.perf_counter()
        passes = [self.one_pass()]
        while time.perf_counter() + statistics.median(map(sum, passes)) <= start + seconds:
            passes.append(self.one_pass())
        return passes


def pass_seconds(passes: list) -> float:
    """One pass: the sum over operations of each one's median seconds."""
    return sum(statistics.median(op_times) for op_times in zip(*passes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "thermoplate" / "cli.py").is_file():
        print(f"error: no thermoplate sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("THERMOPLATE_PERTURB_ROOTS", None)
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)

    setup = [] if args.trace else [setup_seconds(args.workload, args.seed)
                                   for _ in range(SETUP_PROBES)]
    sys.path.insert(0, str(SRC))
    import hostspeed
    import thermoplate
    import tracing
    import workloads

    if Path(thermoplate.__file__).resolve().parent != SRC / "thermoplate":
        print(f"error: imported thermoplate from {thermoplate.__file__}", file=sys.stderr)
        return 2
    runner = Runner(workloads.run_operation, workloads.build(args.workload, args.seed),
                    str(scratch), hostspeed.samples_after)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_samples_s": setup}
    passes = runner.passes(args.seconds)
    run_s = hostspeed.rescale(pass_seconds(passes), runner.reference_samples)
    record.update(operations=[op.name for op in runner.ops], pass_times_s=passes,
                  reference_s=runner.reference_samples, wall_run_s=pass_seconds(passes))
    if args.trace:
        metrics, units = traced_metrics(runner, run_s, record)
    else:
        metrics = {
            "run_s": run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (runner.attempted - len(runner.failures)) / runner.attempted,
        }
        units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "1"}
    shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {tracing.check_metric_name(name): {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record.update(environment=environment(), failures=runner.failures, result=result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


def traced_metrics(runner: Runner, untraced: float, record: dict) -> tuple:
    """One more pass with every layer wrapped; untraced is the untraced run_s."""
    import numpy.linalg
    import scipy.linalg
    from thermoplate import bounded, multipliers, torus

    import hostspeed
    import tracing

    tracer = tracing.Tracer()
    modules = {"multipliers": multipliers, "torus": torus, "bounded": bounded,
               "numpy.linalg": numpy.linalg, "scipy.linalg": scipy.linalg}
    with tracing.patched(tracing.layer_wrappers(tracer, modules)):
        traced = sum(runner.one_pass(tracer.span))
    traced = hostspeed.rescale(traced, runner.reference_samples)
    metrics = tracing.layer_metrics(tracer, runner.artifact_bytes)
    metrics.update({"trace.run_s": traced, "trace.untraced_run_s": untraced,
                    "trace.overhead_frac": traced / untraced - 1.0})
    record["traced_pass_s"] = traced
    tracer.write(str(OUT / f"trace-{record['workload']}-seed{record['seed']}.csv.gz"))
    return metrics, tracing.units(metrics)


if __name__ == "__main__":
    sys.exit(main())
