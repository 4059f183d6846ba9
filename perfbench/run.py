"""ontosim benchmark: one seeded workload, run closed-loop by a single client.

    python3 perfbench/run.py --workload compile_compare --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  The task list is generated from ``--seed`` before timing starts,
then run as passes (the next task starts when the previous one returns)
until ``--seconds`` would be exceeded, with at least one pass.  Every
task's output is checked against an oracle.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``setup_s``
is the median over fresh interpreters of the time from process start to the
end of the warm-up.  ``--trace 1`` runs one untraced and one traced pass of
the same tasks, checks that every task's output digest agrees between them,
writes the spans to ``.bench_out/`` and reports the per-layer metrics.

Human-readable lines come first on stdout; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Temporary files live in
``.bench_tmp/`` under the checkout and are removed before exit.
"""

import os

# Single client, single thread: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import json
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7


def import_program():
    """Import ontosim from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ontosim
    if Path(ontosim.__file__).resolve().parent.parent != src:
        raise SystemExit(f"ontosim imported from {ontosim.__file__}, not from {src}")
    warnings.simplefilter("ignore", ontosim.FastPeriodWarning)
    return ontosim


@dataclass
class Pass:
    latencies: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    failed: int = 0

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(tasks, tracer=None) -> Pass:
    """Run every task once, in order; a failure is a raise or a failed oracle."""
    gc.collect()  # start each pass from the same heap, not the last pass's garbage
    result = Pass()
    for index, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = index
        error = digest = None
        start = perf_counter()
        try:
            out = task.job()
        except Exception:
            error = traceback.format_exc()
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.task = None
        if error is None:
            try:
                if not task.check(out):
                    error = "oracle rejected the output\n"
                digest = hashlib.sha256(pickle.dumps(task.summary(out))).hexdigest()
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            result.failed += 1
            print(f"task {index} ({task.kind}) failed: {error}", file=sys.stderr, end="")
        result.latencies.append(elapsed)
        result.digests.append(digest)
    return result


def probe_setup(workload: str) -> None:
    """Body of one fresh setup interpreter: import, warm up, report ready."""
    import_program()
    import workloads
    workdir = ROOT / ".bench_tmp" / f"probe-{os.getpid()}"
    try:
        workloads.warm_up(workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ready", flush=True)


def measure_setup(workload: str) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its warm-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", workload],
                stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            samples.append(perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line != "ready":
            raise SystemExit(f"setup probe failed (exit {proc.returncode}, said {line!r})")
    return samples


def environment() -> str:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"threads={os.environ['OMP_NUM_THREADS']}")


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_run(tasks, workload: str, seconds: float):
    start = perf_counter()
    passes = [run_pass(tasks)]
    # Peak memory of running the task list once; later passes only repeat it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while perf_counter() - start + passes[-1].wall <= seconds:
        passes.append(run_pass(tasks))
    setup = measure_setup(workload)
    latencies = [t for p in passes for t in p.latencies]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "task_s.p50": statistics.median(latencies),
        "task_s.p90": percentile_90(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [f"{len(passes)} pass(es) of {len(tasks)} tasks; setup samples "
             + " ".join(f"{s:.3f}" for s in setup)]
    return passes, values, notes


def traced_run(tasks, workload: str, seed: int, layer_names):
    import tracing
    untraced = run_pass(tasks)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(tasks, tracer)
    finally:
        tracer.remove()
    tracer.write(ROOT / ".bench_out" / f"spans-{workload}-{seed}.json")
    agg = tracer.aggregate()
    values = {}
    for name in layer_names:
        if name == "trace.overhead_ratio":
            values[name] = (traced.wall - untraced.wall) / untraced.wall
        elif name == "trace.coverage":
            values[name] = agg["covered"] / traced.wall
        else:
            values[name] = tracing.layer_metric(name, agg)
    notes = [f"untraced wall {untraced.wall:.3f} s, traced wall {traced.wall:.3f} s, "
             f"{len(tracer.spans)} spans"]
    return [untraced, traced], values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        probe_setup(args.workload)
        return 0
    if args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--seed, --seconds and --trace are required")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_program()
    import workloads
    if args.workload not in workloads.GENERATORS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.GENERATORS)}")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    workdir = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tasks = workloads.GENERATORS[args.workload](args.seed, workdir)
        workloads.warm_up(args.workload, workdir)
        if args.trace:
            passes, values, notes = traced_run(tasks, args.workload, args.seed, list(units))
        else:
            passes, values, notes = timed_run(tasks, args.workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    mismatched = sum(a != b for p in passes[1:]
                     for a, b in zip(passes[0].digests, p.digests))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {environment()}")
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:44s} {values[name]!r:>24} {unit}")
    print(f"  {'failed_ratio':44s} {failed / attempted!r:>24} 1 ({failed}/{attempted})")
    print(f"  {'digest_mismatches':44s} {mismatched!r:>24} count")
    print(json.dumps({
        "correct": failed == 0 and mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
