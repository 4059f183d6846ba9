"""Self-test of the benchmark at tiny size (about half a minute).

    python3 perfbench/selftest.py

For each workload, shrunk to a handful of tasks, it checks that a timed and
a traced run print every metric BENCHMARK.json declares, with its unit, and
report no failures; that every per-layer name resolves to a recorded span
or count; and that feeding one deliberately wrong result into an oracle
makes ``failed_ratio`` positive.  Exits nonzero on the first problem.
"""

import contextlib
import io
import json
import sys

import run

run.import_program()
import tracing  # noqa: E402  (needs ontosim on the path)
import workloads  # noqa: E402
from ontosim import bellkit, fastslow, quantize  # noqa: E402

TINY = {
    "CC_POSITIONS": 8, "CC_CLI_POSITIONS": (3,),
    "ENS_PER_CLASS": 1, "ENS_HORIZON": 40, "ENS_BIG_RANGE": (2e3, 4e3), "ENS_CLI_EVERY": 6,
    "BELL_GRID": 3, "BELL_FACTORIZED": 2, "BELL_MC_SAMPLES": 40_000,
    "BELL_CLI_GRID": 2, "BELL_CLI_SAMPLES": 1000,
}


def fail(message: str) -> None:
    raise SystemExit(f"selftest: {message}")


def run_quiet(workload: str, trace: int) -> tuple[str, dict]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                         "--trace", str(trace)])
    if code != 0:
        fail(f"{workload} trace {trace} exited {code}")
    lines = out.getvalue().splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def corrupted(module, name, damage):
    original = getattr(module, name)

    @contextlib.contextmanager
    def patch():
        setattr(module, name, lambda *a, **k: damage(original(*a, **k)))
        try:
            yield
        finally:
            setattr(module, name, original)
    return patch()


def drop_first_point(model):
    return fastslow.OntologicalModel(model.slow_count, model.periods, model.special_points[1:])


WRONG = {
    "compile_compare": lambda: corrupted(quantize, "compile_target", drop_first_point),
    "ensemble": lambda: corrupted(fastslow, "run_ensemble", lambda freq: freq[::-1].copy()),
    "bell": lambda: corrupted(bellkit, "correlated_expectation", lambda e: e + 1e-3),
}


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in bench["workloads"]] != list(workloads.GENERATORS):
        fail("BENCHMARK.json workloads differ from workloads.GENERATORS")
    unknown = [m["name"] for m in bench["per_layer"] if not tracing.known_metric(m["name"])]
    if unknown:
        fail(f"per-layer metrics nothing records: {unknown}")
    for name, value in TINY.items():
        setattr(workloads, name, value)
    run.SETUP_PROBES = 1

    for workload in workloads.GENERATORS:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            text, result = run_quiet(workload, trace)
            if not result["correct"] or result["failed"]:
                fail(f"{workload} trace {trace} reported failures: {result}")
            for metric in declared:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    fail(f"{workload}: metric {metric['name']} missing or wrong unit: {got}")
                if f"{metric['name']} " not in text or f" {metric['unit']}" not in text:
                    fail(f"{workload}: {metric['name']} not printed with its unit")
            if "failed_ratio" not in text:
                fail(f"{workload}: failed_ratio not printed")
        with WRONG[workload]():
            text, result = run_quiet(workload, 0)
        if result["failed"] == 0 or result["correct"]:
            fail(f"{workload}: a wrong result passed its oracle")
        print(f"selftest: {workload} ok ({result['failed']} of {result['attempted']} "
              f"tasks caught with a wrong result)")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
