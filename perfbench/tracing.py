"""Spans around the calls into each ontosim layer, recorded from outside.

:class:`Tracer` replaces public functions by module attribute, so calls
between and within layers (which resolve through module globals) nest:
``compare_dynamics`` -> ``enumerate_exact``, ``koopman_step_operator`` ->
``step_tables``.  Per-quadrature-node and per-element helpers
(``outcome_sign``, ``conditional_density``, ``quantum_correlation``,
``normalize_angle``, ``phase_strides``) are deliberately not wrapped: they
run millions of times and a span each would swamp what it measures.

Spans stay in memory as ``[name, start, end, parent, task, counts, error]``
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from ontosim import bellkit, cli, fastslow, ontodyn, quantize


def _horizon(args, kwargs):
    return int(args[2] if len(args) > 2 else kwargs["horizon"])


def _points(args, kwargs, out):
    return len(out.special_points)


def _bytes_out(args, kwargs, code) -> int:
    """Size of what a CLI command wrote to its ``--output`` file or directory."""
    argv = args[0]
    if "--output" not in argv:
        return 0
    path = Path(argv[argv.index("--output") + 1])
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())
    return path.stat().st_size if path.exists() else 0


# module -> {public function: {work count: f(args, kwargs, result)}}
SPANNED = {
    ontodyn: {
        "decompose": {"states": lambda a, k, out: a[0].size},
    },
    fastslow: {
        "model_from_json": {"points": _points},
        "model_to_json": {},
        "step_tables": {},
        "step_map": {},
        "check_bijectivity": {},
        "enumerate_exact": {"state_steps": lambda a, k, out: out.total * _horizon(a, k)},
        "run_ensemble": {"sample_steps": lambda a, k, out: int(
            a[3] if len(a) > 3 else k["sample_count"]) * _horizon(a, k)},
        "write_ensemble_csv": {},
    },
    quantize: {
        "compile_target": {"points": _points},
        "build_interchange": {"nnz": lambda a, k, out: int(out.matrix.nnz)},
        "ground_project": {},
        "koopman_step_operator": {},
        "apply_koopman_step": {},
        "compare_dynamics": {
            "state_steps": lambda a, k, out: a[0].ontic_space_size * _horizon(a, k)},
        "write_comparison_csv": {},
    },
    bellkit: {
        "correlated_expectation": {},
        "factorized_correlation": {},
        "detection_probability": {},
        "chsh_score": {},
        "marginal_flatness": {},
        "mc_chsh": {"samples": lambda a, k, out: 4 * int(
            k["samples_per_setting"] if "samples_per_setting" in k else a[4])},
        "sample_triples": {},
        "write_correlation_grid_csv": {},
        "write_samples_csv": {"rows": lambda a, k, out: int(a[0].a.size)},
    },
}
CLI_COUNTS = {"bytes_out": _bytes_out,
              "nonzero_exits": lambda a, k, code: int(code != 0)}
LAYERS = ("ontodyn", "fastslow", "quantize", "bellkit", "cli")
# Computed by the runner from the traced and untraced passes, not from spans.
RUN_METRICS = ("trace.overhead_ratio", "trace.coverage")


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Records spans while installed; :meth:`remove` restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self.task: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _span(self, name, original, counters):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            sid = len(self.spans)
            record = [label, 0.0, 0.0, self._stack[-1] if self._stack else None,
                      self.task, {}, False]
            self.spans.append(record)
            self._stack.append(sid)
            record[1] = perf_counter()
            try:
                out = original(*args, **kwargs)
            except BaseException:
                record[6] = True
                raise
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            record[5] = {key: f(args, kwargs, out) for key, f in counters.items()}
            return out
        return wrapper

    def install(self) -> None:
        for module, functions in SPANNED.items():
            for fname, counters in functions.items():
                self._patch(module, fname, f"{_layer(module)}.{fname}", counters)
        self._patch(cli, "main", lambda args: f"cli.{args[0][0]}", CLI_COUNTS)

    def _patch(self, module, fname, name, counters) -> None:
        original = getattr(module, fname)
        self._originals.append((module, fname, original))
        setattr(module, fname, self._span(name, original, counters))

    def remove(self) -> None:
        for module, fname, original in reversed(self._originals):
            setattr(module, fname, original)
        self._originals.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "task", "counts", "error")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive and self seconds, summed counts,
        errors; plus ``covered`` seconds of top-level spans inside tasks."""
        child_time = defaultdict(float)
        for name, start, end, parent, task, counts, error in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        stats: dict = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0,
                                           "errors": 0, "counts": defaultdict(int)})
        covered = 0.0
        for sid, (name, start, end, parent, task, counts, error) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child_time[sid]
            entry["errors"] += int(error)
            for key, value in counts.items():
                entry["counts"][key] += value
            if parent is None and task is not None:
                covered += end - start
        return {"spans": stats, "covered": covered}


def layer_metric(name: str, agg: dict) -> float:
    """Value of one per-layer metric name, computed from :meth:`Tracer.aggregate`.

    ``<layer>.<function>.s`` is self time, ``.calls`` the span count,
    ``.<count>`` a summed work count and ``.<count>_per_s`` that count over
    inclusive span time; ``<layer>.errors`` counts spans that raised and
    ``cli.nonzero_exits`` CLI calls that returned nonzero.
    """
    spans = agg["spans"]
    layer, _, rest = name.partition(".")
    if rest == "errors":
        return sum(e["errors"] for n, e in spans.items() if n.startswith(layer + "."))
    if name == "cli.nonzero_exits":
        return sum(e["counts"]["nonzero_exits"] for n, e in spans.items()
                   if n.startswith("cli."))
    span, _, field = name.rpartition(".")
    entry = spans.get(span)
    if entry is None:
        return 0
    if field == "s":
        return entry["self"]
    if field == "calls":
        return entry["calls"]
    if field.endswith("_per_s"):
        work = field.removesuffix("_per_s")
        done = entry["calls"] if work == "calls" else entry["counts"][work]
        return done / entry["total"] if entry["total"] else 0.0
    return entry["counts"][field]


def known_metric(name: str) -> bool:
    """Whether ``name`` resolves to something :class:`Tracer` records."""
    layer, _, rest = name.partition(".")
    if name in RUN_METRICS or name == "cli.nonzero_exits":
        return True
    if layer in LAYERS and rest == "errors":
        return True
    span, _, field = name.rpartition(".")
    layer, _, fname = span.partition(".")
    if layer == "cli":
        counters = CLI_COUNTS
    else:
        functions = {_layer(m): fns for m, fns in SPANNED.items()}.get(layer, {})
        if fname not in functions:
            return False
        counters = functions[fname]
    return field in ("s", "calls", "calls_per_s") or field.removesuffix("_per_s") in counters
