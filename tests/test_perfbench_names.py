"""The traced benchmark wraps library functions by name; keep those names alive."""

import importlib.util
import io
from pathlib import Path

import numpy as np

from ontosim import bellkit, fastslow, quantize

from conftest import two_state_model

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_spanned_function_exists():
    tracing = load_tracing()
    missing = [f"{module.__name__}.{name}"
               for module, functions in tracing.SPANNED.items()
               for name in functions if not callable(getattr(module, name, None))]
    assert missing == []


def test_table_writers_record_their_spans():
    comparison = quantize.compare_dynamics(two_state_model(5, 4), 0, 3)
    samples = bellkit.sample_triples(7, 1)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        fastslow.write_ensemble_csv(np.array([[1.0, 0.0], [0.5, 0.5]]), io.StringIO())
        quantize.write_comparison_csv(comparison, io.StringIO())
        bellkit.write_correlation_grid_csv(2, io.StringIO())
        bellkit.write_samples_csv(samples, io.StringIO())
    finally:
        tracer.remove()
    spans = {span[0]: span for span in tracer.spans}
    for name in ("fastslow.write_ensemble_csv", "quantize.write_comparison_csv",
                 "bellkit.write_correlation_grid_csv", "bellkit.write_samples_csv"):
        assert name in spans and spans[name][6] is False and spans[name][2] >= spans[name][1]
    assert spans["bellkit.write_samples_csv"][5] == {"rows": 7}
    # the grid's cells nest under its span, one correlated_expectation each
    grid = tracer.spans.index(spans["bellkit.write_correlation_grid_csv"])
    assert [span[3] for span in tracer.spans
            if span[0] == "bellkit.correlated_expectation"] == [grid] * 4
