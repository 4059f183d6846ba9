"""The traced benchmark wraps library functions by name; keep those names alive."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_spanned_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{name}"
               for module, functions in tracing.SPANNED.items()
               for name in functions if not callable(getattr(module, name, None))]
    assert missing == []
