"""Cross-references in the library's docstrings and in README name live
attributes, so a deletion or rename that leaves one stale fails here."""

import importlib
import re
from pathlib import Path

import pytest

import ontosim

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ontosim").glob("*.py"))
MODULES = {path.stem: importlib.import_module(f"ontosim.{path.stem}")
           for path in SOURCES if path.stem != "__init__"}
# :func:`name` and its kin, read from the module that holds them
ROLE = re.compile(r":(?:func|class|data|attr|meth):`([\w.]+)`")
# `module.name` or ``module.name``, for a module of the package
QUALIFIED = re.compile(r"``?((?:ontosim|%s)(?:\.\w+)+)``?" % "|".join(MODULES))


def resolves(path: str, scope) -> bool:
    """Whether the dotted ``path`` names an attribute, its first part looked
    up in ``scope``, else as the package or one of its modules.  A dataclass
    or named-tuple field counts as its class's attribute."""
    head, *rest = path.split(".")
    obj = ontosim if head == "ontosim" else getattr(scope, head, MODULES.get(head))
    for i, part in enumerate(rest):
        if obj is None:
            return False
        if not hasattr(obj, part):
            fields = {*getattr(obj, "__dataclass_fields__", ()), *getattr(obj, "_fields", ())}
            return part in fields and i == len(rest) - 1
        obj = getattr(obj, part)
    return obj is not None


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_docstring_references_resolve(source):
    scope = ontosim if source.stem == "__init__" else MODULES[source.stem]
    text = source.read_text(encoding="utf-8")
    paths = set(ROLE.findall(text)) | set(QUALIFIED.findall(text))
    assert sorted(p for p in paths if not resolves(p, scope)) == []


def test_readme_references_resolve():
    paths = set(QUALIFIED.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    assert len(paths) > 20
    assert sorted(p for p in paths if not resolves(p, ontosim)) == []


def test_a_stale_reference_is_caught():
    fastslow = MODULES["fastslow"]
    assert resolves("_orbit_position", fastslow)
    assert resolves("ontodyn.Cycles", fastslow)
    assert resolves("ExactOccupation.counts", fastslow)  # a dataclass field
    assert resolves("ClassicalConfig.slow", fastslow)  # a named-tuple field
    assert resolves("ontosim.fastslow.flat_config", fastslow)
    for stale in ("_all_phase_rows", "phase_space_size", "ontodyn.cycles",
                  "ExactOccupation.counts.sum", "quantize.nothing", "nothing.at_all"):
        assert not resolves(stale, fastslow), stale
