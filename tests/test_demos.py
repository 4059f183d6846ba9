"""Every script under ``demos/`` runs to completion against the library in
``src``, and README's Quick tour gives the results its comments state, so an
API change that breaks either fails here."""

import ast
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "src/ontosim/" not in proc.stderr  # warnings name the input, not library code


def test_readme_quick_tour(monkeypatch):
    # each expression statement of the tour's python block is one stated result
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for node in ast.parse(tour).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert Path(namespace["ontodyn"].__file__).parent == ROOT / "src" / "ontosim"
    ranks, fractions, coupling, max_classical_quantum, score = values
    assert ranks == (2, 3, 6, 8, 11)
    assert np.array_equal(fractions[:, 1], np.arange(71) / 70)
    assert np.array_equal(fractions[:, 0], np.arange(70, -1, -1) / 70)
    assert coupling == Fraction(1, 70)
    assert max_classical_quantum <= 1e-10
    assert abs(score - 2 * math.sqrt(2)) <= 1e-9
