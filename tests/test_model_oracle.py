"""Oracles for the special-point table: the array validator against the
per-point loop it replaced, and the model JSON template against
``json.dumps(..., indent=2)``.

Every route into a model (SpecialPoint objects, an integer table, a parsed
document) must accept exactly the point lists the loop accepts, and refuse
the others with the loop's exception class and message.
"""

import json
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosim import fastslow

from conftest import reference_validate_model

RARELY = st.sampled_from([False] * 29 + [True])
# values outside int64, or just inside it; with -1 and the first value past
# the valid ones, the odd values
BEYOND = [10 ** 23, -10 ** 23, 2 ** 63, -2 ** 63 - 1, 2 ** 63 - 1]


@st.composite
def point_lists(draw):
    """(slow count, periods, rows (a, b, trigger_a, trigger_b)).  About one
    value in 30 is odd (:data:`BEYOND`, -1, or the first value past the valid
    ones) and one pair in 30 names a state twice;
    repeats, reversed repeats and rows that share a slot of an
    earlier row from another pair are mixed in."""
    n = draw(st.sampled_from([3, 4, 2, 1]))
    periods = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))

    def pick(valid, end):
        return draw(st.sampled_from([-1, end, *BEYOND])) if draw(RARELY) else draw(valid)

    def trigger(state):
        end = periods[state] if 0 <= state < n else 4
        return pick(st.integers(0, end - 1), end)

    def other(state):
        if n == 1 or draw(RARELY) or not 0 <= state < n:
            return pick(st.integers(0, n - 1), n)
        return pick(st.integers(0, n - 2).map(lambda s: s + (s >= state)), n)

    rows = []
    for _ in range(draw(st.integers(0, 6))):
        a = pick(st.integers(0, n - 1), n)
        b = other(a)
        rows.append((a, b, trigger(a), trigger(b)))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b, p, q = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["repeat", "reversed", "clash"]))
        if kind == "repeat":
            row = (a, b, p, q)
        elif kind == "reversed":
            row = (b, a, q, p)
        else:
            c = other(a)
            row = (a, c, p, trigger(c))
        rows.insert(draw(st.integers(0, len(rows))), row)
    return n, periods, rows


def outcome(build):
    """``("ok", result)``, or the class and message of what ``build`` raised."""
    try:
        return "ok", build()
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(point_lists())
def test_the_array_validator_refuses_as_the_loop_does(case):
    n, periods, rows = case

    def points():
        return tuple(fastslow.SpecialPoint(pair=(a, b), trigger=(p, q)) for a, b, p, q in rows)

    expected = outcome(lambda: reference_validate_model(
        SimpleNamespace(slow_count=n, periods=tuple(periods), special_points=points())))
    doc = {"slow_count": n, "periods": periods,
           "special_points": [{"pair": [a, b], "trigger": [p, q]} for a, b, p, q in rows]}
    routes = {
        "points": lambda: fastslow.OntologicalModel(n, periods, points()),
        "document": lambda: fastslow.model_from_doc(doc),
    }
    if all(-2 ** 63 <= v < 2 ** 63 for row in rows for v in row):
        routes["table"] = lambda: fastslow.OntologicalModel(
            n, periods, np.array(rows, dtype=np.int64).reshape(-1, 4))
    for route, build in routes.items():
        got = outcome(build)
        if expected[0] == "ok":
            assert got[0] == "ok", (route, got)
            model = got[1]
            assert model.special_points == points(), route
            assert model.points.dtype == np.int64 and not model.points.flags.writeable
        else:
            assert got == expected, route


def dumped(model) -> str:
    """The model document as ``json.dumps(..., indent=2)`` writes it."""
    return json.dumps({
        "slow_count": model.slow_count,
        "periods": list(model.periods),
        "special_points": [
            {"pair": list(sp.pair), "trigger": list(sp.trigger)}
            for sp in model.special_points],
    }, indent=2)


@st.composite
def models(draw):
    """Valid models: one to four states, clocks of period 1, small, or just
    below 2**63 (triggers near 2**62 and above), and points in any order,
    each pair written either way round."""
    n = draw(st.integers(1, 4))
    periods = draw(st.lists(st.integers(1, 6) | st.integers(2 ** 62, 2 ** 63 - 1),
                            min_size=n, max_size=n))
    kept = []
    for _ in range(draw(st.integers(0, 8)) if n > 1 else 0):
        a, b = draw(st.permutations(range(n)))[:2]
        p = periods[a] - 1 - draw(st.integers(0, min(periods[a], 4) - 1))
        q = draw(st.integers(0, periods[b] - 1))
        candidate = kept + [fastslow.SpecialPoint(pair=(a, b), trigger=(p, q))]
        try:
            reference_validate_model(SimpleNamespace(slow_count=n, periods=tuple(periods),
                                                     special_points=tuple(candidate)))
        except fastslow.ModelValidationError:
            continue
        kept = candidate
    rows = [sp.pair + sp.trigger if draw(st.booleans()) else sp.pair[::-1] + sp.trigger[::-1]
            for sp in kept]
    return fastslow.OntologicalModel(n, periods, np.array(rows, dtype=np.int64).reshape(-1, 4))


@settings(max_examples=300, deadline=None)
@given(models())
def test_model_json_is_byte_identical_to_json_dumps(model):
    text = fastslow.model_to_json(model)
    assert text == dumped(model)
    again = fastslow.model_from_json(text)
    assert again == model and again.special_points == model.special_points

