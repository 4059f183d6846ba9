"""Differential test: every stepping path against the per-point reference.

The library steps a batch with one firing test per coupled pair and counts
occupations by jumping each sample from one state change to the next; the
reference in ``conftest.reference_step`` ticks every step and tests every
special point on its own.  They must agree exactly on random machines
(including points of one pair that share a value on one clock, machines
without points and single-state machines), on horizons from 0 to several
joint clock periods, on compiled 2-state models, and on compiled 3- and
4-state chains from the compiler's shared-period path.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontosim import fastslow, ontodyn, quantize

from conftest import make_rng, random_model, reference_step, unflatten_config

HORIZON = 30
SAMPLES = 300
SEEDS = st.integers(0, 2 ** 32 - 1)


def reference_counts(model, slow: np.ndarray, phases: np.ndarray,
                     horizon: int = HORIZON) -> np.ndarray:
    counts = [np.bincount(slow, minlength=model.slow_count)]
    for _ in range(horizon):
        slow, phases = reference_step(model, slow, phases)
        counts.append(np.bincount(slow, minlength=model.slow_count))
    return np.array(counts)


def check_against_reference(model: fastslow.OntologicalModel, seed: int) -> None:
    n, p_total = model.slow_count, model.phase_space_size
    rows = fastslow._phase_rows(model.periods, np.arange(model.phase_space_size))

    slow, phases = reference_step(model, np.repeat(np.arange(n), p_total),
                                  np.tile(rows, (n, 1)))
    image = slow * p_total + phases @ fastslow.phase_strides(model.periods)
    assert np.array_equal(fastslow.step_map(model).image, image)

    rng = make_rng(seed)
    for flat in rng.integers(model.ontic_space_size, size=5):
        out = fastslow.step(model, unflatten_config(model, flat))
        assert fastslow.flat_config(model, out.slow, out.phases) == image[flat]

    check_counts(model, seed, HORIZON)


def check_counts(model: fastslow.OntologicalModel, seed: int, horizon: int) -> None:
    """``enumerate_exact`` and ``run_ensemble`` against the reference."""
    initial = seed % model.slow_count
    rows = fastslow._phase_rows(model.periods, np.arange(model.phase_space_size))
    exact = fastslow.enumerate_exact(model, initial, horizon)
    assert np.array_equal(
        exact.counts, reference_counts(model, np.full(len(rows), initial), rows, horizon))

    phases = fastslow.random_phases(model, SAMPLES, ontodyn.philox_rng(seed))
    expected = reference_counts(model, np.full(SAMPLES, initial), phases, horizon) / SAMPLES
    assert np.array_equal(fastslow.run_ensemble(model, initial, horizon, SAMPLES, seed),
                          expected)


def test_hand_built_shared_values():
    # (0, 1) points share value 2 on clock 0, (1, 2) points share 1 on clock 2
    points = [((0, 1), (2, 3)), ((0, 1), (2, 5)), ((1, 2), (4, 1)), ((1, 2), (0, 1)),
              ((0, 2), (5, 6))]
    model = fastslow.OntologicalModel(
        slow_count=3, periods=(7, 6, 8),
        special_points=tuple(fastslow.SpecialPoint(pair=p, trigger=t) for p, t in points))
    for seed in range(3):
        check_against_reference(model, seed)


@settings(max_examples=30, deadline=None)
@given(SEEDS)
@example(2020)  # (1, 3) points share value 0 on clock 3
def test_random_models(seed):
    model = random_model(make_rng(seed), min_slow=2, min_points=2, max_points=6)
    check_against_reference(model, seed)


@settings(max_examples=15, deadline=None)
@given(SEEDS)
def test_compiled_two_state(seed):
    mag = float(np.exp(make_rng(seed).uniform(np.log(1e-2), np.log(0.3))))
    target = np.array([[0.0, -1j * mag], [1j * mag, 0.0]])
    model = quantize.compile_target(target, 2e-3, 24)
    assert model.special_points
    check_against_reference(model, seed)


@settings(max_examples=10, deadline=None)
@given(SEEDS)
def test_compiled_three_state_chain(seed):
    m01, m12 = make_rng(seed).uniform(0.02, 0.25, size=2)
    target = np.zeros((3, 3), dtype=complex)
    target[0, 1], target[1, 2] = -1j * m01, -1j * m12
    target -= target.T
    model = quantize.compile_target(target, 1e-2, 12)
    assert {sp.pair for sp in model.special_points} == {(0, 1), (1, 2)}
    check_against_reference(model, seed)


def joint_periods(model: fastslow.OntologicalModel) -> list[int]:
    return [math.lcm(model.periods[a], model.periods[b])
            for a, b in {sp.pair for sp in model.special_points}]


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.sampled_from([0, 1, 2, 61, 97]))
def test_horizons_around_joint_periods(seed, horizon):
    model = random_model(make_rng(seed), min_slow=2, max_period=6, min_points=1,
                         max_points=6)
    if horizon > 2:  # periods <= 6, so every orbit (lcm <= 30) wraps twice
        assert horizon > 2 * max(joint_periods(model))
    check_counts(model, seed, horizon)


@settings(max_examples=10, deadline=None)
@given(SEEDS, st.integers(0, 40))
def test_machines_without_points(seed, horizon):
    model = random_model(make_rng(seed), max_points=0)
    assert not model.special_points
    check_counts(model, seed, horizon)


@settings(max_examples=10, deadline=None)
@given(SEEDS, st.integers(0, 40))
def test_single_slow_state(seed, horizon):
    model = random_model(make_rng(seed), min_slow=1, max_slow=1)
    assert model.slow_count == 1
    check_counts(model, seed, horizon)


@settings(max_examples=15, deadline=None)
@given(SEEDS, st.integers(0, 60))
def test_points_sharing_clock_values(seed, horizon):
    # two or more points per pair on few clock values force shared values
    model = random_model(make_rng(seed), min_slow=2, max_slow=3, max_period=4,
                         min_points=4, max_points=8)
    check_counts(model, seed, horizon)


@settings(max_examples=8, deadline=None)
@given(SEEDS)
def test_compiled_four_state_chain(seed):
    mags = make_rng(seed).uniform(0.02, 0.3, size=3)
    target = np.zeros((4, 4), dtype=complex)
    for a, mag in enumerate(mags):
        target[a, a + 1] = -1j * mag
    target -= target.T
    model = quantize.compile_target(target, 2e-2, 8)
    assert {sp.pair for sp in model.special_points} == {(0, 1), (1, 2), (2, 3)}
    check_against_reference(model, seed)
