"""Differential test: bellkit's panel quadrature against scipy's ``quad``.

``conftest.reference_quad`` integrates the same integrands adaptively, with
kink points worked out here from the closed forms rather than by bellkit.
Every integral must agree to 1e-10, also at settings far outside [0, pi).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontosim import bellkit

from conftest import make_rng, random_factorized_model, reference_quad

AGREE = 1e-10
angles = st.floats(-1e4, 1e4)


def progression(phase, spacing, end=math.pi):
    """phase + k * spacing reduced mod end, for end a multiple of spacing."""
    return [(phase + k * spacing) % end for k in range(round(end / spacing))]


def outcome_kinks(setting):
    return progression(setting + math.pi / 4, math.pi / 2)


def reference_factorized(model, a, b, kinks):
    def joint(x, y):
        return reference_quad(
            lambda lam: model.density(lam) * model.p_alice(x, lam) * model.p_bob(y, lam),
            kinks(x) + kinks(y))
    ac, bc = (a + math.pi / 2) % math.pi, (b + math.pi / 2) % math.pi
    return joint(a, b) + joint(ac, bc) - joint(a, bc) - joint(ac, b)


@settings(max_examples=150, deadline=None)
@given(angles, angles)
@example(0.0, 0.0)
@example(0.0, math.pi / 2)
@example(math.pi / 8, 3 * math.pi / 8)
@example(-1e4, 1e4)
def test_correlated_expectation(a, b):
    got = bellkit.correlated_expectation(a, b)
    want = reference_quad(
        lambda lam: bellkit.conditional_density(lam, a, b)
        * bellkit.outcome_sign(a, lam) * bellkit.outcome_sign(b, lam),
        progression((a + b) / 2, math.pi / 4) + outcome_kinks(a) + outcome_kinks(b))
    assert abs(got - want) <= AGREE


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), angles, angles)
def test_factorized_correlation_random_model(seed, a, b):
    model = random_factorized_model(make_rng(seed))
    got = bellkit.factorized_correlation(model, a, b)
    assert abs(got - reference_factorized(model, a, b, lambda s: [])) <= AGREE


@settings(max_examples=40, deadline=None)
@given(angles, angles)
@example(0.0, math.pi / 4)
def test_factorized_correlation_malus_model(a, b):
    model = bellkit.malus_deterministic_model()
    got = bellkit.factorized_correlation(model, a, b)
    assert abs(got - reference_factorized(model, a, b, outcome_kinks)) <= AGREE


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["lambda", "a", "b"]), angles, angles)
def test_marginal_integrands(which, u, v):
    density = bellkit.NORMALIZATION
    if which == "lambda":
        want = reference_quad(lambda lam: density * abs(math.sin(2 * (u + v - 2 * lam))),
                              progression((u + v) / 2, math.pi / 4))
    elif which == "a":
        want = reference_quad(lambda x: density * abs(math.sin(2 * (x + u - 2 * v))),
                              progression(2 * v - u, math.pi / 2))
    else:
        want = reference_quad(lambda x: density * abs(math.sin(2 * (u + x - 2 * v))),
                              progression(2 * v - u, math.pi / 2))
    assert abs(bellkit._marginal(which, u, v) - want) <= AGREE
    assert abs(want - 1.0) <= AGREE


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([math.pi, 2 * math.pi]), angles, angles)
def test_normalization_constant(end, a, b):
    want = reference_quad(lambda lam: abs(math.sin(2 * (a + b - 2 * lam))),
                          progression((a + b) / 2, math.pi / 4, end), end)
    assert abs(1.0 / bellkit.normalization_constant(end, a, b) - want) <= AGREE


def test_high_frequency_density_bisects_and_converges():
    calls = []

    def density(lam):
        calls.append(lam)
        return (1.0 + 0.9 * np.cos(80.0 * lam)) / math.pi

    def response(setting, lam):
        return 0.5 + 0.4 * np.cos(2.0 * (lam - setting))

    model = bellkit.FactorizedModel(density=density, p_alice=response, p_bob=response)
    got = bellkit.factorized_correlation(model, 0.3, 1.2)
    # five integrals (the normalization and four detections), each bisected at least once
    assert len(calls) >= 10
    assert abs(got - reference_factorized(model, 0.3, 1.2, lambda s: [])) <= AGREE


def _nan_density_correlation():
    model = bellkit.FactorizedModel(
        density=lambda lam: np.where(lam < 2.0, 1.0 / math.pi, np.nan),
        p_alice=lambda s, lam: np.full_like(lam, 0.5),
        p_bob=lambda s, lam: np.full_like(lam, 0.5))
    return bellkit.factorized_correlation(model, 0.0, 0.0)


def _infinite_setting_expectation():
    with np.errstate(invalid="ignore"):
        return bellkit.correlated_expectation(math.inf, 0.0)


@pytest.mark.parametrize("evaluate", [
    _nan_density_correlation,
    _infinite_setting_expectation,
    # needs about 4000 panels; a frequency that is a whole number of cycles
    # per panel would be sampled in phase and could pass the estimate
    lambda: bellkit._integrate(lambda lam: np.cos(12345.678 * lam), ()),
], ids=["nan_density", "infinite_setting", "unresolved_oscillation"])
def test_unresolved_integral_raises(evaluate):
    with pytest.raises(bellkit.QuadratureError):
        evaluate()
