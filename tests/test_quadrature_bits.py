"""Bit-identity oracle for bellkit's integrals.

The correlated model's expectation, its marginals and its normalization are
sums of closed-form arches; each must equal, bit for bit, the plain arch sum
below (numpy edges through ``np.unique``, one panel at a time, both outcome
signs multiplied in) and agree with the panel quadrature to 1e-13.  The
factorized models keep the quadrature: the reference is the quadrature as it
was before its dispatch was cut (numpy edges, a numpy ``_zeros``, a loop that
always runs to an empty partition), and the lean code must return the same
float, bit for bit.  A factorized correlation is one such quadrature of
rho * dA * dB; the four detection quadratures it replaces stay as its oracle.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontosim import bellkit
from ontosim.bellkit import (_NODES, _WEIGHTS_24, _WEIGHTS_48, QuadratureError,
                             complementary, conditional_density, outcome_sign)

from conftest import make_rng, random_factorized_model

angles = st.floats(-1e4, 1e4)
settings_on_kinks = [
    (0.0, 0.0),
    (0.7, 0.7),
    (1e4, 1e4),
    (math.pi / 4, 0.0),  # a + pi/4 lands on the base edge pi/2
    (-math.pi / 4, math.pi / 4),  # a kink at 0 and one at pi/2
    (0.0, math.pi / 2),  # the three progressions share points
    (math.pi / 8, 3 * math.pi / 8),
    (math.pi - 1e-16, 0.3),
    (math.nextafter(math.pi, 0.0), 0.3),
    (1.0, -2.22e-16),  # b + pi/4 lands 2 ulps above the edge pi/4: a 2-ulp panel
]


def ref_zeros(phase, spacing, end=math.pi):
    points = np.remainder(phase, spacing) + spacing * np.arange(math.ceil(end / spacing))
    return points[points < end]


def ref_integrate(f, kinks, end=math.pi):
    edges = np.unique(np.r_[np.linspace(0.0, end, 5), np.clip(kinks, 0.0, end)])
    lo, hi = edges[:-1], edges[1:]
    total, done = 0.0, 0
    while lo.size:
        if done + lo.size > 200:
            raise QuadratureError("integral not resolved to 1e-9 within 200 panels")
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        y = np.broadcast_to(f(mid[:, None] + half[:, None] * _NODES), (lo.size, _NODES.size))
        coarse = half * (y[:, :24] @ _WEIGHTS_24)
        fine = half * (y[:, 24:] @ _WEIGHTS_48)
        split = ~(np.abs(fine - coarse) <= 1e-9 * (hi - lo) / end)
        total += fine[~split].sum()
        done += lo.size - int(split.sum())
        lo, hi = np.r_[lo[split], mid[split]], np.r_[mid[split], hi[split]]
    return float(total)


def correlated_kinks(a, b):
    return np.concatenate([ref_zeros((a + b) / 2.0, math.pi / 4),
                           ref_zeros(a + math.pi / 4, math.pi / 2),
                           ref_zeros(b + math.pi / 4, math.pi / 2)])


def correlated_integrand(a, b):
    return lambda lam: conditional_density(lam, a, b) * outcome_sign(a, lam) * outcome_sign(b, lam)


def ref_correlated_expectation(a, b):
    return ref_integrate(correlated_integrand(a, b), correlated_kinks(a, b))


def ref_arches(theta, rate, kinks, end=math.pi, settings=None):
    """Integral over [0, end) of |sin(theta - rate x)|, times both outcome signs
    at ``settings``: one signed difference of cosines per panel."""
    edges = np.unique(np.r_[0.0, end, kinks]).tolist()
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = (lo + hi) / 2.0
        sign = math.copysign(1.0, math.sin(theta - rate * mid))
        for setting in settings or ():
            sign *= 1.0 if math.cos(2.0 * (mid - setting)) >= 0.0 else -1.0
        total += sign * (math.cos(theta - rate * hi) - math.cos(theta - rate * lo))
    return total / rate


def arch_correlated_expectation(a, b):
    return bellkit.NORMALIZATION * ref_arches(2.0 * (a + b), 4.0, correlated_kinks(a, b),
                                              settings=(a, b))


def arch_marginal(which, u, v):
    if which == "lambda":
        return bellkit.NORMALIZATION * ref_arches(2.0 * (u + v), 4.0,
                                                  ref_zeros((u + v) / 2.0, math.pi / 4))
    return bellkit.NORMALIZATION * ref_arches(4.0 * v - 2.0 * u, 2.0,
                                              ref_zeros(2.0 * v - u, math.pi / 2))


def arch_normalization_constant(end, a, b):
    return 1.0 / ref_arches(2.0 * (a + b), 4.0, ref_zeros((a + b) / 2.0, math.pi / 4, end), end)


def quadrature_gap(a, b):
    """How far an arch sum may sit from the quadrature: 1e-13 on [0, pi)^2,
    growing with the settings' size beyond it."""
    if 0.0 <= a < math.pi and 0.0 <= b < math.pi:
        return 1e-13
    return 1e-13 * max(1.0, abs(a) + abs(b))


def ref_detection_probability(model, a, b):
    kinks = np.concatenate([model.kinks(a), model.kinks(b)]) if model.kinks else ()
    return ref_integrate(
        lambda lam: model.density(lam) * model.p_alice(a, lam) * model.p_bob(b, lam), kinks)


def ref_factorized_correlation(model, a, b):
    assert abs(ref_integrate(model.density, ()) - 1.0) <= 1e-8
    ac, bc = float(complementary(a)), float(complementary(b))
    return (ref_detection_probability(model, a, b)
            + ref_detection_probability(model, ac, bc)
            - ref_detection_probability(model, a, bc)
            - ref_detection_probability(model, ac, b))


def ref_product_correlation(model, a, b):
    """The factorized correlation as one quadrature of rho * dA * dB, with
    dA = p_A(a) - p_A(a~) and dB = p_B(b) - p_B(b~), over the four settings' kinks."""
    assert abs(ref_integrate(model.density, ()) - 1.0) <= 1e-8
    ac, bc = float(complementary(a)), float(complementary(b))
    kinks = np.concatenate([model.kinks(s) for s in (a, ac, b, bc)]) if model.kinks else ()
    return ref_integrate(lambda lam: model.density(lam)
                         * (model.p_alice(a, lam) - model.p_alice(ac, lam))
                         * (model.p_bob(b, lam) - model.p_bob(bc, lam)), kinks)


def ref_marginal(which, u, v):
    if which == "lambda":
        return ref_integrate(lambda lam: conditional_density(lam, u, v),
                             ref_zeros((u + v) / 2.0, math.pi / 4))
    return ref_integrate(lambda x: conditional_density(v, x, u),
                         ref_zeros(2.0 * v - u, math.pi / 2))


def ref_normalization_constant(end, a, b):
    raw = lambda lam: np.abs(np.sin(2.0 * (a + b - 2.0 * lam)))
    return 1.0 / ref_integrate(raw, ref_zeros((a + b) / 2.0, math.pi / 4, end), end)


def reference_malus_model():
    model = bellkit.malus_deterministic_model()
    return bellkit.FactorizedModel(model.density, model.p_alice, model.p_bob,
                                   kinks=lambda s: ref_zeros(s + math.pi / 4, math.pi / 2))


def same_bits(got, want) -> bool:
    return float(got).hex() == float(want).hex()


def with_examples(test):
    for a, b in settings_on_kinks:
        test = example(a, b)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(angles, st.sampled_from([math.pi / 4, math.pi / 2]), st.sampled_from([math.pi, 2 * math.pi]))
@example(0.0, math.pi / 4, math.pi)
@example(-0.0, math.pi / 2, math.pi)
@example(-math.pi / 4, math.pi / 4, 2 * math.pi)
@example(math.pi - 1e-16, math.pi / 2, math.pi)
@example(-1e-300, math.pi / 2, math.pi)  # rounds up to the spacing itself
@example(math.inf, math.pi / 4, math.pi)
@example(math.nan, math.pi / 2, math.pi)
def test_zeros(phase, spacing, end):
    with np.errstate(invalid="ignore"):  # numpy's remainder of inf or nan
        want = ref_zeros(phase, spacing, end)
    got = bellkit._zeros(phase, spacing, end)
    assert type(got) is list and len(got) == want.size
    assert all(type(x) is float and same_bits(x, y) for x, y in zip(got, want.tolist()))


@settings(max_examples=300, deadline=None)
@given(angles)
@example(-1e-300)
@example(-math.pi / 2 - 1e-17)
@example(math.nextafter(math.pi / 2, 0.0))  # the sum rounds to pi itself
@example(math.nextafter(-math.pi / 2, -math.inf))  # the remainder rounds up to pi
@example(-0.0)
@example(math.inf)
@example(math.nan)
def test_complement(a):
    with np.errstate(invalid="ignore"):  # numpy's remainder of inf or nan
        want = complementary(a)
    got = bellkit._complement(a)
    assert type(got) is float and same_bits(got, want)
    assert not got >= math.pi


def test_complement_of_a_sum_rounding_up_to_pi_is_zero():
    a = math.nextafter(-math.pi / 2, -math.inf)
    assert (a + math.pi / 2) % math.pi == math.pi
    assert same_bits(bellkit._complement(a), 0.0)


@settings(max_examples=300, deadline=None)
@given(angles, angles)
@with_examples
def test_correlated_expectation(a, b):
    got = bellkit.correlated_expectation(a, b)
    assert same_bits(got, arch_correlated_expectation(a, b))
    assert abs(got - ref_correlated_expectation(a, b)) <= quadrature_gap(a, b)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), angles, angles)
@example(0, 0.0, 0.0)
def test_factorized_correlation_random_model(seed, a, b):
    model = random_factorized_model(make_rng(seed))
    got = bellkit.factorized_correlation(model, a, b)
    assert same_bits(got, ref_product_correlation(model, a, b))
    assert abs(got - ref_factorized_correlation(model, a, b)) <= quadrature_gap(a, b)


@settings(max_examples=60, deadline=None)
@given(angles, angles)
@with_examples
def test_factorized_correlation_malus_model(a, b):
    got = bellkit.factorized_correlation(bellkit.malus_deterministic_model(), a, b)
    model = reference_malus_model()
    assert same_bits(got, ref_product_correlation(model, a, b))
    assert abs(got - ref_factorized_correlation(model, a, b)) <= quadrature_gap(a, b)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["lambda", "a", "b"]), angles, angles)
@example("lambda", 0.0, 0.0)
@example("a", math.pi / 4, math.pi / 8)
@example("b", math.pi - 1e-16, 0.0)
def test_marginal(which, u, v):
    got = bellkit._marginal(which, u, v)
    assert same_bits(got, arch_marginal(which, u, v))
    assert abs(got - ref_marginal(which, u, v)) <= quadrature_gap(u, v)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([math.pi, 2 * math.pi]), angles, angles)
@example(math.pi, 0.3, 1.1)
@example(2 * math.pi, 0.3, 1.1)
@example(2 * math.pi, 0.0, 0.0)
def test_normalization_constant(end, a, b):
    got = bellkit.normalization_constant(end, a, b)
    assert same_bits(got, arch_normalization_constant(end, a, b))
    assert abs(got - ref_normalization_constant(end, a, b)) <= quadrature_gap(a, b)


@settings(max_examples=20, deadline=None)
@given(angles, angles)
@example(0.3, 1.2)
def test_bisecting_high_frequency_density(a, b):
    rounds = []

    def density(lam):
        rounds.append(lam.shape[0])
        return (1.0 + 0.9 * np.cos(80.0 * lam)) / math.pi

    def response(setting, lam):
        return 0.5 + 0.4 * np.cos(2.0 * (lam - setting))

    model = bellkit.FactorizedModel(density=density, p_alice=response, p_bob=response)
    got = bellkit.factorized_correlation(model, a, b)
    lean_rounds, rounds[:] = list(rounds), []
    assert same_bits(got, ref_product_correlation(model, a, b))
    # the same panels, round by round: here both integrals (the normalization
    # and the product) bisect
    assert lean_rounds == rounds and len(rounds) >= 4


def test_every_grid_cell_takes_one_round():
    """The library quadrature accepts each cell of the 64 x 64 acceptance grid
    in the first round: the kinks are declared and merged, so no panel of the
    correlated integrand needs a split."""
    grid = np.linspace(0.0, math.pi, 64, endpoint=False).tolist()
    for a in grid:
        for b in grid:
            f, rounds = correlated_integrand(a, b), []
            bellkit._integrate(lambda lam: rounds.append(lam.shape[0]) or f(lam),
                               correlated_kinks(a, b))
            assert len(rounds) == 1
