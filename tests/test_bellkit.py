import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ontosim import bellkit

from conftest import make_rng, random_factorized_model

SQRT2 = math.sqrt(2.0)


class TestAngles:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(-50.0, 50.0))
    def test_normalization_idempotent(self, x):
        once = bellkit.normalize_angle(x)
        assert 0.0 <= once < math.pi
        assert bellkit.normalize_angle(once) == once

    def test_complementary_is_quarter_turn(self):
        assert bellkit.complementary(0.0) == pytest.approx(math.pi / 2)
        assert bellkit.complementary(3 * math.pi / 4) == pytest.approx(math.pi / 4)

    def test_complementary_detection_sums_to_one(self):
        # deterministic outcomes give P(a) + P(a~) = 1 pointwise
        rng = make_rng(31)
        a = rng.random(200) * math.pi
        lam = rng.random(200) * math.pi
        total = (bellkit.detection_from_outcome(a, lam)
                 + bellkit.detection_from_outcome(bellkit.complementary(a), lam))
        assert np.all(total == 1.0)


class TestQuantumCorrelation:
    def test_aligned(self):
        assert bellkit.quantum_correlation(0.7, 0.7) == 1.0

    def test_forty_five_degrees(self):
        assert abs(bellkit.quantum_correlation(0.0, math.pi / 4)) < 1e-15

    def test_maximal_mismatch_angle(self):
        assert bellkit.quantum_correlation(0.0, math.pi / 8) == pytest.approx(
            SQRT2 / 2, abs=1e-15)


class TestFactorized:
    def test_uncorrelated_constant_responses(self):
        m = bellkit.FactorizedModel(
            density=bellkit.uniform_density,
            p_alice=lambda a, lam: np.full_like(np.asarray(lam, dtype=float), 0.5),
            p_bob=lambda b, lam: np.full_like(np.asarray(lam, dtype=float), 0.5))
        assert abs(bellkit.factorized_correlation(m, 0.3, 1.1)) < 1e-12

    def test_threshold_model_matches_sawtooth(self):
        m = bellkit.malus_deterministic_model()
        rng = make_rng(32)
        for _ in range(8):
            a, b = rng.random(2) * math.pi
            assert bellkit.factorized_correlation(m, a, b) == pytest.approx(
                bellkit.sawtooth_correlation(a, b), abs=1e-9)

    def test_rejects_unnormalized_density(self):
        m = bellkit.FactorizedModel(
            density=lambda lam: np.full_like(np.asarray(lam, dtype=float), 1.0),
            p_alice=lambda a, lam: np.full_like(np.asarray(lam, dtype=float), 0.5),
            p_bob=lambda b, lam: np.full_like(np.asarray(lam, dtype=float), 0.5))
        with pytest.raises(bellkit.NonNormalizedDensityError):
            bellkit.factorized_correlation(m, 0.0, 0.0)


class TestChsh:
    def test_quantum_reaches_two_sqrt_two(self):
        r = bellkit.chsh_score(bellkit.quantum_correlation, *bellkit.STANDARD_SETTINGS)
        assert abs(r.score - 2 * SQRT2) < 1e-12
        assert r.violates_classical_bound

    def test_constant_correlation_scores_two(self):
        r = bellkit.chsh_score(lambda a, b: 1.0, *bellkit.STANDARD_SETTINGS)
        assert r.score == 2.0
        assert not r.violates_classical_bound

    def test_sawtooth_saturates_bound(self):
        r = bellkit.chsh_score(bellkit.sawtooth_correlation, *bellkit.STANDARD_SETTINGS)
        assert abs(r.score - 2.0) < 1e-12

    def test_factorized_models_respect_bound(self):
        rng = make_rng(33)
        for _ in range(40):
            m = random_factorized_model(rng)
            r = bellkit.chsh_score(
                lambda a, b: bellkit.factorized_correlation(m, a, b),
                *bellkit.STANDARD_SETTINGS)
            assert abs(r.score) <= 2.0 + 1e-9

    def test_report_fields(self):
        rep = bellkit.chsh_report(
            bellkit.chsh_score(bellkit.quantum_correlation, *bellkit.STANDARD_SETTINGS))
        assert rep["settings_deg"] == pytest.approx([0.0, 45.0, 22.5, 67.5])
        assert rep["bound"] == 2.0
        assert rep["quantum_max"] == bellkit.QUANTUM_MAX


class TestCorrelatedExpectation:
    def test_aligned_settings(self):
        assert bellkit.correlated_expectation(0.9, 0.9) == pytest.approx(1.0, abs=1e-9)

    def test_maximal_mismatch(self):
        got = bellkit.correlated_expectation(0.0, math.pi / 8)
        assert abs(got - SQRT2 / 2) < 1e-6

    def test_reproduces_quantum_on_random_settings(self):
        rng = make_rng(34)
        for _ in range(25):
            a, b = rng.random(2) * math.pi
            got = bellkit.correlated_expectation(a, b)
            assert abs(got - bellkit.quantum_correlation(a, b)) < 1e-6

    def test_symmetry_and_difference_dependence(self):
        rng = make_rng(35)
        for _ in range(10):
            a, b, shift = rng.random(3) * math.pi
            e1 = bellkit.correlated_expectation(a, b)
            assert abs(e1 - bellkit.correlated_expectation(b, a)) < 1e-6
            a2 = bellkit.normalize_angle(a + shift)
            b2 = bellkit.normalize_angle(b + shift)
            assert abs(e1 - bellkit.correlated_expectation(a2, b2)) < 1e-6

    def test_chsh_violation(self):
        r = bellkit.chsh_score(bellkit.correlated_expectation, *bellkit.STANDARD_SETTINGS)
        assert abs(r.score - 2 * SQRT2) < 1e-9
        assert r.violates_classical_bound


class TestMarginals:
    def test_all_three_flat(self):
        for which in ("lambda", "a", "b"):
            assert bellkit.marginal_flatness(which, grid_size=9) <= 1e-8

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            bellkit.marginal_flatness("c")

    def test_normalization_constant_depends_on_domain(self):
        assert bellkit.normalization_constant(math.pi) == pytest.approx(0.5, abs=1e-10)
        assert bellkit.normalization_constant(2 * math.pi) == pytest.approx(0.25, abs=1e-10)


class TestSampling:
    def test_conditional_histogram_matches_density(self):
        a, b = 0.4, 1.0
        rng = make_rng(36)
        lam = bellkit.sample_conditional_lambda(a, b, 100_000, rng)
        edges = np.linspace(0.0, math.pi, 25)
        observed, _ = np.histogram(lam, edges)
        expected = np.diff(bellkit.conditional_cdf(edges, a, b)) * lam.size
        chi2 = stats.chisquare(observed, expected)
        assert chi2.pvalue > 0.001

    def test_cdf_is_a_cdf(self):
        grid = np.linspace(0.0, math.pi, 301)
        vals = bellkit.conditional_cdf(grid, 0.7, 2.2)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_binned_expectation_matches_quantum(self):
        samples = bellkit.sample_triples(200_000, seed=37)
        diff = bellkit.normalize_angle(samples.a - samples.b)
        product = samples.outcome_a * samples.outcome_b
        target = np.cos(2.0 * diff)
        bins = np.digitize(diff, np.linspace(0.0, math.pi, 17)) - 1
        for k in range(16):
            sel = bins == k
            n = int(sel.sum())
            assert n > 0
            # per-sample residual has mean zero and variance <= 1
            assert abs(np.sum(product[sel] - target[sel])) <= 4.0 * math.sqrt(n)

    def test_triples_deterministic(self):
        s1 = bellkit.sample_triples(500, seed=11)
        s2 = bellkit.sample_triples(500, seed=11)
        assert np.array_equal(s1.a, s2.a) and np.array_equal(s1.lam, s2.lam)

    def test_mc_chsh_near_quantum_value(self):
        r = bellkit.mc_chsh(*bellkit.STANDARD_SETTINGS, samples_per_setting=50_000, seed=12)
        assert abs(r.score - 2 * SQRT2) < 0.05

    def test_count_validation(self):
        with pytest.raises(ValueError):
            bellkit.sample_triples(0, seed=1)
