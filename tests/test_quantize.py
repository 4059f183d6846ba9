import hashlib
import io
import itertools
import json
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontosim import fastslow, ontodyn, quantize

from conftest import (free_energy_levels, ground_delta_expectation, make_rng, random_model,
                      two_state_model, unflatten_config)

HALF_PI = quantize.INTERCHANGE_WEIGHT


def step_matrix(model) -> np.ndarray:
    perm, sign = quantize.koopman_step_operator(model)
    d = perm.size
    mat = np.zeros((d, d), dtype=complex)
    mat[perm, np.arange(d)] = sign
    return mat


def exact_projection_table(model) -> dict:
    """Ground projection accumulated in exact rational arithmetic.

    Walks the assembled sparse interchange matrix entry by entry, factors out
    the pi/2 weight (each upper-triangle entry is exactly -1j*pi/2) and sums
    the uniform-state weights 1/P as Fractions.  Independent arithmetic for
    the N_s/(N_a*N_b) table.
    """
    inter = quantize.build_interchange(model)
    coo = inter.matrix.tocoo()
    p_total = model.phase_space_size
    counts: dict[tuple[int, int], int] = {}
    for r, c, v in zip(coo.row, coo.col, coo.data):
        a, b = int(r) // p_total, int(c) // p_total
        if a >= b:
            continue
        unit = v / (-1j * quantize.INTERCHANGE_WEIGHT)
        assert unit == 1.0 + 0.0j
        counts[(a, b)] = counts.get((a, b), 0) + 1
    return {pair: Fraction(n, p_total) for pair, n in counts.items()}


class TestHamiltonians:
    def test_clock_exponential_is_the_tick(self):
        for period in (1, 2, 5, 12):
            h = quantize.clock_hamiltonian(period)
            tick = quantize.evolution_operator(h, 1.0)
            shift = np.zeros((period, period))
            shift[(np.arange(period) + 1) % period, np.arange(period)] = 1.0
            assert np.abs(tick - shift).max() < 1e-12

    def test_no_points_means_zero_interchange(self):
        m = fastslow.OntologicalModel(slow_count=2, periods=(4, 4))
        _, inter = quantize.build_full_hamiltonian(m)
        assert inter.matrix.nnz == 0

    def test_single_point_two_entries(self):
        m = two_state_model(2, 2, trigger=(1, 0))
        _, inter = quantize.build_full_hamiltonian(m)
        dense = inter.matrix.toarray()
        assert dense.shape == (8, 8)
        nz = np.argwhere(dense != 0)
        assert len(nz) == 2
        vals = sorted((dense[tuple(idx)] for idx in nz), key=lambda z: z.imag)
        assert np.allclose(vals, [-1j * np.pi / 2, 1j * np.pi / 2])

    def test_free_spectrum_for_periods_2_3(self):
        m = fastslow.OntologicalModel(slow_count=2, periods=(2, 3))
        h_fast, _ = quantize.build_full_hamiltonian(m)
        eigs = np.linalg.eigvalsh(h_fast.toarray())
        expected = sorted(2 * np.pi * (n1 / 2 + n2 / 3)
                          for n1 in range(2) for n2 in range(3))
        assert np.allclose(sorted(set(np.round(eigs, 10))), expected, atol=1e-10)
        assert np.allclose(np.sort(eigs), np.sort(np.repeat(expected, 2)), atol=1e-10)
        assert np.allclose(eigs, free_energy_levels(m), atol=1e-10)

    def test_hermitian(self):
        rng = make_rng(21)
        for _ in range(5):
            m = random_model(rng, max_slow=3, max_period=5)
            if m.ontic_space_size > ontodyn.DENSE_CAP:
                continue
            h_fast, inter = quantize.build_full_hamiltonian(m)
            assert abs((h_fast - h_fast.getH())).max() < 1e-12
            assert abs((inter.matrix - inter.matrix.getH())).max() <= 1e-12

    def test_size_cap(self):
        m = fastslow.OntologicalModel(slow_count=1, periods=(ontodyn.DENSE_CAP + 1,))
        with pytest.raises(ontodyn.SizeCapError):
            quantize.build_full_hamiltonian(m)


def brute_force_interchange(model) -> list:
    """Sorted (row, col, value) entries of the interchange Hamiltonian, built
    point by point from every phase row that matches the point's trigger."""
    rows = fastslow._phase_rows(model.periods, np.arange(model.phase_space_size))
    p_total = model.phase_space_size
    w = quantize.INTERCHANGE_WEIGHT
    entries = []
    for sp in model.special_points:
        a, b = sp.pair
        for f in np.flatnonzero((rows[:, a] == sp.trigger[0]) & (rows[:, b] == sp.trigger[1])):
            entries += [(a * p_total + f, b * p_total + f, -1j * w),
                        (b * p_total + f, a * p_total + f, 1j * w)]
    return sorted(entries, key=lambda e: e[:2])


def interchange_entries(model) -> list:
    coo = quantize.build_interchange(model).matrix.tocoo()
    return sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()),
                  key=lambda e: e[:2])


class TestInterchangeEntries:
    def test_free_clocks_before_between_and_after_a_pair(self):
        # (1, 2) has clock 0 before it and clock 3 after; (0, 3) has 1 and 2 between
        points = [((1, 2), (0, 1)), ((1, 2), (0, 4)), ((1, 2), (3, 2)),
                  ((0, 3), (2, 0)), ((0, 3), (1, 0))]
        m = fastslow.OntologicalModel(
            slow_count=4, periods=(3, 4, 5, 2),
            special_points=tuple(fastslow.SpecialPoint(pair=p, trigger=t) for p, t in points))
        assert interchange_entries(m) == brute_force_interchange(m)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_random_models(self, seed):
        m = random_model(make_rng(seed), max_slow=4, max_period=5, max_points=8)
        assert interchange_entries(m) == brute_force_interchange(m)


class TestClassicalInterchange:
    def test_quarter_turn_is_a_signed_swap(self):
        u = quantize.evolution_operator(HALF_PI * quantize.PAULI_Y, 1.0)
        assert np.abs(u - np.array([[0.0, -1.0], [1.0, 0.0]])).max() < 1e-12

    def test_half_turn_is_minus_identity(self):
        u = quantize.evolution_operator(np.pi * quantize.PAULI_Y, 1.0)
        assert np.abs(u + np.eye(2)).max() < 1e-12

    def test_zero_angle_is_identity(self):
        u = quantize.evolution_operator(0.0 * quantize.PAULI_Y, 1.0)
        assert np.abs(u - np.eye(2)).max() < 1e-12


class TestGroundProject:
    def test_single_point_10_7(self):
        eff = quantize.ground_project(two_state_model(10, 7))
        assert eff.coupling((0, 1)) == Fraction(1, 70)
        assert abs(abs(eff.matrix[0, 1]) - (np.pi / 2) / 70) < 1e-15
        assert eff.matrix[0, 1] == -eff.matrix[1, 0]
        assert eff.matrix[0, 1].real == 0.0

    def test_no_points_zero_matrix(self):
        eff = quantize.ground_project(fastslow.OntologicalModel(slow_count=3, periods=(4, 4, 4)))
        assert np.all(eff.matrix == 0)
        assert eff.couplings == ()

    def test_three_points_on_one_pair(self):
        points = tuple(fastslow.SpecialPoint(pair=(0, 1), trigger=(k, k))
                       for k in range(3))
        m = fastslow.OntologicalModel(slow_count=2, periods=(10, 10), special_points=points)
        eff = quantize.ground_project(m)
        assert eff.coupling((0, 1)) == Fraction(3, 100)
        assert abs(abs(eff.matrix[0, 1]) - (np.pi / 2) * 3 / 100) < 1e-15

    def test_exact_rational_oracle(self):
        rng = make_rng(22)
        for _ in range(30):
            m = random_model(rng, max_slow=4, max_period=9)
            eff = quantize.ground_project(m)
            assert exact_projection_table(m) == {
                pc.pair: pc.fraction for pc in eff.couplings}

    def test_delta_expectation_is_one_over_period(self):
        for period in (2, 5, 64):
            assert ground_delta_expectation(period, period // 2) == Fraction(1, period)

    def test_large_space_falls_back_to_rational_route(self):
        m = two_state_model(1500, 1500)
        assert m.ontic_space_size > quantize.INTERCHANGE_CAP
        eff = quantize.ground_project(m)
        assert eff.coupling((0, 1)) == Fraction(1, 2_250_000)
        assert eff.matrix[0, 1] == -1j * quantize.INTERCHANGE_WEIGHT / 2_250_000


class TestSchrodingerEvolve:
    def test_zero_hamiltonian(self):
        psi = np.array([0.6, 0.8j])
        out = quantize.schrodinger_evolve(np.zeros((2, 2)), psi, 3.7)
        assert np.abs(out - psi).max() < 1e-15

    def test_sigma_y_full_flip(self):
        h = (np.pi / 2) * (1 / 70) * quantize.PAULI_Y
        out = quantize.schrodinger_evolve(h, np.array([1.0, 0.0]), 70.0)
        assert abs(abs(out[1]) - 1.0) < 1e-12
        assert abs(out[0]) < 1e-12

    def test_eigenstate_gets_a_phase(self):
        h = np.diag([0.0, 1.5])
        out = quantize.schrodinger_evolve(h, np.array([0.0, 1.0 + 0j]), 2.0)
        assert abs(out[1] - np.exp(-3j)) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(quantize.NonHermitianError):
            quantize.schrodinger_evolve(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                        np.array([1.0, 0.0]), 1.0)

    def test_norm_preserved(self):
        rng = make_rng(23)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (a + a.conj().T) / 2
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        out = quantize.schrodinger_evolve(h, psi, 17.3)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_linearity(self):
        rng = make_rng(24)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = (a + a.conj().T) / 2
        psi, chi = np.eye(5)[0].astype(complex), np.eye(5)[3].astype(complex)
        u, v = 0.6 - 0.2j, 0.3 + 0.7j
        lhs = quantize.schrodinger_evolve(h, u * psi + v * chi, 2.5)
        rhs = (u * quantize.schrodinger_evolve(h, psi, 2.5)
               + v * quantize.schrodinger_evolve(h, chi, 2.5))
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_energy_conservation(self):
        m = two_state_model(10, 7)
        h_fast, inter = quantize.build_full_hamiltonian(m)
        h = (h_fast + inter.matrix).toarray()
        rng = make_rng(25)
        psi = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
        psi /= np.linalg.norm(psi)
        e0 = float(np.real(psi.conj() @ h @ psi))
        for t in (0.5, 7.0, 140.0):
            evolved = quantize.schrodinger_evolve(h, psi, t)
            et = float(np.real(evolved.conj() @ h @ evolved))
            assert abs(et - e0) < 1e-9

    def test_times_array_rows_match_scalar_calls(self):
        rng = make_rng(27)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (a + a.conj().T) / 2
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        times = np.array([0.0, 0.5, 3.0, 17.3, 250.0])
        rows = quantize.schrodinger_evolve(h, psi, times)
        assert rows.shape == (times.size, 4)
        for t, row in zip(times, rows):
            assert np.abs(row - quantize.schrodinger_evolve(h, psi, float(t))).max() < 1e-12

    def test_slow_space_evolution_is_real(self):
        eff = quantize.ground_project(two_state_model(10, 7))
        for t in (1.0, 17.0, 70.0):
            u = quantize.evolution_operator(eff.matrix, t)
            assert np.abs(u.imag).max() < 1e-12


class TestKoopman:
    def test_step_operator_matches_exponentials(self):
        models = [
            two_state_model(3, 4),
            fastslow.OntologicalModel(
                slow_count=3, periods=(4, 5, 3),
                special_points=(fastslow.SpecialPoint(pair=(0, 1), trigger=(0, 0)),
                                fastslow.SpecialPoint(pair=(1, 2), trigger=(1, 2)),)),
        ]
        for m in models:
            h_fast, inter = quantize.build_full_hamiltonian(m)
            u = (quantize.evolution_operator(inter.matrix, 1.0)
                 @ quantize.evolution_operator(h_fast, 1.0))
            assert np.abs(u - step_matrix(m)).max() < 1e-12

    @pytest.mark.parametrize("seed", [31, 32, 33, 34])
    def test_step_operator_is_the_step_map_image(self, seed):
        # perm is the step map's image, and the sign is -1 exactly where the
        # single-config step moves an occupant to a lower slow state
        m = random_model(make_rng(seed), max_slow=4, max_period=6, max_points=6, min_slow=2)
        perm, sign = quantize.koopman_step_operator(m)
        assert np.array_equal(perm, fastslow.step_map(m).image)
        for f in range(m.ontic_space_size):
            config = unflatten_config(m, f)
            after = fastslow.step(m, config)
            assert perm[f] == fastslow.flat_config(m, after.slow, after.phases)
            assert sign[f] == (-1 if after.slow < config.slow else 1)

    def test_diagonal_probabilities_follow_classical(self):
        rng = make_rng(26)
        for _ in range(6):
            m = random_model(rng, max_slow=3, max_period=8)
            horizon = 3 * math.lcm(*m.periods)
            cmp_ = quantize.compare_dynamics(m, 0, horizon)
            assert cmp_.max_classical_quantum < 1e-10


class TestCompareDynamics:
    def test_free_model_constant_curves(self):
        m = fastslow.OntologicalModel(slow_count=2, periods=(11, 13))
        cmp_ = quantize.compare_dynamics(m, 0, 25)
        for curve in (cmp_.classical, cmp_.quantum, cmp_.effective):
            assert np.allclose(curve[:, 0], 1.0, atol=1e-12)

    def test_two_state_linear_classical_equals_quantum(self):
        m = two_state_model(10, 7)
        cmp_ = quantize.compare_dynamics(m, 0, 70)
        assert np.array_equal(cmp_.classical[:, 1], np.arange(71) / 70)
        assert cmp_.max_classical_quantum < 1e-10

    def test_full_flip_time_agreement(self):
        m = two_state_model(10, 7)
        cmp_ = quantize.compare_dynamics(m, 0, 70)
        assert cmp_.classical[70, 1] == 1.0
        assert abs(cmp_.effective[70, 1] - 1.0) < 1e-10  # sin^2(pi/2)

    def test_ensemble_attached_when_requested(self):
        m = two_state_model(5, 4)
        cmp_ = quantize.compare_dynamics(m, 0, 10, sample_count=200, seed=8)
        assert cmp_.ensemble is not None and cmp_.ensemble.shape == (11, 2)

    def test_csv_shape(self):
        m = two_state_model(5, 4)
        cmp_ = quantize.compare_dynamics(m, 0, 4)
        buf = io.StringIO()
        quantize.write_comparison_csv(cmp_, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,classical,full_quantum,effective"
        assert len(lines) == 6


class TestLowEnergyIdentities:
    """Where the effective Hamiltonian meets the machine: three exact identities."""

    @pytest.mark.parametrize("periods,triggers", [
        ((10, 7), [(0, 0)]),
        ((31, 29), [(0, 0), (5, 11), (17, 3)]),
        ((12, 18), [(0, 0), (6, 9)]),
        ((101, 97), [(0, 0)]),
    ])
    def test_one_step_ground_amplitude_is_two_over_pi_of_the_coupling(self, periods, triggers):
        # from |0> with every clock in its uniform ground state, one step moves
        # K * P/(Pa*Pb) configs to slow state 1: A_10(1) = K/(Pa*Pb) exactly
        m = fastslow.OntologicalModel(2, periods, tuple(
            fastslow.SpecialPoint((0, 1), trigger) for trigger in triggers))
        p_total = m.phase_space_size
        psi = np.zeros(m.ontic_space_size)
        psi[:p_total] = 1.0 / math.sqrt(p_total)
        psi = quantize.apply_koopman_step(*quantize.koopman_step_operator(m), psi)
        amplitude = psi[p_total:].sum() / math.sqrt(p_total)
        coupling = quantize.ground_project(m).matrix[1, 0]
        assert amplitude == pytest.approx(len(triggers) / (periods[0] * periods[1]), rel=1e-12)
        assert abs(amplitude) / abs(coupling) == pytest.approx(2 / math.pi, rel=1e-12)

    @pytest.mark.parametrize("periods", [(10, 7), (101, 97)])
    def test_one_point_coprime_machines_sit_at_the_ramp_floor(self, periods):
        # the classical flip is a linear ramp, the effective one sin^2(h t):
        # they differ by max(2x/pi - sin^2 x) at best, whatever the scale
        x = math.asin(2 / math.pi) / 2
        floor = 2 * x / math.pi - math.sin(x) ** 2
        cmp_ = quantize.compare_dynamics(two_state_model(*periods), 0, 2 * math.lcm(*periods))
        assert floor - 1e-4 < cmp_.max_classical_effective <= floor + 1e-12

    @pytest.mark.parametrize("periods,triggers,expected", [
        ((10, 7), [(0, 0)], Fraction(1, 4)),
        ((31, 29), [(0, 0), (5, 11), (17, 3)], Fraction(3, 4)),
        ((12, 18), [(0, 0), (6, 9)], Fraction(1, 12)),
        ((42, 50), [(0, 0), (14, 10), (28, 20)], Fraction(3, 8)),
    ])
    def test_coupling_over_the_joint_gap_is_k_over_4g(self, periods, triggers, expected):
        # the free machine's cycles all have length L = lcm(Pa, Pb), its joint
        # gap is 2*pi/L, and (pi/2)*K/(Pa*Pb) over that gap is K/(4*gcd(Pa, Pb))
        lap, = set(fastslow.check_bijectivity(fastslow.OntologicalModel(2, periods)).ranks)
        m = fastslow.OntologicalModel(2, periods, tuple(
            fastslow.SpecialPoint((0, 1), trigger) for trigger in triggers))
        ratio = quantize.ground_project(m).coupling((0, 1)) * lap / 4
        assert ratio == Fraction(len(triggers), 4 * math.gcd(*periods)) == expected


class TestCompileTarget:
    @staticmethod
    def pair_target(value: float, size: int = 2, pair=(0, 1)) -> np.ndarray:
        t = np.zeros((size, size), dtype=complex)
        t[pair[0], pair[1]] = 1j * value
        t[pair[1], pair[0]] = -1j * value
        return t

    def test_exact_rational_hit(self):
        target = self.pair_target((math.pi / 2) / 70)
        m = quantize.compile_target(target, 1e-6, 100)
        eff = quantize.ground_project(m)
        assert eff.coupling((0, 1)) == Fraction(1, 70)
        achieved = quantize.INTERCHANGE_WEIGHT * float(eff.coupling((0, 1)))
        assert achieved == abs(target[0, 1].imag)  # error exactly 0

    def test_magnitude_beyond_any_machine_refused(self):
        with pytest.raises(quantize.UnreachableToleranceError, match="exceeds pi/2"):
            quantize.compile_target(self.pair_target(10.0), 1e-6, 200)

    @pytest.mark.parametrize("mag,tolerance,compiles", [
        (0.0123, 1e-4, True), (0.01, 1e-13, False)])
    def test_pair_search_at_the_period_cap_is_quick(self, mag, tolerance, compiles):
        # every period pair up to the cap is tried, a block of rows at a time
        target = self.pair_target(mag)
        start = time.perf_counter()
        try:
            m = quantize.compile_target(target, tolerance, quantize.MAX_PERIOD_CAP)
        except quantize.UnreachableToleranceError:
            m = None
        assert time.perf_counter() - start < 1.0
        assert (m is not None) == compiles
        if compiles:
            assert quantize.compile_report(m, target)["max_abs_error"] <= tolerance

    @staticmethod
    def best_pair(mag: float, max_period: int) -> tuple:
        """Brute force over every Pa <= Pb <= max_period with its nearest count:
        the least (error, cells, shares a factor, Pb, Pa, count), the error in
        compile_report's float expression."""
        x = mag / quantize.INTERCHANGE_WEIGHT
        keys = []
        for pa in range(1, max_period + 1):
            for pb in range(pa, max_period + 1):
                cells = pa * pb
                count = min(round(x * cells), cells)
                error = abs(quantize.INTERCHANGE_WEIGHT * count / cells - mag)
                keys.append((error, cells, math.gcd(pa, pb) != 1, pb, pa, count))
        return min(keys)

    @settings(max_examples=300, deadline=None)
    @given(mag=st.one_of(
               st.floats(1e-6, 1.6),
               # exact hits (pi/2) k/(Pa*Pb), which tie with their multiples
               st.builds(lambda pa, pb, k: HALF_PI * min(k, pa * pb) / (pa * pb),
                         st.integers(1, 16), st.integers(1, 16), st.integers(1, 256))),
           tolerance=st.floats(-6.0, -1.0).map(lambda e: 10.0 ** e),
           max_period=st.integers(1, 16),
           rows=st.sampled_from([1, 3, quantize._SEARCH_ROWS]))
    def test_pair_search_oracle(self, mag, tolerance, max_period, rows):
        # the compiled machine's report error is the least over every period
        # pair, and the compiler refuses iff that least error misses; small
        # blocks of rows carry the best candidate and its ties across blocks
        error, _, _, pb, pa, count = self.best_pair(mag, max_period)
        target = self.pair_target(mag)
        try:
            with mock.patch.object(quantize, "_SEARCH_ROWS", rows):
                m = quantize.compile_target(target, tolerance, max_period)
        except quantize.UnreachableToleranceError:
            assert error > tolerance
            return
        assert error <= tolerance
        assert quantize.compile_report(m, target)["max_abs_error"] == error
        assert m.periods == ((pa, pb) if count else (1, 1))
        assert len(m.special_points) == count

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_refused(self, value):
        with pytest.raises(quantize.NotRepresentableError, match="not finite"):
            quantize.compile_target(self.pair_target(value), 1e-6, 200)

    def test_zero_target_no_points(self):
        m = quantize.compile_target(np.zeros((3, 3), dtype=complex), 1e-6, 50)
        assert m.special_points == ()
        assert np.all(quantize.ground_project(m).matrix == 0)

    def test_generic_magnitude_meets_tolerance(self):
        target = self.pair_target(0.01)
        m = quantize.compile_target(target, 1e-4, 200)
        eff = quantize.ground_project(m)
        achieved = quantize.INTERCHANGE_WEIGHT * float(eff.coupling((0, 1)))
        assert abs(achieved - 0.01) <= 1e-4

    def test_shared_state_target(self):
        t = np.zeros((3, 3), dtype=complex)
        for (a, b), v in {(0, 1): 0.02, (1, 2): 0.015}.items():
            t[a, b] = 1j * v
            t[b, a] = -1j * v
        m = quantize.compile_target(t, 1e-4, 200)
        eff = quantize.ground_project(m)
        for (a, b), v in {(0, 1): 0.02, (1, 2): 0.015}.items():
            achieved = quantize.INTERCHANGE_WEIGHT * float(eff.coupling((a, b)))
            assert abs(achieved - v) <= 1e-4

    def test_rejects_nonzero_diagonal(self):
        t = np.diag([0.1 + 0j, 0.0])
        with pytest.raises(quantize.NotRepresentableError):
            quantize.compile_target(t, 1e-4, 100)

    def test_rejects_real_couplings(self):
        t = np.array([[0.0, 0.3], [0.3, 0.0]], dtype=complex)
        with pytest.raises(quantize.NotRepresentableError):
            quantize.compile_target(t, 1e-4, 100)

    def test_rejects_non_hermitian(self):
        t = np.array([[0.0, 0.2j], [0.3j, 0.0]])
        with pytest.raises(quantize.NotRepresentableError):
            quantize.compile_target(t, 1e-4, 100)

    def test_unreachable_magnitude(self):
        # couplings cannot exceed pi/2 (at most one point per torus cell)
        with pytest.raises(quantize.UnreachableToleranceError):
            quantize.compile_target(self.pair_target(1.7), 1e-3, 50)

    def test_unreachable_tolerance(self):
        with pytest.raises(quantize.UnreachableToleranceError):
            quantize.compile_target(self.pair_target(0.345), 1e-9, 3)

    def test_soundness_property(self):
        rng = make_rng(27)
        for _ in range(12):
            n = int(rng.integers(2, 5))
            t = np.zeros((n, n), dtype=complex)
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < 0.6:
                        v = float(rng.uniform(0.001, 0.04))
                        t[a, b] = -1j * v  # the machine's sign: loops stay representable
                        t[b, a] = 1j * v
            m = quantize.compile_target(t, 1e-4, 200)
            eff = quantize.ground_project(m)
            for a in range(n):
                for b in range(a + 1, n):
                    achieved = quantize.INTERCHANGE_WEIGHT * float(eff.coupling((a, b)))
                    assert abs(achieved - abs(t[a, b].imag)) <= 1e-4

    @staticmethod
    def couplings_target(size: int, magnitudes: dict) -> np.ndarray:
        """The machine's sign on every pair, so loops stay representable."""
        t = np.zeros((size, size), dtype=complex)
        for (a, b), v in magnitudes.items():
            t[a, b], t[b, a] = -1j * v, 1j * v
        return t

    @staticmethod
    def shared_period_works(target: np.ndarray, tolerance: float, q: int) -> bool:
        """Brute force: every coupled pair has a count c <= q*q with
        |(pi/2) c/q^2 - |H_ab|| <= tolerance, and each state's pairs fit in
        disjoint blocks of q trigger values, a pair with c points taking the
        least s with s*s >= c."""
        counts = np.arange(q * q + 1)
        used = [0] * target.shape[0]
        for (a, b), mag in quantize._target_magnitudes(target).items():
            errors = np.abs(quantize.INTERCHANGE_WEIGHT * counts / (q * q) - mag)
            c = int(np.argmin(errors))
            if errors[c] > tolerance:
                return False
            if c:
                side = next(s for s in range(q + 1) if s * s >= c)
                used[a] += side
                used[b] += side
        return max(used) <= q

    @pytest.mark.parametrize("size,magnitudes", [
        (3, {(0, 1): 0.027305, (1, 2): 0.000279}),
        (4, {(1, 2): 0.0328, (1, 3): 0.2867, (2, 3): 0.000995}),
    ])
    def test_shared_period_below_the_cap(self, size, magnitudes):
        # reachable only with a shared period below max_period (11 and 7)
        target = self.couplings_target(size, magnitudes)
        m = quantize.compile_target(target, 2e-3, 12)
        assert quantize.compile_report(m, target)["max_abs_error"] <= 2e-3

    def test_shared_period_search_is_complete(self):
        # refused iff no shared period q <= max_period works; else the largest works
        rng = make_rng(81)
        outcomes = {"refused": 0, "at_cap": 0, "below_cap": 0}
        for _ in range(1000):
            n = int(rng.choice([3, 4]))
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.7]
            if max(Counter(s for pair in pairs for s in pair).values(), default=0) < 2:
                continue  # no shared state: the per-pair path
            target = self.couplings_target(
                n, {pair: float(10 ** rng.uniform(-2.5, -0.5)) for pair in pairs})
            tolerance = float(rng.choice([1e-2, 5e-3, 2e-3]))
            max_period = int(rng.integers(1, 13))
            working = [q for q in range(1, max_period + 1)
                       if self.shared_period_works(target, tolerance, q)]
            try:
                m = quantize.compile_target(target, tolerance, max_period)
            except quantize.UnreachableToleranceError:
                assert working == [], (target, tolerance, max_period)
                outcomes["refused"] += 1
                continue
            assert working, (target, tolerance, max_period)
            coupled = {s for pair in pairs for s in pair}
            assert {m.periods[s] for s in coupled} == {working[-1]}
            assert quantize.compile_report(m, target)["max_abs_error"] <= tolerance
            outcomes["at_cap" if working[-1] == max_period else "below_cap"] += 1
        assert min(outcomes.values()) >= 10, outcomes  # both sides of the iff are exercised

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.sampled_from([3, 4]))
    def test_shared_period_tolerance_at_an_exact_error(self, data, n):
        # the tolerance is exactly one pair's report error at some q, so that
        # count sits right at its bound: the target still compiles iff some q
        # works, at the largest, as the report judges it
        all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        pairs = data.draw(st.lists(st.sampled_from(all_pairs), min_size=2, unique=True)
                          .filter(lambda ps: max(Counter(s for p in ps for s in p).values()) > 1))
        mags = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(pairs),
                                  max_size=len(pairs)))
        target = self.couplings_target(n, dict(zip(pairs, mags)))
        mag, q = data.draw(st.sampled_from(mags)), data.draw(st.integers(1, 12))
        tolerance = float(np.abs(HALF_PI * np.arange(q * q + 1) / (q * q) - mag).min())
        if tolerance == 0.0:
            tolerance = math.ulp(0.0)
        max_period = data.draw(st.integers(1, 12))
        working = [k for k in range(1, max_period + 1)
                   if self.shared_period_works(target, tolerance, k)]
        try:
            m = quantize.compile_target(target, tolerance, max_period)
        except quantize.UnreachableToleranceError:
            assert working == []
            return
        assert working
        assert {m.periods[s] for p in pairs for s in p} == {working[-1]}
        assert quantize.compile_report(m, target)["max_abs_error"] <= tolerance

    def test_compiled_model_passes_builder_and_projection(self):
        target = self.pair_target(0.0123)
        m = quantize.compile_target(target, 1e-4, 150)
        fastslow.check_bijectivity(m)  # conflict-free and reversible
        table = exact_projection_table(m)
        eff = quantize.ground_project(m)
        assert table == {pc.pair: pc.fraction for pc in eff.couplings}

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_multi_state_property(self, data):
        # shared states tie every coupled clock to max_period; 3 * 24**3 and
        # 4 * 22**4 ontic states stay within the enumeration cap
        n = data.draw(st.sampled_from([3, 4]))
        tolerance = data.draw(st.sampled_from([1e-2, 2e-3, 1e-4]))
        max_period = data.draw(st.integers(2, 24 if n == 3 else 22))
        t = np.zeros((n, n), dtype=complex)
        for a in range(n):
            for b in range(a + 1, n):
                v = data.draw(st.one_of(st.just(0.0), st.floats(1e-4, 0.3)))
                t[a, b], t[b, a] = -1j * v, 1j * v  # the machine's sign
        try:
            m = quantize.compile_target(t, tolerance, max_period)
        except quantize.UnreachableToleranceError:
            return
        report = quantize.compile_report(m, t)
        assert report["max_abs_error"] <= tolerance
        coupled = [(tuple(p["pair"]), p["num"], p["den"]) for p in report["pairs"] if p["num"]]
        eff = quantize.ground_project(m)
        assert coupled == [(pc.pair, pc.points, pc.denominator) for pc in eff.couplings]
        assert m.ontic_space_size <= fastslow.ENUMERATION_CAP
        assert quantize.compare_dynamics(m, 0, 12).max_classical_quantum <= 1e-10


class TestSpreadPoints:
    """A pair's trigger cells, spread over every diagonal orbit of its clocks."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_orbit_gets_an_even_share(self, data):
        pa, pb = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
        count = data.draw(st.integers(1, pa * pb))
        cells = quantize._spread_points(pa, pb, count)
        x, y = cells[:, 0], cells[:, 1]
        g, joint = math.gcd(pa, pb), math.lcm(pa, pb)
        assert cells.shape == (count, 2) and cells.dtype == np.int64
        assert np.all((0 <= x) & (x < pa) & (0 <= y) & (y < pb))
        assert np.unique(x * pb + y).size == count
        # the exact inverse: cell k sits on orbit d at tau with d*L + tau =
        # k*Pa*Pb // count, so each orbit gets an even share, evenly spaced
        orbits, positions = fastslow._orbit_position(pa, pb, x, y)
        assert np.array_equal(orbits * joint + positions, np.arange(count) * pa * pb // count)
        if g == 1:  # the cells of the joint-cycle rule, ts = k*L // count
            ts = np.arange(count) * joint // count
            assert np.array_equal(cells, np.column_stack((ts % pa, ts % pb)))

    @settings(max_examples=100, deadline=None)
    @given(mag=st.floats(1e-3, 1.5), max_period=st.integers(1, 40))
    @example(mag=0.059, max_period=12)  # 3 points on (8, 10): once all on orbit 0 of 2
    def test_compiled_pairs_leave_no_orbit_empty(self, mag, max_period):
        # a config meets only the points on its own diagonal orbit, so an
        # orbit without one never swaps its slow state
        target = np.array([[0, 1j * mag], [-1j * mag, 0]])
        try:
            m = quantize.compile_target(target, 1e-3, max_period)
        except quantize.UnreachableToleranceError:
            return
        g = math.gcd(*m.periods)
        if len(m.points) >= g:
            x, y = m.points[:, 2], m.points[:, 3]
            assert np.bincount((x - y) % g, minlength=g).min() > 0


class TestCompileReport:
    def test_rounded_away_pair_reads_zero_over_one(self):
        t = np.zeros((3, 3), dtype=complex)
        for (a, b), v in {(0, 1): 1e-4, (1, 2): (math.pi / 2) * 10 / 400}.items():
            t[a, b], t[b, a] = 1j * v, -1j * v
        m = quantize.compile_target(t, 1e-3, 20)
        report = quantize.compile_report(m, t)
        assert report["pairs"] == [
            {"pair": [0, 1], "num": 0, "den": 1, "target": 1e-4, "achieved": 0.0,
             "abs_error": 1e-4},
            {"pair": [1, 2], "num": 10, "den": 400, "target": t[1, 2].imag,
             "achieved": quantize.INTERCHANGE_WEIGHT * 10 / 400, "abs_error": 0.0},
        ]
        assert report["max_abs_error"] == 1e-4

    def test_coupled_pair_missing_from_target(self):
        report = quantize.compile_report(two_state_model(10, 7), np.zeros((2, 2)))
        achieved = quantize.INTERCHANGE_WEIGHT / 70
        assert report == {
            "pairs": [{"pair": [0, 1], "num": 1, "den": 70, "target": 0.0,
                       "achieved": achieved, "abs_error": achieved}],
            "max_abs_error": achieved}

    def test_empty_target(self):
        m = fastslow.OntologicalModel(slow_count=3, periods=(4, 4, 4))
        report = quantize.compile_report(m, np.zeros((3, 3), dtype=complex))
        assert report == {"pairs": [], "max_abs_error": 0.0}


class TestSerialization:
    def test_target_roundtrip(self):
        t = TestCompileTarget.pair_target(0.25)
        again = quantize.target_from_json(quantize.target_to_json(t))
        assert np.array_equal(t, again)

    def test_diagonal_entry_in_file_is_caught(self):
        t = quantize.target_from_json('{"size": 2, "couplings": [{"pair": [1, 1], "imag": 0.5}]}')
        with pytest.raises(quantize.NotRepresentableError):
            quantize.validate_target(t)


class TestLoopSigns:
    H = (math.pi / 2) / 400

    def triangle(self, signs) -> np.ndarray:
        t = np.zeros((3, 3), dtype=complex)
        for (a, b), sign in zip([(0, 1), (1, 2), (0, 2)], signs):
            t[a, b], t[b, a] = 1j * sign * self.H, -1j * sign * self.H
        return t

    def test_loop_of_the_wrong_sign_is_refused(self):
        # it compiled at max_abs_error 0.0 while its occupations differed from
        # the target's by up to 0.997 over t = 50...300
        target = self.triangle((1, 1, 1))
        with pytest.raises(quantize.NotRepresentableError, match=r"coupling loop \[2, 0, 1, 2\]"):
            quantize.compile_target(target, 1e-6, 20)

    def test_loop_below_a_common_ancestor_is_trimmed_to_the_loop(self):
        # the walk reaches 2 and 3 from 1 and closes (2, 3) at 3: the paths up
        # from 3 and 2 meet at 1, so their shared tail, state 0, is trimmed off
        t = np.zeros((5, 5), dtype=complex)
        for (a, b), v in [((0, 1), -0.01), ((1, 2), -0.01), ((2, 3), -0.01), ((1, 3), 0.01)]:
            t[a, b], t[b, a] = 1j * v, -1j * v
        with pytest.raises(quantize.NotRepresentableError, match=r"coupling loop \[3, 1, 2, 3\] "):
            quantize.compile_target(t, 1e-3, 20)

    def test_gauge_of_the_machine_compiles_as_the_machine_sign(self):
        gauge = quantize.compile_target(self.triangle((1, 1, -1)), 1e-6, 20)
        assert gauge == quantize.compile_target(self.triangle((-1, -1, -1)), 1e-6, 20)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_refused_or_same_dynamics(self, data):
        # exact magnitudes (pi/2) k/144 with random signs: the compile is exact
        # at shared period 12, so the only refusal left is the loop sign, which
        # a brute force over every basis sign change D = diag(+-1) decides
        n = data.draw(st.sampled_from([3, 4]))
        t = np.zeros((n, n), dtype=complex)
        for a in range(n):
            for b in range(a + 1, n):
                v = data.draw(st.integers(-16, 16)) * quantize.INTERCHANGE_WEIGHT / 144
                t[a, b], t[b, a] = 1j * v, -1j * v
        upper = np.triu_indices(n, 1)
        representable = any(np.all((np.outer(d, d) * t)[upper].imag <= 0)
                            for d in itertools.product((1, -1), repeat=n))
        try:
            m = quantize.compile_target(t, 1e-9, 12)
        except quantize.NotRepresentableError:
            assert not representable
            return
        assert representable
        h_eff = quantize.ground_project(m).matrix
        for time in (1.0, 7.0, 40.0, 150.0):
            target_u = np.abs(quantize.evolution_operator(t, time))
            assert np.abs(target_u - np.abs(quantize.evolution_operator(h_eff, time))).max() <= 1e-9


def test_compare_checks_the_ontic_cap_first(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerate_exact ran before the ontic space was checked")

    monkeypatch.setattr(fastslow, "enumerate_exact", no_enumeration)
    with pytest.raises(ontodyn.SizeCapError, match="ontic space 1998000"):
        quantize.compare_dynamics(two_state_model(1000, 999), 0, 5)


@pytest.mark.parametrize("initial,horizon,samples,error", [
    (1, True, 0, "horizon must be an integer >= 0, not True"),
    (0, 2.0, 0, "horizon must be an integer >= 0, not 2.0"),
    (0.0, 2, 0, "unknown slow state 0.0"),
    (0, 2, 2.5, "sample_count must be an integer >= 1, not 2.5"),
])
def test_compare_refuses_non_integer_arguments_before_the_step_table(
        monkeypatch, initial, horizon, samples, error):
    def no_step_table(*args):
        raise AssertionError("the step table was built before the arguments were checked")

    monkeypatch.setattr(fastslow, "step_tables", no_step_table)
    with pytest.raises(ValueError, match=f"^{error}$"):
        quantize.compare_dynamics(two_state_model(10, 7), initial, horizon, samples)


def test_max_period_cap():
    target = np.array([[0.0, 0.01j], [-0.01j, 0.0]])
    with pytest.raises(ontodyn.SizeCapError, match=f"exceeds cap {quantize.MAX_PERIOD_CAP}"):
        quantize.compile_target(target, 1e-3, quantize.MAX_PERIOD_CAP + 1)
    assert quantize.compile_target(target, 1e-3, quantize.MAX_PERIOD_CAP).slow_count == 2


@pytest.mark.parametrize("tolerance,max_period,message", [
    (0.0, 20, "tolerance must be positive"), (math.inf, 20, "tolerance must be positive"),
    (1e-3, 0, "max_period must be >= 1")])
def test_compile_refuses_a_bad_tolerance_or_period(tolerance, max_period, message):
    target = np.array([[0.0, 0.01j], [-0.01j, 0.0]])
    with pytest.raises(ValueError, match=message):
        quantize.compile_target(target, tolerance, max_period)


def test_interchange_cap_is_refused_before_any_allocation():
    model = two_state_model(2048, 2049)  # 8 392 704 ontic states
    tracemalloc.start()
    try:
        with pytest.raises(ontodyn.SizeCapError, match="exceeds interchange cap"):
            quantize.build_interchange(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def star_target(x: float) -> np.ndarray:
    """Four states, state 0 coupled to each other one at imag -x*pi/2."""
    t = np.zeros((4, 4), dtype=complex)
    t[0, 1:] = -1j * x * quantize.INTERCHANGE_WEIGHT
    t[1:, 0] = 1j * x * quantize.INTERCHANGE_WEIGHT
    return t


def test_shared_period_refusal_builds_no_points():
    # the centre clock's three blocks overflow every q, which is found before any
    # q*q points are built: a refusal costs O(max_period * pairs)
    start = time.perf_counter()
    with pytest.raises(quantize.UnreachableToleranceError,
                       match=r"^trigger budget of shared clocks exhausted at pair \(0, 2\)$"):
        quantize.compile_target(star_target(0.9), 1e-3, quantize.MAX_PERIOD_CAP)
    assert time.perf_counter() - start < 1.0


def test_shared_period_star_compiles_as_before():
    model = quantize.compile_target(star_target(0.1), 1e-3, 60)
    digest = hashlib.sha256(fastslow.model_to_json(model).encode()).hexdigest()
    assert model.periods == (60, 60, 60, 60) and len(model.special_points) == 1080
    assert digest.startswith("cc26efb01d8d3966")


def test_snapped_two_state_targets_compile_as_before():
    # (pi/2) K/(Pa*Pb) on distinct prime periods, K coprime to both, as the
    # benchmark snaps its 2-state targets: each compiles to exactly its K points
    digest = hashlib.sha256()
    primes = (37, 41, 43, 47, 79, 83, 89, 97)
    for i, (pa, pb) in enumerate(itertools.islice(itertools.combinations(primes, 2), 20)):
        k = max(1, round(10 ** (-3 + 2.5 * i / 19) * pa * pb))
        while k % pa == 0 or k % pb == 0:
            k += 1
        mag = quantize.INTERCHANGE_WEIGHT * k / (pa * pb)
        model = quantize.compile_target(np.array([[0, 1j * mag], [-1j * mag, 0]]), 1e-4, 200)
        assert model.periods == (pa, pb) and len(model.special_points) == k
        digest.update(fastslow.model_to_json(model).encode())
    assert digest.hexdigest().startswith("31639b0e4a023e9a")


@pytest.mark.parametrize("periods", [(2, 3), (16, 32), (21, 35), (4, 6, 9), (1, 7, 1, 5)])
def test_free_levels_against_the_direct_sum(periods):
    # per phase combination: its float sum, in the clocks' order, and its exact level
    model = fastslow.OntologicalModel(len(periods), periods)
    sums = np.zeros(1)
    for period in periods:
        sums = (sums[:, None] + 2.0 * np.pi * np.arange(period) / period).reshape(-1)
    exact = Counter(sum(Fraction(n, t) for n, t in zip(phases, periods))
                    for phases in itertools.product(*map(range, periods)))
    levels, distinct, counts = quantize.free_levels(model)
    assert np.array_equal(levels, np.sort(sums))
    assert np.array_equal(free_energy_levels(model),
                          np.sort(np.tile(sums, model.slow_count)))
    assert counts.tolist() == [exact[x] * model.slow_count for x in sorted(exact)]
    assert np.allclose(distinct, [2 * np.pi * float(x) for x in sorted(exact)], rtol=0, atol=1e-12)


def test_free_levels_size_cap():
    # (3000, 3001) would take 343 MiB of levels; refused before any allocation
    model = fastslow.OntologicalModel(slow_count=2, periods=(3000, 3001))
    with pytest.raises(ontodyn.SizeCapError, match="enumeration cap"):
        free_energy_levels(model)


def test_target_size_cap():
    doc = json.dumps({"size": quantize.TARGET_CAP + 1, "couplings": []})
    with pytest.raises(ontodyn.SizeCapError, match="target size"):
        quantize.target_from_json(doc)
