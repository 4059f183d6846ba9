"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import math
import time
from fractions import Fraction

import numpy as np
import scipy.sparse as sparse

from ontosim import bellkit, fastslow, ontodyn, quantize
from ontosim.fixtures import fixture_path

from conftest import (ground_delta_expectation, make_rng, random_factorized_model, random_model,
                      two_state_model)
from test_quantize import exact_projection_table

SQRT2 = math.sqrt(2.0)


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d}: {status}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_figure_fixture_ranks():
    start = time.perf_counter()
    law = ontodyn.load_law(fixture_path("figure1.json"))
    ranks = ontodyn.decompose(law).ranks
    elapsed = time.perf_counter() - start
    ok = ranks == (2, 3, 6, 8, 11) and elapsed < 1.0
    _report(1, ok, f"30-state fixture ranks {ranks} in {elapsed:.3f}s")


def test_criterion_02_spectral_law():
    rng = make_rng(1001)
    worst_phase = worst_energy = worst_action = 0.0
    for cycle_length in rng.integers(1, 513, size=50):
        t = int(cycle_length)
        spec = ontodyn.cycle_spectrum(t)
        n = np.arange(t)
        worst_phase = max(worst_phase, float(
            np.abs(spec.eigenphases - np.exp(-2j * np.pi * n / t)).max()))
        worst_energy = max(worst_energy, float(
            np.abs(spec.energies - 2 * np.pi * n / t).max()))
        shift = sparse.csr_matrix(
            (np.ones(t), ((n + 1) % t, n)), shape=(t, t))
        action = shift @ spec.eigenvectors - spec.eigenvectors * spec.eigenphases
        worst_action = max(worst_action, float(np.abs(action).max()))
    ok = worst_phase <= 1e-10 and worst_energy <= 1e-10 and worst_action <= 1e-10
    _report(2, ok, f"50 random cycles T<=512: max phase dev {worst_phase:.2e}, "
                   f"energy dev {worst_energy:.2e}, shift-action dev {worst_action:.2e}")


def test_criterion_03_classical_interchange():
    got = quantize.evolution_operator(quantize.INTERCHANGE_WEIGHT * quantize.PAULI_Y, 1.0)
    dev = float(np.abs(got - np.array([[0.0, -1.0], [1.0, 0.0]])).max())
    _report(3, dev <= 1e-12, f"exp(-(pi/2)i sigma_y) deviation {dev:.2e}")


def test_criterion_04_ground_state_expectations():
    ok = all(
        ground_delta_expectation(n, trigger=n // 3) == Fraction(1, n)
        for n in range(2, 65))
    _report(4, ok, "<0|delta|0> = 1/N exactly for N in 2..64 (rational arithmetic)")


def test_criterion_05_effective_hamiltonian_identity():
    start = time.perf_counter()
    rng = make_rng(1005)
    checked_pairs = 0
    ok = True
    for _ in range(100):
        model = random_model(rng, max_slow=4, min_period=2, max_period=30,
                             min_slow=2, min_points=1, max_points=6)
        eff = quantize.ground_project(model)  # exact table, checked by entry counts inside
        table = exact_projection_table(model)  # exact Fractions from the sparse matrix
        expected = {pc.pair: pc.fraction for pc in eff.couplings}
        ok = ok and table == expected
        checked_pairs += len(expected)
    elapsed = time.perf_counter() - start
    ok = ok and checked_pairs >= 100 and elapsed < 30.0
    _report(5, ok, f"100 random models, {checked_pairs} couplings exact after "
                   f"factoring pi/2, in {elapsed:.1f}s")


def test_criterion_06_koopman_exactness():
    cases = [
        (two_state_model(10, 7), 3 * 70),
        (two_state_model(32, 64), 3 * 64),  # ontic space 2*32*64 = 2^12
        (fastslow.OntologicalModel(
            slow_count=3, periods=(4, 5, 3),
            special_points=(fastslow.SpecialPoint(pair=(0, 1), trigger=(0, 0)),
                            fastslow.SpecialPoint(pair=(1, 2), trigger=(1, 2)))),
         3 * math.lcm(4, 5, 3)),
    ]
    worst = 0.0
    dims = []
    for model, horizon in cases:
        cmp_ = quantize.compare_dynamics(model, 0, horizon)
        worst = max(worst, cmp_.max_classical_quantum)
        dims.append(model.ontic_space_size)
    _report(6, worst <= 1e-10,
            f"diagonal quantum vs exhaustive classical, dims {dims}, max dev {worst:.2e}")


def test_criterion_07_flip_period_consistency():
    ok = True
    details = []
    for n0, n1 in [(10, 7), (9, 4), (5, 3)]:
        model = two_state_model(n0, n1)
        joint = n0 * n1
        image = fastslow.step_map(model).image
        state = np.arange(joint)  # slow state 0 with every phase combination
        flips = np.zeros(joint, dtype=np.int64)
        for t in range(1, 2 * joint + 1):
            before = state // joint
            state = image[state]
            slow = state // joint
            flips += before != slow
            if t == joint:
                ok = ok and bool(np.all(flips == 1)) and bool(np.all(slow == 1))
        ok = ok and bool(np.all(flips == 2)) and bool(np.all(slow == 0))
        # effective side, in exact arithmetic: (pi/2)/|H_eff| = 1/fraction steps
        coupling = quantize.ground_project(model).coupling((0, 1))
        ok = ok and (1 / coupling == joint)
        details.append(f"({n0},{n1})->{joint}")
    _report(7, ok, "classical flip once per N0*N1 steps and effective flip time "
                   f"equal, exactly, for {', '.join(details)}")


def test_criterion_08_compiler_soundness():
    start = time.perf_counter()
    rng = make_rng(1008)
    worst = 0.0
    for _ in range(50):
        mag = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.3))))
        target = np.array([[0.0, -1j * mag], [1j * mag, 0.0]]).T
        model = quantize.compile_target(target, 1e-4, 200)
        eff = quantize.ground_project(model)
        achieved = quantize.INTERCHANGE_WEIGHT * float(eff.coupling((0, 1)))
        worst = max(worst, abs(achieved - mag))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    _report(8, ok, f"50 random 2-state targets at tol 1e-4: worst verified error "
                   f"{worst:.2e} in {elapsed:.1f}s")


def test_criterion_09_quantum_chsh_and_factorized_bound():
    quantum = bellkit.chsh_score(bellkit.quantum_correlation, *bellkit.STANDARD_SETTINGS)
    dev = abs(quantum.score - 2 * SQRT2)
    rng = make_rng(1009)
    worst = 0.0
    for _ in range(500):
        model = random_factorized_model(rng)
        r = bellkit.chsh_score(
            lambda a, b: bellkit.factorized_correlation(model, a, b),
            *bellkit.STANDARD_SETTINGS)
        worst = max(worst, abs(r.score))
    ok = dev <= 1e-12 and worst <= 2.0 + 1e-9
    _report(9, ok, f"S = 2*sqrt(2) within {dev:.2e}; 500 factorized models "
                   f"max |S| = {worst:.12f}")


def test_criterion_10_correlated_distribution():
    start = time.perf_counter()
    grid = np.linspace(0.0, math.pi, 64, endpoint=False)
    worst_grid = 0.0
    for a in grid:
        for b in grid:
            err = abs(bellkit.correlated_expectation(a, b)
                      - bellkit.quantum_correlation(a, b))
            worst_grid = max(worst_grid, err)

    worst_marginal = max(bellkit.marginal_flatness(which) for which in ("lambda", "a", "b"))
    c_half = bellkit.normalization_constant(math.pi)
    c_quarter = bellkit.normalization_constant(2 * math.pi)

    mc = bellkit.mc_chsh(*bellkit.STANDARD_SETTINGS,
                         samples_per_setting=250_000, seed=20260809)
    mc_dev = abs(mc.score - 2 * SQRT2)

    elapsed = time.perf_counter() - start
    ok = (worst_grid <= 1e-6 and worst_marginal <= 1e-8
          and abs(c_half - 0.5) <= 1e-10 and abs(c_quarter - 0.25) <= 1e-10
          and mc_dev <= 0.01 and elapsed < 60.0)
    _report(10, ok, f"64x64 grid max err {worst_grid:.2e}; marginals {worst_marginal:.2e}; "
                    f"C(pi)={c_half:.12f}, C(2pi)={c_quarter:.12f}; "
                    f"MC CHSH dev {mc_dev:.4f} at 1e6 samples; {elapsed:.1f}s")
