"""Hilbert-space representation of a slow/fast machine.

The product basis is |slow> (x) |phase_0> (x) ... (x) |phase_{n-1}>, flattened
slow-major (see :func:`ontosim.fastslow.flat_config`).  On it live:

* the free clock Hamiltonian, a sum of one Hermitian circulant per clock whose
  eigenvalues are ``2*pi*n_i/T_i``, so the total free spectrum is the direct
  sum ``2*pi*sum_i n_i/T_i`` with one zero level per slow state;
* the interchange Hamiltonian, one term ``(pi/2) * sigma_y`` on the slow pair
  of each special point, tensored with projectors onto the trigger phases.
  The pi/2 weight makes one step of its evolution an exact classical swap
  (up to an immaterial sign), so the whole one-step evolution operator is a
  signed permutation: basis states never superpose.

Projecting the interchange Hamiltonian onto the clocks' uniform ground states
leaves an N x N slow-space matrix whose pair (alpha, beta) element has
magnitude ``(pi/2) * N_s / (N_alpha * N_beta)``, an exact rational multiple
of pi/2 tracked here in integer arithmetic: the matrix is checked by counting
its entries per slow block, never by summing them as floats.
:func:`compile_target` inverts this: given a target matrix of such couplings
it picks clock periods and special-point placements.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, TYPE_CHECKING

import numpy as np

from . import fastslow, ontodyn
from .ontodyn import SizeCapError

if TYPE_CHECKING:  # imported where a matrix is built: most runs never need it
    import scipy.sparse as sparse

TARGET_CAP = 2 ** 10
# A machine has up to max_period**2 points per pair (a 3-state chain target
# compiles in about 2 s at this cap, 2-CPU VM); a shared-period refusal costs
# O(max_period * pairs), a period-pair search O(max_period**2), ~20 ms, per pair.
MAX_PERIOD_CAP = 2000
INTERCHANGE_CAP = 2 ** 22
INTERCHANGE_WEIGHT = math.pi / 2
_SEARCH_ROWS = 32  # period-grid rows per block: memory O(max_period), not its square

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


class NonHermitianError(ValueError):
    """Evolution was requested under a non-Hermitian matrix."""


class NotRepresentableError(ValueError):
    """Target matrix is outside the class reachable by sigma_y interchanges."""


class UnreachableToleranceError(ValueError):
    """No special-point table within the period cap meets the tolerance."""


class ProjectionMismatchError(ontodyn.InternalCheckError):
    """The interchange matrix does not hold the entries the rational table counts."""


# ---------------------------------------------------------------------------
# Hamiltonians

@dataclass(frozen=True, eq=False)
class InterchangeHamiltonian:
    """Sparse interchange Hamiltonian on the product space."""

    matrix: sparse.csr_matrix


def clock_hamiltonian(period: int) -> np.ndarray:
    """Dense Hermitian generator of a single clock; exp(-1j*H) is its tick."""
    spec = ontodyn.cycle_spectrum(period)
    v = spec.eigenvectors
    h = (v * spec.energies) @ v.conj().T
    return (h + h.conj().T) / 2


def build_interchange(model: fastslow.OntologicalModel) -> InterchangeHamiltonian:
    """Interchange Hamiltonian on the full product space.

    Element convention: for a pair (alpha, beta) with alpha < beta the block
    is (pi/2) * sigma_y in the ordered basis (alpha, beta), i.e. the
    (alpha, beta) entry is -1j*pi/2 on every phase combination of the pair's
    firing set, the one :func:`fastslow.step_tables` swaps on a tick later.
    """
    import scipy.sparse as sparse

    dim = model.ontic_space_size
    if dim > INTERCHANGE_CAP:
        raise SizeCapError(f"ontic space {dim} exceeds interchange cap {INTERCHANGE_CAP}")
    p_total = model.phase_space_size
    rows = [np.empty(0, dtype=np.int64)]
    cols = [np.empty(0, dtype=np.int64)]
    vals = [np.empty(0, dtype=complex)]
    for (a, b), triggers in fastslow._pair_triggers(model).items():
        flats = fastslow._firing_flats(model, (a, b), triggers)
        rows.extend([a * p_total + flats, b * p_total + flats])
        cols.extend([b * p_total + flats, a * p_total + flats])
        vals.extend([
            np.full(flats.size, -1j * INTERCHANGE_WEIGHT),
            np.full(flats.size, 1j * INTERCHANGE_WEIGHT),
        ])
    matrix = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim))
    return InterchangeHamiltonian(matrix=matrix)


def build_full_hamiltonian(model: fastslow.OntologicalModel):
    """(free clock Hamiltonian, interchange Hamiltonian) on the product space."""
    import scipy.sparse as sparse

    dim = model.ontic_space_size
    if dim > ontodyn.DENSE_CAP:
        raise SizeCapError(f"ontic space {dim} exceeds dense cap {ontodyn.DENSE_CAP}")
    # kronsum(h, H) = H (x) 1 + 1 (x) h: each clock joins as the next factor,
    # starting from the zero matrix on the slow states
    h_fast = sparse.csr_matrix((model.slow_count, model.slow_count), dtype=complex)
    for period in model.periods:
        h_fast = sparse.kronsum(sparse.csr_matrix(clock_hamiltonian(period)), h_fast,
                                format="csr")
    return h_fast, build_interchange(model)


def free_levels(model: fastslow.OntologicalModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The free levels 2*pi*sum_i n_i/T_i of the P phase combinations, sorted; the distinct
    levels 2*pi*m/L, m = sum_i n_i*L/T_i and L = lcm(periods), each the least of its sums;
    and their multiplicities, slow states included.  No matrix is built; a P above
    :data:`fastslow.ENUMERATION_CAP` is refused, whatever the slow count."""
    fastslow.check_enumerable("phase space", model.phase_space_size)
    lap = math.lcm(*model.periods)
    levels, numerators = np.zeros(1), np.zeros(1, dtype=np.int64)
    for period in model.periods:
        levels = (levels[:, None] + 2.0 * np.pi * np.arange(period) / period).reshape(-1)
        numerators = (numerators[:, None] + np.arange(period) * (lap // period)).reshape(-1)
    order = np.lexsort((levels, numerators))  # by m, then sum; distinct m lie 2*pi/L apart
    _, first, counts = np.unique(numerators[order], return_index=True, return_counts=True)
    return levels[order], levels[order[first]], counts * model.slow_count


def evolution_operator(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """exp(-1j*H*t) through the Hermitian eigendecomposition."""
    h = _require_hermitian(hamiltonian)
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def schrodinger_evolve(hamiltonian: np.ndarray, state: np.ndarray,
                       t: float | np.ndarray) -> np.ndarray:
    """Evolve a state vector under a Hermitian matrix for time t.

    ``t`` is a number, or a 1-d array of times for one state per row.
    Spectral decomposition keeps the norm exact up to rounding and is linear
    in the state by construction.
    """
    h = _require_hermitian(hamiltonian)
    psi = np.asarray(state, dtype=complex)
    evals, evecs = np.linalg.eigh(h)
    return (np.exp(-1j * np.multiply.outer(t, evals)) * (evecs.conj().T @ psi)) @ evecs.T


def _require_hermitian(hamiltonian) -> np.ndarray:
    h = np.asarray(
        hamiltonian.toarray() if hasattr(hamiltonian, "toarray") else hamiltonian,
        dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("Hamiltonian must be a square matrix")
    scale = max(1.0, float(np.abs(h).max(initial=0.0)))
    if float(np.abs(h - h.conj().T).max(initial=0.0)) > 1e-12 * scale:
        raise NonHermitianError("matrix is not Hermitian")
    return h


# ---------------------------------------------------------------------------
# ground projection

@dataclass(frozen=True)
class PairCoupling:
    """Exact coupling bookkeeping for one slow pair: N_s points over N_a*N_b cells."""

    pair: tuple[int, int]
    points: int
    denominator: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.points, self.denominator)


@dataclass(frozen=True, eq=False)
class EffectiveHamiltonian:
    """Slow-space Hamiltonian left after the clocks are frozen in their ground states.

    ``matrix[a, b] = -1j * (pi/2) * points/denominator`` for each coupled pair
    a < b (sigma_y structure: zero diagonal, purely imaginary, antisymmetric).
    ``couplings`` carries the same content in exact integer form.
    """

    matrix: np.ndarray
    couplings: tuple[PairCoupling, ...]

    def coupling(self, pair: tuple[int, int]) -> Fraction:
        key = tuple(sorted(pair))
        for pc in self.couplings:
            if pc.pair == key:
                return pc.fraction
        return Fraction(0, 1)


def _pair_counts(model: fastslow.OntologicalModel) -> tuple[PairCoupling, ...]:
    return tuple(
        PairCoupling(pair=pair, points=len(triggers),
                     denominator=model.periods[pair[0]] * model.periods[pair[1]])
        for pair, triggers in fastslow._pair_triggers(model).items())


def ground_project(model: fastslow.OntologicalModel) -> EffectiveHamiltonian:
    """Project the interchange Hamiltonian onto the clocks' ground subspace.

    The result is the exact rational table, ``-1j * (pi/2) * points/(Pa*Pb)``
    on each coupled pair a < b.  Within :data:`INTERCHANGE_CAP` it is checked
    against :func:`build_interchange`'s matrix, whose ground projection is
    the sum of each slow block's entries over
    P = :attr:`fastslow.OntologicalModel.phase_space_size`: every entry must
    be -1j*pi/2 above the diagonal and +1j*pi/2 below it, and each block
    (a, b) must hold exactly points*P/(Pa*Pb) entries, an integer.  Any
    other matrix raises ProjectionMismatchError.  Above the cap no matrix is
    built.
    """
    n = model.slow_count
    couplings = _pair_counts(model)
    expected = np.zeros((n, n), dtype=complex)
    for pc in couplings:
        a, b = pc.pair
        expected[a, b] = -1j * INTERCHANGE_WEIGHT * pc.points / pc.denominator
        expected[b, a] = expected[a, b].conjugate()
    if model.ontic_space_size <= INTERCHANGE_CAP:
        p_total = model.phase_space_size
        entries = np.zeros((n, n), dtype=np.int64)
        for pc in couplings:
            entries[pc.pair] = entries[pc.pair[::-1]] = pc.points * (p_total // pc.denominator)
        coo = build_interchange(model).matrix.tocoo()
        weights = np.where(coo.row < coo.col, -1j * INTERCHANGE_WEIGHT, 1j * INTERCHANGE_WEIGHT)
        blocks = np.bincount(coo.row // p_total * n + coo.col // p_total, minlength=n * n)
        if np.any(coo.data != weights) or not np.array_equal(blocks, entries.ravel()):
            raise ProjectionMismatchError(
                "explicit ground projection disagrees with the rational table")
    return EffectiveHamiltonian(matrix=expected, couplings=couplings)


# ---------------------------------------------------------------------------
# one-step evolution as a signed permutation

def koopman_step_operator(model: fastslow.OntologicalModel) -> tuple[np.ndarray, np.ndarray]:
    """The one-step unitary exp(-1j*H_int) exp(-1j*H_fast) in exact form.

    Both factors map basis states to single basis states (the tick is a plain
    permutation; a firing interchange is (pi/2)-rotation by sigma_y, a swap
    where the amplitude moving to the smaller slow index picks up -1).
    Returns ``(perm, sign)``: basis state f maps to sign[f] * |perm[f]>.
    ``perm`` is the image of :func:`fastslow.step_map`, the flat table of
    :func:`fastslow.step_tables`, and ``sign`` is -1 where it lowers the slow
    state.
    """
    perm = fastslow.step_map(model).image
    p_total = model.phase_space_size
    sign = np.where(perm // p_total < np.arange(perm.size) // p_total, -1, 1).astype(np.int8)
    return perm, sign


def apply_koopman_step(perm: np.ndarray, sign: np.ndarray, psi: np.ndarray) -> np.ndarray:
    out = np.empty_like(psi)
    out[perm] = sign * psi
    return out


# ---------------------------------------------------------------------------
# classical / full-quantum / effective comparison

@dataclass(frozen=True, eq=False)
class DynamicsComparison:
    """Slow-state occupation curves from three descriptions of one machine.

    ``classical`` is the exhaustive classical ensemble, ``quantum`` the full
    unitary evolution of the uniform-clock product state read diagonally in
    the ontic basis, ``effective`` the prediction of the projected slow-space
    Hamiltonian.  ``classical`` and ``quantum`` agree to rounding (the step
    operator is a signed permutation); ``effective`` is an approximation
    whose error is reported, not asserted.
    """

    initial_slow: int
    times: np.ndarray
    classical: np.ndarray
    quantum: np.ndarray
    effective: np.ndarray
    ensemble: np.ndarray | None
    max_classical_quantum: float
    max_classical_effective: float

    def transition(self, curve: np.ndarray) -> np.ndarray:
        """Probability of having left the initial slow state, per time step."""
        return 1.0 - curve[:, self.initial_slow]


def compare_dynamics(model: fastslow.OntologicalModel, initial_slow: int, horizon: int,
                     sample_count: int = 0, seed: int = 0) -> DynamicsComparison:
    """Slow-state occupations of ``model`` from ``initial_slow``, steps 0..``horizon``.

    ``classical`` is :func:`fastslow.enumerate_exact` over every clock phase;
    ``quantum`` steps |initial_slow> with every clock in its uniform ground
    state by :func:`koopman_step_operator` and reads it in the ontic basis;
    ``effective`` evolves the slow state under :func:`ground_project`'s
    matrix.  With ``sample_count`` > 0 a seeded :func:`fastslow.run_ensemble`
    rides along.  A horizon or slow state that is not an integer in range is
    refused first, then each size cap before anything is allocated: the ontic
    space, then the occupation table, then the samples.
    """
    fastslow._check_run(model, initial_slow, horizon, "ontic space", model.ontic_space_size)
    ensemble = (fastslow.run_ensemble(model, initial_slow, horizon, sample_count, seed)
                if sample_count > 0 else None)
    n = model.slow_count
    p_total = model.phase_space_size
    perm, sign = koopman_step_operator(model)
    classical = fastslow.enumerate_exact(model, initial_slow, horizon).fractions

    # |initial_slow> with every clock in its uniform ground state: real, and
    # the step is a real signed permutation, so psi stays real throughout
    psi = np.zeros(model.ontic_space_size)
    psi[initial_slow * p_total:(initial_slow + 1) * p_total] = 1.0 / math.sqrt(p_total)
    quantum = np.empty((horizon + 1, n))
    quantum[0] = (psi ** 2).reshape(n, p_total).sum(axis=1)
    for t in range(1, horizon + 1):
        psi = apply_koopman_step(perm, sign, psi)
        quantum[t] = (psi ** 2).reshape(n, p_total).sum(axis=1)

    effective = np.abs(schrodinger_evolve(
        ground_project(model).matrix, np.eye(n)[initial_slow], np.arange(horizon + 1))) ** 2
    return DynamicsComparison(
        initial_slow=initial_slow,
        times=np.arange(horizon + 1),
        classical=classical,
        quantum=quantum,
        effective=effective,
        ensemble=ensemble,
        max_classical_quantum=float(np.abs(classical - quantum).max()),
        max_classical_effective=float(np.abs(classical - effective).max()),
    )


def write_comparison_csv(comparison: DynamicsComparison, stream: IO[str]) -> None:
    """Rows ``t, classical, full_quantum, effective[, ensemble]`` (probability
    of having left the initial slow state); the ``ensemble`` column only when
    the comparison carries a seeded ensemble."""
    curves = {"classical": comparison.classical, "full_quantum": comparison.quantum,
              "effective": comparison.effective, "ensemble": comparison.ensemble}
    curves = {name: comparison.transition(c) for name, c in curves.items() if c is not None}
    ontodyn.write_csv(stream, ["t", *curves], [(comparison.times, *curves.values())])


# ---------------------------------------------------------------------------
# target Hamiltonians and the compiler

def validate_target(target) -> np.ndarray:
    """Check membership in the representable class: zero diagonal, purely
    imaginary antisymmetric off-diagonal (i.e. real multiples of sigma_y)."""
    t = np.asarray(target, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] < 1:
        raise NotRepresentableError("target has no states" if t.shape == (0, 0)
                                    else "target must be a square matrix")
    if not np.all(np.isfinite(t)):
        raise NotRepresentableError("target has entries that are not finite")
    if np.any(t.diagonal() != 0):
        raise NotRepresentableError("target has nonzero diagonal elements")
    if np.any(t.real != 0):
        raise NotRepresentableError("target has nonzero real parts")
    if not np.array_equal(t, t.conj().T):
        raise NotRepresentableError("target is not Hermitian")
    return t


def target_from_json(text: str) -> np.ndarray:
    """Parse ``{"size": N, "couplings": [{"pair": [a, b], "imag": v}, ...]}``;
    a pair listed twice, in either order, is refused, never summed."""
    doc = ontodyn.json_object(json.loads(text), "target document", ("size",))
    n = ontodyn.json_int(doc["size"], "target field 'size'", 0)
    entries = ontodyn.json_objects(doc.get("couplings", []), "target field 'couplings'",
                                   ("pair", "imag"))
    couplings = [(ontodyn.json_ints(entry["pair"], "target field 'pair'", 2),
                  ontodyn.json_real(entry["imag"], "target field 'imag'", text=True))
                 for entry in entries]
    if n > TARGET_CAP:
        raise SizeCapError(f"target size {ontodyn.shown(n)} exceeds cap {TARGET_CAP}")
    t = np.zeros((n, n), dtype=complex)
    listed = set()
    for (a, b), v in couplings:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"coupling references unknown state: {ontodyn.shown([a, b])}")
        if {(a, b), (b, a)} & listed:
            raise ValueError(f"target field 'pair' lists {ontodyn.shown([a, b])} twice")
        listed.add((a, b))
        t[b, a], t[a, b] = -1j * v, 1j * v  # on the diagonal, 1j * v stands
    return t


def load_target(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return target_from_json(fh.read())


def target_to_json(target: np.ndarray) -> str:
    t = np.asarray(target, dtype=complex)
    entries = [
        {"pair": [a, b], "imag": float(t[a, b].imag)}
        for a in range(t.shape[0]) for b in range(a + 1, t.shape[0])
        if t[a, b] != 0]
    return json.dumps({"size": t.shape[0], "couplings": entries}, indent=2)


def _nearest_count(mag: float, cells):
    """``(count, error)``: the point count nearest ``mag`` over ``cells`` (a number
    or an array), rint(min(mag/(pi/2), 1) * cells), so at most ``cells``, and its
    error |(pi/2) * count/cells - mag|, the float expression :func:`compile_report`
    prints."""
    count = np.rint(min(mag / INTERCHANGE_WEIGHT, 1.0) * cells)
    return count, np.abs(INTERCHANGE_WEIGHT * count / cells - mag)


def _approximate_coupling(pair: tuple[int, int], mag: float, tolerance: float,
                          max_period: int) -> tuple[int, tuple[int, int]]:
    """``(points, (Pa, Pb))``, Pa <= Pb <= ``max_period``, whose coupling is nearest ``mag``.

    Every period pair takes its :func:`_nearest_count` and is ranked by its
    error; ties go to the fewest cells, then coprime, then balanced periods.
    A least error above ``tolerance`` is refused, naming the nearest miss.
    """
    best = (math.inf,)  # then (error, cells, shares a factor, Pb, Pa, points)
    for first in range(1, max_period + 1, _SEARCH_ROWS):
        rows = np.arange(first, min(first + _SEARCH_ROWS, max_period + 1), dtype=float)
        cols = np.arange(first, max_period + 1, dtype=float)  # Pb < first was tried as Pa
        cells = rows[:, None] * cols
        counts, errors = _nearest_count(mag, cells)
        least = float(errors.min())
        if least > best[0]:
            continue
        ties = np.flatnonzero(errors == least)
        for k in ties[cells.flat[ties] == cells.flat[ties].min()].tolist():
            pa, pb = sorted((first + k // cols.size, first + k % cols.size))
            key = (least, pa * pb, math.gcd(pa, pb) != 1, pb, pa, int(counts.flat[k]))
            best = min(best, key)
    error, _, _, pb, pa, points = best
    if error > tolerance:
        raise UnreachableToleranceError(
            f"coupling {mag} for pair {pair} is not within {tolerance} of any machine with "
            f"periods <= {ontodyn.shown(max_period)}: the nearest, {points} points on "
            f"periods {(pa, pb)}, misses by {error}")
    return points, (pa, pb)


def _spread_points(period_a: int, period_b: int, count: int) -> np.ndarray:
    """count distinct trigger cells of a pair, (count, 2) int64: inverting
    :func:`fastslow._orbit_position`, point k sits at d*L + tau = k*Pa*Pb // count
    (L = lcm(Pa, Pb)), the cell (tau mod Pa, (tau - d) mod Pb).  Each orbit gets
    floor or ceil of count/gcd(Pa, Pb), consecutive ones Pa*Pb // count or one more apart."""
    orbit, tau = np.divmod(np.arange(count, dtype=np.int64) * (period_a * period_b) // count,
                           math.lcm(period_a, period_b))
    return np.column_stack((tau % period_a, (tau - orbit) % period_b))


def _pair_rows(pair: tuple[int, int], triggers: np.ndarray) -> np.ndarray:
    """The special-point table rows (a, b, trigger_a, trigger_b) of one pair."""
    return np.column_stack((np.full((len(triggers), 2), pair, dtype=np.int64), triggers))


def _target_magnitudes(target: np.ndarray) -> dict[tuple[int, int], float]:
    """|H_ab| for every pair a < b that a validated target couples."""
    rows, cols = np.nonzero(np.triu(target, 1))
    return {(int(a), int(b)): abs(float(target[a, b].imag)) for a, b in zip(rows, cols)}


def _check_loop_signs(target: np.ndarray) -> None:
    """Refuse a target whose coupling loops have a sign product no machine has.

    Every machine has imag(H_ab) < 0 for a < b.  A basis sign change
    D = diag(+-1) maps H to D H D, so any sign pattern on a forest of coupled
    pairs is a gauge of the machine's, but the sign product around a loop is
    gauge-invariant.  A walk fixes each state's sign on a spanning forest of
    the coupled pairs; a pair that closes a fundamental loop with the wrong
    sign raises NotRepresentableError naming that loop.
    """
    n = target.shape[0]
    neighbours: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
    rows, cols = np.nonzero(np.triu(target, 1))
    for a, b in zip(rows.tolist(), cols.tolist()):
        flip = bool(target[a, b].imag > 0)  # against the machine's sign
        neighbours[a].append((b, flip))
        neighbours[b].append((a, flip))
    gauge = [0] * n  # each state's sign change, 0 until the walk reaches it
    parent = [-1] * n
    for root in range(n):
        if gauge[root]:
            continue
        gauge[root] = 1
        stack = [root]
        while stack:
            a = stack.pop()
            for b, flip in neighbours[a]:
                want = -gauge[a] if flip else gauge[a]
                if not gauge[b]:
                    gauge[b], parent[b] = want, a
                    stack.append(b)
                elif gauge[b] != want:
                    up_a, up_b = [a], [b]
                    while parent[up_a[-1]] >= 0:
                        up_a.append(parent[up_a[-1]])
                    while parent[up_b[-1]] >= 0:
                        up_b.append(parent[up_b[-1]])
                    while len(up_a) > 1 and len(up_b) > 1 and up_a[-2] == up_b[-2]:
                        up_a.pop()
                        up_b.pop()
                    loop = [*up_a, *reversed(up_b[:-1]), a]
                    raise NotRepresentableError(
                        f"coupling loop {ontodyn.shown(loop)} has a sign product no machine "
                        "has (every machine's H_ab, a < b, has imag < 0)")


def compile_report(model: fastslow.OntologicalModel, target) -> dict:
    """``{"pairs": [...], "max_abs_error": e}`` from the exact point counts.

    One entry ``{"pair", "num", "den", "target", "achieved", "abs_error"}``,
    with ``achieved = (pi/2) * num/den``, per pair the target or the model
    couples, in ascending order; an uncoupled target pair reads 0/1.  No
    Hilbert-space matrix is built.
    """
    magnitudes = _target_magnitudes(validate_target(target))
    counts = {pc.pair: pc for pc in _pair_counts(model)}
    pairs = []
    for pair in sorted(magnitudes.keys() | counts.keys()):
        pc = counts.get(pair, PairCoupling(pair=pair, points=0, denominator=1))
        wanted = magnitudes.get(pair, 0.0)
        achieved = INTERCHANGE_WEIGHT * pc.points / pc.denominator
        pairs.append({"pair": list(pair), "num": pc.points, "den": pc.denominator,
                      "target": wanted, "achieved": achieved,
                      "abs_error": abs(achieved - wanted)})
    return {"pairs": pairs,
            "max_abs_error": max((p["abs_error"] for p in pairs), default=0.0)}


def _shared_period_points(n: int, magnitudes: dict, tolerance: float,
                          q: int) -> list[np.ndarray]:
    """Trigger cells for every coupled pair with all coupled clocks at period q.

    Each pair takes its :func:`_nearest_count` over q*q cells, and each
    state's pairs take disjoint blocks of trigger values so that firing sets
    never conflict; one table block per pair (:func:`_pair_rows`).  A count
    whose error exceeds ``tolerance`` or a state whose blocks overflow its q
    values raises UnreachableToleranceError, before any point is built.
    """
    counts: dict[tuple[int, int], int] = {}
    for pair, mag in sorted(magnitudes.items()):
        count, error = _nearest_count(mag, q * q)
        if error > tolerance:
            raise UnreachableToleranceError(
                f"coupling {mag} for pair {pair} not reachable with shared period {q}")
        if count:
            counts[pair] = int(count)
    blocks = []  # (pair, count, block side, first value on a's clock, on b's)
    offsets = [0] * n
    for (a, b), count in counts.items():
        side = math.isqrt(count - 1) + 1
        if offsets[a] + side > q or offsets[b] + side > q:
            raise UnreachableToleranceError(
                f"trigger budget of shared clocks exhausted at pair {(a, b)}")
        blocks.append(((a, b), count, side, offsets[a], offsets[b]))
        offsets[a] += side
        offsets[b] += side
    points = []
    for pair, count, side, base_a, base_b in blocks:
        k = np.arange(count, dtype=np.int64) * side * side // count
        points.append(_pair_rows(pair, np.column_stack((base_a + k // side, base_b + k % side))))
    return points


def compile_target(target, tolerance: float, max_period: int) -> fastslow.OntologicalModel:
    """Build a machine whose effective Hamiltonian approximates the target.

    Per-pair magnitudes |H_ab| are matched by (pi/2) * points/(Pa*Pb), each
    count judged once, by its :func:`compile_report` error
    (:func:`_nearest_count`), so the machine is built once.  With no slow
    state shared by two coupled pairs, each pair takes the periods of least
    error (:func:`_approximate_coupling`).  When slow states are shared, every
    coupled clock gets one period q, the largest q <= ``max_period`` whose
    counts over q*q meet the tolerance within the trigger budget
    (:func:`_shared_period_points`).  Trigger cells are spread evenly and
    never collide on a shared clock, so the result always passes the
    builder's conflict scan.  A ``max_period`` above :data:`MAX_PERIOD_CAP` is
    refused (SizeCapError) before any search.  If no machine's errors are all
    within ``tolerance``, UnreachableToleranceError is raised, with the
    reason of q = ``max_period`` on the shared path.
    """
    t = validate_target(target)
    _check_loop_signs(t)
    if not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if max_period > MAX_PERIOD_CAP:
        raise SizeCapError(f"max_period {ontodyn.shown(max_period)} exceeds cap {MAX_PERIOD_CAP}")
    n = t.shape[0]
    magnitudes = _target_magnitudes(t)
    # points <= Pa*Pb, so no machine couples a pair more strongly than pi/2
    for pair, mag in sorted(magnitudes.items()):
        if mag > INTERCHANGE_WEIGHT + tolerance:
            raise UnreachableToleranceError(
                f"coupling {mag} for pair {pair} exceeds pi/2, the most any machine reaches")

    degree = Counter(s for pair in magnitudes for s in pair)
    if max(degree.values(), default=0) <= 1:
        periods = [1] * n
        points = []
        for (a, b), mag in sorted(magnitudes.items()):
            count, (pa, pb) = _approximate_coupling((a, b), mag, tolerance, max_period)
            if count == 0:
                continue
            periods[a], periods[b] = pa, pb
            points.append(_pair_rows((a, b), _spread_points(pa, pb, count)))
    else:
        refusal = None  # that of q = max_period, if no q works
        for q in range(max_period, 0, -1):
            try:
                points = _shared_period_points(n, magnitudes, tolerance, q)
                break
            except UnreachableToleranceError as exc:
                refusal = refusal or exc
        else:
            raise refusal
        periods = [q if s in degree else 1 for s in range(n)]
    table = np.concatenate([np.empty((0, 4), dtype=np.int64), *points])
    return fastslow.OntologicalModel(slow_count=n, periods=tuple(periods), special_points=table)
