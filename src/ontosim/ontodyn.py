"""Finite reversible evolution laws and their exact unitary representation.

A deterministic law on a finite state set is a permutation: state ``k`` moves
to ``image[k]`` at every discrete time step.  Promoting each state to a basis
vector of a complex Hilbert space turns the law into a 0/1 unitary matrix (a
Koopman operator).  Each orbit (cycle) of length ``T`` diagonalises into
plane-wave eigenvectors with eigenphases ``exp(-2*pi*1j*n/T)`` and energies
``2*pi*n/T``, so the spectrum of the whole matrix is read off from the cycle
structure alone.

Permutation algebra here is exact integer work; spectra use complex float64.
Dense matrices are refused above ``DENSE_CAP`` states, orbit operations have
no cap.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import IO

import numpy as np

DENSE_CAP = 2 ** 14


class MalformedLawError(ValueError):
    """The image array is not a bijection on [0, size)."""


class SizeCapError(ValueError):
    """State space too large for the requested dense-matrix operation."""


@dataclass(frozen=True, eq=False)
class PermutationLaw:
    """A reversible one-step evolution law on ``size`` states.

    ``image[k]`` is the successor of state ``k``.  The array must be a
    bijection, which makes the law invertible (time reversible).
    """

    image: np.ndarray

    def __post_init__(self):
        img = np.asarray(self.image, dtype=np.int64)
        if img.ndim != 1 or img.size == 0:
            raise MalformedLawError("image must be a non-empty 1-d integer array")
        m = img.size
        if img.min() < 0 or img.max() >= m:
            raise MalformedLawError("image entries must lie in [0, size)")
        if np.bincount(img, minlength=m).max() > 1:
            raise MalformedLawError("image has duplicate entries, not a bijection")
        img.setflags(write=False)
        object.__setattr__(self, "image", img)

    @property
    def size(self) -> int:
        return int(self.image.size)

    def apply(self, k: int) -> int:
        """One forward step of the law."""
        return int(self.image[k])

    def inverse(self) -> "PermutationLaw":
        inv = np.empty(self.size, dtype=np.int64)
        inv[self.image] = np.arange(self.size, dtype=np.int64)
        return PermutationLaw(inv)


@dataclass(frozen=True)
class CycleDecomposition:
    """Partition of the state set into closed orbits.

    ``cycles`` are ordered by their smallest member, each cycle starts at that
    member and follows the law.  ``ranks`` is the multiset of cycle lengths,
    sorted ascending.
    """

    cycles: tuple[tuple[int, ...], ...]
    ranks: tuple[int, ...]

    @property
    def size(self) -> int:
        return sum(self.ranks)


@dataclass(frozen=True, eq=False)
class CycleSpectrum:
    """Exact spectral data of the cyclic shift on a single cycle of length T.

    Column ``n`` of ``eigenvectors`` holds the plane wave with components
    ``exp(2j*pi*n*k/T)/sqrt(T)`` at orbit position ``k``; the forward shift
    multiplies it by ``eigenphases[n] = exp(-2j*pi*n/T)``, the phase of a
    state of energy ``energies[n] = 2*pi*n/T`` evolving as ``exp(-1j*E*t)``.
    (Equivalently the components read ``exp(-2j*pi*n*k/T)/sqrt(T)`` with ``k``
    counted against the direction of evolution.)
    """

    period: int
    eigenphases: np.ndarray
    eigenvectors: np.ndarray
    energies: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Full eigensystem of a permutation matrix, assembled cycle by cycle.

    ``vectors[:, j]`` is the j-th eigenvector on the full space; ``cycle_index``
    and ``mode_index`` record which cycle and which mode n it came from.
    """

    vectors: np.ndarray
    energies: np.ndarray
    eigenphases: np.ndarray
    cycle_index: np.ndarray
    mode_index: np.ndarray


def decompose(law: PermutationLaw) -> CycleDecomposition:
    """Split a law into its closed orbits.

    The partition is unique; the ordering convention (each cycle anchored at
    its smallest state, cycles sorted by anchor) makes the output reproducible.
    """
    image = law.image
    seen = np.zeros(law.size, dtype=bool)
    cycles: list[tuple[int, ...]] = []
    for start in range(law.size):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        k = int(image[start])
        while k != start:
            orbit.append(k)
            seen[k] = True
            k = int(image[k])
        cycles.append(tuple(orbit))
    ranks = tuple(sorted(len(c) for c in cycles))
    return CycleDecomposition(cycles=tuple(cycles), ranks=ranks)


def permutation_matrix(law: PermutationLaw) -> np.ndarray:
    """Dense 0/1 unitary of the law: column k has its single 1 at row image[k]."""
    m = law.size
    if m > DENSE_CAP:
        raise SizeCapError(f"dense matrix refused for {m} > {DENSE_CAP} states")
    mat = np.zeros((m, m), dtype=np.int64)
    mat[law.image, np.arange(m)] = 1
    return mat


def cycle_spectrum(cycle_length: int) -> CycleSpectrum:
    """Eigenphases, eigenvectors and energies of a single cycle."""
    t = int(cycle_length)
    energies, phases = _cycle_modes(t)
    n = np.arange(t)
    vectors = np.exp(2j * np.pi * n[:, None] * n[None, :] / t) / math.sqrt(t)
    return CycleSpectrum(period=t, eigenphases=phases, eigenvectors=vectors, energies=energies)


def _cycle_modes(t: int) -> tuple[np.ndarray, np.ndarray]:
    """``(energies, eigenphases)`` of a cycle of length t, without its eigenvectors."""
    if t < 1:
        raise ValueError("cycle length must be a positive integer")
    n = np.arange(t)
    return 2.0 * np.pi * n / t, np.exp(-2j * np.pi * n / t)


def evolve_basis_state(law: PermutationLaw, k: int, t: int) -> int:
    """Apply the law t times to state k (negative t uses the inverse law).

    A basis state stays a basis state for every t: the unitary representation
    never turns a single ontic state into a superposition.
    """
    if not 0 <= k < law.size:
        raise ValueError(f"state {k} outside [0, {law.size})")
    orbit = [k]
    j = int(law.image[k])
    while j != k:
        orbit.append(j)
        j = int(law.image[j])
    return orbit[t % len(orbit)]


def law_power(law: PermutationLaw, t: int) -> PermutationLaw:
    """The law applied t times, as a law (exact integer composition)."""
    image_t = np.empty(law.size, dtype=np.int64)
    for cycle in decompose(law).cycles:
        idx = np.asarray(cycle, dtype=np.int64)
        image_t[idx] = np.roll(idx, -(t % len(cycle)))
    return PermutationLaw(image_t)


def spectral_decomposition(law: PermutationLaw) -> SpectralDecomposition:
    """Orthonormal eigenbasis of the permutation matrix, cycle by cycle.

    Summing ``eigenphases[j] * outer(v_j, conj(v_j))`` reproduces the matrix;
    the vectors of all cycles together are a complete orthonormal basis.
    """
    m = law.size
    if m > DENSE_CAP:
        raise SizeCapError(f"dense spectral decomposition refused for {m} > {DENSE_CAP} states")
    vectors = np.zeros((m, m), dtype=np.complex128)
    energies = np.empty(m)
    phases = np.empty(m, dtype=np.complex128)
    cyc_idx = np.empty(m, dtype=np.int64)
    mode_idx = np.empty(m, dtype=np.int64)
    col = 0
    for ci, cycle in enumerate(decompose(law).cycles):
        states = np.asarray(cycle, dtype=np.int64)
        spec = cycle_spectrum(len(cycle))
        span = slice(col, col + len(cycle))
        vectors[states, span] = spec.eigenvectors
        energies[span] = spec.energies
        phases[span] = spec.eigenphases
        cyc_idx[span] = ci
        mode_idx[span] = np.arange(len(cycle))
        col += len(cycle)
    return SpectralDecomposition(vectors, energies, phases, cyc_idx, mode_idx)


# ---------------------------------------------------------------------------
# serialization

def json_int(value, field: str) -> int:
    """An integer of an input document, checked, never coerced.

    A JSON float (``10.7``, but also ``10.0``), a boolean or a string is
    refused with a ``ValueError`` that names ``field``.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, not {value!r}")
    return value


def json_ints(values, field: str, length: int | None = None) -> list[int]:
    """A list of :func:`json_int` values, of ``length`` entries if given."""
    if not isinstance(values, list) or (length is not None and len(values) != length):
        size = "a list of" if length is None else f"a list of {length}"
        raise ValueError(f"{field} must be {size} integers, not {values!r}")
    return [json_int(v, field) for v in values]


def law_from_json(text: str) -> PermutationLaw:
    """Parse ``{"size": M, "image": [...]}``."""
    doc = json.loads(text)
    try:
        size = json_int(doc["size"], "law field 'size'")
        image = json_ints(doc["image"], "law field 'image'")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"permutation document missing field: {exc}") from exc
    if size != len(image):
        raise MalformedLawError(f"declared size {size} != image length {len(image)}")
    return PermutationLaw(np.asarray(image, dtype=np.int64))


def load_law(path) -> PermutationLaw:
    with open(path, "r", encoding="utf-8") as fh:
        return law_from_json(fh.read())


def law_to_json(law: PermutationLaw) -> str:
    return json.dumps({"size": law.size, "image": law.image.tolist()})


def cycles_report(decomp: CycleDecomposition) -> dict:
    """JSON-ready report ``{"ranks": [...], "cycles": [[...], ...]}``."""
    return {"ranks": list(decomp.ranks), "cycles": [list(c) for c in decomp.cycles]}


def write_spectrum_csv(decomp: CycleDecomposition, stream: IO[str]) -> None:
    """Per-cycle mode table: cycle_index, n, energy, re_phase, im_phase.

    The values are :func:`cycle_spectrum`'s, but no eigenvector is built: the
    work and memory per cycle are linear in its length.
    """
    writer = csv.writer(stream)
    writer.writerow(["cycle_index", "n", "energy", "re_phase", "im_phase"])
    for ci, cycle in enumerate(decomp.cycles):
        energies, phases = _cycle_modes(len(cycle))
        for n, (energy, phase) in enumerate(zip(energies.tolist(), phases.tolist())):
            writer.writerow([ci, n, repr(energy), repr(phase.real), repr(phase.imag)])
