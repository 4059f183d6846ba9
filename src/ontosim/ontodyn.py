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

import itertools
import json
import math
import operator
import reprlib
from collections import abc
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

DENSE_CAP = 2 ** 14
HASH_CHUNK = 2 ** 15  # states a Cycles hash copies at once, 256 KiB


class MalformedLawError(ValueError):
    """The image array is not a bijection on [0, size)."""


class SizeCapError(ValueError):
    """State space too large for the requested dense-matrix operation."""


class InternalCheckError(RuntimeError):
    """A result disagreed with the independent check it was computed against:
    a fault in the program, never in its input."""


@dataclass(frozen=True, eq=False)
class PermutationLaw:
    """A reversible one-step evolution law on ``size`` states.

    ``image[k]`` is the successor of state ``k``.  The array must be a
    bijection, which makes the law invertible (time reversible).
    """

    image: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.image)
        # an integer too large for int64 leaves raw an object array
        if (raw.ndim != 1 or raw.size == 0 or raw.dtype.kind not in "iuO"
                or (raw.dtype.kind == "O" and not all(map(_is_integer, raw)))):
            raise MalformedLawError("image must be a non-empty 1-d integer array")
        try:
            img = raw.astype(np.int64, copy=False)
        except OverflowError:
            raise MalformedLawError("image entries must lie in [0, size)") from None
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


class Cycles(abc.Sequence):
    """The cycles of a permutation as one read-only int64 listing.

    ``states`` holds every state once: the cycles one after another, each
    starting at its smallest member and following the law, in ascending order
    of those members.  ``lengths`` holds the length of each cycle, in that
    order.  Indexing and iteration give each cycle as a tuple of ints, built
    only when asked for.  A ``Cycles`` compares equal, and hashes, only
    against another ``Cycles``.
    """

    __slots__ = ("states", "lengths", "_starts")

    def __init__(self, states, lengths):
        states = np.asarray(states, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if (states.ndim != 1 or lengths.ndim != 1 or (lengths < 1).any()
                or lengths.sum() != states.size):
            raise ValueError("lengths must be positive and add up to the number of states")
        starts = np.cumsum(lengths) - lengths  # where each cycle begins in states
        for name, array in (("states", states), ("lengths", lengths), ("_starts", starts)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return Cycles, (self.states, self.lengths)

    def __len__(self) -> int:
        return self.lengths.size

    def __getitem__(self, index) -> tuple[int, ...]:
        index = operator.index(index)
        if not -len(self) <= index < len(self):
            raise IndexError(f"cycle index {index} out of range for {len(self)} cycles")
        start = self._starts[index]
        return tuple(self.states[start:start + self.lengths[index]].tolist())

    def __iter__(self):
        flat = iter(self.states.tolist())
        for length in self.lengths.tolist():
            yield tuple(itertools.islice(flat, length))

    def __eq__(self, other):
        if not isinstance(other, Cycles):
            return NotImplemented
        return (np.array_equal(self.lengths, other.lengths)
                and np.array_equal(self.states, other.states))

    def __hash__(self):
        # slice by slice, so no copy of the whole listing is made
        return hash(tuple(tuple(hash(array[lo:lo + HASH_CHUNK].tobytes())
                                for lo in range(0, array.size, HASH_CHUNK))
                          for array in (self.lengths, self.states)))

    def __repr__(self):
        return f"Cycles(states={self.states!r}, lengths={self.lengths!r})"


@dataclass(frozen=True)
class CycleDecomposition:
    """Partition of the state set into closed orbits.

    ``cycles`` lists the orbits, each from its smallest member, in ascending
    order of those members (:class:`Cycles`).  ``ranks`` is the multiset of
    cycle lengths, sorted ascending.
    """

    cycles: Cycles
    ranks: tuple[int, ...]


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

    The partition is unique, and walking it from state 0 up makes its order
    canonical: each walk starts at the smallest state not yet listed, so each
    cycle starts at its smallest state, and the cycles come in ascending
    order of those states.
    """
    order, bounds = _walk(law.image.tolist(), range(law.size))
    lengths = np.diff(bounds, append=len(order))
    return CycleDecomposition(cycles=Cycles(order, lengths), ranks=tuple(sorted(lengths.tolist())))


def _walk(successors, firsts) -> tuple[list, list[int]]:
    """Follow ``successors``, a bijection, round the cycle of each of ``firsts``
    not yet seen.  ``order`` lists the states visited, cycle after cycle, and
    ``bounds`` says where each cycle begins in it."""
    order, bounds, seen = [], [], bytearray(len(successors))
    for first in firsts:
        if not seen[first]:
            bounds.append(len(order))
            k = first
            while not seen[k]:
                seen[k] = 1
                order.append(k)
                k = successors[k]
    return order, bounds


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
    t = json_int(cycle_length, "cycle_length", 1)
    if t > DENSE_CAP:
        raise SizeCapError(f"dense eigenvector matrix refused for {t} > {DENSE_CAP} states")
    energies, phases = _cycle_modes(t)
    n = np.arange(t)
    vectors = np.exp(2j * np.pi * n[:, None] * n[None, :] / t) / math.sqrt(t)
    return CycleSpectrum(period=t, eigenphases=phases, eigenvectors=vectors, energies=energies)


def _cycle_modes(t: int) -> tuple[np.ndarray, np.ndarray]:
    """``(energies, eigenphases)`` of a cycle of length t, without its eigenvectors."""
    n = np.arange(t)
    return 2.0 * np.pi * n / t, np.exp(-2j * np.pi * n / t)


def evolve_basis_state(law: PermutationLaw, k: int, t: int) -> int:
    """Apply the law t times to state k (negative t uses the inverse law).

    A basis state stays a basis state for every t: the unitary representation
    never turns a single ontic state into a superposition.
    """
    k, t = json_int(k, "state k"), json_int(t, "time t")
    if not 0 <= k < law.size:
        raise ValueError(f"state {k} outside [0, {law.size})")
    orbit, _ = _walk(law.image, [k])
    return int(orbit[t % len(orbit)])


def law_power(law: PermutationLaw, t: int) -> PermutationLaw:
    """The law applied t times, as a law (exact integer composition)."""
    t = json_int(t, "power t")
    cycles = decompose(law).cycles
    lengths = cycles.lengths.tolist()
    first = np.repeat(cycles._starts, lengths)
    # the state at listing position i moves t places along its cycle (t is
    # reduced cycle by cycle, as it may exceed int64)
    shift = np.repeat([t % length for length in lengths], lengths)
    ahead = first + (np.arange(law.size) - first + shift) % np.repeat(lengths, lengths)
    image_t = np.empty(law.size, dtype=np.int64)
    image_t[cycles.states] = cycles.states[ahead]
    return PermutationLaw(image_t)


def spectral_decomposition(law: PermutationLaw) -> SpectralDecomposition:
    """Orthonormal eigenbasis of the permutation matrix, cycle by cycle.

    Summing ``eigenphases[j] * outer(v_j, conj(v_j))`` reproduces the matrix;
    the vectors of all cycles together are a complete orthonormal basis.
    """
    m = law.size
    if m > DENSE_CAP:
        raise SizeCapError(f"dense spectral decomposition refused for {m} > {DENSE_CAP} states")
    cycles = decompose(law).cycles
    vectors = np.zeros((m, m), dtype=np.complex128)
    energies = np.empty(m)
    phases = np.empty(m, dtype=np.complex128)
    # column j belongs to the cycle holding listing position j
    cyc_idx = np.repeat(np.arange(len(cycles)), cycles.lengths)
    mode_idx = np.arange(m) - np.repeat(cycles._starts, cycles.lengths)
    for start, length in zip(cycles._starts.tolist(), cycles.lengths.tolist()):
        span = slice(start, start + length)
        spec = cycle_spectrum(length)
        vectors[cycles.states[span], span] = spec.eigenvectors
        energies[span] = spec.energies
        phases[span] = spec.eigenphases
    return SpectralDecomposition(vectors, energies, phases, cyc_idx, mode_idx)


# ---------------------------------------------------------------------------
# input values: one reader per kind of value for documents, flags, config files and
# library arguments alike, and one rendering of an offending value for every message

_SHOWN = reprlib.Repr()
_SHOWN.maxlevel, _SHOWN.maxlong, _SHOWN.maxstring, _SHOWN.maxother = 3, 20, 100, 100


def _is_integer(value) -> bool:
    """A Python or numpy integer: never a boolean, a float or anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def shown(value) -> str:
    """``value`` as a refusal message shows it: an abridged repr of at most
    100 characters, whatever the size of the value."""
    try:
        text = _SHOWN.repr(value)
    except ValueError:  # an integer too long to convert to a string
        text = f"<an integer of {value.bit_length()} bits>"
    return text if len(text) <= 100 else text[:97] + "..."


def json_int(value, field: str, least: int | None = None) -> int:
    """A Python or numpy integer as an ``int``, never coerced: a float (also ``10.0``), a
    boolean, a string or a value below ``least`` is refused with a ValueError naming ``field``."""
    if not _is_integer(value):
        raise ValueError(f"{field} must be an integer, not {shown(value)}")
    if least is not None and value < least:
        raise ValueError(f"{field} must be at least {least}, not {shown(int(value))}")
    return int(value)


def json_ints(values, field: str, length: int | None = None) -> list[int]:
    """A list of :func:`json_int` values, of ``length`` entries if given."""
    if type(values) is not list or (length is not None and len(values) != length):
        size = "a list of" if length is None else f"a list of {length}"
        raise ValueError(f"{field} must be {size} integers, not {shown(values)}")
    if not all(type(value) is int for value in values):
        values = [json_int(value, field) for value in values]
    return values


def json_real(value, field: str, text: bool = False) -> float:
    """A Python or numpy number within float range as a float, maybe inf or nan, never a
    boolean; with ``text`` also a string ``float`` reads (JSON cannot write nan)."""
    if (type(value) in (int, float) or isinstance(value, (np.integer, np.floating))
            or (text and type(value) is str)):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"{field} must be a number within float range, not {shown(value)}")


def json_text(value, field: str) -> str:
    if type(value) is not str:
        raise ValueError(f"{field} must be a string, not {shown(value)}")
    return value


def json_object(value, field: str, required: tuple[str, ...] = ()) -> dict:
    """A JSON object holding every key of ``required``."""
    if type(value) is not dict:
        raise ValueError(f"{field} must be a JSON object, not {shown(value)}")
    for key in required:
        if key not in value:
            raise ValueError(f"{field} has no field {key!r}")
    return value


def json_objects(values, field: str, required: tuple[str, ...] = ()) -> list[dict]:
    """A list of :func:`json_object` values; a refusal names the entry."""
    if type(values) is not list:
        raise ValueError(f"{field} must be a list of objects, not {shown(values)}")
    keys = set(required)
    for i, value in enumerate(values):
        if type(value) is not dict or not value.keys() >= keys:
            json_object(value, f"{field} entry {i}", required)
    return values


# ---------------------------------------------------------------------------
# seeded draws and output tables

def philox_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) so runs are reproducible across platforms."""
    return np.random.Generator(np.random.Philox(json_int(seed, "seed", 0)))


CSV_CHUNK = 1024  # rows formatted per write, which bounds the text held at once


def write_csv(stream: IO[str], header: Sequence[str],
              blocks: Iterable[Sequence[np.ndarray]]) -> None:
    """The one CSV writer: ``header``, then the rows of each block of equal-length
    numpy columns.  A cell is the ``repr`` of its ``tolist()`` value, and each
    row ends in ``\\r\\n``: the bytes ``csv.writer`` writes for such cells."""
    stream.write(",".join(header) + "\r\n")
    for block in blocks:
        for start in range(0, len(block[0]), CSV_CHUNK):
            cells = [map(repr, column[start:start + CSV_CHUNK].tolist()) for column in block]
            stream.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


# ---------------------------------------------------------------------------
# serialization

def law_from_json(text: str) -> PermutationLaw:
    """Parse ``{"size": M, "image": [...]}``."""
    return law_from_doc(json.loads(text))


def law_from_doc(doc) -> PermutationLaw:
    """The law of a parsed :func:`law_from_json` document."""
    doc = json_object(doc, "permutation document", ("size", "image"))
    size = json_int(doc["size"], "law field 'size'")
    image = json_ints(doc["image"], "law field 'image'")
    if size != len(image):
        raise MalformedLawError(f"declared size {shown(size)} != image length {len(image)}")
    return PermutationLaw(image)


def load_law(path) -> PermutationLaw:
    with open(path, "r", encoding="utf-8") as fh:
        return law_from_json(fh.read())


def cycles_report(decomp: CycleDecomposition) -> dict:
    """JSON-ready report ``{"ranks": [...], "cycles": [[...], ...]}``."""
    cycles = decomp.cycles
    flat = cycles.states.tolist()
    spans = zip(cycles._starts.tolist(), cycles.lengths.tolist())
    return {"ranks": list(decomp.ranks), "cycles": [flat[a:a + n] for a, n in spans]}


def write_spectrum_csv(decomp: CycleDecomposition, stream: IO[str]) -> None:
    """Per-cycle mode table: cycle_index, n, energy, re_phase, im_phase.

    The values are :func:`cycle_spectrum`'s, but no eigenvector is built, and
    the modes of each distinct cycle length are computed once.
    """
    def blocks():
        modes = {}  # cycle length -> its n, energy, re_phase and im_phase columns
        for ci, t in enumerate(decomp.cycles.lengths.tolist()):
            if t not in modes:
                energies, phases = _cycle_modes(t)
                modes[t] = np.arange(t), energies, phases.real, phases.imag
            yield (np.full(t, ci), *modes[t])

    write_csv(stream, ["cycle_index", "n", "energy", "re_phase", "im_phase"], blocks())
