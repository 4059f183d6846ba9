"""Slow states driven by fast clock variables through interchange points.

The machine has N slow states, each carrying one periodic clock (a "fast"
variable) that advances one tick per time step regardless of anything else.
A special point on a pair of slow states (alpha, beta) names one phase value
on each of the two attached clocks; whenever both clocks sit at their named
values right after a tick, the two slow states are interchanged.  The slow
state therefore only ever hops between classical basis configurations, and
the full map on (slow state, all clock phases) is a bijection: the machine
is exactly reversible and has a finite recursion time.

A step is swap-after-tick: all phases advance first, then every special
point whose trigger matches the new phases fires.  A model holds its points
as one (K, 4) int64 table, ``OntologicalModel.points``, and every layer
reads that table.  The conflict rule lives in one place, :func:`_validate_model`,
one vectorised pass over the table that every model meets at construction,
whether built from :class:`SpecialPoint` objects, from a table or from a
document: no two points on different pairs may claim the same value on the
clock of a shared slow state.  So the swaps of one step are always a
product of disjoint transpositions.

A point fires on exactly one set of phase combinations, its firing set:
both of its clocks at their trigger values, every other clock free
(:func:`_firing_flats`).  The tabulated step, :func:`step_tables`, is one
flat int32 image of the whole ontic space: every config ticks, then the
occupants of each coupled pair swap on its firing set one tick ahead.
:func:`step_map` wraps that image as a permutation, and the Koopman step
(``quantize.koopman_step_operator``) reads the same image.  The interchange
Hamiltonian (``quantize.build_interchange``) places its (pi/2) sigma_y on the
same firing sets.  Occupation counts (:func:`run_ensemble`,
:func:`enumerate_exact`) never tick: the clocks are deterministic, so each
sample jumps straight to its next state change, found on the diagonal orbits
of each coupled pair's clocks (:func:`_orbit_position`), and the counts are
summed from those changes.  Their cost grows with the number of state
changes, not with the horizon.  The two algorithms are kept apart on
purpose, so comparing them is a real check.  That coordinate of the clocks'
diagonal orbits, the orbit d = (x - y) mod gcd(P_a, P_b) of joint phases
(x, y) and the position along it by the CRT, is the only one: the
reversibility proof folds it over all the clocks (:func:`_orbit_places`),
and ``quantize._spread_points`` inverts it.

The step's cycles (:func:`check_bijectivity`) are not walked config by
config either.  The tick moves every phase along its tick orbit, of length
L = lcm(periods), laid out in that coordinate (:func:`_tick_orbits`), and a
swap changes only the slow state, so each (slow state, orbit) row, in tick
order, splits into runs that end where the step image is not the row's next
config, or the lap ends.  The runs are read from the image, not predicted:
only where each run ends is the step located and checked (it ticks, onto a
run's start, each start once), and only the permutation of runs is walked,
in ascending order of the runs' smallest states, so the cycles arrive each
with its smallest state in its first run, in ascending order of those
states.  They come out as one int64 listing (:class:`ontodyn.Cycles`),
filled a chunk at a time from the tick-ordered states, never as a Python
object per state.

Clock periods are meant to be large compared with the inverse couplings of
interest; that is a soft convention, so the builder only warns (never
errors) for periods below 10.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import FrozenInstanceError, dataclass
from typing import IO, NamedTuple

import numpy as np

from . import ontodyn

ENUMERATION_CAP = 10 ** 6
# A coupled pair's orbit keys d*2L + tau (:func:`_orbit_position`, L =
# lcm(P_a, P_b)) reach 2 * P_a * P_b, which stays below 2**63 for periods up to this.
PERIOD_CAP = 2 ** 31 - 1
INT64_MAX = 2 ** 63 - 1  # the largest clock period a model holds
CHUNK = 2 ** 16  # configs a reversibility proof compares or lists per pass


class ModelValidationError(ValueError):
    """The model description is malformed."""


class ConflictingSwapError(ModelValidationError):
    """Two swaps touching the same slow state can fire in the same step."""


class ConfigError(ValueError):
    """A classical configuration references unknown states or phases."""


class FastPeriodWarning(UserWarning):
    """A clock period is small enough that the fast/slow separation is dubious."""


@dataclass(frozen=True)
class SpecialPoint:
    """Interchange trigger for one pair of slow states.

    ``trigger[i]`` is the phase value on the clock attached to ``pair[i]``.
    Stored with ``pair`` sorted ascending (the trigger is permuted along), so
    equal points compare equal regardless of the order they were written in.
    """

    pair: tuple[int, int]
    trigger: tuple[int, int]

    def __post_init__(self):
        a, b, p, q = self.pair[0], self.pair[1], self.trigger[0], self.trigger[1]
        if not (type(a) is type(b) is type(p) is type(q) is int):  # plain ints: the fast path
            if not all(map(ontodyn._is_integer, (a, b, p, q))):
                raise ModelValidationError(
                    f"special point states and trigger phases must be integers, not "
                    f"{ontodyn.shown((a, b, p, q))}")
            a, b, p, q = int(a), int(b), int(p), int(q)
        if a == b:
            raise ModelValidationError(
                f"special point pairs a state with itself: {ontodyn.shown(a)}")
        if a > b:
            a, b, p, q = b, a, q, p
        object.__setattr__(self, "pair", (a, b))
        object.__setattr__(self, "trigger", (p, q))


class ClassicalConfig(NamedTuple):
    """Ontic state of the whole machine at one instant."""

    slow: int
    phases: tuple[int, ...]


class OntologicalModel:
    """N slow states, one clock per slow state, and a special-point table.

    ``points`` is the table: one read-only (K, 4) int64 array of rows
    (a, b, trigger_a, trigger_b) with a < b, in the order they were given.
    The third argument is a sequence of :class:`SpecialPoint`, or such a
    table of any signed integer dtype whose rows may name a pair in either
    order; both meet :func:`_validate_model`.  ``special_points`` is a
    read-only view of the table as a tuple of :class:`SpecialPoint`, built
    on first access.  A model is immutable, and equal to another with the
    same slow count, periods and table.
    """

    __slots__ = ("slow_count", "periods", "points", "_view")

    def __init__(self, slow_count: int, periods: tuple[int, ...], special_points=()):
        table = _point_table(special_points)
        periods = tuple(periods)
        if not (ontodyn._is_integer(slow_count) and all(map(ontodyn._is_integer, periods))):
            raise ModelValidationError(
                f"slow_count and clock periods must be integers, not "
                f"{ontodyn.shown((slow_count, periods))}")
        object.__setattr__(self, "slow_count", int(slow_count))
        object.__setattr__(self, "periods", tuple(map(int, periods)))
        object.__setattr__(self, "points", _validate_model(self.slow_count, self.periods, table))
        object.__setattr__(self, "_view", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return OntologicalModel, (self.slow_count, self.periods, self.points)

    def __eq__(self, other):
        if not isinstance(other, OntologicalModel):
            return NotImplemented
        return ((self.slow_count, self.periods) == (other.slow_count, other.periods)
                and np.array_equal(self.points, other.points))

    def __hash__(self):
        return hash((self.slow_count, self.periods, self.points.tobytes()))

    def __repr__(self):
        return (f"OntologicalModel(slow_count={self.slow_count!r}, periods={self.periods!r}, "
                f"special_points={self.special_points!r})")

    @property
    def special_points(self) -> tuple[SpecialPoint, ...]:
        if self._view is None:
            object.__setattr__(self, "_view", tuple(
                SpecialPoint(pair=(a, b), trigger=(p, q)) for a, b, p, q in self.points.tolist()))
        return self._view

    @property
    def phase_space_size(self) -> int:
        out = 1
        for p in self.periods:
            out *= p
        return out

    @property
    def ontic_space_size(self) -> int:
        return self.slow_count * self.phase_space_size


def _point_table(points) -> np.ndarray:
    """The rows (a, b, trigger_a, trigger_b), a < b, of a sequence of
    :class:`SpecialPoint` or of a (K, 4) signed integer array, in the order
    given, as a new array.  Its dtype is int64, unless a value lies outside
    int64: then it holds Python integers, and :func:`_validate_model` refuses
    that value as out of range.  A row that pairs a state with itself is
    refused here, as :class:`SpecialPoint` refuses it."""
    if isinstance(points, np.ndarray):
        if points.dtype.kind != "i" or points.ndim != 2 or points.shape[1] != 4:
            raise ModelValidationError(
                f"a special point table must be a (K, 4) array of signed integers, not "
                f"{points.dtype} of shape {points.shape}")
        table = points.astype(np.int64)
    else:
        rows = [sp.pair + sp.trigger for sp in points]
        try:
            table = np.array(rows, dtype=np.int64).reshape(-1, 4)
        except OverflowError:
            table = np.array(rows, dtype=object).reshape(-1, 4)
    same = np.flatnonzero(table[:, 0] == table[:, 1])
    if same.size:
        raise ModelValidationError(
            f"special point pairs a state with itself: {ontodyn.shown(int(table[same[0], 0]))}")
    flip = table[:, 0] > table[:, 1]
    table[flip] = table[flip][:, [1, 0, 3, 2]]
    return table


def _point(row) -> SpecialPoint:
    a, b, p, q = map(int, row)
    return SpecialPoint(pair=(a, b), trigger=(p, q))


def _validate_model(n: int, periods: tuple[int, ...], table: np.ndarray) -> np.ndarray:
    """Check a model's slow count, periods and :func:`_point_table`, and
    return the table as read-only int64.  A refused table names its first
    point that fails a check, with the first check it fails: its states,
    its triggers, a repeat of an earlier point, then the conflict rule."""
    if n < 1:
        raise ModelValidationError("slow_count must be >= 1")
    if len(periods) != n:
        raise ModelValidationError(
            f"need one clock period per slow state, got {len(periods)} for "
            f"{ontodyn.shown(n)} states")
    if any(p < 1 for p in periods):
        raise ModelValidationError("clock periods must be positive")
    if max(periods) > INT64_MAX:
        raise ontodyn.SizeCapError(
            f"clock period {ontodyn.shown(max(periods))} exceeds {INT64_MAX}, the largest "
            "a point table holds")
    small = [p for p in periods if p < 10]
    if small:
        # a long list is abridged to its first six (ontodyn.shown) and counted
        listed = small if len(small) <= 6 else f"{ontodyn.shown(small)} ({len(small)} of them)"
        # 3 frames up: this function, __init__, then the line that constructed the model
        warnings.warn(
            f"clock periods {listed} are below 10; the fast/slow separation is marginal",
            FastPeriodWarning, stacklevel=3)

    # The conflict rule.  A point on pair (a, b) can only fire while clock a
    # reads trigger_a, so it claims the slot (a, trigger_a), and likewise
    # (b, trigger_b).  Two points on different pairs that claim one slot
    # fire together on that state.  Points on the same pair may share a slot:
    # they differ on the other clock, so they never fire together.  Claim c
    # is point c // 2's on its pair's state c % 2, in the order the rule
    # takes them; its mate c ^ 1 is the same point's other claim.
    state, value = table[:, :2].reshape(-1), table[:, 2:].reshape(-1)
    known = (state >= 0) & (state < n)
    period = np.asarray(periods, dtype=np.int64)[np.where(known, state, 0).astype(np.int64)]
    bad = np.flatnonzero(~(known & (value >= 0) & (value < period)))
    # only the claims of the points before the first out of range, which fit int64
    head = bad[0] // 2 * 2 if bad.size else state.size
    state, value = state[:head].astype(np.int64), value[:head].astype(np.int64)
    mate = np.arange(head) ^ 1
    # Sorted stably by (slot, mate's slot), a claim equal to the one before it
    # repeats an earlier point.  A slot's owner is its first claim, and a
    # claim clashes with it when their mates' states differ.
    claims = np.column_stack((state, value, state[mate], value[mate]))
    order = np.lexsort(claims.T[::-1])
    claims = claims[order]
    same = claims[1:] == claims[:-1]
    repeat = order[1:][same.all(axis=1)].min(initial=head)
    opens = np.ones(head, dtype=bool)
    opens[1:] = ~(same[:, 0] & same[:, 1])
    owner = np.minimum.reduceat(order, np.flatnonzero(opens))[np.cumsum(opens) - 1]
    clash = order[claims[:, 2] != state[owner ^ 1]].min(initial=head)

    if repeat < clash:  # never the same point: a repeat's clash is its original's
        sp = _point(table[repeat // 2])
        raise ConflictingSwapError(
            f"duplicate special point {ontodyn.shown((sp.pair, sp.trigger))}")
    if clash < head:
        at = np.flatnonzero(order == clash)[0]
        raise ConflictingSwapError(
            f"points {ontodyn.shown(_point(table[owner[at] // 2]))} and "
            f"{ontodyn.shown(_point(table[clash // 2]))} can both fire on state "
            f"{claims[at, 0]} (shared clock value {ontodyn.shown(int(claims[at, 1]))})")
    if bad.size:
        first = bad[0] // 2
        sp = _point(table[first])
        if not known[2 * first:2 * first + 2].all():
            raise ModelValidationError(
                f"special point references unknown slow state: {ontodyn.shown(sp.pair)}")
        raise ModelValidationError(
            f"trigger {ontodyn.shown(sp.trigger)} outside clock periods for pair "
            f"{ontodyn.shown(sp.pair)}")
    table = table.astype(np.int64, copy=False)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# flat indexing of the product space (slow-major, then clocks by id ascending)

def phase_strides(periods: tuple[int, ...]) -> np.ndarray:
    strides = np.ones(len(periods), dtype=np.int64)
    for i in range(len(periods) - 2, -1, -1):
        strides[i] = strides[i + 1] * periods[i + 1]
    return strides


def flat_config(model: OntologicalModel, slow: int, phases) -> int:
    """Mixed-radix flat index of (slow, phases); slow is the most significant digit."""
    strides = phase_strides(model.periods)
    return int(slow) * model.phase_space_size + int(np.dot(np.asarray(phases, np.int64), strides))


def _phase_rows(periods: tuple[int, ...], flats: np.ndarray) -> np.ndarray:
    """(len(flats), n_clocks) int64 array: the clock phases of each phase flat."""
    rows = np.empty((len(flats), len(periods)), dtype=np.int64)
    rem = np.asarray(flats, dtype=np.int64)
    for i, stride in enumerate(phase_strides(periods)):
        rows[:, i], rem = np.divmod(rem, stride)
    return rows


def _orbit_position(period_a: int, period_b: int, x: np.ndarray,
                    y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orbit and position of the joint phases (x, y) of two clocks.

    With g = gcd(P_a, P_b) and L = lcm(P_a, P_b), (x, y) lies on the
    diagonal orbit d = (x - y) mod g at the position tau in [0, L) with
    tau = x (mod P_a) and tau = y + d (mod P_b), found by the CRT.  A tick
    keeps d and adds 1 to tau mod L.  Returns ``(d, tau)``.
    """
    g = math.gcd(period_a, period_b)
    d = (x - y) % g
    k = (y + d - x) // g * pow(period_a // g, -1, period_b // g) % (period_b // g)
    return d, x + period_a * k


# ---------------------------------------------------------------------------
# stepping

def _check_config(model: OntologicalModel, config: ClassicalConfig) -> None:
    if not (ontodyn._is_integer(config.slow) and all(map(ontodyn._is_integer, config.phases))):
        raise ConfigError(f"slow state and phases must be integers, not {ontodyn.shown(config)}")
    if not 0 <= config.slow < model.slow_count:
        raise ConfigError(f"unknown slow state {config.slow}")
    if len(config.phases) != len(model.periods):
        raise ConfigError("wrong number of clock phases")
    for i, (phase, period) in enumerate(zip(config.phases, model.periods)):
        if not 0 <= phase < period:
            raise ConfigError(f"phase {phase} outside clock {i} period {period}")


def _pair_triggers(model: OntologicalModel) -> dict[tuple[int, int], np.ndarray]:
    """The special points grouped by coupled pair a < b, in ascending pair
    order: one (K, 2) int64 array of triggers per pair, in table order."""
    rows = model.points[np.lexsort((model.points[:, 1], model.points[:, 0]))]
    cuts = np.flatnonzero((rows[1:, :2] != rows[:-1, :2]).any(axis=1)) + 1
    return {(int(group[0, 0]), int(group[0, 1])): group[:, 2:]
            for group in np.split(rows, cuts) if len(group)}


def _firing_flats(model: OntologicalModel, pair: tuple[int, int],
                  triggers: np.ndarray) -> np.ndarray:
    """Flat phase indices at which clocks a and b of ``pair`` read ``triggers``
    modulo their periods, every other clock free: the pair's own triggers give
    its firing set.  The cost is the number of indices returned.
    """
    strides = phase_strides(model.periods)
    periods = np.asarray(model.periods, dtype=np.int64)
    on = list(pair)
    flats = (triggers % periods[on]) @ strides[on]
    for i, period in enumerate(model.periods):
        if i not in pair:
            flats = (flats[:, None] + np.arange(period, dtype=np.int64) * strides[i]).reshape(-1)
    return flats


def step(model: OntologicalModel, config: ClassicalConfig) -> ClassicalConfig:
    """One time step: advance all phases by +1, then apply any firing swap."""
    _check_config(model, config)
    phases = tuple((int(v) + 1) % period for v, period in zip(config.phases, model.periods))
    slow = int(config.slow)
    # a valid model fires at most one point touching ``slow``
    a, b, p, q = model.points.T
    at = np.asarray(phases, dtype=np.int64)
    fired = np.flatnonzero(((a == slow) | (b == slow)) & (p == at[a]) & (q == at[b]))
    if fired.size:
        slow = int(a[fired[0]] + b[fired[0]]) - slow
    return ClassicalConfig(slow=slow, phases=phases)


def check_enumerable(what: str, count: int) -> None:
    """Refuse (SizeCapError) more than :data:`ENUMERATION_CAP` of ``what``."""
    if count > ENUMERATION_CAP:
        raise ontodyn.SizeCapError(
            f"{what} {ontodyn.shown(count)} exceeds enumeration cap {ENUMERATION_CAP}")


def step_tables(model: OntologicalModel) -> np.ndarray:
    """The full step map as one flat int32 table: ``image[f]`` is the flat
    index (:func:`flat_config`) that config ``f`` steps to.

    The tick is an outer sum of per-clock ticks, offset by each slow state's
    block.  Then every coupled pair's firing set one tick ahead
    (:func:`_firing_flats`) swaps the images of its occupants of ``a`` and
    ``b``.  The conflict rule (:func:`_validate_model`) keeps the firing sets
    of pairs that share a slow state disjoint, so the swaps commute.  The
    ontic space is capped at :data:`ENUMERATION_CAP` before anything is
    built, so every flat index fits int32; :class:`ontodyn.PermutationLaw`
    (:func:`step_map`) holds it as int64.
    """
    check_enumerable("ontic space", model.ontic_space_size)
    p_total = model.phase_space_size
    image = np.arange(model.slow_count, dtype=np.int32) * p_total
    for period, stride in zip(model.periods, phase_strides(model.periods)):
        if period > 1:  # a period-1 clock never moves
            ticked = np.arange(1, period + 1, dtype=np.int32) % period * int(stride)
            image = (image[:, None] + ticked).reshape(-1)
    for (a, b), triggers in _pair_triggers(model).items():
        fired = _firing_flats(model, (a, b), triggers - 1)
        on_a, on_b = a * p_total + fired, b * p_total + fired
        image[on_a], image[on_b] = image[on_b], image[on_a]
    return image


def step_map(model: OntologicalModel) -> ontodyn.PermutationLaw:
    """The step as a permutation of the flat ontic space."""
    return ontodyn.PermutationLaw(step_tables(model))


def _tick_orbits(model: OntologicalModel) -> np.ndarray:
    """The phase space as a (P/L, L) int32 table of phase flats in tick order.

    Row r is one tick orbit, of length L = lcm(periods), in the coordinate of
    :func:`_orbit_position`: its digit i, in the mixed radix g_i =
    gcd(lcm(P_0..P_{i-1}), P_i), is clock i's orbit d_i against clocks 0..i-1
    ticking as one, and at tick t clock 0 reads t mod P_0 and clock i reads
    (t - d_i) mod P_i.  :func:`_orbit_places` inverts the table.
    """
    gaps, lap = [], 1
    for period in model.periods:
        gaps.append(math.gcd(lap, period))
        lap = math.lcm(lap, period)
    table = None
    for period, stride, gap in zip(model.periods, phase_strides(model.periods), gaps):
        # row d of the window is clock phase (t - d) mod period at tick t, for d < gap
        ticked = np.tile(np.arange(period, dtype=np.int32) * int(stride), lap // period + 1)
        window = np.lib.stride_tricks.sliding_window_view(ticked, lap)[period:period - gap:-1]
        # clock 0 has gap 1: its window is the table so far
        table = window if table is None else (table[:, None, :] + window).reshape(-1, lap)
    return table


def _orbit_places(periods: tuple[int, ...], phases: np.ndarray) -> np.ndarray:
    """Where each row of clock phases lies in :func:`_tick_orbits`' table,
    read flat: r*L + t for row r and tick t, as int64.

    A fold of :func:`_orbit_position` over the clocks.  Clock 0's phase is
    the tick.  Clocks 0..i-1 tick as one clock of period lap =
    lcm(P_0..P_{i-1}), whose phase is the tick so far; paired with clock i,
    their orbit is the row's next digit, and their position the tick modulo
    lcm(lap, P_i).
    """
    tick, row, lap = phases[:, 0], 0, periods[0]
    for period, phase in zip(periods[1:], phases[:, 1:].T):
        orbit, tick = _orbit_position(lap, period, tick, phase)
        row = row * math.gcd(lap, period) + orbit
        lap = math.lcm(lap, period)
    return row * lap + tick


def check_bijectivity(model: OntologicalModel) -> ontodyn.CycleDecomposition:
    """The cycles of the step map, read from :func:`step_tables`.

    The tick carries every config along its phase's tick orbit
    (:func:`_tick_orbits`) and a swap changes only its slow state, so each
    (slow state, orbit) row, in tick order, splits into runs that end where
    the image is not the row's next config, and at the end of the lap.  The
    image of every config is compared with its row's next config,
    :data:`CHUNK` configs at a time through one reused buffer.  Unless each
    run end steps to its row's next phase, onto a run's start, and each start
    is reached once, :class:`ontodyn.InternalCheckError` is raised.  So the
    image is a bijection that ticks, and the runs, joined in walk order, are
    its cycles.  The runs are walked in ascending order of their smallest
    states, so each cycle's first run holds the cycle's smallest state, and
    the cycles come in ascending order of it.  :func:`_orbit_places` places
    that state in its run, and the cycles are listed from it, :data:`CHUNK`
    states at a time, into one int64 array, in :func:`ontodyn.decompose`'s
    order, as an :class:`ontodyn.Cycles`.  Besides the image, the states in
    tick order and the listing, the one ontic-sized array is a flag per config.
    """
    image = step_tables(model)
    n, p_total = model.slow_count, model.phase_space_size
    table = _tick_orbits(model)
    lap = table.shape[1]
    # states[s*P + r*L + t]: slow state s on orbit r, t ticks from the orbit's start
    states = (np.arange(n, dtype=np.int32)[:, None] * p_total + table.reshape(-1)).reshape(-1)
    del table
    ends = np.empty(states.size, dtype=bool)
    ahead = np.empty(CHUNK, dtype=np.int32)
    for lo in range(0, states.size - 1, CHUNK):
        hi = min(lo + CHUNK, states.size - 1)
        # every state indexes the image, so "clip" never clips; it lets take
        # write into ``ahead`` without a buffer of its own
        np.take(image, states[lo:hi], out=ahead[:hi - lo], mode="clip")
        np.not_equal(ahead[:hi - lo], states[lo + 1:hi + 1], out=ends[lo:hi])
    ends[lap - 1::lap] = True  # the lap ends, the last config among them
    ends = np.flatnonzero(ends)
    into = image[states[ends]]
    del image, ahead
    starts = np.append(0, ends[:-1] + 1)
    tick = ends % lap
    # an end's row goes on at ``onward`` in its own slow state's block
    onward = ends % p_total - tick + (tick + 1) % lap
    phase, into = into % p_total, into // p_total * p_total + onward
    after = np.minimum(np.searchsorted(starts, into), starts.size - 1)
    if not (np.array_equal(phase, states[onward])
            and np.array_equal(starts[after], into)
            and np.bincount(after).max() == 1):
        raise ontodyn.InternalCheckError("the step map does not follow its clocks' tick orbits")
    del phase, into, tick, onward

    lows = np.minimum.reduceat(states, starts)
    walk, bounds = map(np.array, ontodyn._walk(after.tolist(), np.argsort(lows).tolist()))
    del after
    runs = np.diff(bounds, append=walk.size)  # runs per cycle
    anchors = lows[walk[bounds]]  # each cycle's smallest state, and its place in states
    at = anchors // p_total * p_total + _orbit_places(
        model.periods, _phase_rows(model.periods, anchors % p_total))
    del lows
    # a cycle's pieces: its first run from the anchor on, its other runs in
    # walk order, then its first run up to the anchor
    pieces = runs + 1
    head = np.cumsum(pieces) - pieces
    turn = np.arange(pieces.sum()) - np.repeat(head, pieces)
    run = walk[np.repeat(bounds, pieces) + turn % np.repeat(runs, pieces)]
    first, last = starts[run], ends[run] + 1
    first[head] = at
    last[head + runs] = at
    # piece i fills listing[begin[i]:done[i]] from states[first[i]:last[i]]
    size = last - first
    done = np.cumsum(size)
    begin = done - size
    listing = np.empty(states.size, dtype=np.int64)
    for lo in range(0, states.size, CHUNK):
        hi = min(lo + CHUNK, states.size)
        i, j = np.searchsorted(done, (lo, hi), side="right")
        cut = slice(i, j + 1)  # the pieces that meet [lo, hi)
        copied = np.minimum(done[cut], hi) - np.maximum(begin[cut], lo)
        listing[lo:hi] = states[np.arange(lo, hi) + np.repeat(first[cut] - begin[cut], copied)]
    lengths = np.add.reduceat(size, head)
    return ontodyn.CycleDecomposition(cycles=ontodyn.Cycles(listing, lengths),
                                      ranks=tuple(sorted(lengths.tolist())))


# ---------------------------------------------------------------------------
# ensembles

def random_phases(model: OntologicalModel, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform independent phases, one 64-bit draw per clock reduced mod its period."""
    draws = rng.integers(0, 2 ** 64, size=(count, len(model.periods)), dtype=np.uint64)
    return (draws % np.asarray(model.periods, dtype=np.uint64)).astype(np.int64)


def run_ensemble(model: OntologicalModel, initial_slow: int, horizon: int,
                 sample_count: int, seed: int) -> np.ndarray:
    """Slow-state occupation frequencies of a random-phase ensemble.

    Each sample starts in ``initial_slow`` with uniform random clock phases
    and evolves classically.  Returns an array of shape (horizon+1, N); row t
    is the empirical distribution over slow states after t steps.  Identical
    seeds give bit-identical tables.

    Samples jump from one state change to the next (:func:`_occupation_counts`):
    the work is O((samples + state changes) * log K) for K special points,
    whatever the horizon, and memory is O(samples * coupled pairs) besides
    the (horizon+1, N) result.  Both are capped at :data:`ENUMERATION_CAP`
    (SizeCapError, raised before anything is allocated).
    """
    if not ontodyn._is_integer(sample_count) or sample_count < 1:
        raise ValueError(
            f"sample_count must be an integer >= 1, not {ontodyn.shown(sample_count)}")
    _check_run(model, initial_slow, horizon, "samples", sample_count)
    phases = random_phases(model, sample_count, ontodyn.philox_rng(seed))
    return _occupation_counts(model, initial_slow, horizon, phases) / sample_count


def _check_run(model: OntologicalModel, initial_slow: int, horizon: int,
               what: str, rows: int) -> None:
    """Refuse an occupation count before it allocates anything: a horizon or
    slow state that is not an integer in range, more than
    :data:`ENUMERATION_CAP` rows (samples or phase combinations) or entries of
    the (horizon+1, N) table, or a clock period beyond :data:`PERIOD_CAP`."""
    if not ontodyn._is_integer(horizon) or horizon < 0:
        raise ValueError(f"horizon must be an integer >= 0, not {ontodyn.shown(horizon)}")
    if not ontodyn._is_integer(initial_slow) or not 0 <= initial_slow < model.slow_count:
        raise ConfigError(f"unknown slow state {ontodyn.shown(initial_slow)}")
    check_enumerable(what, rows)
    if (horizon + 1) * model.slow_count > ENUMERATION_CAP:
        raise ontodyn.SizeCapError(
            f"occupation table of {ontodyn.shown(horizon + 1)} x {model.slow_count} entries "
            f"exceeds enumeration cap {ENUMERATION_CAP}")
    if max(model.periods) > PERIOD_CAP:
        raise ontodyn.SizeCapError(
            f"clock period {ontodyn.shown(max(model.periods))} exceeds {PERIOD_CAP}, "
            "the largest whose orbit keys fit int64")


def _occupation_counts(model: OntologicalModel, initial_slow: int, horizon: int,
                       phases: np.ndarray) -> np.ndarray:
    """Row t counts the samples in each slow state after t steps.

    Every sample starts in ``initial_slow`` with its row of ``phases``.  Each
    round finds, for every sample still live, the first step after its last
    state change at which a pair touching its current state fires (one
    ``searchsorted`` per touching pair on the pair's orbit keys), and jumps
    it there.  A valid model never fires two pairs that share a slow state
    in one step, so that first firing is unique.  A sample with no change
    left before ``horizon`` drops out.  Each change adds +1 at (step, new
    state) and -1 at (step, old state) of a difference table, whose running
    sum is the counts.  There are as many rounds as the most changes any
    sample makes, each holds one pending change per live sample, and the
    clocks are never ticked.
    """
    n = model.slow_count
    never = horizon + 1
    pairs = []
    for (a, b), points in _pair_triggers(model).items():
        pa, pb = model.periods[a], model.periods[b]
        lcm = math.lcm(pa, pb)
        # Every point's key d*2L + tau and that key plus L, then a sentinel:
        # the first entry above a row's key is its next firing on this pair,
        # at most L ticks ahead, or more than L ahead if no point shares its orbit.
        orbit, tau = _orbit_position(pa, pb, points[:, 0], points[:, 1])
        keys = orbit * (2 * lcm) + tau
        keys = np.sort(np.concatenate([keys, keys + lcm, [np.iinfo(np.int64).max]]))
        orbit, tau = _orbit_position(pa, pb, phases[:, a], phases[:, b])
        base = orbit * (2 * lcm)
        touches = np.zeros(n, dtype=bool)
        touches[[a, b]] = True
        partner = np.arange(n)
        partner[[a, b]] = b, a
        pairs.append((lcm, keys, base, tau, touches, partner))

    changes = np.zeros((never, n), dtype=np.int64)
    changes[0, initial_slow] = phases.shape[0]
    flat = changes.reshape(-1)
    row = np.arange(phases.shape[0])        # live samples,
    slow = np.full(row.size, initial_slow)  # their slow states
    last = np.zeros(row.size, dtype=np.int64)  # and the steps of their last change
    while row.size:
        when = np.full(row.size, never)
        to = slow.copy()
        for lcm, keys, base, tau, touches, partner in pairs:
            i = np.flatnonzero(touches[slow])
            r, t = row[i], last[i]
            key = base[r] + (tau[r] + t) % lcm
            gap = keys[np.searchsorted(keys, key, side="right")] - key
            sooner = (gap <= lcm) & (t + gap < when[i])
            i = i[sooner]
            when[i] = t[sooner] + gap[sooner]
            to[i] = partner[slow[i]]
        i = np.flatnonzero(when < never)
        np.add.at(flat, when[i] * n + to[i], 1)
        np.add.at(flat, when[i] * n + slow[i], -1)
        row, slow, last = row[i], to[i], when[i]
    return np.cumsum(changes, axis=0)


@dataclass(frozen=True, eq=False)
class ExactOccupation:
    """Occupation counts over all initial phase combinations.

    ``counts[t, s] / total`` is the exact fraction of initial phase
    assignments that occupy slow state s after t steps; counts are integers,
    so the fractions are exact rationals with common denominator ``total``.
    """

    counts: np.ndarray
    total: int

    @property
    def fractions(self) -> np.ndarray:
        return self.counts / self.total


def enumerate_exact(model: OntologicalModel, initial_slow: int, horizon: int) -> ExactOccupation:
    """Exact oracle for :func:`run_ensemble`: count over every initial phase.

    Same event-driven count as :func:`run_ensemble`, over all
    ``phase_space_size`` rows: O((rows + state changes) * log K) work and
    O(rows * coupled pairs) memory besides the result, independent of the
    horizon.  The phase space and the result are capped at
    :data:`ENUMERATION_CAP` rows and entries.
    """
    _check_run(model, initial_slow, horizon, "phase space", model.phase_space_size)
    rows = _phase_rows(model.periods, np.arange(model.phase_space_size))
    counts = _occupation_counts(model, initial_slow, horizon, rows)
    return ExactOccupation(counts=counts, total=model.phase_space_size)


# ---------------------------------------------------------------------------
# serialization

def model_from_json(text: str) -> OntologicalModel:
    """Parse ``{"slow_count": N, "periods": [...], "special_points": [...]}``."""
    return model_from_doc(json.loads(text))


def model_from_doc(doc) -> OntologicalModel:
    """The model of a parsed :func:`model_from_json` document."""
    doc = ontodyn.json_object(doc, "model document", ("slow_count", "periods"))
    n = ontodyn.json_int(doc["slow_count"], "model field 'slow_count'")
    periods = ontodyn.json_ints(doc["periods"], "model field 'periods'")
    entries = ontodyn.json_objects(doc.get("special_points", []),
                                   "model field 'special_points'", ("pair", "trigger"))
    pairs = _int_pairs([entry["pair"] for entry in entries])
    triggers = _int_pairs([entry["trigger"] for entry in entries])
    if pairs is not None and triggers is not None:
        points = np.concatenate((pairs, triggers), axis=1)
    else:
        # Entry by entry: the first that is not two integers is refused,
        # naming its field, and a value beyond int64 reaches the validator,
        # which refuses it as out of range.
        points = tuple(
            SpecialPoint(pair=ontodyn.json_ints(entry["pair"], "model field 'pair'", 2),
                         trigger=ontodyn.json_ints(entry["trigger"], "model field 'trigger'", 2))
            for entry in entries)
    return OntologicalModel(slow_count=n, periods=periods, special_points=points)


def _int_pairs(values: list) -> np.ndarray | None:
    """``values`` as a (K, 2) int64 array if every entry is a list of two
    JSON integers within int64, else None."""
    if set(map(type, values)) <= {list} and set(map(len, values)) <= {2}:
        flat = list(itertools.chain.from_iterable(values))
        if set(map(type, flat)) <= {int}:
            try:
                return np.array(flat, dtype=np.int64).reshape(-1, 2)
            except OverflowError:
                pass
    return None


def load_model(path) -> OntologicalModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())


# One special point as ``json.dumps(..., indent=2)`` writes it, "," included
# after each but the last.
_POINT_JSON = ('\n    {\n      "pair": [\n        %d,\n        %d\n      ],'
               '\n      "trigger": [\n        %d,\n        %d\n      ]\n    }')


def model_to_json(model: OntologicalModel) -> str:
    """The model document, byte for byte as ``json.dumps(..., indent=2)``
    writes it, with the points in table order."""
    head = json.dumps({"slow_count": model.slow_count, "periods": list(model.periods),
                       "special_points": []}, indent=2)
    if not len(model.points):
        return head
    body = ",".join([_POINT_JSON] * len(model.points)) % tuple(model.points.reshape(-1).tolist())
    return head[:-len("]\n}")] + body + "\n  ]\n}"  # inside the empty list's brackets


def write_ensemble_csv(frequencies: np.ndarray, stream: IO[str]) -> None:
    """Rows ``t, state_0_freq, ..., state_{N-1}_freq``."""
    ontodyn.write_csv(stream, ["t"] + [f"state_{s}_freq" for s in range(frequencies.shape[1])],
                      [(np.arange(len(frequencies)), *frequencies.T)])
