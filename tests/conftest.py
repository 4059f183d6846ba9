import json
import math
import warnings
from fractions import Fraction

import numpy as np
from scipy import integrate

from ontosim import bellkit, fastslow, ontodyn, quantize


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def random_law_image(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.permutation(size).astype(np.int64)


def law_to_json(law: ontodyn.PermutationLaw) -> str:
    return json.dumps({"size": law.size, "image": law.image.tolist()})


def random_model(rng: np.random.Generator, max_slow: int = 4, min_period: int = 2,
                 max_period: int = 12, max_points: int = 4, min_slow: int = 1,
                 min_points: int = 0) -> fastslow.OntologicalModel:
    """Random machine whose special points never collide on a shared clock."""
    n = int(rng.integers(min_slow, max_slow + 1))
    periods = [int(rng.integers(min_period, max_period + 1)) for _ in range(n)]
    wanted = int(rng.integers(min_points, max_points + 1)) if n >= 2 else 0
    claimed: list[dict] = [dict() for _ in range(n)]  # trigger value -> owning pair
    chosen: set[tuple] = set()
    for _ in range(8 * wanted):
        if len(chosen) >= wanted:
            break
        a, b = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        p = int(rng.integers(periods[a]))
        q = int(rng.integers(periods[b]))
        if ((a, b), (p, q)) in chosen:
            continue
        if claimed[a].get(p, (a, b)) != (a, b) or claimed[b].get(q, (a, b)) != (a, b):
            continue
        claimed[a][p] = (a, b)
        claimed[b][q] = (a, b)
        chosen.add(((a, b), (p, q)))
    points = tuple(fastslow.SpecialPoint(pair=pair, trigger=trig)
                   for pair, trig in sorted(chosen))
    return fastslow.OntologicalModel(slow_count=n, periods=tuple(periods),
                                     special_points=points)


def reference_validate_model(model) -> None:
    """Oracle for :func:`fastslow._validate_model`: the special-point checks
    as a loop over :class:`fastslow.SpecialPoint` objects.  ``model`` needs
    ``slow_count``, ``periods`` and ``special_points``; a self-pair is
    refused earlier, when its SpecialPoint is built."""
    n = model.slow_count
    if n < 1:
        raise fastslow.ModelValidationError("slow_count must be >= 1")
    if len(model.periods) != n:
        raise fastslow.ModelValidationError(
            f"need one clock period per slow state, got {len(model.periods)} for "
            f"{ontodyn.shown(n)} states")
    if any(p < 1 for p in model.periods):
        raise fastslow.ModelValidationError("clock periods must be positive")
    small = [p for p in model.periods if p < 10]
    if small:
        # a long list is abridged to its first six (ontodyn.shown) and counted
        listed = small if len(small) <= 6 else f"{ontodyn.shown(small)} ({len(small)} of them)"
        warnings.warn(
            f"clock periods {listed} are below 10; the fast/slow separation is marginal",
            fastslow.FastPeriodWarning, stacklevel=2)

    # The conflict rule.  A point on pair (a, b) can only fire while clock a
    # reads trigger[0], so it claims the slot (a, trigger[0]), and likewise
    # (b, trigger[1]).  Two points on different pairs that claim one slot
    # fire together on that state.  Points on the same pair may share a slot:
    # they differ on the other clock, so they never fire together.
    seen: set[tuple] = set()
    owner: dict[tuple[int, int], fastslow.SpecialPoint] = {}
    for sp in model.special_points:
        a, b = sp.pair
        if not (0 <= a < n and 0 <= b < n):
            raise fastslow.ModelValidationError(
                f"special point references unknown slow state: {ontodyn.shown(sp.pair)}")
        if not (0 <= sp.trigger[0] < model.periods[a] and 0 <= sp.trigger[1] < model.periods[b]):
            raise fastslow.ModelValidationError(
                f"trigger {ontodyn.shown(sp.trigger)} outside clock periods for pair "
                f"{ontodyn.shown(sp.pair)}")
        key = (sp.pair, sp.trigger)
        if key in seen:
            raise fastslow.ConflictingSwapError(f"duplicate special point {ontodyn.shown(key)}")
        seen.add(key)
        for s, v in zip(sp.pair, sp.trigger):
            first = owner.setdefault((s, v), sp)
            if first.pair != sp.pair:
                raise fastslow.ConflictingSwapError(
                    f"points {ontodyn.shown(first)} and {ontodyn.shown(sp)} can both fire "
                    f"on state {s} (shared clock value {ontodyn.shown(v)})")


def reference_step(model: fastslow.OntologicalModel, slow: np.ndarray,
                   phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point oracle for the stepping kernel: tick, then test every point.

    Swaps are applied against the pre-swap occupancy and a sample hit by two
    firing points fails the assertion, so this needs no conflict rule of its
    own.  Returns new ``(slow, phases)`` arrays.
    """
    phases = (phases + 1) % np.asarray(model.periods, dtype=np.int64)
    new_slow = slow.copy()
    hits = np.zeros(slow.shape, dtype=np.int64)
    for sp in model.special_points:
        a, b = sp.pair
        fired = (phases[:, a] == sp.trigger[0]) & (phases[:, b] == sp.trigger[1])
        hits += fired & ((slow == a) | (slow == b))
        new_slow[fired & (slow == a)] = b
        new_slow[fired & (slow == b)] = a
    assert hits.max(initial=0) <= 1, "two interchanges touched one slow state"
    return new_slow, phases


def unflatten_config(model: fastslow.OntologicalModel, flat: int) -> fastslow.ClassicalConfig:
    """Inverse of :func:`fastslow.flat_config`, digit by digit."""
    p = model.phase_space_size
    slow, rem = divmod(int(flat), p)
    phases = []
    for stride in fastslow.phase_strides(model.periods):
        d, rem = divmod(rem, int(stride))
        phases.append(int(d))
    return fastslow.ClassicalConfig(slow=slow, phases=tuple(phases))


def reference_cycles(model: fastslow.OntologicalModel) -> ontodyn.CycleDecomposition:
    """Oracle for :func:`fastslow.check_bijectivity`: the generic per-state
    walk of the tabulated step map."""
    return ontodyn.decompose(fastslow.step_map(model))


def two_state_model(period_a: int, period_b: int,
                    trigger=(0, 0)) -> fastslow.OntologicalModel:
    return fastslow.OntologicalModel(
        slow_count=2, periods=(period_a, period_b),
        special_points=(fastslow.SpecialPoint(pair=(0, 1), trigger=trigger),))


def random_factorized_model(rng: np.random.Generator):
    """Smooth random hidden-variable model with an exactly normalized density.

    The density is 1/pi plus cos(2 k lam + phase) corrections, each of which
    integrates to zero over [0, pi) analytically, so quadrature normalization
    holds to machine precision.  Responses stay strictly inside [0, 1].
    """
    def trig_mix(base, budget, n_terms):
        amps = rng.uniform(-1.0, 1.0, size=n_terms)
        amps *= budget / max(1.0, np.abs(amps).sum() / 0.9)
        ks = rng.integers(1, 5, size=n_terms)
        shifts = rng.uniform(0.0, 2.0 * np.pi, size=n_terms)
        def f(x):
            out = np.full_like(np.asarray(x, dtype=float), base)
            for amp, k, shift in zip(amps, ks, shifts):
                out = out + amp * np.cos(2 * int(k) * np.asarray(x) + shift)
            return out
        return f

    rho_extra = trig_mix(1.0 / np.pi, 0.9 / np.pi, int(rng.integers(1, 4)))

    def make_response():
        n_terms = int(rng.integers(1, 4))
        amps = rng.uniform(-1.0, 1.0, size=n_terms)
        amps *= 0.45 / max(1.0, np.abs(amps).sum())
        ks = rng.integers(1, 4, size=n_terms)
        shifts = rng.uniform(0.0, 2.0 * np.pi, size=n_terms)
        def p(setting, lam):
            out = np.full_like(np.asarray(lam, dtype=float), 0.5)
            for amp, k, shift in zip(amps, ks, shifts):
                out = out + amp * np.cos(2 * int(k) * (np.asarray(lam) - setting) + shift)
            return out
        return p

    return bellkit.FactorizedModel(density=rho_extra, p_alice=make_response(),
                                   p_bob=make_response())


def reference_quad(f, points, end: float = math.pi) -> float:
    """Oracle for bellkit's panel quadrature: scipy's adaptive ``quad`` over
    [0, end) with the kink ``points`` as breakpoints."""
    pts = sorted({float(p) for p in points if 0.0 < p < end})
    val, _ = integrate.quad(f, 0.0, end, points=pts or None,
                            limit=200, epsabs=1e-12, epsrel=1e-12)
    return val


def free_energy_levels(model: fastslow.OntologicalModel) -> np.ndarray:
    """All eigenvalues of the free Hamiltonian, sorted, slow states included."""
    return np.repeat(quantize.free_levels(model)[0], model.slow_count)


def ground_delta_expectation(period: int, trigger: int = 0) -> Fraction:
    """Expectation of the phase projector delta_{phi, trigger} in the uniform
    ground state of one clock, summed in exact rational arithmetic."""
    if not 0 <= trigger < period:
        raise ValueError("trigger outside the clock period")
    total = Fraction(0)
    weight = Fraction(1, period)  # |amplitude|^2 of each of the period points
    for phase in range(period):
        if phase == trigger:
            total += weight
    return total


def sawtooth_correlation(a, b):
    """Closed form of the deterministic threshold model: 1 - 4 d / pi with d
    the circular distance of the settings on [0, pi)."""
    d = np.abs(bellkit.normalize_angle(a) - bellkit.normalize_angle(b))
    d = np.minimum(d, math.pi - d)
    return 1.0 - 4.0 * d / math.pi


def conditional_cdf(lam, a: float, b: float) -> np.ndarray:
    """Closed-form CDF of the conditional density (sampler oracle)."""
    lam = np.asarray(lam, dtype=float)
    first_zero = (2.0 * (a + b)) % math.pi / 4.0

    def mass_from_first_zero(x):
        rel = x - first_zero
        arch, w = np.divmod(rel, math.pi / 4.0)
        return arch / 4.0 + (1.0 - np.cos(4.0 * w)) / 8.0

    tail = mass_from_first_zero(np.array(math.pi))  # mass of [first_zero, pi)
    return np.where(lam >= first_zero,
                    mass_from_first_zero(lam) + 1.0 - tail,
                    mass_from_first_zero(lam + math.pi) - tail)
