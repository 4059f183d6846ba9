import math

import numpy as np
from scipy import integrate

from ontosim import fastslow


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def random_law_image(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.permutation(size).astype(np.int64)


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
    from ontosim import bellkit

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
