"""Quantitative Bell/CHSH analysis for polarization-type settings.

Angles live on [0, pi) (polarization is mod pi); the complementary setting is
90 degrees away.  Three correlation models are treated:

* the quantum two-photon correlation ``E(a, b) = cos 2(a - b)``;
* factorized hidden-variable models, a density rho(lambda) with independent
  response probabilities ``p_A(a, lambda)`` and ``p_B(b, lambda)``.  Their
  correlation is one integral, E(a, b) = int rho dA dB dlambda with
  dA = p_A(a) - p_A(a~) and dB = p_B(b) - p_B(b~) in [-1, 1] (x~ the
  complementary setting), which is what bounds their CHSH combination by 2;
* a three-variable joint density ``P(a, b, lambda) = C |sin 2(a + b - 2 lambda)|``
  that correlates the source variable with both settings while keeping every
  single-variable marginal flat.

The three-variable density is completed here with deterministic sign outcomes
``A = sign(cos 2(lambda - a))`` (with sign(0) read as +1), the minimal choice
compatible with complementary settings.  That completion is validated, not
assumed: substituting mu = lambda - (a+b)/2 reduces the expectation to

    E(a, b) = int |sin 2 mu'| sgn(cos(mu'-d)) sgn(cos(mu'+d)) dmu' / 2
            = -cos(pi - 2|a - b|) = cos 2(a - b)

exactly.  Between the density's zeros and the outcomes' flips the integrand
is one sign times C sin(2(a+b) - 4 lambda), so E, the marginals and C are sums
of closed-form arches (``_arches``), equal to that closed form up to rounding;
the panel quadrature ``_integrate`` integrates the factorized models and is
the arch sums' test oracle.  The CHSH combination of this model therefore
reaches 2*sqrt(2) even though each marginal is featureless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Callable, Sequence

import numpy as np

from .ontodyn import SizeCapError, json_int, json_real, philox_rng, shown, write_csv

CLASSICAL_BOUND = 2.0
QUANTUM_MAX = 2.0 * math.sqrt(2.0)
# (a, a', b, b') in radians: 0, 45, 22.5 and 67.5 degrees.
STANDARD_SETTINGS = (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)
# Work caps: a correlation grid or a marginal's grid costs one arch sum per
# cell (grid_size**2 cells), a sample about a hundred bytes while drawn and one CSV row.
GRID_CAP = 256
SAMPLE_CAP = 10 ** 6


class NonNormalizedDensityError(ValueError):
    """The hidden-variable density does not integrate to one."""


class QuadratureError(ValueError):
    """No estimate within tolerance in 200 panels: a non-finite integrand, or
    a jump or oscillation the declared kinks do not resolve.  Also raised for
    a setting that is not finite, which no integral of a model can take."""


def normalize_angle(x):
    """Map an angle into [0, pi); idempotent on the domain."""
    out = np.remainder(x, math.pi)
    # float remainder of a tiny negative value can round up to pi itself
    out = np.where(out >= math.pi, 0.0, out)
    return float(out) if np.ndim(x) == 0 else out


def complementary(a):
    """The 90-degree rotated setting, back in [0, pi)."""
    return normalize_angle(np.asarray(a) + math.pi / 2)


def _complement(a: float) -> float:
    """``complementary`` of one float, to the bit, without numpy's per-call
    dispatch: Python's float ``%`` rounds as ``np.remainder`` does."""
    out = (a + math.pi / 2) % math.pi
    return 0.0 if out >= math.pi else out


def quantum_correlation(a, b):
    """Two-photon polarization correlation cos 2(a - b)."""
    return np.cos(2.0 * (np.asarray(a) - np.asarray(b)))


_NODES_24, _WEIGHTS_24 = np.polynomial.legendre.leggauss(24)
_NODES_48, _WEIGHTS_48 = np.polynomial.legendre.leggauss(48)
_NODES = np.concatenate([_NODES_24, _NODES_48])
_EDGES = np.linspace(0.0, math.pi, 5)  # the 4 base panels of [0, pi)


def _zeros(phase: float, spacing: float, end: float = math.pi) -> list[float]:
    """The points of the progression ``phase + k * spacing`` that lie in [0, end).

    Python's float ``%`` rounds as ``np.remainder`` does (fmod, then one step
    towards the divisor's sign), so the points are numpy's to the bit.
    """
    first = float(phase) % spacing
    points = (first + spacing * k for k in range(math.ceil(end / spacing)))
    return [x for x in points if x < end]


def _integrate(f: Callable, kinks: Sequence[float]) -> float:
    """Integral of ``f`` over [0, pi) by adaptive Gauss-Legendre panels: the
    factorized models' route, whose callables have no closed form.

    [0, pi) is cut into 4 equal panels and at the kinks inside it.  Each
    round calls ``f`` once on the 24- and 48-node points of all open panels;
    a panel whose two sums differ by more than 1e-9 * width / pi, or are not
    finite, is bisected; the others count at their 48-node sum.  A round that
    accepts every open panel returns at once; for a smooth ``f`` whose jumps
    and kinks are all declared, that is the first round.  Raises
    QuadratureError once the partition would pass 200 panels.
    """
    # np.unique of the base edges and the kinks clipped to [0, pi], in Python
    # floats: a dozen of them cost less than numpy's dispatch
    edges = np.array(sorted({*_EDGES.tolist(), *(min(max(k, 0.0), math.pi) for k in kinks)}))
    lo, hi = edges[:-1], edges[1:]
    total, done = 0.0, 0
    while True:
        if done + lo.size > 200:
            raise QuadratureError("integral not resolved to 1e-9 within 200 panels")
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        lam = mid[:, None] + half[:, None] * _NODES
        y = f(lam)
        if np.shape(y) != lam.shape:  # a constant or a row to spread over the panels
            y = np.broadcast_to(y, lam.shape)
        coarse = half * (y[:, :24] @ _WEIGHTS_24)
        fine = half * (y[:, 24:] @ _WEIGHTS_48)
        accept = np.abs(fine - coarse) <= 1e-9 * (hi - lo) / math.pi
        if accept.all():
            return float(total + fine.sum())
        split = ~accept
        total += fine[accept].sum()
        done += int(accept.sum())
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])


def _check_finite(**settings: float) -> None:
    for name, value in settings.items():
        if not math.isfinite(value):
            raise QuadratureError(f"setting {name} = {shown(value)} is not finite")


# ---------------------------------------------------------------------------
# factorized hidden-variable models

@dataclass(frozen=True)
class FactorizedModel:
    """Independent-response hidden-variable model.

    ``density(lam)`` must integrate to 1 over [0, pi); the responses map
    (setting, lam) to detection probabilities in [0, 1].  All three act
    elementwise on an array ``lam`` of any shape.  Every discontinuity of the
    responses at a setting must be listed in ``kinks(setting)``: a
    correlation merges the kinks of its four settings (the two and their
    complements) into one partition, and an undeclared jump is not
    guaranteed to reach the 1e-9 tolerance (it can slip past the error
    estimate).
    """

    density: Callable[[np.ndarray], np.ndarray]
    p_alice: Callable[[float, np.ndarray], np.ndarray]
    p_bob: Callable[[float, np.ndarray], np.ndarray]
    kinks: Callable[[float], Sequence[float]] | None = None


def detection_probability(model: FactorizedModel, a: float, b: float) -> float:
    """Joint detection probability: the density-weighted product of responses.
    Raises QuadratureError for a setting that is not finite."""
    _check_finite(a=a, b=b)
    kinks = [*model.kinks(a), *model.kinks(b)] if model.kinks else ()
    return _integrate(
        lambda lam: model.density(lam) * model.p_alice(a, lam) * model.p_bob(b, lam), kinks)


def factorized_correlation(model: FactorizedModel, a: float, b: float) -> float:
    """Correlation of a factorized model as one integral over lambda.

    E = P(a,b) + P(a~,b~) - P(a,b~) - P(a~,b), with x~ the 90-degree rotated
    setting, factors under the integral into rho * dA * dB, where
    dA = p_A(a) - p_A(a~) and dB = p_B(b) - p_B(b~).  Both lie in [-1, 1], so
    dA(a) (dB(b) - dB(b')) + dA(a') (dB(b) + dB(b')) is at most 2 in size
    pointwise, and the CHSH combination of E is bounded by 2.  Raises
    NonNormalizedDensityError if the density is not normalized (checked by
    the same quadrature at 1e-8), QuadratureError for a setting that is not
    finite.
    """
    _check_finite(a=a, b=b)
    norm = _integrate(model.density, ())
    if abs(norm - 1.0) > 1e-8:
        raise NonNormalizedDensityError(f"density integrates to {norm!r}, not 1")
    ac, bc = _complement(a), _complement(b)
    kinks = ([*model.kinks(a), *model.kinks(ac), *model.kinks(b), *model.kinks(bc)]
             if model.kinks else ())
    return _integrate(lambda lam: model.density(lam)
                      * (model.p_alice(a, lam) - model.p_alice(ac, lam))
                      * (model.p_bob(b, lam) - model.p_bob(bc, lam)), kinks)


def uniform_density(lam):
    return np.full_like(np.asarray(lam, dtype=float), 1.0 / math.pi)


def malus_deterministic_model() -> FactorizedModel:
    """Uniform density with hard threshold responses [cos 2(lam - setting) > 0].

    Its correlation is the classic sawtooth 1 - 4|a-b|/pi (for offsets up to
    90 degrees), which saturates but never violates the CHSH bound.
    """
    def response(setting, lam):
        return (np.cos(2.0 * (np.asarray(lam) - setting)) > 0).astype(float)

    return FactorizedModel(density=uniform_density, p_alice=response, p_bob=response,
                           kinks=lambda setting: _zeros(setting + math.pi / 4, math.pi / 2))


# ---------------------------------------------------------------------------
# CHSH

@dataclass(frozen=True)
class ChshResult:
    """Four correlations and their CHSH combination.

    ``score = E(a,b) - E(a,b') + E(a',b) + E(a',b')``; any factorized model
    keeps |score| <= 2, the quantum correlation reaches 2*sqrt(2).
    """

    settings: tuple[float, float, float, float]
    correlations: tuple[float, float, float, float]
    score: float
    violates_classical_bound: bool


def chsh_score(correlation: Callable[[float, float], float],
               a: float, a_prime: float, b: float, b_prime: float) -> ChshResult:
    e_ab = float(correlation(a, b))
    e_abp = float(correlation(a, b_prime))
    e_apb = float(correlation(a_prime, b))
    e_apbp = float(correlation(a_prime, b_prime))
    score = e_ab - e_abp + e_apb + e_apbp
    return ChshResult(
        settings=(a, a_prime, b, b_prime),
        correlations=(e_ab, e_abp, e_apb, e_apbp),
        score=score,
        violates_classical_bound=abs(score) > CLASSICAL_BOUND + 1e-6,
    )


def chsh_report(result: ChshResult) -> dict:
    """JSON-ready CHSH summary (settings reported in degrees)."""
    return {
        "settings_deg": [math.degrees(s) for s in result.settings],
        "correlations": list(result.correlations),
        "S": result.score,
        "bound": CLASSICAL_BOUND,
        "quantum_max": QUANTUM_MAX,
        "violates_classical_bound": result.violates_classical_bound,
    }


# ---------------------------------------------------------------------------
# the three-variable correlated distribution

NORMALIZATION = 0.5  # C on the domain [0, pi)^3


def outcome_sign(setting, lam):
    """Deterministic detector outcome: sign of cos 2(lam - setting), 0 -> +1."""
    return np.where(np.cos(2.0 * (np.asarray(lam) - setting)) >= 0.0, 1.0, -1.0)


def _outcomes_agree(a, b, lam):
    """Where the outcomes at settings a and b are equal: their product is +1."""
    return (np.cos(2.0 * (lam - a)) >= 0.0) == (np.cos(2.0 * (lam - b)) >= 0.0)


def conditional_density(lam, a, b):
    """Density of the source variable at fixed settings: C |sin 2(a+b-2 lam)|."""
    return NORMALIZATION * np.abs(np.sin(2.0 * (a + b - 2.0 * np.asarray(lam))))


def _arches(theta: float, rate: float, kinks: Sequence[float], end: float = math.pi,
            agree: Callable[[float], bool] | None = None) -> float:
    """Integral over [0, end) of |sin(theta - rate * x)|, or of its product
    with +1 where ``agree(x)`` holds and -1 where it does not, in closed form.

    ``kinks`` must hold every zero of the sine and every change of ``agree``
    in [0, end).  Between consecutive edges {0, end, kinks} the integrand is
    one sign times the sine, read at the panel's midpoint, so each panel adds
    that sign times (cos(theta - rate * hi) - cos(theta - rate * lo)) / rate.
    """
    edges = sorted({0.0, end, *kinks})
    cosines = [math.cos(theta - rate * x) for x in edges]
    total = 0.0
    for k in range(len(edges) - 1):
        mid = (edges[k] + edges[k + 1]) / 2.0
        sign = math.copysign(1.0, math.sin(theta - rate * mid))
        if agree is not None and not agree(mid):
            sign = -sign
        total += sign * (cosines[k + 1] - cosines[k])
    return total / rate


def correlated_expectation(a: float, b: float) -> float:
    """E(a, b) of the correlated three-variable model as a sum of arches.

    The density times both outcome signs is +-C sin(2(a+b) - 4 lambda)
    between the density's zeros and the outcomes' flips, so ``_arches``
    integrates it exactly; the result equals cos 2(a - b) to rounding (the
    module docstring carries the reduction).  Raises QuadratureError for a
    setting that is not finite.
    """
    _check_finite(a=a, b=b)
    kinks = (_zeros((a + b) / 2.0, math.pi / 4) + _zeros(a + math.pi / 4, math.pi / 2)
             + _zeros(b + math.pi / 4, math.pi / 2))

    def agree(lam):  # _outcomes_agree at one point, without numpy's per-call dispatch
        return (math.cos(2.0 * (lam - a)) >= 0.0) == (math.cos(2.0 * (lam - b)) >= 0.0)

    return NORMALIZATION * _arches(2.0 * (a + b), 4.0, kinks, agree=agree)


def _marginal(which: str, u: float, v: float) -> float:
    """The joint density integrated over ``which`` at fixed values of the other two:
    the settings (u, v), or the other setting u and lambda v."""
    _check_finite(u=u, v=v)
    if which == "lambda":
        return NORMALIZATION * _arches(2.0 * (u + v), 4.0, _zeros((u + v) / 2.0, math.pi / 4))
    # the density is symmetric in the settings, so "a" and "b" share one
    # integral: |sin 2(x + u - 2v)| = |sin(4v - 2u - 2x)|
    return NORMALIZATION * _arches(4.0 * v - 2.0 * u, 2.0, _zeros(2.0 * v - u, math.pi / 2))


def _grid(grid_size: int) -> np.ndarray:
    grid_size = json_int(grid_size, "grid_size", 1)
    if grid_size > GRID_CAP:
        raise SizeCapError(f"grid size {shown(grid_size)} exceeds cap {GRID_CAP}")
    return np.linspace(0.0, math.pi, grid_size, endpoint=False)


def marginal_flatness(which: str, grid_size: int = 17) -> float:
    """Integrate the joint density over one variable on a grid of the others.

    Returns the maximum deviation from the constant 1 (the value every
    marginal takes with C = 1/2 on [0, pi)); flat marginals mean no pairwise
    correlation survives averaging.
    """
    if which not in ("lambda", "a", "b"):
        raise ValueError("which must be one of 'lambda', 'a', 'b'")
    grid = _grid(grid_size).tolist()
    return max(abs(_marginal(which, u, v) - 1.0) for u in grid for v in grid)


def normalization_constant(domain_end: float = math.pi, a: float = 0.3, b: float = 1.1) -> float:
    """C normalizing the conditional density on [0, domain_end).

    The value depends only on the domain (1/2 on [0, pi), 1/4 on [0, 2 pi)),
    which the default off-grid settings let a test confirm.
    """
    domain_end = json_real(domain_end, "domain_end")
    if not 0.0 < domain_end < math.inf:
        raise ValueError(f"domain_end must be finite and > 0, not {shown(domain_end)}")
    _check_finite(a=a, b=b)
    return 1.0 / _arches(2.0 * (a + b), 4.0, _zeros((a + b) / 2.0, math.pi / 4, domain_end),
                         domain_end)


# ---------------------------------------------------------------------------
# sampling

def sample_conditional_lambda(a, b, count: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-transform draws from C |sin 2(a+b-2 lam)| on [0, pi).

    The density is four identical arches of mass 1/4 between consecutive
    zeros (pi/4 apart); within an arch the CDF is (1 - cos 4w)/8, inverted in
    closed form.  ``a`` and ``b`` may be scalars or arrays broadcast against
    ``count`` draws.
    """
    u = rng.random(count)
    arch, inner = np.divmod(4.0 * u, 1.0)
    w = np.arccos(1.0 - 2.0 * inner) / 4.0
    first_zero = np.remainder(2.0 * (np.asarray(a) + np.asarray(b)), math.pi) / 4.0
    return np.remainder(first_zero + arch * (math.pi / 4.0) + w, math.pi)


@dataclass(frozen=True, eq=False)
class TripleSamples:
    """Joint draws of settings, source variable and deterministic outcomes."""

    a: np.ndarray
    b: np.ndarray
    lam: np.ndarray
    outcome_a: np.ndarray
    outcome_b: np.ndarray


def _check_samples(count: int, field: str) -> int:
    count = json_int(count, field, 1)
    if count > SAMPLE_CAP:
        raise SizeCapError(f"{shown(count)} samples exceed cap {SAMPLE_CAP}")
    return count


def sample_triples(count: int, seed: int) -> TripleSamples:
    """Uniform settings on [0, pi)^2, then lambda from the conditional density."""
    count = _check_samples(count, "count")
    rng = philox_rng(seed)
    a = rng.random(count) * math.pi
    b = rng.random(count) * math.pi
    lam = sample_conditional_lambda(a, b, count, rng)
    return TripleSamples(a=a, b=b, lam=lam,
                         outcome_a=outcome_sign(a, lam), outcome_b=outcome_sign(b, lam))


def mc_correlation(a: float, b: float, count: int, rng: np.random.Generator) -> float:
    """Monte Carlo E(a, b) at fixed settings from conditional draws, taken from
    ``rng`` 2**14 at a time: the +-1 outcome products sum to the agreements
    less the disagreements, an exact integer."""
    total = 0
    for start in range(0, count, 2 ** 14):
        size = min(2 ** 14, count - start)
        lam = sample_conditional_lambda(a, b, size, rng)
        total += 2 * np.count_nonzero(_outcomes_agree(a, b, lam)) - size
    return total / count


def mc_chsh(a: float, a_prime: float, b: float, b_prime: float,
            samples_per_setting: int, seed: int) -> ChshResult:
    """CHSH score of the correlated model estimated by Monte Carlo."""
    samples_per_setting = _check_samples(samples_per_setting, "samples_per_setting")
    rng = philox_rng(seed)
    return chsh_score(lambda x, y: mc_correlation(x, y, samples_per_setting, rng),
                      a, a_prime, b, b_prime)


# ---------------------------------------------------------------------------
# reports

def write_correlation_grid_csv(grid_size: int, stream: IO[str]) -> None:
    """Rows ``a_deg, b_deg, E_quant, E_correlated, abs_err`` over a uniform grid."""
    grid = _grid(grid_size)
    a, b = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    eq = quantum_correlation(a, b)
    ec = np.array([correlated_expectation(x, y) for x, y in zip(a, b)])
    write_csv(stream, ["a_deg", "b_deg", "E_quant", "E_correlated", "abs_err"],
              [(np.degrees(a), np.degrees(b), eq, ec, np.abs(ec - eq))])


def write_samples_csv(samples: TripleSamples, stream: IO[str]) -> None:
    """Rows ``a, b, lambda, A, B`` (radians; outcomes are +-1)."""
    write_csv(stream, ["a", "b", "lambda", "A", "B"],
              [(samples.a, samples.b, samples.lam,
                samples.outcome_a.astype(np.int8), samples.outcome_b.astype(np.int8))])
