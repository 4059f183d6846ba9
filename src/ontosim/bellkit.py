"""Quantitative Bell/CHSH analysis for polarization-type settings.

Angles live on [0, pi) (polarization is mod pi); the complementary setting is
90 degrees away.  Three correlation models are treated:

* the quantum two-photon correlation ``E(a, b) = cos 2(a - b)``;
* factorized hidden-variable models, a density rho(lambda) with independent
  response probabilities ``p_A(a, lambda)`` and ``p_B(b, lambda)``, whose
  CHSH combination is provably bounded by 2;
* a three-variable joint density ``P(a, b, lambda) = C |sin 2(a + b - 2 lambda)|``
  that correlates the source variable with both settings while keeping every
  single-variable marginal flat.

The three-variable density is completed here with deterministic sign outcomes
``A = sign(cos 2(lambda - a))`` (with sign(0) read as +1), the minimal choice
compatible with complementary settings.  That completion is validated, not
assumed: substituting mu = lambda - (a+b)/2 reduces the expectation to

    E(a, b) = int |sin 2 mu'| sgn(cos(mu'-d)) sgn(cos(mu'+d)) dmu' / 2
            = -cos(pi - 2|a - b|) = cos 2(a - b)

exactly, and the quadrature here must reproduce that closed form.  The CHSH
combination of this model therefore reaches 2*sqrt(2) even though each
marginal is featureless.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Callable, Sequence

import numpy as np

CLASSICAL_BOUND = 2.0
QUANTUM_MAX = 2.0 * math.sqrt(2.0)
# (a, a', b, b') in radians: 0, 45, 22.5 and 67.5 degrees.
STANDARD_SETTINGS = (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)


class NonNormalizedDensityError(ValueError):
    """The hidden-variable density does not integrate to one."""


class QuadratureError(ValueError):
    """No estimate within tolerance in 200 panels: a non-finite integrand, or
    a jump or oscillation the declared kinks do not resolve."""


def normalize_angle(x):
    """Map an angle into [0, pi); idempotent on the domain."""
    out = np.remainder(x, math.pi)
    # float remainder of a tiny negative value can round up to pi itself
    out = np.where(out >= math.pi, 0.0, out)
    return float(out) if np.ndim(x) == 0 else out


def complementary(a):
    """The 90-degree rotated setting, back in [0, pi)."""
    return normalize_angle(np.asarray(a) + math.pi / 2)


def quantum_correlation(a, b):
    """Two-photon polarization correlation cos 2(a - b)."""
    return np.cos(2.0 * (np.asarray(a) - np.asarray(b)))


_NODES_24, _WEIGHTS_24 = np.polynomial.legendre.leggauss(24)
_NODES_48, _WEIGHTS_48 = np.polynomial.legendre.leggauss(48)
_NODES = np.concatenate([_NODES_24, _NODES_48])


def _zeros(phase: float, spacing: float, end: float = math.pi) -> np.ndarray:
    """The points of the progression ``phase + k * spacing`` that lie in [0, end)."""
    points = np.remainder(phase, spacing) + spacing * np.arange(math.ceil(end / spacing))
    return points[points < end]


def _integrate(f: Callable, kinks: Sequence[float], end: float = math.pi) -> float:
    """Integral of ``f`` over [0, end) by adaptive Gauss-Legendre panels.

    [0, end) is cut into 4 equal panels and at the kinks inside it.  Each
    round calls ``f`` once on the 24- and 48-node points of all open panels;
    a panel whose two sums differ by more than 1e-9 * width / end, or are not
    finite, is bisected; the others count at their 48-node sum.  Raises
    QuadratureError once the partition would pass 200 panels.
    """
    edges = np.unique(np.r_[np.linspace(0.0, end, 5), np.clip(kinks, 0.0, end)])
    lo, hi = edges[:-1], edges[1:]
    total, done = 0.0, 0
    while lo.size:
        if done + lo.size > 200:
            raise QuadratureError("integral not resolved to 1e-9 within 200 panels")
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        y = np.broadcast_to(f(mid[:, None] + half[:, None] * _NODES), (lo.size, _NODES.size))
        coarse = half * (y[:, :24] @ _WEIGHTS_24)
        fine = half * (y[:, 24:] @ _WEIGHTS_48)
        split = ~(np.abs(fine - coarse) <= 1e-9 * (hi - lo) / end)
        total += fine[~split].sum()
        done += lo.size - int(split.sum())
        lo, hi = np.r_[lo[split], mid[split]], np.r_[mid[split], hi[split]]
    return float(total)


# ---------------------------------------------------------------------------
# factorized hidden-variable models

@dataclass(frozen=True)
class FactorizedModel:
    """Independent-response hidden-variable model.

    ``density(lam)`` must integrate to 1 over [0, pi); the responses map
    (setting, lam) to detection probabilities in [0, 1].  All three act
    elementwise on an array ``lam`` of any shape.  Every discontinuity of the
    responses at a setting must be listed in ``kinks(setting)``: quadrature
    splits its panels there, and an undeclared jump is not guaranteed to
    reach the 1e-9 tolerance (it can slip past the error estimate).
    """

    density: Callable[[np.ndarray], np.ndarray]
    p_alice: Callable[[float, np.ndarray], np.ndarray]
    p_bob: Callable[[float, np.ndarray], np.ndarray]
    kinks: Callable[[float], Sequence[float]] | None = None


def detection_probability(model: FactorizedModel, a: float, b: float) -> float:
    """Joint detection probability: the density-weighted product of responses."""
    kinks = np.concatenate([model.kinks(a), model.kinks(b)]) if model.kinks else ()
    return _integrate(
        lambda lam: model.density(lam) * model.p_alice(a, lam) * model.p_bob(b, lam), kinks)


def factorized_correlation(model: FactorizedModel, a: float, b: float) -> float:
    """Correlation of a factorized model via the four complementary settings.

    E = P(a,b) + P(a~,b~) - P(a,b~) - P(a~,b) where x~ is the 90-degree
    rotated setting.  Raises if the density is not normalized (checked by the
    same quadrature at 1e-8).
    """
    norm = _integrate(model.density, ())
    if abs(norm - 1.0) > 1e-8:
        raise NonNormalizedDensityError(f"density integrates to {norm!r}, not 1")
    ac, bc = float(complementary(a)), float(complementary(b))
    return (detection_probability(model, a, b)
            + detection_probability(model, ac, bc)
            - detection_probability(model, a, bc)
            - detection_probability(model, ac, b))


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


def sawtooth_correlation(a, b):
    """Closed form of the deterministic threshold model: 1 - 4 d / pi with d
    the circular distance of the settings on [0, pi)."""
    d = np.abs(normalize_angle(a) - normalize_angle(b))
    d = np.minimum(d, math.pi - d)
    return 1.0 - 4.0 * d / math.pi


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


def detection_from_outcome(setting, lam):
    """Detection probability {0, 1} carried by the deterministic outcome."""
    return (outcome_sign(setting, lam) + 1.0) / 2.0


def conditional_density(lam, a, b):
    """Density of the source variable at fixed settings: C |sin 2(a+b-2 lam)|."""
    return NORMALIZATION * np.abs(np.sin(2.0 * (a + b - 2.0 * np.asarray(lam))))


def correlated_expectation(a: float, b: float) -> float:
    """E(a, b) of the correlated three-variable model by kink-aware quadrature.

    This must equal cos 2(a - b) to quadrature accuracy (the module docstring
    carries the closed-form reduction).
    """
    kinks = np.concatenate([_zeros((a + b) / 2.0, math.pi / 4),
                            _zeros(a + math.pi / 4, math.pi / 2),
                            _zeros(b + math.pi / 4, math.pi / 2)])
    return _integrate(
        lambda lam: conditional_density(lam, a, b) * outcome_sign(a, lam) * outcome_sign(b, lam),
        kinks)


def _marginal(which: str, u: float, v: float) -> float:
    """The joint density integrated over ``which`` at fixed values of the other two:
    the settings (u, v), or the other setting u and lambda v."""
    if which == "lambda":
        return _integrate(lambda lam: conditional_density(lam, u, v),
                          _zeros((u + v) / 2.0, math.pi / 4))
    # the density is symmetric in the settings, so "a" and "b" share one integrand
    return _integrate(lambda x: conditional_density(v, x, u), _zeros(2.0 * v - u, math.pi / 2))


def marginal_flatness(which: str, grid_size: int = 17) -> float:
    """Integrate the joint density over one variable on a grid of the others.

    Returns the maximum deviation from the constant 1 (the value every
    marginal takes with C = 1/2 on [0, pi)); flat marginals mean no pairwise
    correlation survives averaging.
    """
    if which not in ("lambda", "a", "b"):
        raise ValueError("which must be one of 'lambda', 'a', 'b'")
    grid = np.linspace(0.0, math.pi, grid_size, endpoint=False)
    return max((abs(_marginal(which, u, v) - 1.0) for u in grid for v in grid), default=0.0)


def normalization_constant(domain_end: float = math.pi, a: float = 0.3, b: float = 1.1) -> float:
    """C normalizing the conditional density on [0, domain_end).

    The value depends only on the domain (1/2 on [0, pi), 1/4 on [0, 2 pi)),
    which the default off-grid settings let a test confirm.
    """
    raw = lambda lam: np.abs(np.sin(2.0 * (a + b - 2.0 * lam)))
    return 1.0 / _integrate(raw, _zeros((a + b) / 2.0, math.pi / 4, domain_end), domain_end)


# ---------------------------------------------------------------------------
# sampling

def bell_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


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


@dataclass(frozen=True, eq=False)
class TripleSamples:
    """Joint draws of settings, source variable and deterministic outcomes."""

    a: np.ndarray
    b: np.ndarray
    lam: np.ndarray
    outcome_a: np.ndarray
    outcome_b: np.ndarray


def sample_triples(count: int, seed: int) -> TripleSamples:
    """Uniform settings on [0, pi)^2, then lambda from the conditional density."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = bell_rng(seed)
    a = rng.random(count) * math.pi
    b = rng.random(count) * math.pi
    lam = sample_conditional_lambda(a, b, count, rng)
    return TripleSamples(a=a, b=b, lam=lam,
                         outcome_a=outcome_sign(a, lam), outcome_b=outcome_sign(b, lam))


def mc_correlation(a: float, b: float, count: int, rng: np.random.Generator) -> float:
    """Monte Carlo E(a, b) at fixed settings from conditional draws."""
    lam = sample_conditional_lambda(a, b, count, rng)
    return float(np.mean(outcome_sign(a, lam) * outcome_sign(b, lam)))


def mc_chsh(a: float, a_prime: float, b: float, b_prime: float,
            samples_per_setting: int, seed: int) -> ChshResult:
    """CHSH score of the correlated model estimated by Monte Carlo."""
    rng = bell_rng(seed)
    return chsh_score(lambda x, y: mc_correlation(x, y, samples_per_setting, rng),
                      a, a_prime, b, b_prime)


# ---------------------------------------------------------------------------
# reports

def write_correlation_grid_csv(grid_size: int, stream: IO[str]) -> None:
    """Rows ``a_deg, b_deg, E_quant, E_correlated, abs_err`` over a uniform grid."""
    writer = csv.writer(stream)
    writer.writerow(["a_deg", "b_deg", "E_quant", "E_correlated", "abs_err"])
    grid = np.linspace(0.0, math.pi, grid_size, endpoint=False)
    for a in grid:
        for b in grid:
            eq = float(quantum_correlation(a, b))
            ec = correlated_expectation(a, b)
            writer.writerow([repr(math.degrees(a)), repr(math.degrees(b)),
                             repr(eq), repr(ec), repr(abs(ec - eq))])


def write_samples_csv(samples: TripleSamples, stream: IO[str]) -> None:
    """Rows ``a, b, lambda, A, B`` (radians; outcomes are +-1)."""
    writer = csv.writer(stream)
    writer.writerow(["a", "b", "lambda", "A", "B"])
    for i in range(samples.a.size):
        writer.writerow([repr(float(samples.a[i])), repr(float(samples.b[i])),
                         repr(float(samples.lam[i])),
                         int(samples.outcome_a[i]), int(samples.outcome_b[i])])
