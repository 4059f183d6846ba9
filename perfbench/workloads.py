"""Seeded task lists for the three benchmark workloads.

Each workload turns a seed into a list of :class:`Task` objects before any
timing starts; a task's ``job`` calls only the public ontosim API (or
``cli.main``) on those generated inputs, and ``check`` is its oracle.

Magnitudes and sizes are stratified by position in the list (a Latin
hypercube over each stratum), so every seed carries the same heavy tail:
the costly tasks differ in their exact inputs from seed to seed, not in how
many of them there are or how large they are.

* ``compile_compare`` compiles 2-state and 3-state chain targets.  Most tasks
  are compile-only (compile -> JSON round trip -> ground projection); about
  2 in 7 also run ``compare_dynamics`` with an ensemble and write the CSV.
  2-state magnitudes are log-uniform on [1e-3, 0.3], snapped to
  (pi/2) * K / (Pa * Pb) with prime clock periods, so the special-point
  count K (which sets the O(K^2) validator and per-point stepping cost)
  follows the stratified magnitude instead of the compiler's erratic
  continued-fraction denominators.
* ``ensemble`` steps few-point random machines over long horizons against
  the exact enumeration, with a large reversibility proof after every 6th.
* ``bell`` evaluates the correlated-model grid row by row, factorized CHSH
  scores, marginal flatness, a Monte Carlo CHSH and one ``ontosim bell`` run.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy import special

from ontosim import bellkit, cli, fastslow, ontodyn, quantize
from ontosim.fixtures import fixture_path

HALF_PI = math.pi / 2
SQRT2 = math.sqrt(2.0)
SIGMAS = 6.0  # oracle width for seeded estimates; >= 5 sigma even over many entries
TAIL = 1e-9   # the one-sided tail probability of a 6-sigma Gaussian bound


@dataclass
class Task:
    """One user-level job and the oracle that judges its output."""

    kind: str
    job: Callable[[], Any]
    check: Callable[[Any], bool]
    summary: Callable[[Any], Any] = lambda out: out


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def stratified(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw from each of ``count`` equal strata of [lo, hi), shuffled."""
    strata = rng.permutation(count)
    return lo + (strata + rng.random(count)) * (hi - lo) / count


def log_stratified(rng, count, lo, hi) -> np.ndarray:
    return np.exp(stratified(rng, count, math.log(lo), math.log(hi)))


# ---------------------------------------------------------------------------
# compile_compare

CC_POSITIONS = 105          # compile-only and compare tasks; the CLI pairs come on top
CC_HORIZON = 70             # README horizon
CC_SAMPLES = 1000
CC_TOLERANCE = 1e-4
CC_CHAIN_TOLERANCE = 2e-3
CC_CHAIN_PERIOD = 24
CC_MAG_RANGE = (1e-3, 0.3)
# Prime clock periods per task family; K = round(x * min(Pa * Pb)) keeps
# |H| <= 0.3 and makes K independent of which pair a seed draws.
CC_COMPILE_PRIMES = (79, 83, 89, 97)            # K up to ~1250 at max_period 200
CC_COMPARE_PRIMES = (37, 41, 43, 47)            # K up to ~290 at max_period 100
CC_CLI_POSITIONS = (35, 70)


def is_compare(i: int) -> bool:
    return i % 7 in (2, 5)


def is_chain(i: int) -> bool:
    """About 1 in 5 positions, never a compare one: a 3-state chain compiled
    at the compare tasks' max_period 100 would have 3e6 ontic states."""
    return i % 7 == 0 or i % 14 == 4


def snapped_two_state(rng, x: float, primes) -> np.ndarray:
    """Target (pi/2) * K / (Pa * Pb) for two distinct seeded primes, K ~ x * min product."""
    pa, pb = sorted(int(p) for p in rng.choice(primes, size=2, replace=False))
    k = max(1, round(x * primes[0] * primes[1]))
    while k % pa == 0 or k % pb == 0:
        k += 1
    mag = HALF_PI * k / (pa * pb)
    return np.array([[0.0, -1j * mag], [1j * mag, 0.0]]).T


def chain_target(x01: float, x12: float) -> np.ndarray:
    t = np.zeros((3, 3), dtype=complex)
    for (a, b), x in (((0, 1), x01), ((1, 2), x12)):
        t[a, b] = 1j * HALF_PI * x
        t[b, a] = -1j * HALF_PI * x
    return t


def target_magnitudes(target) -> dict:
    n = target.shape[0]
    return {(a, b): abs(float(target[a, b].imag))
            for a in range(n) for b in range(a + 1, n) if target[a, b] != 0}


def model_couplings(model) -> dict:
    """Achieved |H_ab| = (pi/2) * points / (Pa * Pb), counted from the model itself."""
    counts = Counter(sp.pair for sp in model.special_points)
    return {(a, b): HALF_PI * k / (model.periods[a] * model.periods[b])
            for (a, b), k in counts.items()}


def couplings_within(achieved: dict, target, tolerance: float) -> bool:
    """Every achieved coupling is within tolerance of its target pair, and no
    target pair above tolerance was dropped."""
    mags = target_magnitudes(target)
    return all(abs(achieved.get(pair, 0.0) - mags.get(pair, 0.0)) <= tolerance
               for pair in set(mags) | set(achieved))


def compile_only_task(target, tolerance, max_period) -> Task:
    def job():
        model = quantize.compile_target(target, tolerance, max_period)
        handed_off = fastslow.model_from_json(fastslow.model_to_json(model))
        return handed_off, quantize.ground_project(handed_off)

    def check(out):
        eff = out[1]
        achieved = {pc.pair: HALF_PI * pc.points / pc.denominator for pc in eff.couplings}
        return couplings_within(achieved, target, tolerance)

    return Task("compile", job, check,
                summary=lambda out: (repr(out[0]), out[1].matrix))


def compare_task(target, tolerance, max_period, seed) -> Task:
    def job():
        model = quantize.compile_target(target, tolerance, max_period)
        cmp_ = quantize.compare_dynamics(model, 0, CC_HORIZON, CC_SAMPLES, seed)
        stream = io.StringIO()
        quantize.write_comparison_csv(cmp_, stream)
        return model, cmp_, stream.getvalue()

    def check(out):
        model, cmp_, text = out
        return (couplings_within(model_couplings(model), target, tolerance)
                and cmp_.max_classical_quantum <= 1e-10
                and text.count("\n") == CC_HORIZON + 2)

    return Task("compare", job, check,
                summary=lambda out: (repr(out[0]), out[1].classical, out[1].quantum,
                                     out[1].ensemble, out[2]))


def cli_compile_compare_tasks(rng, workdir: Path, index: int) -> list[Task]:
    """``ontosim compile`` then ``ontosim compare`` on its model.json, in process."""
    x = float(log_stratified(rng, 1, 1e-2, 5e-2)[0])
    target = snapped_two_state(rng, x, CC_COMPARE_PRIMES)
    seed = int(rng.integers(1, 2 ** 31))
    target_path = workdir / f"target_{index}.json"
    target_path.write_text(quantize.target_to_json(target), encoding="utf-8")
    build = workdir / f"build_{index}"
    csv_path = workdir / f"comparison_{index}.csv"
    compile_argv = ["compile", "--input", str(target_path), "--tolerance", repr(CC_TOLERANCE),
                    "--max-period", "200", "--output", str(build)]
    compare_argv = ["compare", "--input", str(build / "model.json"),
                    "--horizon", str(CC_HORIZON), "--samples", str(CC_SAMPLES),
                    "--seed", str(seed), "--output", str(csv_path)]

    def compiled_ok(code):
        if code != 0:
            return False
        report = json.loads((build / "report.json").read_text(encoding="utf-8"))
        return report["max_abs_error"] <= CC_TOLERANCE

    def compared_ok(code):
        if code != 0:
            return False
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        return (len(rows) == CC_HORIZON + 1
                and max(abs(float(r[1]) - float(r[2])) for r in rows) <= 1e-10)

    return [
        Task("cli_compile", lambda: cli.main(compile_argv), compiled_ok,
             summary=lambda code: (code, (build / "model.json").read_bytes(),
                                   (build / "report.json").read_bytes())),
        Task("cli_compare", lambda: cli.main(compare_argv), compared_ok,
             summary=lambda code: (code, csv_path.read_bytes())),
    ]


def build_compile_compare(seed: int, workdir: Path) -> list[Task]:
    rng = rng_for(seed)
    lo, hi = (m / HALF_PI for m in CC_MAG_RANGE)
    families: dict[tuple[bool, bool], list[int]] = {}
    for i in range(CC_POSITIONS):
        families.setdefault((is_compare(i), is_chain(i)), []).append(i)
    xs: dict[int, tuple[float, float]] = {}
    for positions in families.values():
        first = log_stratified(rng, len(positions), lo, hi)
        second = log_stratified(rng, len(positions), lo, hi)
        xs.update({i: (float(a), float(b)) for i, a, b in zip(positions, first, second)})

    tasks: list[Task] = []
    for i in range(CC_POSITIONS):
        if i in CC_CLI_POSITIONS:
            tasks.extend(cli_compile_compare_tasks(rng, workdir, len(tasks)))
        x, x2 = xs[i]
        if is_chain(i):
            target, tol, max_period = chain_target(x, x2), CC_CHAIN_TOLERANCE, CC_CHAIN_PERIOD
        else:
            primes = CC_COMPARE_PRIMES if is_compare(i) else CC_COMPILE_PRIMES
            target = snapped_two_state(rng, x, primes)
            tol, max_period = CC_TOLERANCE, (100 if is_compare(i) else 200)
        if is_compare(i):
            tasks.append(compare_task(target, tol, max_period, int(rng.integers(1, 2 ** 31))))
        else:
            tasks.append(compile_only_task(target, tol, max_period))
    return tasks


# ---------------------------------------------------------------------------
# ensemble

ENS_CLASSES = [(slow, points) for slow in (2, 3, 4) for points in (1, 2, 3, 4)]
ENS_PER_CLASS = 8               # machine tasks per (slow states, points) class
ENS_HORIZON = 250
ENS_SAMPLES = 1000
ENS_PHASE_RANGE = (1e3, 6e3)
ENS_BIG_EVERY = 6               # one reversibility proof after every 6th machine task
ENS_BIG_RANGE = (6.0e5, 6.6e5)  # ontic states of those 2-state proofs
ENS_CLI_EVERY = 24              # one simulate and one cycles call per 24 machine tasks
# Proofs are 1 in 7.5 tasks, so the 90th percentile lands inside their
# stratified sizes rather than on the edge between them and machine tasks.
# Their sizes span only 10%: over a wide span the percentile is set by the
# one proof whose size sits there, and so carries that single timing's noise;
# over a narrow one it is an order statistic of many near-equal timings.


def random_periods(rng, count: int, phase_space: float) -> tuple[int, ...]:
    """``count`` clock periods whose product is close to ``phase_space``.

    Periods are at least 4, one free trigger value per special point, so
    :func:`random_machine` can always place its points.  The largest share
    is rounded last, against the product of the others, to keep the
    product near the target.
    """
    shares = np.sort(rng.dirichlet(np.full(count, 4.0)))
    periods = [max(4, round(phase_space ** float(v))) for v in shares[:-1]]
    periods.append(max(4, round(phase_space / math.prod(periods))))
    return tuple(int(v) for v in rng.permutation(periods))


def random_machine(rng, slow_count: int, point_count: int,
                   periods: tuple[int, ...]) -> fastslow.OntologicalModel:
    """Machine whose trigger values are distinct on every clock, so no two
    special points can fire on one slow state in the same step."""
    used: list[set[int]] = [set() for _ in range(slow_count)]
    points = []
    while len(points) < point_count:
        a, b = sorted(int(v) for v in rng.choice(slow_count, size=2, replace=False))
        free_a = [v for v in range(periods[a]) if v not in used[a]]
        free_b = [v for v in range(periods[b]) if v not in used[b]]
        if not free_a or not free_b:
            continue
        p, q = int(rng.choice(free_a)), int(rng.choice(free_b))
        used[a].add(p)
        used[b].add(q)
        points.append(fastslow.SpecialPoint(pair=(a, b), trigger=(p, q)))
    return fastslow.OntologicalModel(slow_count=slow_count, periods=periods,
                                     special_points=tuple(points))


def within_binomial_tails(estimate: np.ndarray, exact: np.ndarray, samples: int) -> bool:
    """Each entry's count is Binomial(samples, exact fraction); reject only a
    count whose tail probability is below TAIL.  Exact tails, because the
    early rows expect about one count, where a Gaussian bound is far too
    narrow."""
    counts = np.rint(estimate * samples).astype(np.int64)
    upper = np.where(counts > 0, special.bdtrc(np.maximum(counts - 1, 0), samples, exact), 1.0)
    lower = special.bdtr(counts, samples, exact)
    return bool(np.all(np.minimum(upper, lower) >= TAIL))


def ensemble_task(model, seed) -> Task:
    def job():
        proof = fastslow.check_bijectivity(model)
        exact = fastslow.enumerate_exact(model, 0, ENS_HORIZON)
        return proof, exact, fastslow.run_ensemble(model, 0, ENS_HORIZON, ENS_SAMPLES, seed)

    def check(out):
        proof, exact, freq = out
        return (sum(proof.ranks) == model.ontic_space_size
                and bool(np.all(exact.counts.sum(axis=1) == exact.total))
                and within_binomial_tails(freq, exact.fractions, ENS_SAMPLES))

    return Task("machine", job, check,
                summary=lambda out: (out[0].cycles, out[1].counts, out[2]))


def reversibility_task(model) -> Task:
    return Task("reversibility", lambda: fastslow.check_bijectivity(model),
                lambda proof: sum(proof.ranks) == model.ontic_space_size,
                summary=lambda proof: (proof.ranks, hash(proof.cycles)))


def cli_ensemble_tasks(rng, workdir: Path, index: int) -> list[Task]:
    """``ontosim simulate`` and ``ontosim cycles`` on one generated model file."""
    slow = 2 + index % 3
    model = random_machine(rng, slow, 1 + index % 4,
                           random_periods(rng, slow, float(rng.uniform(*ENS_PHASE_RANGE))))
    model_path = workdir / f"model_{index}.json"
    model_path.write_text(fastslow.model_to_json(model), encoding="utf-8")
    sim_path = workdir / f"ensemble_{index}.csv"
    cyc_path = workdir / f"cycles_{index}.json"
    seed = int(rng.integers(1, 2 ** 31))
    simulate = ["simulate", "--input", str(model_path), "--horizon", str(ENS_HORIZON),
                "--samples", str(ENS_SAMPLES), "--seed", str(seed), "--output", str(sim_path)]
    cycles = ["cycles", "--input", str(model_path), "--output", str(cyc_path)]

    def simulated_ok(code):
        if code != 0:
            return False
        with open(sim_path, newline="", encoding="utf-8") as fh:
            rows = [[float(v) for v in r] for r in list(csv.reader(fh))[1:]]
        return (len(rows) == ENS_HORIZON + 1
                and all(abs(sum(r[1:]) - 1.0) <= 1e-12 for r in rows)
                and rows[0][1] == 1.0)

    def cycled_ok(code):
        if code != 0:
            return False
        report = json.loads(cyc_path.read_text(encoding="utf-8"))
        return sum(report["ranks"]) == model.ontic_space_size

    return [
        Task("cli_simulate", lambda: cli.main(simulate), simulated_ok,
             summary=lambda code: (code, sim_path.read_bytes())),
        Task("cli_cycles", lambda: cli.main(cycles), cycled_ok,
             summary=lambda code: (code, cyc_path.read_bytes())),
    ]


def build_ensemble(seed: int, workdir: Path) -> list[Task]:
    rng = rng_for(seed)
    phase_spaces = {c: list(log_stratified(rng, ENS_PER_CLASS, *ENS_PHASE_RANGE))
                    for c in ENS_CLASSES}
    count = ENS_PER_CLASS * len(ENS_CLASSES)
    big_sizes = list(stratified(rng, count // ENS_BIG_EVERY, *ENS_BIG_RANGE))
    tasks: list[Task] = []
    for i in range(count):
        slow, points = ENS_CLASSES[i % len(ENS_CLASSES)]
        periods = random_periods(rng, slow, float(phase_spaces[slow, points].pop()))
        tasks.append(ensemble_task(random_machine(rng, slow, points, periods),
                                   int(rng.integers(1, 2 ** 31))))
        if i % ENS_BIG_EVERY == ENS_BIG_EVERY - 1:
            half = big_sizes.pop() / 2
            pa = round(math.sqrt(half) * math.exp(rng.uniform(-0.5, 0.5)))
            tasks.append(reversibility_task(
                random_machine(rng, 2, int(rng.integers(1, 5)), (pa, round(half / pa)))))
        if i % ENS_CLI_EVERY == ENS_CLI_EVERY // 2:
            tasks.extend(cli_ensemble_tasks(rng, workdir, len(tasks)))
    return tasks


# ---------------------------------------------------------------------------
# bell

BELL_GRID = 64
BELL_FACTORIZED = 100
BELL_MC_SAMPLES = 10 ** 6
BELL_CLI_GRID = 12
BELL_CLI_SAMPLES = 10 ** 5


def smooth_factorized_model(rng) -> bellkit.FactorizedModel:
    """Hidden-variable model with an exactly normalized density: 1/pi plus
    cos(2 k lam + phase) terms, each integrating to zero over [0, pi), and
    responses strictly inside [0, 1]."""
    def cosine_mix(base, budget, n_terms, max_k, shifted_by_setting):
        amps = rng.uniform(-1.0, 1.0, size=n_terms)
        amps *= budget / max(1.0, np.abs(amps).sum())
        ks = rng.integers(1, max_k + 1, size=n_terms)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=n_terms)
        terms = list(zip(amps.tolist(), ks.tolist(), phases.tolist()))

        if shifted_by_setting:
            def f(setting, lam):
                lam = np.asarray(lam, dtype=float)
                return base + sum(amp * np.cos(2 * k * (lam - setting) + ph)
                                  for amp, k, ph in terms)
        else:
            def f(lam):
                lam = np.asarray(lam, dtype=float)
                return base + sum(amp * np.cos(2 * k * lam + ph) for amp, k, ph in terms)
        return f

    density = cosine_mix(1.0 / math.pi, 0.9 / math.pi, int(rng.integers(1, 4)), 4, False)
    p_alice = cosine_mix(0.5, 0.45, int(rng.integers(1, 4)), 3, True)
    p_bob = cosine_mix(0.5, 0.45, int(rng.integers(1, 4)), 3, True)
    return bellkit.FactorizedModel(density=density, p_alice=p_alice, p_bob=p_bob)


def rotated_settings(theta: float) -> tuple[float, float, float, float]:
    return tuple((s + theta) % math.pi for s in bellkit.STANDARD_SETTINGS)


def mc_chsh_ok(score: float, samples_per_setting: int) -> bool:
    """Each correlation estimate has variance (1 - 1/2) / n at these settings,
    so sigma(S) = sqrt(2 / n)."""
    return abs(score - 2 * SQRT2) <= SIGMAS * math.sqrt(2.0 / samples_per_setting)


def grid_row_task(a: float, bs: np.ndarray) -> Task:
    def job():
        return np.array([bellkit.correlated_expectation(a, b) for b in bs])

    return Task("grid_row", job,
                lambda out: float(np.abs(out - np.cos(2.0 * (a - bs))).max()) <= 1e-6)


def factorized_task(model, settings) -> Task:
    def job():
        return bellkit.chsh_score(
            lambda x, y: bellkit.factorized_correlation(model, x, y), *settings).score

    return Task("factorized_chsh", job, lambda s: abs(s) <= 2.0 + 1e-9)


def cli_bell_task(workdir: Path, theta: float, seed: int) -> Task:
    out_dir = workdir / "bell"
    degrees = ",".join(repr(math.degrees(s)) for s in rotated_settings(theta))
    argv = ["bell", "--output", str(out_dir), "--grid", str(BELL_CLI_GRID),
            "--samples", str(BELL_CLI_SAMPLES), "--seed", str(seed), "--settings", degrees]
    files = ("grid.csv", "chsh.json", "flatness.json", "samples.csv")

    def check(code):
        if code != 0:
            return False
        chsh = json.loads((out_dir / "chsh.json").read_text(encoding="utf-8"))
        flat = json.loads((out_dir / "flatness.json").read_text(encoding="utf-8"))
        with open(out_dir / "grid.csv", newline="", encoding="utf-8") as fh:
            grid_err = max(float(r[4]) for r in list(csv.reader(fh))[1:])
        with open(out_dir / "samples.csv", "rb") as fh:
            sample_rows = sum(1 for _ in fh) - 1
        return (grid_err <= 1e-6 and max(flat.values()) <= 1e-8
                and abs(chsh["S"] - 2 * SQRT2) <= 1e-6
                and mc_chsh_ok(chsh["S_monte_carlo"], BELL_CLI_SAMPLES // 4)
                and sample_rows == BELL_CLI_SAMPLES)

    return Task("cli_bell", lambda: cli.main(argv), check,
                summary=lambda code: (code, [(out_dir / f).read_bytes() for f in files]))


def build_bell(seed: int, workdir: Path) -> list[Task]:
    rng = rng_for(seed)
    # The acceptance grid itself: quadrature cost depends on where the
    # settings put the kinks, so a seeded offset would change the work.
    grid = np.linspace(0.0, math.pi, BELL_GRID, endpoint=False)
    tasks = [grid_row_task(float(a), grid) for a in grid]
    theta = float(rng.uniform(0.0, math.pi))
    settings = rotated_settings(theta)
    tasks += [factorized_task(smooth_factorized_model(rng), settings)
              for _ in range(BELL_FACTORIZED)]
    tasks += [Task("flatness", lambda w=w: bellkit.marginal_flatness(w), lambda v: v <= 1e-8)
              for w in ("lambda", "a", "b")]
    per_setting = BELL_MC_SAMPLES // 4
    mc_seed = int(rng.integers(1, 2 ** 31))
    tasks.append(Task(
        "mc_chsh",
        lambda: bellkit.mc_chsh(*settings, samples_per_setting=per_setting, seed=mc_seed).score,
        lambda s: mc_chsh_ok(s, per_setting)))
    tasks.append(cli_bell_task(workdir, theta, int(rng.integers(1, 2 ** 31))))
    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]


GENERATORS = {
    "compile_compare": build_compile_compare,
    "ensemble": build_ensemble,
    "bell": build_bell,
}


# ---------------------------------------------------------------------------
# warm-up: one small call per layer a workload uses, before the first timed task

def warm_up(workload: str, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    code = cli.main(["cycles", "--input", str(fixture_path("figure1.json")),
                     "--output", str(workdir / "warm_cycles.json")])
    if code != 0:
        raise RuntimeError(f"warm-up cli call exited {code}")
    if workload == "bell":
        bellkit.correlated_expectation(0.1, 0.7)
        bellkit.factorized_correlation(bellkit.malus_deterministic_model(), 0.1, 0.7)
        bellkit.mc_chsh(*bellkit.STANDARD_SETTINGS, samples_per_setting=16, seed=1)
        return
    model = fastslow.load_model(fixture_path("two_state_10_7.json"))
    ontodyn.decompose(fastslow.step_map(model))
    fastslow.run_ensemble(model, 0, 5, 8, 1)
    if workload == "compile_compare":
        target = np.array([[0.0, -0.01j], [0.01j, 0.0]]).T
        compiled = quantize.compile_target(target, CC_TOLERANCE, 20)
        fastslow.model_from_json(fastslow.model_to_json(compiled))
        quantize.compare_dynamics(model, 0, 5, 8, 1)
    else:
        fastslow.enumerate_exact(model, 0, 5)
