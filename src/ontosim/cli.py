"""Batch front end: file-in, file-out experiments over the library.

Subcommands: cycles, spectrum, simulate, compile, compare, bell.  All angles
in files and flags are degrees (converted at this boundary; the library works
in radians).  A JSON config file may supply any option; command-line flags
override config fields, and nothing is read from the environment.  Commands
are deterministic given their inputs and seed.  Diagnostics go to stderr,
data streams to the requested outputs only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from contextlib import contextmanager
from enum import IntEnum
from pathlib import Path

import numpy as np

from . import bellkit, fastslow, ontodyn, quantize


class ExitCode(IntEnum):
    OK = 0
    USAGE = 2
    FILE_NOT_FOUND = 3
    PARSE_ERROR = 4
    INVALID_MODEL = 5
    SIZE_CAP = 6
    NOT_REPRESENTABLE = 7
    UNREACHABLE_TOLERANCE = 8


class UsageError(ValueError):
    pass


@contextmanager
def _out_stream(dest: str | None):
    if dest is None or dest == "-":
        yield sys.stdout
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _load_document(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("input document must be a JSON object")
    return doc, text


def _load_law_or_model(path: str):
    """Return ('law', PermutationLaw) or ('model', OntologicalModel)."""
    doc, text = _load_document(path)
    if "image" in doc:
        return "law", ontodyn.law_from_json(text)
    if "slow_count" in doc:
        with _warnings_against(path):
            return "model", fastslow.model_from_json(text)
    raise ValueError("input is neither a permutation ('image') nor a model ('slow_count')")


@contextmanager
def _warnings_against(path: str):
    """Report library warnings (a marginal clock period) against the input file."""
    with warnings.catch_warnings(record=True) as caught:
        yield
    for warning in caught:
        print(f"ontosim: warning: {path}: {warning.message}", file=sys.stderr)


def _opt(args, config: dict, key: str, default=None):
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _count(args, config: dict, key: str, least: int, default=None) -> int | None:
    """An integer option, refused with a usage error if not an integer or below ``least``."""
    value = _opt(args, config, key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"--{key} must be an integer, not {value!r}")
    if value < least:
        raise UsageError(f"--{key} must be at least {least}, not {value}")
    return value


def _tolerance(args, config: dict) -> float:
    """A required number, refused with a usage error unless finite and above 0."""
    value = _require(_opt(args, config, "tolerance"), "tolerance")
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise UsageError(f"--tolerance must be a finite number above 0, not {value!r}")
    return float(value)


def _require(value, name: str):
    if value is None:
        raise UsageError(f"missing required option --{name}")
    return value


def _parse_settings(text: str) -> tuple[float, float, float, float]:
    try:
        parts = [float(v) for v in str(text).split(",")]
    except ValueError:
        parts = []
    if len(parts) != 4 or not all(math.isfinite(v) for v in parts):
        raise UsageError(f"--settings needs four finite degrees a,a',b,b', not {text!r}")
    return tuple(math.radians(v) for v in parts)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_cycles(args, config) -> int:
    kind, obj = _load_law_or_model(_require(_opt(args, config, "input"), "input"))
    decomp = ontodyn.decompose(obj) if kind == "law" else fastslow.check_bijectivity(obj)
    with _out_stream(_opt(args, config, "output")) as fh:
        json.dump(ontodyn.cycles_report(decomp), fh)
        fh.write("\n")
    return ExitCode.OK


def _cmd_spectrum(args, config) -> int:
    kind, obj = _load_law_or_model(_require(_opt(args, config, "input"), "input"))
    with _out_stream(_opt(args, config, "output")) as fh:
        if kind == "law":
            ontodyn.write_spectrum_csv(ontodyn.decompose(obj), fh)
        else:
            if obj.ontic_space_size > fastslow.ENUMERATION_CAP:
                raise ontodyn.SizeCapError(
                    f"ontic space {obj.ontic_space_size} too large for a spectrum table")
            levels = quantize.free_energy_levels(obj)
            distinct, counts = np.unique(np.round(levels, 12), return_counts=True)
            fh.write("level,energy,multiplicity\n")
            for i, (energy, mult) in enumerate(zip(distinct, counts)):
                fh.write(f"{i},{float(energy)!r},{int(mult)}\n")
    return ExitCode.OK


def _cmd_simulate(args, config) -> int:
    horizon = _require(_count(args, config, "horizon", 0), "horizon")
    samples = _require(_count(args, config, "samples", 1), "samples")
    seed = _require(_opt(args, config, "seed"), "seed")
    initial = _count(args, config, "initial", 0, 0)
    kind, model = _load_law_or_model(_require(_opt(args, config, "input"), "input"))
    if kind != "model":
        raise UsageError("simulate needs a model file, not a permutation")
    freq = fastslow.run_ensemble(model, initial, horizon, samples, seed)
    with _out_stream(_opt(args, config, "output")) as fh:
        fastslow.write_ensemble_csv(freq, fh)
    return ExitCode.OK


def _write_comparison(model, initial: int, horizon: int, samples: int, seed: int,
                      dest: str | None) -> None:
    """Write the comparison CSV to ``dest`` and its residuals to stderr."""
    comparison = quantize.compare_dynamics(model, initial, horizon,
                                           sample_count=samples, seed=seed)
    with _out_stream(dest) as fh:
        quantize.write_comparison_csv(comparison, fh)
    print(f"max |classical - quantum| = {comparison.max_classical_quantum:.3e}, "
          f"max |classical - effective| = {comparison.max_classical_effective:.3e}",
          file=sys.stderr)


def _cmd_compile(args, config) -> int:
    samples = _count(args, config, "samples", 0, 0)
    initial = _count(args, config, "initial", 0, 0)
    horizon = _count(args, config, "horizon", 0)
    tolerance = _tolerance(args, config)
    max_period = _count(args, config, "max-period", 1, 200)
    path = _require(_opt(args, config, "input"), "input")
    target = quantize.load_target(path)
    out_dir = Path(_require(_opt(args, config, "output"), "output"))
    out_dir.mkdir(parents=True, exist_ok=True)

    with _warnings_against(path):
        model = quantize.compile_target(target, tolerance, max_period)
    (out_dir / "model.json").write_text(fastslow.model_to_json(model) + "\n", encoding="utf-8")
    report = {"tolerance": tolerance, "max_period": max_period,
              **quantize.compile_report(model, target)}
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if horizon is not None:
        _write_comparison(model, initial, horizon, samples, _opt(args, config, "seed", 0),
                          str(out_dir / "comparison.csv"))
    return ExitCode.OK


def _cmd_compare(args, config) -> int:
    horizon = _require(_count(args, config, "horizon", 0), "horizon")
    samples = _count(args, config, "samples", 0, 0)
    initial = _count(args, config, "initial", 0, 0)
    kind, model = _load_law_or_model(_require(_opt(args, config, "input"), "input"))
    if kind != "model":
        raise UsageError("compare needs a model file, not a permutation")
    _write_comparison(model, initial, horizon, samples, _opt(args, config, "seed", 0),
                      _opt(args, config, "output"))
    return ExitCode.OK


def _cmd_bell(args, config) -> int:
    out_dir = Path(_require(_opt(args, config, "output"), "output"))
    grid = _count(args, config, "grid", 1, 64)
    samples = _count(args, config, "samples", 0, 100_000)
    seed = _require(_opt(args, config, "seed"), "seed")
    settings = _opt(args, config, "settings")
    settings = (_parse_settings(settings) if settings is not None
                else bellkit.STANDARD_SETTINGS)

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "grid.csv", "w", encoding="utf-8", newline="") as fh:
        bellkit.write_correlation_grid_csv(grid, fh)

    quad_result = bellkit.chsh_score(bellkit.correlated_expectation, *settings)
    report = bellkit.chsh_report(quad_result)
    report["S_quantum"] = bellkit.chsh_score(bellkit.quantum_correlation, *settings).score
    if samples > 0:
        report["S_monte_carlo"] = bellkit.mc_chsh(
            *settings, samples_per_setting=max(1, samples // 4), seed=seed).score
    (out_dir / "chsh.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    flatness = {name: bellkit.marginal_flatness(name) for name in ("lambda", "a", "b")}
    (out_dir / "flatness.json").write_text(json.dumps(flatness, indent=2) + "\n",
                                           encoding="utf-8")

    if samples > 0:
        triples = bellkit.sample_triples(samples, seed)
        with open(out_dir / "samples.csv", "w", encoding="utf-8", newline="") as fh:
            bellkit.write_samples_csv(triples, fh)
    return ExitCode.OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontosim",
        description="deterministic-model experiments: cycles, spectra, ensembles, "
                    "effective-Hamiltonian compilation, Bell/CHSH reports")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--input")
        p.add_argument("--output")
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--horizon", type=int)
        p.add_argument("--tolerance", type=float)
        p.add_argument("--grid", type=int)
        p.add_argument("--settings", help="a,a',b,b' in degrees")
        p.add_argument("--initial", type=int)
        p.add_argument("--max-period", type=int)
        p.set_defaults(handler=handler)
        return p

    add("cycles", "cycle decomposition of a permutation or model step map", _cmd_cycles)
    add("spectrum", "per-cycle energies, or the free levels of a model", _cmd_spectrum)
    add("simulate", "seeded random-phase ensemble of a model", _cmd_simulate)
    add("compile", "build a model realizing a target effective Hamiltonian", _cmd_compile)
    add("compare", "classical vs full-quantum vs effective occupation curves", _cmd_compare)
    add("bell", "correlation grid, CHSH report, marginal flatness, sample dump", _cmd_bell)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = {}
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise UsageError("config file must hold a JSON object")
        _count(args, config, "seed", 0)
        _count(args, config, "horizon", 0)
        return int(args.handler(args, config))
    except OSError as exc:
        if exc.filename is None:  # not about an input or output path
            raise
        print(f"ontosim: file not found or not readable/writable: {exc.filename} "
              f"({exc.strerror})", file=sys.stderr)
        return ExitCode.FILE_NOT_FOUND
    except UsageError as exc:
        print(f"ontosim: {exc}", file=sys.stderr)
        return ExitCode.USAGE
    except json.JSONDecodeError as exc:
        print(f"ontosim: malformed JSON: {exc}", file=sys.stderr)
        return ExitCode.PARSE_ERROR
    except ontodyn.SizeCapError as exc:
        print(f"ontosim: {exc}", file=sys.stderr)
        return ExitCode.SIZE_CAP
    except quantize.NotRepresentableError as exc:
        print(f"ontosim: target not representable: {exc}", file=sys.stderr)
        return ExitCode.NOT_REPRESENTABLE
    except quantize.UnreachableToleranceError as exc:
        print(f"ontosim: {exc}", file=sys.stderr)
        return ExitCode.UNREACHABLE_TOLERANCE
    except (ontodyn.MalformedLawError, fastslow.ModelValidationError,
            fastslow.ConfigError) as exc:
        print(f"ontosim: invalid input: {exc}", file=sys.stderr)
        return ExitCode.INVALID_MODEL
    except ValueError as exc:
        print(f"ontosim: cannot parse input: {exc}", file=sys.stderr)
        return ExitCode.PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
