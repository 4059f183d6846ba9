"""Batch front end: file-in, file-out experiments over the library.

Subcommands: cycles, spectrum, simulate, compile, compare, bell.  All angles
in files and flags are degrees (converted at this boundary; the library works
in radians).  Each subcommand accepts exactly the options it reads
(``_COMMANDS``), from flags or a JSON config file, flags overriding config
fields, and checks them alike; nothing is read from the environment.
Commands are deterministic given their inputs and seed.  Diagnostics go to
stderr, data streams to the requested outputs only.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from contextlib import contextmanager
from enum import IntEnum
from pathlib import Path
from types import SimpleNamespace

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
    INTERNAL_CHECK = 9


class UsageError(ValueError):
    pass


@contextmanager
def _out_stream(dest: str | None):
    if dest is None or dest == "-":
        yield sys.stdout
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _load_law_or_model(path: str):
    """Return ('law', PermutationLaw) or ('model', OntologicalModel)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = ontodyn.json_object(json.load(fh), "input document")
    if "image" in doc:
        return "law", ontodyn.law_from_doc(doc)
    if "slow_count" in doc:
        with _warnings_against(path):
            return "model", fastslow.model_from_doc(doc)
    raise ValueError("input is neither a permutation ('image') nor a model ('slow_count')")


@contextmanager
def _warnings_against(path: str):
    """Report library warnings (a marginal clock period) against the input file."""
    with warnings.catch_warnings(record=True) as caught:
        yield
    for warning in caught:
        print(f"ontosim: warning: {path}: {warning.message}", file=sys.stderr)


# A number flag is read as the JSON number literal it spells, so it passes or
# fails the same check as the config value would; any other text is kept as a
# string for that check to refuse.
_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def _number(text: str):
    if _NUMBER.fullmatch(text):
        try:
            return json.loads(text)
        except ValueError:  # an integer too long to convert
            pass
    return text


def _at_least(least: int, cap: int | None = None):
    """An integer option of at least ``least``; above ``cap`` it is refused as
    too much work (SizeCapError, exit 6)."""
    def check(value, name: str) -> int:
        value = ontodyn.json_int(value, name, least)
        if cap is not None and value > cap:
            raise ontodyn.SizeCapError(f"{name} {ontodyn.shown(value)} exceeds cap {cap}")
        return value
    return _number, check


def _tolerance(value, name: str) -> float:
    value = ontodyn.json_real(value, name)
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite number above 0, not {ontodyn.shown(value)}")
    return value


def _degrees(value, name: str) -> tuple[float, float, float, float]:
    try:
        parts = [ontodyn.json_real(_number(part), name)
                 for part in ontodyn.json_text(value, name).split(",")]
    except ValueError:
        parts = []
    if len(parts) != 4 or not all(math.isfinite(v) for v in parts):
        raise ValueError(f"{name} must be four finite degrees a,a',b,b', "
                         f"not {ontodyn.shown(value)}")
    return tuple(math.radians(v) for v in parts)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_cycles(opts) -> int:
    kind, obj = _load_law_or_model(opts.input)
    decomp = ontodyn.decompose(obj) if kind == "law" else fastslow.check_bijectivity(obj)
    with _out_stream(opts.output) as fh:
        fh.write(json.dumps(ontodyn.cycles_report(decomp)) + "\n")
    return ExitCode.OK


def _cmd_spectrum(opts) -> int:
    kind, obj = _load_law_or_model(opts.input)
    if kind == "law":
        with _out_stream(opts.output) as fh:
            ontodyn.write_spectrum_csv(ontodyn.decompose(obj), fh)
        return ExitCode.OK
    levels = quantize.free_energy_levels(obj)  # refuses the size cap before any file opens
    # a level is 2*pi*m/L with the integer m = sum n_i*L/T_i, L = lcm(periods);
    # sorted, the numerators m run alongside the sorted float sums
    lap, numerators = math.lcm(*obj.periods), np.zeros(1, dtype=np.int64)
    for period in obj.periods:
        numerators = (numerators[:, None] + np.arange(period) * (lap // period)).reshape(-1)
    _, first, counts = np.unique(np.sort(np.tile(numerators, obj.slow_count)),
                                 return_index=True, return_counts=True)
    with _out_stream(opts.output) as fh:
        ontodyn.write_csv(fh, ["level", "energy", "multiplicity"],
                          [(np.arange(first.size), np.round(levels[first], 12), counts)])
    return ExitCode.OK


def _cmd_simulate(opts) -> int:
    kind, model = _load_law_or_model(opts.input)
    if kind != "model":
        raise UsageError("simulate needs a model file, not a permutation")
    freq = fastslow.run_ensemble(model, opts.initial, opts.horizon, opts.samples, opts.seed)
    with _out_stream(opts.output) as fh:
        fastslow.write_ensemble_csv(freq, fh)
    return ExitCode.OK


def _comparison(model, opts) -> quantize.DynamicsComparison:
    return quantize.compare_dynamics(model, opts.initial, opts.horizon,
                                     sample_count=opts.samples, seed=opts.seed)


def _write_comparison(comparison, dest: str | None) -> None:
    """Write the comparison CSV to ``dest`` and its residuals to stderr."""
    with _out_stream(dest) as fh:
        quantize.write_comparison_csv(comparison, fh)
    print(f"max |classical - quantum| = {comparison.max_classical_quantum:.3e}, "
          f"max |classical - effective| = {comparison.max_classical_effective:.3e}",
          file=sys.stderr)


def _cmd_compile(opts) -> int:
    target = quantize.load_target(opts.input)
    with _warnings_against(opts.input):
        model = quantize.compile_target(target, opts.tolerance, opts.max_period)
    report = {"tolerance": opts.tolerance, "max_period": opts.max_period,
              **quantize.compile_report(model, target)}
    comparison = _comparison(model, opts) if opts.horizon is not None else None
    out_dir = Path(opts.output)  # made only now: a refusal above leaves nothing behind
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "model.json").write_text(fastslow.model_to_json(model) + "\n", encoding="utf-8")
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if comparison is not None:
        _write_comparison(comparison, str(out_dir / "comparison.csv"))
    return ExitCode.OK


def _cmd_compare(opts) -> int:
    kind, model = _load_law_or_model(opts.input)
    if kind != "model":
        raise UsageError("compare needs a model file, not a permutation")
    _write_comparison(_comparison(model, opts), opts.output)
    return ExitCode.OK


def _cmd_bell(opts) -> int:
    out_dir = Path(opts.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _out_stream(str(out_dir / "grid.csv")) as fh:
        bellkit.write_correlation_grid_csv(opts.grid, fh)

    quad_result = bellkit.chsh_score(bellkit.correlated_expectation, *opts.settings)
    report = bellkit.chsh_report(quad_result)
    report["S_quantum"] = bellkit.chsh_score(bellkit.quantum_correlation, *opts.settings).score
    if opts.samples > 0:
        report["S_monte_carlo"] = bellkit.mc_chsh(
            *opts.settings, samples_per_setting=max(1, opts.samples // 4), seed=opts.seed).score
    (out_dir / "chsh.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    flatness = {name: bellkit.marginal_flatness(name) for name in ("lambda", "a", "b")}
    (out_dir / "flatness.json").write_text(json.dumps(flatness, indent=2) + "\n",
                                           encoding="utf-8")

    if opts.samples > 0:
        triples = bellkit.sample_triples(opts.samples, opts.seed)
        with _out_stream(str(out_dir / "samples.csv")) as fh:
            bellkit.write_samples_csv(triples, fh)
    return ExitCode.OK


# ---------------------------------------------------------------------------
# The option table: per subcommand, its handler, its help and each option it
# reads, ``name: ((parse, check), default)``.  ``parse`` reads a flag's text;
# ``check(value, "--name")`` is an ``ontodyn`` reader that refuses a flag or
# config value of the wrong type or range with a ValueError naming the option,
# or a work size above its cap with a SizeCapError.
# Defaults are trusted as they stand.

_REQUIRED = object()
_PATH = (str, ontodyn.json_text)
_IO = {"input": (_PATH, _REQUIRED), "output": (_PATH, None)}
_COMPARISON = {"initial": (_at_least(0), 0), "samples": (_at_least(0), 0),
               "seed": (_at_least(0), 0)}

_COMMANDS = {
    "cycles": (_cmd_cycles, "cycle decomposition of a permutation or model step map", _IO),
    "spectrum": (_cmd_spectrum, "per-cycle energies, or the free levels of a model", _IO),
    "simulate": (_cmd_simulate, "seeded random-phase ensemble of a model", {
        **_IO, "horizon": (_at_least(0), _REQUIRED), "samples": (_at_least(1), _REQUIRED),
        "seed": (_at_least(0), _REQUIRED), "initial": (_at_least(0), 0)}),
    "compile": (_cmd_compile, "build a model realizing a target effective Hamiltonian", {
        "input": (_PATH, _REQUIRED), "output": (_PATH, _REQUIRED),
        "tolerance": ((_number, _tolerance), _REQUIRED),
        "max-period": (_at_least(1, quantize.MAX_PERIOD_CAP), 200),
        "horizon": (_at_least(0), None), **_COMPARISON}),
    "compare": (_cmd_compare, "classical vs full-quantum vs effective occupation curves", {
        **_IO, "horizon": (_at_least(0), _REQUIRED), **_COMPARISON}),
    "bell": (_cmd_bell, "correlation grid, CHSH report, marginal flatness, sample dump", {
        "output": (_PATH, _REQUIRED), "grid": (_at_least(1, bellkit.GRID_CAP), 64),
        "samples": (_at_least(0, bellkit.SAMPLE_CAP), 100_000), "seed": (_at_least(0), _REQUIRED),
        "settings": ((str, _degrees), bellkit.STANDARD_SETTINGS)}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontosim",
        description="deterministic-model experiments: cycles, spectra, ensembles, "
                    "effective-Hamiltonian compilation, Bell/CHSH reports")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file with default option values")
        for name, ((parse, _), _) in options.items():
            p.add_argument(f"--{name}", dest=name, type=parse, default=argparse.SUPPRESS)
    return parser


def _resolve(command: str, flags: dict, config) -> SimpleNamespace:
    """Each option of ``command`` from its flag, else the config file, else its
    default, checked the same way whichever source gave it."""
    options = _COMMANDS[command][2]
    values = {}
    try:
        for key in ontodyn.json_object(config, "config file"):
            if key not in options:
                raise ValueError(f"config key {ontodyn.shown(key)} is not an option of {command}")
        given = {**config, **flags}
        for name, ((_, check), value) in options.items():
            if name in given:
                value = check(given[name], f"--{name}")
            elif value is _REQUIRED:
                raise ValueError(f"missing required option --{name}")
            values[name.replace("-", "_")] = value
    except ontodyn.SizeCapError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage error (2) or help (0)
        return exc.code
    config = {}
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        opts = _resolve(args.command, vars(args), config)
        return int(_COMMANDS[args.command][0](opts))
    except OSError as exc:
        if exc.filename is None:  # not about an input or output path
            raise
        print("ontosim: file not found or not readable/writable: "
              f"{ontodyn.shown(exc.filename)} ({exc.strerror})", file=sys.stderr)
        return ExitCode.FILE_NOT_FOUND
    except ValueError as exc:
        # each kind of refused input, most specific first, as README's exit-code
        # table lists them: (exception kinds, exit code, message lead)
        refusals = (
            (UsageError, ExitCode.USAGE, ""),
            (json.JSONDecodeError, ExitCode.PARSE_ERROR, "malformed JSON: "),
            ((ontodyn.MalformedLawError, fastslow.ModelValidationError, fastslow.ConfigError),
             ExitCode.INVALID_MODEL, "invalid input: "),
            (ontodyn.SizeCapError, ExitCode.SIZE_CAP, ""),
            (quantize.NotRepresentableError, ExitCode.NOT_REPRESENTABLE,
             "target not representable: "),
            (quantize.UnreachableToleranceError, ExitCode.UNREACHABLE_TOLERANCE, ""),
            (ValueError, ExitCode.PARSE_ERROR, "cannot parse input: "),
        )
        code, lead = next((code, lead) for kinds, code, lead in refusals
                          if isinstance(exc, kinds))
        print(f"ontosim: {lead}{exc}", file=sys.stderr)
        return code
    except RecursionError:  # json's decoder, on a document nested too deeply
        print("ontosim: malformed JSON: nested too deeply", file=sys.stderr)
        return ExitCode.PARSE_ERROR
    except ontodyn.InternalCheckError as exc:
        print(f"ontosim: internal check failed: {ontodyn.shown(str(exc))}", file=sys.stderr)
        return ExitCode.INTERNAL_CHECK


if __name__ == "__main__":
    sys.exit(main())
