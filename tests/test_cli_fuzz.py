"""Fuzz the CLI boundary: arbitrary documents, config files and flag values.

Whatever it is given, ``cli.main`` must return a documented exit code, write
no traceback, keep every stderr line short, leave no output behind when it
refuses, and finish within seconds.
Work-size values (horizons, samples, grids, periods, sizes) are drawn small,
except the draws meant to hit a size cap.
"""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ontosim import bellkit, cli, quantize
from ontosim.cli import ExitCode

# a failed internal check (9) is a fault of the program, which no input may reach
DOCUMENTED = {int(code) for code in ExitCode} - {ExitCode.INTERNAL_CHECK}

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)


@st.composite
def document(draw, fields: dict, junk: bool):
    """An object of ``fields``; with ``junk``, each field may be junk or
    missing, and an unknown field may ride along."""
    if not junk:
        return draw(st.fixed_dictionaries(fields))
    doc = draw(st.fixed_dictionaries({key: st.one_of(*[value] * 4, JUNK)
                                      for key, value in fields.items()},
                                     optional={"note": JUNK}))
    if draw(st.integers(0, 4)) == 0:
        del doc[draw(st.sampled_from(sorted(fields)))]
    return doc


@st.composite
def machine(draw, period):
    """A model document whose points name its own states and phases (they
    may still conflict)."""
    periods = draw(st.lists(period, min_size=1, max_size=4))
    points = []
    for _ in range(draw(st.integers(0, 4)) if len(periods) > 1 else 0):
        pair = draw(st.permutations(range(len(periods))))[:2]
        points.append({"pair": pair, "trigger": [
            draw(st.integers(0, min(periods[s], 8) - 1)) if periods[s] else 0 for s in pair]})
    return {"slow_count": len(periods), "periods": periods, "special_points": points}


def documents(junk: bool) -> dict:
    """Per subcommand, the input documents it reads.  Sizes are small, but a
    period and a target size may hit their caps."""
    state = st.integers(-1, 3)
    period = st.integers(1, 8) | st.integers(1, 8) | st.sampled_from(
        [0, cli.fastslow.PERIOD_CAP + 1, 10 ** 30])
    law = document({"size": st.integers(-1, 6), "image": st.permutations(range(6))
                    | st.lists(st.integers(-1, 6), max_size=6)}, junk)
    model = document({
        "slow_count": st.integers(0, 4),
        "periods": st.lists(period, min_size=1, max_size=4),
        "special_points": st.lists(document({
            "pair": st.lists(state, min_size=2, max_size=2),
            "trigger": st.lists(st.integers(-1, 8), min_size=2, max_size=2)}, junk),
            max_size=4)}, junk) if junk else machine(period)
    target = document({
        "size": st.integers(-1, 4) | st.integers(2, 4) | st.just(quantize.TARGET_CAP + 1),
        "couplings": st.lists(document({
            "pair": st.lists(state, min_size=2, max_size=2),
            "imag": st.floats(-0.3, 0.3) | st.floats(-2, 2)
            | st.sampled_from(["nan", "inf", "0.1x", "0.25"])}, junk), max_size=4)}, junk)
    return {"cycles": law | model, "spectrum": law | model, "simulate": model,
            "compare": model, "compile": target}


CLEAN, MESSY = documents(junk=False), documents(junk=True)
# input files that are not a JSON object: an invalid byte, a nesting too deep
# for the decoder
RAW = st.sampled_from(["", "{", "[1, 2]", "[" * 50_000 + "]" * 50_000, "\udcff"])

# flag texts per option, valid and cap-hitting; junk texts may be numbers out
# of range, or have no digits
FLAG_TEXTS = {
    "horizon": ["0", "3", "12", "1000000000"],
    "samples": ["1", "20", "1000000000"],
    "seed": ["0", "7", "99999999999999999999"],
    "initial": ["0", "1", "3"],
    "tolerance": ["1e-3", "0.05", "1e-9"],
    "max-period": ["1", "5", "12", str(quantize.MAX_PERIOD_CAP + 1), "1000000000000"],
    "grid": ["1", "2", str(bellkit.GRID_CAP + 1), "1000000000"],
    "settings": ["0,45,22.5,67.5", "0,45,22.5", "0,45,22.5,1e999"],
}
# valid bell samples are drawn small: each one is a row of samples.csv
BELL_SAMPLES = ["0", "8", "40", str(bellkit.SAMPLE_CAP + 1), "1000000000"]
JUNK_TEXT = (st.sampled_from(["-1", "0", "1e999", "1_0", " 5", "+5", "1.5", "nan", "1e1", ""])
             | st.text(st.characters(blacklist_categories=("Nd",)), max_size=5))


@st.composite
def invocation(draw, workdir: Path):
    """``cli.main`` arguments: clean ones (documented shapes, valid flag texts,
    no config) two times in three, else with junk anywhere."""
    junk = draw(st.integers(0, 2)) == 0
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = cli._COMMANDS[command][2]
    argv = [command]
    if "input" in options:
        source = workdir / "input.json"
        text = (draw((MESSY[command] | JUNK).map(json.dumps) | RAW) if junk
                else json.dumps(draw(CLEAN[command])))
        source.write_text(text, encoding="utf-8", errors="surrogateescape")
        if junk:
            source = draw(st.sampled_from([source, workdir / "missing.json", workdir]))
        argv += ["--input", str(source)]
    if "output" in options:
        argv += ["--output", str(workdir / "out" if not junk else draw(
            st.sampled_from([workdir / "out", workdir])))]
    for name, (_, default) in options.items():
        if name in ("input", "output"):
            continue
        texts = BELL_SAMPLES if (command, name) == ("bell", "samples") else FLAG_TEXTS[name]
        # the bell work and the compile search take seconds at their defaults:
        # always set them, small or past their caps
        given = default is cli._REQUIRED or (command, name) in (
            ("bell", "grid"), ("bell", "samples"), ("compile", "max-period"))
        if given or draw(st.booleans()):
            value = st.sampled_from(texts)
            argv += [f"--{name}", draw(value | JUNK_TEXT if junk else value)]
    if junk and draw(st.booleans()):
        config = draw(st.dictionaries(
            st.sampled_from(sorted(options) + ["bogus", "max_period"]),
            JUNK | st.sampled_from([0, 2, 1e-3, "x", str(workdir / "input.json")]),
            max_size=2))
        (workdir / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(workdir / "cfg.json")]
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_refuses_with_a_documented_code_and_a_short_message(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(invocation(Path(tmp)))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        # a refusal creates no --output file or directory
        assert code == ExitCode.OK or not (Path(tmp) / "out").exists(), (argv, code)
    err = err.getvalue()
    assert code in DOCUMENTED, (argv, code, err)
    assert "Traceback" not in err
    assert max((len(line.encode()) for line in err.splitlines()), default=0) <= 250, err
    assert elapsed < 5.0, (argv, elapsed)
