import json
import math
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from ontosim import bellkit, cli, fastslow, quantize
from ontosim.cli import ExitCode
from ontosim.fixtures import fixture_path

FIGURE1 = str(fixture_path("figure1.json"))
TWO_STATE = str(fixture_path("two_state_10_7.json"))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCycles:
    def test_figure_fixture(self, capsys):
        code, out, _ = run(capsys, "cycles", "--input", FIGURE1)
        assert code == ExitCode.OK
        assert json.loads(out)["ranks"] == [2, 3, 6, 8, 11]

    def test_identity_law(self, capsys, tmp_path):
        path = tmp_path / "identity.json"
        path.write_text('{"size": 4, "image": [0, 1, 2, 3]}')
        code, out, _ = run(capsys, "cycles", "--input", str(path))
        assert code == ExitCode.OK
        assert json.loads(out)["ranks"] == [1, 1, 1, 1]

    def test_model_input_uses_step_map(self, capsys):
        code, out, _ = run(capsys, "cycles", "--input", TWO_STATE)
        assert code == ExitCode.OK
        assert sum(json.loads(out)["ranks"]) == 140

    @pytest.mark.parametrize("labels", [5, "ab"])
    def test_unknown_model_fields_are_ignored(self, capsys, tmp_path, labels):
        doc = json.loads(Path(TWO_STATE).read_text())
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**doc, "site_labels": labels}))
        code, out, err = run(capsys, "cycles", "--input", str(path))
        assert code == ExitCode.OK and "Traceback" not in err
        assert out == run(capsys, "cycles", "--input", TWO_STATE)[1]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "cycles", "--input", "/no/such/file.json")
        assert code == ExitCode.FILE_NOT_FOUND
        assert "not found" in err

    def test_directory_as_input(self, capsys, tmp_path):
        code, _, err = run(capsys, "cycles", "--input", str(tmp_path))
        assert code == ExitCode.FILE_NOT_FOUND
        assert str(tmp_path) in err and "Traceback" not in err

    def test_directory_as_output(self, capsys, tmp_path):
        code, _, err = run(capsys, "cycles", "--input", FIGURE1, "--output", str(tmp_path))
        assert code == ExitCode.FILE_NOT_FOUND
        assert str(tmp_path) in err and "Traceback" not in err

    def test_corrupted_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"size": 3, "image": [0, 1')
        code, _, _ = run(capsys, "cycles", "--input", str(path))
        assert code == ExitCode.PARSE_ERROR

    def test_non_bijection(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"size": 3, "image": [0, 0, 1]}')
        code, _, _ = run(capsys, "cycles", "--input", str(path))
        assert code == ExitCode.INVALID_MODEL


class TestSpectrum:
    def test_single_four_cycle(self, capsys, tmp_path):
        path = tmp_path / "c4.json"
        path.write_text('{"size": 4, "image": [1, 2, 3, 0]}')
        code, out, _ = run(capsys, "spectrum", "--input", str(path))
        assert code == ExitCode.OK
        rows = out.strip().splitlines()[1:]
        energies = sorted(float(r.split(",")[2]) for r in rows)
        assert np.allclose(energies, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_trivial_cycle(self, capsys, tmp_path):
        path = tmp_path / "c1.json"
        path.write_text('{"size": 1, "image": [0]}')
        code, out, _ = run(capsys, "spectrum", "--input", str(path))
        assert code == ExitCode.OK
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 1 and float(rows[0].split(",")[2]) == 0.0

    def test_free_model_levels(self, capsys, tmp_path):
        path = tmp_path / "free.json"
        path.write_text('{"slow_count": 2, "periods": [2, 3], "special_points": []}')
        code, out, _ = run(capsys, "spectrum", "--input", str(path))
        assert code == ExitCode.OK
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        energies = [float(r[1]) for r in rows]
        mult = [int(r[2]) for r in rows]
        expected = sorted(2 * math.pi * (a / 2 + b / 3) for a in range(2) for b in range(3))
        assert np.allclose(energies, expected, atol=1e-10)
        assert mult == [2] * 6

    @pytest.mark.parametrize("periods", [(8, 38), (16, 32), (16, 38), (21, 35)])
    def test_free_levels_are_grouped_exactly(self, capsys, tmp_path, periods):
        # float sums of one level can round either side of a 12th decimal;
        # each level m/lcm (times 2*pi) is still one row, counted exactly
        path = tmp_path / "free.json"
        path.write_text(json.dumps({"slow_count": 2, "periods": list(periods)}))
        code, out, _ = run(capsys, "spectrum", "--input", str(path))
        assert code == ExitCode.OK
        lap = math.lcm(*periods)
        counts = {}
        for a in range(periods[0]):
            for b in range(periods[1]):
                m = a * (lap // periods[0]) + b * (lap // periods[1])
                counts[m] = counts.get(m, 0) + 2  # two slow states
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(len(counts)))
        assert [int(r[2]) for r in rows] == [counts[m] for m in sorted(counts)]
        assert np.allclose([float(r[1]) for r in rows],
                           [2 * math.pi * m / lap for m in sorted(counts)], rtol=0, atol=1e-11)

    def test_a_level_that_straddles_a_decimal_is_one_row(self, capsys, tmp_path):
        path = tmp_path / "free.json"
        path.write_text('{"slow_count": 2, "periods": [16, 32]}')
        _, out, _ = run(capsys, "spectrum", "--input", str(path))
        rows = [r for r in out.strip().splitlines()[1:] if r.split(",")[1][:13] == "5.69413668463"]
        assert len(rows) == 1 and rows[0].endswith(",30")

    def test_model_over_the_cap_writes_no_file(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"slow_count": 2, "periods": [1000, 1001]}')
        out = tmp_path / "levels.csv"
        code, _, err = run(capsys, "spectrum", "--input", str(path), "--output", str(out))
        assert code == ExitCode.SIZE_CAP and "2002000" in err
        assert not out.exists()


class TestSimulate:
    def test_deterministic_output(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run(capsys, "simulate", "--input", TWO_STATE, "--horizon", "10",
                             "--samples", "300", "--seed", "5", "--output", str(out))
            assert code == ExitCode.OK
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "t,state_0_freq,state_1_freq"

    def test_seed_is_mandatory(self, capsys):
        code, _, err = run(capsys, "simulate", "--input", TWO_STATE,
                           "--horizon", "5", "--samples", "10")
        assert code == ExitCode.USAGE
        assert "--seed" in err


class TestCompile:
    def test_exact_hit_pipeline(self, capsys, tmp_path):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({
            "size": 2,
            "couplings": [{"pair": [0, 1], "imag": (math.pi / 2) / 70}]}))
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "compile", "--input", str(target),
                           "--tolerance", "1e-6", "--max-period", "100",
                           "--output", str(out_dir), "--horizon", "20")
        assert code == ExitCode.OK
        report = json.loads((out_dir / "report.json").read_text())
        assert report["max_abs_error"] <= 1e-15
        model_doc = json.loads((out_dir / "model.json").read_text())
        assert sorted(model_doc["periods"]) == [7, 10]
        lines = (out_dir / "comparison.csv").read_text().splitlines()
        assert lines[0] == "t,classical,full_quantum,effective"
        assert len(lines) == 22
        assert "classical - quantum" in err

    def test_zero_target_flat_curves(self, capsys, tmp_path):
        target = tmp_path / "zero.json"
        target.write_text('{"size": 2, "couplings": []}')
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "compile", "--input", str(target),
                         "--tolerance", "1e-6", "--output", str(out_dir),
                         "--horizon", "5")
        assert code == ExitCode.OK
        rows = (out_dir / "comparison.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            assert all(abs(float(v)) < 1e-12 for v in row.split(",")[1:])

    def test_nonzero_diagonal_rejected(self, capsys, tmp_path):
        target = tmp_path / "diag.json"
        target.write_text('{"size": 2, "couplings": [{"pair": [0, 0], "imag": 0.5}]}')
        code, _, _ = run(capsys, "compile", "--input", str(target),
                         "--tolerance", "1e-6", "--output", str(tmp_path / "x"))
        assert code == ExitCode.NOT_REPRESENTABLE

    def test_empty_target_has_no_states(self, capsys, tmp_path):
        # a 0 x 0 matrix is square: the refusal says what is wrong with it
        target = tmp_path / "empty.json"
        target.write_text('{"size": 0, "couplings": []}')
        code, _, err = run(capsys, "compile", "--input", str(target),
                           "--tolerance", "1e-6", "--output", str(tmp_path / "x"))
        assert code == ExitCode.NOT_REPRESENTABLE
        assert "target has no states" in err and "square" not in err

    def test_unreachable_tolerance(self, capsys, tmp_path):
        target = tmp_path / "hard.json"
        target.write_text('{"size": 2, "couplings": [{"pair": [0, 1], "imag": 0.345}]}')
        code, out, err = run(capsys, "compile", "--input", str(target),
                             "--tolerance", "1e-9", "--max-period", "3",
                             "--output", str(tmp_path / "y"))
        assert code == ExitCode.UNREACHABLE_TOLERANCE and out == ""
        # 2/9 of pi/2 is the nearest any machine with periods <= 3 comes
        assert err == ("ontosim: coupling 0.345 for pair (0, 1) is not within 1e-09 of any "
                       "machine with periods <= 3: the nearest, 2 points on periods (3, 3), "
                       f"misses by {abs(math.pi / 2 * 2 / 9 - 0.345)}\n")

    @pytest.mark.parametrize("couplings,argv,code", [
        # the 3-state chain at a tolerance no shared period q <= 3 meets
        ([[0, 1, -0.4447475445728595], [1, 2, -0.01090830782496456]],
         ["--tolerance", "1e-9", "--max-period", "3"], ExitCode.UNREACHABLE_TOLERANCE),
        # a model that compiles, then a comparison past the enumeration cap
        ([[0, 1, 0.1]], ["--tolerance", "1e-3", "--max-period", "50",
                         "--horizon", "1000000000"], ExitCode.SIZE_CAP),
    ])
    def test_a_refused_compile_leaves_no_output(self, capsys, tmp_path, couplings, argv, code):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"size": len(couplings) + 1, "couplings": [
            {"pair": [a, b], "imag": imag} for a, b, imag in couplings]}))
        out_dir = tmp_path / "out"
        got, _, _ = run(capsys, "compile", "--input", str(target), *argv,
                        "--output", str(out_dir))
        assert got == code
        assert not out_dir.exists()

    def test_pair_search_finds_the_least_error(self, capsys, tmp_path):
        # 49 points on periods (107, 199) meet the tolerance, at 5.5e-8
        target = tmp_path / "target.json"
        target.write_text('{"size": 2, "couplings": [{"pair": [0, 1], '
                          '"imag": 0.003614812219195901}]}')
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "compile", "--input", str(target), "--tolerance", "1e-7",
                         "--max-period", "200", "--output", str(out_dir))
        assert code == ExitCode.OK
        report = json.loads((out_dir / "report.json").read_text())
        assert [(p["num"], p["den"]) for p in report["pairs"]] == [(49, 21293)]
        assert report["max_abs_error"] <= 1e-7
        assert fastslow.load_model(out_dir / "model.json").periods == (107, 199)

    def test_shared_period_meets_a_tolerance_at_its_bound(self, capsys, tmp_path):
        # 41/144 misses |H_01| by exactly the tolerance, in the report's expression
        target = tmp_path / "chain.json"
        target.write_text('{"size": 3, "couplings": ['
                          '{"pair": [0, 1], "imag": -0.4447475445728595}, '
                          '{"pair": [1, 2], "imag": -0.01090830782496456}]}')
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "compile", "--input", str(target),
                         "--tolerance", "0.0024930762506873982", "--max-period", "12",
                         "--output", str(out_dir))
        assert code == ExitCode.OK
        report = json.loads((out_dir / "report.json").read_text())
        assert [(p["num"], p["den"]) for p in report["pairs"]] == [(41, 144), (1, 144)]
        assert report["max_abs_error"] == 0.0024930762506873982

    def test_report_is_the_library_report(self, capsys, tmp_path, monkeypatch):
        def no_hilbert_space(model):
            raise AssertionError("the compile report built the interchange Hamiltonian")

        monkeypatch.setattr(quantize, "build_interchange", no_hilbert_space)
        target = tmp_path / "chain.json"
        target.write_text(json.dumps({"size": 3, "couplings": [
            {"pair": [0, 1], "imag": (math.pi / 2) * 0.05},
            {"pair": [1, 2], "imag": (math.pi / 2) * 0.2}]}))
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "compile", "--input", str(target), "--tolerance", "2e-3",
                         "--max-period", "100", "--output", str(out_dir))
        assert code == ExitCode.OK
        model = fastslow.load_model(out_dir / "model.json")
        expected = {"tolerance": 2e-3, "max_period": 100,
                    **quantize.compile_report(model, quantize.load_target(target))}
        assert (out_dir / "report.json").read_text() == json.dumps(expected, indent=2) + "\n"


class TestCompare:
    def test_csv_on_stdout(self, capsys):
        code, out, err = run(capsys, "compare", "--input", TWO_STATE, "--horizon", "3")
        assert code == ExitCode.OK
        lines = out.strip().splitlines()
        assert lines[0] == "t,classical,full_quantum,effective"
        assert len(lines) == 5
        assert "classical - quantum" in err  # diagnostics only on stderr

    def test_samples_add_the_seeded_ensemble_column(self, capsys, tmp_path):
        argv = ["compare", "--input", TWO_STATE, "--horizon", "12", "--samples", "300"]
        paths = []
        for name, seed in (("a", "4"), ("b", "4"), ("c", "5")):
            paths.append(tmp_path / f"{name}.csv")
            code, _, _ = run(capsys, *argv, "--seed", seed, "--output", str(paths[-1]))
            assert code == ExitCode.OK
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "t,classical,full_quantum,effective,ensemble"
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() != paths[2].read_bytes()
        freq = fastslow.run_ensemble(fastslow.load_model(TWO_STATE), 0, 12, 300, seed=4)
        assert [row.split(",")[4] for row in lines[1:]] == [repr(float(1.0 - f)) for f in freq[:, 0]]

    def test_compile_comparison_carries_the_ensemble(self, capsys, tmp_path):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"size": 2, "couplings": [
            {"pair": [0, 1], "imag": (math.pi / 2) / 110}]}))
        code, _, _ = run(capsys, "compile", "--input", str(target), "--tolerance", "1e-6",
                         "--output", str(tmp_path / "out"), "--horizon", "5",
                         "--samples", "50", "--seed", "2")
        assert code == ExitCode.OK
        header = (tmp_path / "out" / "comparison.csv").read_text().splitlines()[0]
        assert header == "t,classical,full_quantum,effective,ensemble"


class TestBell:
    def test_bundle(self, capsys, tmp_path):
        out_dir = tmp_path / "bell"
        code, _, _ = run(capsys, "bell", "--output", str(out_dir), "--grid", "6",
                         "--samples", "400", "--seed", "9")
        assert code == ExitCode.OK
        chsh = json.loads((out_dir / "chsh.json").read_text())
        assert abs(chsh["S"] - 2 * math.sqrt(2)) < 1e-9
        assert chsh["bound"] == 2.0
        flat = json.loads((out_dir / "flatness.json").read_text())
        assert all(v <= 1e-8 for v in flat.values())
        rows = (out_dir / "grid.csv").read_text().strip().splitlines()[1:]
        assert all(float(r.split(",")[4]) <= 1e-6 for r in rows)
        assert (out_dir / "samples.csv").read_text().splitlines()[0] == "a,b,lambda,A,B"

    def test_sample_dump_deterministic(self, capsys, tmp_path):
        dirs = [tmp_path / "b1", tmp_path / "b2"]
        for d in dirs:
            code, _, _ = run(capsys, "bell", "--output", str(d), "--grid", "2",
                             "--samples", "200", "--seed", "123")
            assert code == ExitCode.OK
        assert (dirs[0] / "samples.csv").read_bytes() == (dirs[1] / "samples.csv").read_bytes()

    def test_file_as_output_directory(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, _, err = run(capsys, "bell", "--output", str(taken), "--grid", "2",
                           "--samples", "0", "--seed", "1")
        assert code == ExitCode.FILE_NOT_FOUND
        assert str(taken) in err and "Traceback" not in err

    def test_custom_settings(self, capsys, tmp_path):
        out_dir = tmp_path / "bell"
        code, _, _ = run(capsys, "bell", "--output", str(out_dir), "--grid", "2",
                         "--samples", "0", "--seed", "1",
                         "--settings", "0,45,22.5,67.5")
        assert code == ExitCode.OK
        chsh = json.loads((out_dir / "chsh.json").read_text())
        assert chsh["settings_deg"] == pytest.approx([0.0, 45.0, 22.5, 67.5])


    @pytest.mark.parametrize("flag,value", [
        ("--settings", "x,45,22.5,67.5"),
        ("--settings", "inf,45,22.5,67.5"),
        ("--settings", "nan,45,22.5,67.5"),
        ("--settings", "0,45,22.5"),
        ("--grid", "-3"),
        ("--grid", "0"),
        ("--samples", "-1"),
    ])
    def test_bad_option_is_usage_error(self, capsys, tmp_path, flag, value):
        options = {"--grid": "2", "--samples": "0", "--seed": "1", flag: value}
        argv = [item for pair in options.items() for item in pair]
        out_dir = tmp_path / "bell"
        code, _, err = run(capsys, "bell", "--output", str(out_dir), *argv)
        assert code == ExitCode.USAGE
        assert flag in err and "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--grid", str(bellkit.GRID_CAP + 1)),
        ("--grid", "1000000000"),
        ("--samples", str(bellkit.SAMPLE_CAP + 1)),
        ("--samples", "1000000000"),
    ])
    def test_work_above_its_cap_is_refused_first(self, capsys, tmp_path, flag, value):
        options = {"--grid": "2", "--samples": "0", "--seed": "1", flag: value}
        argv = [item for pair in options.items() for item in pair]
        out_dir = tmp_path / "bell"
        start = time.perf_counter()
        code, _, err = run(capsys, "bell", "--output", str(out_dir), *argv)
        assert time.perf_counter() - start < 1.0
        assert code == ExitCode.SIZE_CAP
        assert f"{flag} {value} exceeds cap" in err and "Traceback" not in err
        assert not out_dir.exists()


class TestCountOptions:
    @pytest.mark.parametrize("command,flag,value", [
        ("simulate", "--horizon", "-2"),
        ("simulate", "--samples", "0"),
        ("simulate", "--samples", "-1"),
        ("compare", "--horizon", "-2"),
        ("compare", "--samples", "-3"),
        ("compile", "--horizon", "-1"),
        ("compile", "--samples", "-1"),
        ("simulate", "--initial", "-1"),
        ("compare", "--initial", "-1"),
        ("compile", "--initial", "-1"),
        ("compile", "--max-period", "0"),
        ("compile", "--tolerance", "nan"),
        ("compile", "--tolerance", "inf"),
        ("compile", "--tolerance", "0"),
        ("compile", "--tolerance", "-0.5"),
    ])
    def test_bad_count_is_usage_error(self, capsys, tmp_path, command, flag, value):
        target = tmp_path / "target.json"
        target.write_text('{"size": 2, "couplings": []}')
        options = {
            "simulate": {"--input": TWO_STATE, "--horizon": "2", "--samples": "5", "--seed": "1"},
            "compare": {"--input": TWO_STATE, "--horizon": "2"},
            "compile": {"--input": str(target), "--tolerance": "1e-6",
                        "--output": str(tmp_path / "out"), "--horizon": "2"},
        }[command]
        options[flag] = value
        argv = [item for pair in options.items() for item in pair]
        code, out, err = run(capsys, command, *argv)
        assert code == ExitCode.USAGE
        assert flag in err and "Traceback" not in err
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,field,value", [
        ("simulate", "horizon", -2),
        ("simulate", "horizon", 2.5),
        ("simulate", "samples", 0),
        ("compare", "horizon", -2),
        ("compare", "samples", -3),
        ("compile", "samples", -1),
        ("simulate", "initial", 1.9),
        ("compare", "initial", True),
        ("compile", "tolerance", "1e-6"),
        ("compile", "tolerance", True),
        ("compile", "max-period", 70.9),
    ])
    def test_bad_count_from_config(self, capsys, tmp_path, command, field, value):
        target = tmp_path / "target.json"
        target.write_text('{"size": 2, "couplings": []}')
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "simulate": {"input": TWO_STATE, "horizon": 2, "samples": 5, "seed": 1},
            "compare": {"input": TWO_STATE, "horizon": 2},
            "compile": {"input": str(target), "tolerance": 1e-6,
                        "output": str(tmp_path / "out"), "horizon": 2},
        }[command] | {field: value}))
        code, _, err = run(capsys, command, "--config", str(config))
        assert code == ExitCode.USAGE
        assert f"--{field}" in err


READS = {  # the options each subcommand reads
    "cycles": {"input", "output"},
    "spectrum": {"input", "output"},
    "simulate": {"input", "output", "horizon", "samples", "seed", "initial"},
    "compile": {"input", "output", "tolerance", "max-period", "horizon", "samples",
                "initial", "seed"},
    "compare": {"input", "output", "horizon", "samples", "initial", "seed"},
    "bell": {"output", "grid", "samples", "seed", "settings"},
}
VALUES = {"input": FIGURE1, "output": "elsewhere", "seed": 1, "samples": 5, "horizon": 2,
          "tolerance": 1e-3, "grid": 2, "settings": "0,45,22.5,67.5", "initial": 0,
          "max-period": 7}  # a valid value of every option of some subcommand


class TestOptionTable:
    @staticmethod
    def valid_argv(command, tmp_path):
        """A valid invocation of ``command`` that writes to ``tmp_path / "out"``."""
        target = tmp_path / "target.json"
        target.write_text('{"size": 2, "couplings": []}')
        out = str(tmp_path / "out")
        return [command, "--output", out] + {
            "cycles": ["--input", FIGURE1],
            "spectrum": ["--input", FIGURE1],
            "simulate": ["--input", TWO_STATE, "--horizon", "2", "--samples", "5", "--seed", "1"],
            "compile": ["--input", str(target), "--tolerance", "1e-6"],
            "compare": ["--input", TWO_STATE, "--horizon", "2"],
            "bell": ["--grid", "2", "--samples", "0", "--seed", "1"],
        }[command]

    def refused(self, capsys, tmp_path, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == ExitCode.USAGE
        assert name in err and "Traceback" not in err
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, reads in READS.items()
        for flag in VALUES if flag not in reads])
    def test_unread_flag_is_usage_error(self, capsys, tmp_path, command, flag):
        argv = self.valid_argv(command, tmp_path) + [f"--{flag}", str(VALUES[flag])]
        self.refused(capsys, tmp_path, argv, f"--{flag}")

    @pytest.mark.parametrize("command,key", [
        (command, key) for command, reads in READS.items()
        for key in [*VALUES, "max_period", "config"] if key not in reads])
    def test_unread_config_key_is_usage_error(self, capsys, tmp_path, command, key):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: VALUES.get(key, 7)}))
        argv = self.valid_argv(command, tmp_path) + ["--config", str(config)]
        self.refused(capsys, tmp_path, argv, f"'{key}'")

    @pytest.mark.parametrize("command,key,value", [
        (command, key, value)
        for command, key in [("cycles", "input"), ("cycles", "output"), ("simulate", "input"),
                             ("compile", "input"), ("compile", "output"), ("bell", "output")]
        for value in (7, [FIGURE1], None)
    ] + [("compare", "seed", None), ("bell", "settings", None),
         ("bell", "settings", [0, 45, 22.5, 67.5])])
    def test_config_value_of_wrong_type(self, capsys, tmp_path, command, key, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        argv = self.valid_argv(command, tmp_path)
        if f"--{key}" in argv:
            del argv[argv.index(f"--{key}"):argv.index(f"--{key}") + 2]
        self.refused(capsys, tmp_path, argv + ["--config", str(config)], f"--{key} must be")


class TestStrictDocuments:
    @pytest.mark.parametrize("command,doc,field", [
        ("simulate", {"slow_count": 2, "periods": [10.7, 7],
                      "special_points": [{"pair": [0, 1], "trigger": [0, 0]}]}, "periods"),
        ("simulate", {"slow_count": 2, "periods": [10, 7],
                      "special_points": [{"pair": [0, 1], "trigger": [1.5, 2]}]}, "trigger"),
        ("simulate", {"slow_count": 2.0, "periods": [10, 7]}, "slow_count"),
        ("simulate", {"slow_count": 2, "periods": [10, 7],
                      "special_points": [{"pair": [0, True], "trigger": [0, 0]}]}, "pair"),
        ("simulate", {"slow_count": 2, "periods": [10, 7],
                      "special_points": [{"pair": [0], "trigger": [0, 0]}]}, "pair"),
        ("cycles", {"size": 3, "image": [0.9, 1.2, 2.7]}, "image"),
        ("cycles", {"size": 3.0, "image": [0, 1, 2]}, "size"),
        ("compile", {"size": 2.5, "couplings": []}, "size"),
        ("compile", {"size": 2, "couplings": [{"pair": [0, 1.0], "imag": 0.1}]}, "pair"),
        ("compile", {"size": 2, "couplings": [5]}, "couplings"),
        ("compile", {"size": 2, "couplings": {"pair": [0, 1], "imag": 0.1}}, "couplings"),
        ("compile", {"size": 2, "couplings": [{"imag": 0.1}]}, "pair"),
        ("compile", {"size": 2, "couplings": [{"pair": [0, 1]}]}, "imag"),
        ("compile", {"size": 2, "couplings": [{"pair": [0, 1], "imag": None}]}, "imag"),
        ("compile", {"size": 2, "couplings": [{"pair": [0, 1], "imag": [0.1]}]}, "imag"),
        ("compile", {"size": 2, "couplings": [{"pair": [0, 1], "imag": True}]}, "imag"),
        ("compile", {"size": 2, "couplings": [{"pair": [0, 1], "imag": "0.1x"}]}, "imag"),
        ("compile", {"size": 2, "couplings": [{"pair": [0, 1], "imag": 10 ** 400}]}, "imag"),
        ("cycles", {"slow_count": 2, "periods": [10, 7], "special_points": 5}, "special_points"),
        ("cycles", {"slow_count": 2, "periods": [10, 7], "special_points": [5]}, "special_points"),
        # a pair listed twice, in either order or on the diagonal, is never summed
        ("compile", {"size": 2, "couplings": [{"pair": [0, 1], "imag": -0.01},
                                              {"pair": [1, 0], "imag": -0.01}]}, "pair"),
        ("compile", {"size": 2, "couplings": [{"pair": [0, 1], "imag": -0.01},
                                              {"pair": [0, 1], "imag": -0.01}]}, "pair"),
        ("compile", {"size": 2, "couplings": [{"pair": [1, 1], "imag": 0.5},
                                              {"pair": [1, 1], "imag": -0.5}]}, "pair"),
    ])
    def test_non_integer_field_is_parse_error(self, capsys, tmp_path, command, doc, field):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = {
            "simulate": ["--horizon", "2", "--samples", "5", "--seed", "1"],
            "cycles": [],
            "compile": ["--tolerance", "1e-6", "--output", str(tmp_path / "out")],
        }[command]
        code, _, err = run(capsys, command, "--input", str(path), *argv)
        assert code == ExitCode.PARSE_ERROR
        assert f"'{field}'" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["cycles", "spectrum", "simulate", "compare"])
    @pytest.mark.parametrize("periods,point,code,message", [
        # a trigger, or a state, beyond int64 is out of range like any other
        ([10, 7], {"pair": [0, 1], "trigger": [0, 10 ** 23]}, ExitCode.INVALID_MODEL,
         "ontosim: invalid input: trigger (0, 10000000...000000000) outside clock periods "
         "for pair (0, 1)\n"),
        ([10, 7], {"pair": [-10 ** 23, 1], "trigger": [0, 0]}, ExitCode.INVALID_MODEL,
         "ontosim: invalid input: special point references unknown slow state: "
         "(-1000000...000000000, 1)\n"),
        # a period beyond int64 is refused on load, by every command alike
        ([10, 10 ** 30], {"pair": [0, 1], "trigger": [0, 10 ** 23]}, ExitCode.SIZE_CAP,
         f"ontosim: clock period 10000000...000000000 exceeds {2 ** 63 - 1}, "
         "the largest a point table holds\n"),
    ], ids=["trigger", "state", "period"])
    def test_values_beyond_int64(self, capsys, tmp_path, command, periods, point, code,
                                 message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"slow_count": 2, "periods": periods,
                                    "special_points": [point]}))
        argv = {"simulate": ["--horizon", "2", "--samples", "5", "--seed", "1"],
                "compare": ["--horizon", "2"]}.get(command, [])
        got, out, err = run(capsys, command, "--input", str(path), *argv)
        assert (got, out, err) == (code, "", message)

    def test_target_array_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "target.json"
        path.write_text("[1, 2]")
        code, _, err = run(capsys, "compile", "--input", str(path), "--tolerance", "1e-6",
                           "--output", str(tmp_path / "out"))
        assert code == ExitCode.PARSE_ERROR
        assert "must be a JSON object" in err and "Traceback" not in err


class TestCompileGuards:
    @pytest.mark.parametrize("imag,code,message", [
        ("1e300", ExitCode.UNREACHABLE_TOLERANCE, "exceeds pi/2"),
        ('"nan"', ExitCode.NOT_REPRESENTABLE, "not finite"),
        ('"inf"', ExitCode.NOT_REPRESENTABLE, "not finite"),
        ("-1e999", ExitCode.NOT_REPRESENTABLE, "not finite"),
    ])
    def test_unreachable_or_non_finite_imag(self, capsys, tmp_path, imag, code, message):
        target = tmp_path / "target.json"
        target.write_text('{"size": 2, "couplings": [{"pair": [0, 1], "imag": %s}]}' % imag)
        got, _, err = run(capsys, "compile", "--input", str(target), "--tolerance", "1e-6",
                          "--output", str(tmp_path / "out"))
        assert got == code
        assert message in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("max_period", [quantize.MAX_PERIOD_CAP + 1, 10 ** 12])
    def test_max_period_above_its_cap_is_refused_first(self, capsys, tmp_path, source,
                                                       max_period):
        # a chain target, whose shared-period search grows as max_period**2
        target = tmp_path / "target.json"
        target.write_text('{"size": 3, "couplings": [{"pair": [0, 1], "imag": -0.01}, '
                          '{"pair": [1, 2], "imag": -0.02}]}')
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max-period": max_period} if source == "config" else {}))
        argv = ["--max-period", str(max_period)] if source == "flag" else []
        start = time.perf_counter()
        got, _, err = run(capsys, "compile", "--input", str(target), "--tolerance", "1e-3",
                          "--output", str(tmp_path / "out"), "--config", str(config), *argv)
        assert time.perf_counter() - start < 1.0
        assert got == ExitCode.SIZE_CAP
        assert f"--max-period {max_period} exceeds cap {quantize.MAX_PERIOD_CAP}" in err
        assert not (tmp_path / "out").exists()

    def test_shared_period_refusal_at_the_cap_is_quick(self, capsys, tmp_path):
        # a star whose centre clock cannot hold three blocks at any period
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"size": 4, "couplings": [
            {"pair": [0, b], "imag": -0.9 * math.pi / 2} for b in (1, 2, 3)]}))
        start = time.perf_counter()
        got, out, err = run(capsys, "compile", "--input", str(target), "--tolerance", "1e-3",
                            "--max-period", str(quantize.MAX_PERIOD_CAP),
                            "--output", str(tmp_path / "out"))
        assert time.perf_counter() - start < 1.0
        assert got == ExitCode.UNREACHABLE_TOLERANCE and out == ""
        assert err == "ontosim: trigger budget of shared clocks exhausted at pair (0, 2)\n"


class TestSeed:
    @pytest.mark.parametrize("command", [
        "cycles", "spectrum", "simulate", "compile", "compare", "bell"])
    def test_negative_seed_is_usage_error(self, capsys, tmp_path, command):
        target = tmp_path / "target.json"
        target.write_text('{"size": 2, "couplings": []}')
        argv = {
            "cycles": ["--input", FIGURE1],
            "spectrum": ["--input", FIGURE1],
            "simulate": ["--input", TWO_STATE, "--horizon", "3", "--samples", "5"],
            "compile": ["--input", str(target), "--tolerance", "1e-6",
                        "--output", str(tmp_path / "out"), "--horizon", "3"],
            "compare": ["--input", TWO_STATE, "--horizon", "3", "--samples", "5"],
            "bell": ["--output", str(tmp_path / "out"), "--grid", "2"],
        }[command]
        code, _, err = run(capsys, command, *argv, "--seed", "-1")
        assert code == ExitCode.USAGE
        assert "--seed" in err

    def test_negative_seed_from_config(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text('{"seed": -2}')
        code, _, err = run(capsys, "simulate", "--config", str(config), "--input", TWO_STATE,
                           "--horizon", "3", "--samples", "5")
        assert code == ExitCode.USAGE
        assert "--seed" in err


class TestDiagnostics:
    @pytest.mark.filterwarnings("default::ontosim.fastslow.FastPeriodWarning")
    @pytest.mark.parametrize("command", ["simulate", "compare", "compile"])
    def test_fast_period_warning_names_input(self, capsys, tmp_path, command):
        path, argv = TWO_STATE, ["--horizon", "2", "--samples", "5", "--seed", "1"]
        if command == "compile":  # compiles to periods (7, 10)
            path = str(tmp_path / "target.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"size": 2, "couplings": [
                    {"pair": [0, 1], "imag": (math.pi / 2) / 70}]}, fh)
            argv += ["--tolerance", "1e-6", "--max-period", "100",
                     "--output", str(tmp_path / "out")]
        code, _, err = run(capsys, command, "--input", path, *argv)
        assert code == ExitCode.OK
        assert f"ontosim: warning: {path}: clock periods [7] are below 10" in err
        assert "fastslow.py" not in err and "quantize.py" not in err


class TestInternalChecks:
    """A failed self-check is the program's fault, not the input's: exit 9 with
    one line, no traceback.  Each test breaks what the check is given."""

    def test_ground_projection_mismatch(self, capsys, monkeypatch):
        build = quantize.build_interchange
        monkeypatch.setattr(quantize, "build_interchange", lambda model: (
            quantize.InterchangeHamiltonian(matrix=2.0 * build(model).matrix)))
        code, out, err = run(capsys, "compare", "--input", TWO_STATE, "--horizon", "3")
        assert (code, out) == (ExitCode.INTERNAL_CHECK, "") and int(code) == 9
        assert err == ("ontosim: internal check failed: "
                       "'explicit ground projection disagrees with the rational table'\n")

    def test_interchange_one_entry_short(self, capsys, monkeypatch):
        # every value intact, one block count off by one
        build = quantize.build_interchange

        def one_entry_short(model):
            matrix = build(model).matrix.copy()
            matrix.data[0] = 0
            matrix.eliminate_zeros()
            return quantize.InterchangeHamiltonian(matrix=matrix)

        monkeypatch.setattr(quantize, "build_interchange", one_entry_short)
        code, out, err = run(capsys, "compare", "--input", TWO_STATE, "--horizon", "3")
        assert (code, out) == (ExitCode.INTERNAL_CHECK, "")
        assert err == ("ontosim: internal check failed: "
                       "'explicit ground projection disagrees with the rational table'\n")

    def test_failed_cycle_proof(self, capsys, monkeypatch):
        tables = fastslow.step_tables
        monkeypatch.setattr(fastslow, "step_tables", lambda m: (tables(m) + 1) % m.ontic_space_size)
        code, out, err = run(capsys, "cycles", "--input", TWO_STATE)
        assert (code, out) == (ExitCode.INTERNAL_CHECK, "")
        assert err == ("ontosim: internal check failed: "
                       "\"the step map does not follow its clocks' tick orbits\"\n")


def test_a_full_swap_machine_passes_the_projection_check(capsys, tmp_path):
    # a special point on each of the 200 x 200 cells: 40 000 interchange
    # entries per slow block, too many to sum as floats and meet the table
    model = fastslow.OntologicalModel(2, (200, 200), tuple(
        fastslow.SpecialPoint((0, 1), (p, q)) for p in range(200) for q in range(200)))
    assert quantize.ground_project(model).coupling((0, 1)) == 1
    assert quantize.compare_dynamics(model, 0, 3).max_classical_quantum <= 1e-10
    path = tmp_path / "full_swap.json"
    path.write_text(fastslow.model_to_json(model))
    code, out, _ = run(capsys, "compare", "--input", str(path), "--horizon", "3")
    assert code == ExitCode.OK and len(out.splitlines()) == 5


class TestConfigPrecedence:
    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "input": TWO_STATE, "horizon": 4, "samples": 100, "seed": 1}))
        out = tmp_path / "run.csv"
        code, _, _ = run(capsys, "simulate", "--config", str(config),
                         "--horizon", "2", "--output", str(out))
        assert code == ExitCode.OK
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 4  # header + horizon 2 from the flag, not 4


def test_sparse_is_imported_only_to_build_a_hamiltonian():
    # the bell and ensemble paths never build a matrix, so they skip scipy.sparse
    code = ("import sys, ontosim.cli\n"
            "from ontosim import bellkit, fastslow\n"
            "m = fastslow.OntologicalModel(2, (11, 13), (fastslow.SpecialPoint((0, 1), (0, 0)),))\n"
            "fastslow.run_ensemble(m, 0, 20, 50, seed=1)\n"
            "bellkit.correlated_expectation(0.1, 0.7)\n"
            "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse was imported'\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestBoundedMessages:
    LONG = "x" * 600_000

    @pytest.mark.parametrize("command,doc,name", [
        ("compile", {"size": 2, "couplings": [5] * 200_000}, "'couplings'"),
        ("compile", {"size": 2, "couplings": [{"pair": [0, 1], "imag": LONG}]}, "'imag'"),
        ("cycles", {"size": 3, "image": LONG}, "'image'"),
        ("simulate", {"slow_count": 2, "periods": {"a": LONG}}, "'periods'"),
    ])
    def test_document_refusal_does_not_echo_the_value(self, capsys, tmp_path, command, doc,
                                                       name):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = {
            "compile": ["--tolerance", "1e-6", "--output", str(tmp_path / "out")],
            "cycles": [],
            "simulate": ["--horizon", "2", "--samples", "5", "--seed", "1"],
        }[command]
        code, _, err = run(capsys, command, "--input", str(path), *argv)
        assert code == ExitCode.PARSE_ERROR
        assert name in err and len(err.encode()) <= 200

    def test_config_key_refusal_does_not_echo_the_key(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({self.LONG: 1}))
        code, _, err = run(capsys, "cycles", "--input", FIGURE1, "--config", str(config))
        assert code == ExitCode.USAGE
        assert "config key 'xxx" in err and len(err.encode()) <= 200

    def test_flag_refusal_does_not_echo_the_value(self, capsys):
        code, _, err = run(capsys, "simulate", "--input", TWO_STATE, "--horizon", "9" * 5000,
                           "--samples", "5", "--seed", "1")
        assert code == ExitCode.USAGE
        assert "--horizon" in err and len(err.encode()) <= 200

    def test_path_refusal_does_not_echo_the_path(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"input": "/" + self.LONG}))
        code, _, err = run(capsys, "cycles", "--config", str(config))
        assert code == ExitCode.FILE_NOT_FOUND
        assert "'/xxx" in err and len(err.encode()) <= 200


class TestStrictNumberFlags:
    @pytest.mark.parametrize("command,flag,value", [
        ("simulate", "--horizon", "1_0"),
        ("simulate", "--samples", " 5"),
        ("simulate", "--samples", "5 "),
        ("simulate", "--horizon", "+5"),
        ("simulate", "--horizon", "٥"),  # an Arabic-Indic five, which int() reads
        ("simulate", "--horizon", "05"),
        ("simulate", "--horizon", "1e1"),
        ("simulate", "--seed", "1.0"),
        ("compile", "--tolerance", "1_0e-6"),
        ("compile", "--tolerance", " 1e-6"),
        ("compile", "--tolerance", "+1e-6"),
        ("compile", "--tolerance", ".5"),
        ("compile", "--max-period", "0x10"),
        ("bell", "--settings", "0,4_5,22.5,67.5"),
        ("bell", "--settings", " 0,45,22.5,67.5"),
    ])
    def test_flag_is_read_as_a_json_number(self, capsys, tmp_path, command, flag, value):
        # a flag accepts exactly what its config key accepts: a JSON number
        target = tmp_path / "target.json"
        target.write_text('{"size": 2, "couplings": []}')
        options = {
            "simulate": {"--input": TWO_STATE, "--horizon": "2", "--samples": "5", "--seed": "1"},
            "compile": {"--input": str(target), "--tolerance": "1e-6",
                        "--output": str(tmp_path / "out")},
            "bell": {"--output": str(tmp_path / "out"), "--grid": "2", "--samples": "0",
                     "--seed": "1"},
        }[command]
        options[flag] = value
        argv = [item for pair in options.items() for item in pair]
        code, out, err = run(capsys, command, *argv)
        assert code == ExitCode.USAGE
        assert flag in err and "Traceback" not in err
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tolerance", ["1e-6", "1E-6", "0.000001", "1.0e-6"])
    def test_json_number_spellings_are_accepted(self, capsys, tmp_path, tolerance):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"size": 2, "couplings": [
            {"pair": [0, 1], "imag": (math.pi / 2) / 70}]}))
        code, _, _ = run(capsys, "compile", "--input", str(target), "--tolerance", tolerance,
                         "--max-period", "100", "--output", str(tmp_path / "out"))
        assert code == ExitCode.OK
        assert json.loads((tmp_path / "out" / "report.json").read_text())["tolerance"] == 1e-6


def test_each_input_file_is_parsed_once(capsys, tmp_path, monkeypatch):
    parsed = []
    loads = json.loads

    def counting_loads(text, *args, **kwargs):  # json.load reads through json.loads too
        parsed.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    target = tmp_path / "target.json"
    target.write_text('{"size": 2, "couplings": [{"pair": [0, 1], "imag": 0.02}]}')
    config = tmp_path / "cfg.json"
    config.write_text('{"seed": 3}')
    runs = [(["cycles", "--input", TWO_STATE], TWO_STATE),
            (["cycles", "--input", FIGURE1], FIGURE1),
            (["compare", "--input", TWO_STATE, "--horizon", "2", "--config", str(config)],
             TWO_STATE),
            (["compile", "--input", str(target), "--tolerance", "1e-3",
              "--output", str(tmp_path / "out")], str(target))]
    for argv, path in runs:
        parsed.clear()
        assert cli.main(argv) == ExitCode.OK
        files = [Path(path).read_text(), config.read_text()]
        assert [parsed.count(text) for text in files] == [1, int("--config" in argv)]
    capsys.readouterr()


def test_deeply_nested_document_is_parse_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "cycles", "--input", str(path))
    assert code == ExitCode.PARSE_ERROR
    assert "nested too deeply" in err


class TestLoopSigns:
    H = (math.pi / 2) / 400

    def compile(self, capsys, tmp_path, signs):
        target = tmp_path / "triangle.json"
        target.write_text(json.dumps({"size": 3, "couplings": [
            {"pair": pair, "imag": sign * self.H}
            for pair, sign in zip([[0, 1], [1, 2], [0, 2]], signs)]}))
        return run(capsys, "compile", "--input", str(target), "--tolerance", "1e-6",
                   "--max-period", "20", "--output", str(tmp_path / "out"))

    def test_loop_of_the_wrong_sign_is_not_representable(self, capsys, tmp_path):
        code, _, err = self.compile(capsys, tmp_path, (1, 1, 1))
        assert code == ExitCode.NOT_REPRESENTABLE
        assert "coupling loop [2, 0, 1, 2]" in err

    def test_gauge_of_the_machine_compiles_as_before(self, capsys, tmp_path):
        code, _, _ = self.compile(capsys, tmp_path, (1, 1, -1))
        assert code == ExitCode.OK
        assert json.loads((tmp_path / "out" / "model.json").read_text()) == {
            "slow_count": 3, "periods": [20, 20, 20], "special_points": [
                {"pair": [0, 1], "trigger": [0, 0]}, {"pair": [0, 2], "trigger": [1, 0]},
                {"pair": [1, 2], "trigger": [1, 1]}]}


def test_size_caps_refuse_before_allocating(tmp_path):
    # under a 3 GiB address-space limit an unchecked (horizon+1) x N table or
    # sample draw ends in MemoryError; the caps must refuse first (exit 6)
    code = textwrap.dedent("""
        import json, resource, sys, warnings
        resource.setrlimit(resource.RLIMIT_AS, (3 * 2 ** 30, 3 * 2 ** 30))
        warnings.simplefilter("ignore")
        from ontosim import bellkit, cli, fastslow, quantize
        model = sys.argv[1]
        runs = [["simulate", "--input", model, "--horizon", "1000000000", "--samples", "1",
                 "--seed", "0"],
                ["simulate", "--input", model, "--horizon", "5", "--samples", "1000000000",
                 "--seed", "0"],
                ["compare", "--input", model, "--horizon", "1000000000"],
                ["compare", "--input", model, "--horizon", "5", "--samples", "1000000000"]]
        print(json.dumps([cli.main(argv) for argv in runs]))
        """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code, TWO_STATE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == [ExitCode.SIZE_CAP] * 4
    assert proc.stderr.count("exceeds enumeration cap") == 4
