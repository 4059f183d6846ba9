import json
import math

import numpy as np
import pytest

from ontosim import cli
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

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "cycles", "--input", "/no/such/file.json")
        assert code == ExitCode.FILE_NOT_FOUND
        assert "not found" in err

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

    def test_unreachable_tolerance(self, capsys, tmp_path):
        target = tmp_path / "hard.json"
        target.write_text('{"size": 2, "couplings": [{"pair": [0, 1], "imag": 0.345}]}')
        code, _, _ = run(capsys, "compile", "--input", str(target),
                         "--tolerance", "1e-9", "--max-period", "3",
                         "--output", str(tmp_path / "y"))
        assert code == ExitCode.UNREACHABLE_TOLERANCE


class TestCompare:
    def test_csv_on_stdout(self, capsys):
        code, out, err = run(capsys, "compare", "--input", TWO_STATE, "--horizon", "3")
        assert code == ExitCode.OK
        lines = out.strip().splitlines()
        assert lines[0] == "t,classical,full_quantum,effective"
        assert len(lines) == 5
        assert "classical - quantum" in err  # diagnostics only on stderr


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
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_fast_period_warning_names_input(self, capsys, command):
        code, _, err = run(capsys, command, "--input", TWO_STATE, "--horizon", "2",
                           "--samples", "5", "--seed", "1")
        assert code == ExitCode.OK
        assert f"ontosim: warning: {TWO_STATE}: clock periods [7] are below 10" in err
        assert "fastslow.py" not in err


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
