"""Pinned sha256 digests of the machine's seeded and exact outputs.

Any rewrite of the stepping code must reproduce these bit for bit: the
Philox-seeded ensemble tables, the ``ontosim simulate`` CSV bytes, the exact
occupation counts, the step-map image and the signed Koopman permutation.
Any rewrite of the cycle listing must reproduce the ``ontosim cycles`` report
bytes and the ``ontosim spectrum`` CSV bytes, of machines and of laws alike,
and the free levels ``ontosim spectrum`` writes for a model.
Any rewrite of the Bell sampling must reproduce the ``ontosim bell`` files
and the Monte Carlo CHSH score to the bit.
"""

import hashlib
import json

import numpy as np
import pytest

from ontosim import bellkit, cli, fastslow, ontodyn, quantize
from ontosim.fixtures import fixture_path

from conftest import law_to_json, make_rng, random_law_image, random_model

TWO_STATE = str(fixture_path("two_state_10_7.json"))
FIGURE1 = str(fixture_path("figure1.json"))
RANDOM_SEEDS = (2020, 2021, 2025)


def machine(name: str) -> fastslow.OntologicalModel:
    if name == "two_state_10_7":
        return fastslow.load_model(TWO_STATE)
    seed = int(name.rsplit("_", 1)[1])
    return random_model(make_rng(seed), min_slow=2, min_points=2)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


GOLDEN = {
    "two_state_10_7": {
        "ensemble":
            "eed8a6feec5df7d02893dd01227b84310167ccfa4b01e5b0db31734edd0806eb",
        "exact":
            "d7a9d42dc42903478120c3731f2b9a1e9e658c3dd2b8c592f5d28841e0ffe08b",
        "step_map":
            "d0ab7d4261012a185b6dfd147e5bf82936dd6a1743fa8c5358de59f5237b4ca9",
        "koopman":
            "dce896c70aa3c9354e37910041bba29a00e82c3c0c31b316b2c841aee00315ab",
    },
    "random_2020": {
        "ensemble":
            "6476b8dd8c5b0c50bd52cfaec17bd78bdcbb546a29950c70ec6e9d3d7b53d4bf",
        "exact":
            "721f6be6a965a1ec1fe86a9bf1943b6de076513c97f9710dc184b8fe811fd9ed",
        "step_map":
            "baf71ef088c50460d9b1b4c088bea74198a52f3ec4dc918ee102b1c88ef81708",
        "koopman":
            "5489501149c4b33551efa75e1afac9f45c9f815e49ec12f4b34da5cfbd724d69",
    },
    "random_2021": {
        "ensemble":
            "ae214c9609257279116ef797d4d05db4e21ad4144c149e8f9b3b495436596b0b",
        "exact":
            "4c9fcfb1394b3a32232750cb4e61385fc40d487b90ae3db138daadc9d312cf79",
        "step_map":
            "9819e41060e9e088f94bded7a7b807b21c45c5934b54b10b2e58f068050fd576",
        "koopman":
            "2df2f0b0430a6e6a96b25a42b273cff39bd282edc32f247423462d31cda8d788",
    },
    "random_2025": {
        "ensemble":
            "5ec40e84d6a320d4cae94cc800adf641626c542c7d552a1f274b95a468ac35fb",
        "exact":
            "229eb5377e365cc4ec81c9042a471ed001c94a3cf7b492cb411632a60736ca21",
        "step_map":
            "5a62ca74a81764ce3c0e7284f5fc2be699bce2923a5c38f1fabd9bfda5a8d8fa",
        "koopman":
            "d1db320e396ed0f6ab7f1781be45569a79da853eef0caa342749e651c0e30af8",
    },
}
SIMULATE_CSV = "804621b545a5f092769141e7fcf67b5fff563073f5c76b77ff76a2f253c1136b"
CYCLES_REPORT = {
    "figure1": "ceb7155a9c103399f769d0c6863f99acd212ee565fc6dafe53c033638153e24b",
    "two_state_10_7": "b905176927abcf373091a9962e52881654b1acd593315774d2200bf2ccd9c326",
    "random_2020": "55318f5a7b619abf692184184c655b9c518d7c7717df1d77ae4009120641639b",
    "random_2021": "d6e416f09437dc567d3479b9cbb934cd88532ffe26216941b41e628e23429148",
}
SPECTRUM_CSV = "e1e0a52e7d1edacaa35fbc4684bb80af43d3bba01246741338aa69c2dd1d4cef"
MODEL_SPECTRA = {  # ``ontosim spectrum`` of a model: its free levels and multiplicities
    "two_state_10_7": "2a6331ad9110e0d812f8d527cbc02d0bfe28c9964409db2c54b3832edf89acd6",
    (16, 32): "994e5b7bdaa9e0461b800150177c90b26697663072d83f6fd86134ccbc305e43",
    (8, 38): "6a73a66d99f6a6a21c6ee84812ab0f7813303846990f3c59e87b474bbed84288",
    (21, 35): "17687d6ce82a12898ad9cbc704639597cdf9f96eb8dfd643654502e6406dd5ae",
    (4, 6, 9): "b0db2e78784a7e574665255c050abca2403fe9166afcb6202dc9dd042b6a5bc2",
}
BELL_FILES = {  # ``ontosim bell --grid 4 --samples 1000 --seed 7``
    "chsh.json": "6223883faf75c03b6e1333af30025e5961a6beac37d3ac5c7469ab3b8af762e9",
    "flatness.json": "56c7bd4bd8dfef7890ba28c95ede6ebf2ea4a35d469e4576962d917dd3423d6e",
    "grid.csv": "c89f726642a4c429449ccc3e53089d2871502a60021f12a4fcd1debda2c24319",
    "samples.csv": "bc4f6d2bf43ac13033c10e9bf1f22cf0cd552e94710072e45d87f8ef95f2e505",
}
MC_CHSH = {  # samples per setting: ``mc_chsh`` score at the standard settings, seed 5
    1: "0x1.0000000000000p+2",
    16383: "0x1.6d09b426d09b4p+1",
    16384: "0x1.6d10000000000p+1",
    16385: "0x1.6d0e4bc6d0e4cp+1",
    250001: "0x1.6a231dee2d23cp+1",
}
LAW_OUTPUTS = {
    ("involution_20000", "cycles"):
        "efc9b7992fbe4b7ad47bd335272c7c99c6adbb64ee64b4b267b5186b369d77bb",
    ("involution_20000", "spectrum"):
        "a53cfd1ba69e292a0238e4ca1822f6794232a1b4771224c2c1492279d42cf6cc",
    ("permutation_100000", "cycles"):
        "b17a014722445ba415fb6f3e0c89d286c23303925234fc01f27f937c1147d66c",
    ("permutation_100000", "spectrum"):
        "ab1f4db88e071d392a00f3e5d4206f39250ed3b627db6c21c4189d3d65a6bad3",
}


def outputs(model: fastslow.OntologicalModel) -> dict:
    freq = fastslow.run_ensemble(model, 0, 60, 400, seed=7)
    occ = fastslow.enumerate_exact(model, 0, 60)
    perm, sign = quantize.koopman_step_operator(model)
    return {
        "ensemble": digest(np.asarray(freq, dtype=np.float64)),
        "exact": digest(np.asarray(occ.counts, dtype=np.int64), np.int64(occ.total)),
        "step_map": digest(np.asarray(fastslow.step_map(model).image, dtype=np.int64)),
        "koopman": digest(np.asarray(perm, dtype=np.int64), np.asarray(sign, dtype=np.int8)),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_machine_outputs_match_golden(name):
    assert outputs(machine(name)) == GOLDEN[name]


def test_simulate_csv_matches_golden(tmp_path):
    out = tmp_path / "sim.csv"
    code = cli.main(["simulate", "--input", TWO_STATE, "--horizon", "40",
                     "--samples", "500", "--seed", "11", "--output", str(out)])
    assert code == cli.ExitCode.OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_CSV


def cli_output_digest(tmp_path, command: str, source: str) -> str:
    out = tmp_path / "out"
    assert cli.main([command, "--input", source, "--output", str(out)]) == cli.ExitCode.OK
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CYCLES_REPORT))
def test_cycles_report_matches_golden(name, tmp_path):
    source = {"figure1": FIGURE1, "two_state_10_7": TWO_STATE}.get(name)
    if source is None:
        source = tmp_path / "model.json"
        source.write_text(fastslow.model_to_json(machine(name)))
    assert cli_output_digest(tmp_path, "cycles", str(source)) == CYCLES_REPORT[name]


def test_spectrum_csv_matches_golden(tmp_path):
    assert cli_output_digest(tmp_path, "spectrum", FIGURE1) == SPECTRUM_CSV


@pytest.mark.parametrize("name", list(MODEL_SPECTRA), ids=str)
def test_model_spectrum_matches_golden(name, tmp_path):
    source = TWO_STATE
    if name != "two_state_10_7":  # free clocks, one slow state per clock
        source = tmp_path / "model.json"
        source.write_text(json.dumps({"slow_count": len(name), "periods": list(name)}))
    assert cli_output_digest(tmp_path, "spectrum", str(source)) == MODEL_SPECTRA[name]


def seeded_law(name: str) -> ontodyn.PermutationLaw:
    """A random permutation of 100 000 states (a few long cycles), or an
    involution of 20 000 states (10 000 two-cycles)."""
    if name == "permutation_100000":
        return ontodyn.PermutationLaw(random_law_image(make_rng(19), 100_000))
    pairs = make_rng(20).permutation(20_000).reshape(-1, 2)
    image = np.empty(20_000, dtype=np.int64)
    image[pairs[:, 0]], image[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    return ontodyn.PermutationLaw(image)


@pytest.mark.parametrize("name,command", sorted(LAW_OUTPUTS))
def test_law_outputs_match_golden(name, command, tmp_path):
    source = tmp_path / "law.json"
    source.write_text(law_to_json(seeded_law(name)))
    assert cli_output_digest(tmp_path, command, str(source)) == LAW_OUTPUTS[name, command]


def test_bell_files_match_golden(tmp_path):
    out = tmp_path / "bell"
    code = cli.main(["bell", "--output", str(out), "--grid", "4", "--samples", "1000",
                     "--seed", "7"])
    assert code == cli.ExitCode.OK
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == BELL_FILES


@pytest.mark.parametrize("samples", sorted(MC_CHSH))
def test_mc_chsh_matches_golden(samples):
    result = bellkit.mc_chsh(*bellkit.STANDARD_SETTINGS, samples_per_setting=samples, seed=5)
    assert result.score.hex() == MC_CHSH[samples]
