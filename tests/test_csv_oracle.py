"""``ontodyn.write_csv`` against the ``csv.writer`` formatting it replaced.

The reference below is the per-row code each table writer used before there
was one writer: ``csv.writer`` rows of ``repr(float(v))`` for float cells and
``int(v)`` for integer cells.  The writer must give the same bytes, write at
most ``CSV_CHUNK`` rows per call, and each public table writer must keep its
old output.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosim import bellkit, cli, fastslow, ontodyn, quantize

from conftest import free_energy_levels, make_rng, two_state_model

CHUNK = ontodyn.CSV_CHUNK
SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
                  1e-310, 1e300, -1e300, 1.7976931348623157e308, 0.1, 1.0, -1.0]


def reference_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def reference_cells(columns) -> list[list]:
    """The rows of ``columns`` as the old writers formatted each cell."""
    return [[int(v) if np.issubdtype(c.dtype, np.integer) else repr(float(v))
             for c, v in zip(columns, values)] for values in zip(*columns)]


def written(header, blocks) -> str:
    buf = io.StringIO()
    ontodyn.write_csv(buf, header, blocks)
    return buf.getvalue()


class Recorder:
    """A text stream that keeps each write apart."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


@st.composite
def columns(draw):
    """Equal-length float and int columns whose cells come from a small drawn
    pool that always holds -0.0, nan, +-inf, subnormals and 1e300."""
    rows = draw(st.integers(0, 20))
    floats = SPECIAL_FLOATS + draw(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                                      allow_subnormal=True), max_size=12))
    ints = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=12))
    kinds = draw(st.lists(st.sampled_from(["float64", "int64", "int8"]), min_size=1, max_size=5))
    rng = make_rng(draw(st.integers(0, 2 ** 32)))
    out = []
    for kind in kinds:
        if kind == "float64":
            out.append(rng.choice(np.array(floats), rows))
        elif kind == "int64":
            out.append(rng.choice(np.array(ints, dtype=np.int64), rows))
        else:
            out.append(rng.integers(-128, 128, rows).astype(np.int8))
    return out


class TestWriteCsv:
    @settings(max_examples=200, deadline=None)
    @given(columns())
    def test_bytes_equal_the_csv_writer(self, cols):
        header = [f"c{i}" for i in range(len(cols))]
        assert written(header, [cols]) == reference_csv(header, reference_cells(cols))

    @settings(max_examples=30, deadline=None)
    @given(columns(), st.lists(st.integers(0, 3), max_size=4))
    def test_blocks_are_written_in_order(self, cols, cuts):
        # the same rows split into consecutive blocks, empty ones included
        size = len(cols[0])
        edges = [0, *sorted(min(size, c * (size // 3 + 1)) for c in cuts), size]
        blocks = [[c[lo:hi] for c in cols] for lo, hi in zip(edges, edges[1:])]
        assert written(["x"] * len(cols), blocks) == written(["x"] * len(cols), [cols])

    @pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_rows_per_write(self, rows):
        cols = [np.resize(SPECIAL_FLOATS, rows), np.linspace(-1.0, 1.0, rows),
                np.arange(rows) - 2 ** 62, np.arange(rows).astype(np.int8)]
        stream = Recorder()
        ontodyn.write_csv(stream, ["s", "x", "i", "j"], [cols])
        assert stream.writes[0] == "s,x,i,j\r\n"
        per_write = [w.count("\r\n") for w in stream.writes[1:]]
        assert sum(per_write) == rows
        assert all(0 < n <= CHUNK for n in per_write)
        assert len(per_write) == -(-rows // CHUNK)
        assert "".join(stream.writes) == reference_csv(["s", "x", "i", "j"], reference_cells(cols))

    def test_samples_are_written_a_chunk_at_a_time(self):
        samples = bellkit.sample_triples(10 ** 5, 1)
        stream = Recorder()
        bellkit.write_samples_csv(samples, stream)
        assert max(w.count("\r\n") for w in stream.writes) <= CHUNK
        assert sum(w.count("\r\n") for w in stream.writes) == 10 ** 5 + 1
        assert len(stream.writes) == 1 + -(-10 ** 5 // CHUNK)


# ---------------------------------------------------------------------------
# each public writer against the per-row code it had before

def old_spectrum_csv(decomp) -> str:
    rows = []
    for ci, cycle in enumerate(decomp.cycles):
        energies, phases = ontodyn._cycle_modes(len(cycle))
        for n, (energy, phase) in enumerate(zip(energies.tolist(), phases.tolist())):
            rows.append([ci, n, repr(energy), repr(phase.real), repr(phase.imag)])
    return reference_csv(["cycle_index", "n", "energy", "re_phase", "im_phase"], rows)


def old_ensemble_csv(frequencies) -> str:
    return reference_csv(["t"] + [f"state_{s}_freq" for s in range(frequencies.shape[1])],
                         [[t] + [repr(float(v)) for v in row]
                          for t, row in enumerate(frequencies)])


def old_comparison_csv(comparison) -> str:
    curves = {"classical": comparison.classical, "full_quantum": comparison.quantum,
              "effective": comparison.effective, "ensemble": comparison.ensemble}
    curves = {name: comparison.transition(c) for name, c in curves.items() if c is not None}
    return reference_csv(["t", *curves], [[int(t)] + [repr(float(c[t])) for c in curves.values()]
                                          for t in comparison.times])


def old_grid_csv(grid_size: int) -> str:
    grid = np.linspace(0.0, math.pi, grid_size, endpoint=False)
    rows = []
    for a in grid:
        for b in grid:
            eq = float(bellkit.quantum_correlation(a, b))
            ec = bellkit.correlated_expectation(a, b)
            rows.append([repr(math.degrees(a)), repr(math.degrees(b)),
                         repr(eq), repr(ec), repr(abs(ec - eq))])
    return reference_csv(["a_deg", "b_deg", "E_quant", "E_correlated", "abs_err"], rows)


def old_samples_csv(samples) -> str:
    return reference_csv(["a", "b", "lambda", "A", "B"], [
        [repr(float(samples.a[i])), repr(float(samples.b[i])), repr(float(samples.lam[i])),
         int(samples.outcome_a[i]), int(samples.outcome_b[i])] for i in range(samples.a.size)])


def text_of(writer, *args) -> str:
    buf = io.StringIO()
    writer(*args, buf)
    return buf.getvalue()


class TestTableWriters:
    def test_spectrum_of_a_law(self):
        # cycles of lengths 1, 1, 2, 3, 3 and 6: repeated lengths share their modes
        image = np.concatenate([np.roll(np.arange(start, start + size), -1) for start, size in
                                ((0, 1), (1, 1), (2, 2), (4, 3), (7, 3), (10, 6))])
        decomp = ontodyn.decompose(ontodyn.PermutationLaw(image))
        assert text_of(ontodyn.write_spectrum_csv, decomp) == old_spectrum_csv(decomp)

    def test_spectrum_of_a_random_law(self):
        decomp = ontodyn.decompose(ontodyn.PermutationLaw(make_rng(3).permutation(3000)))
        assert text_of(ontodyn.write_spectrum_csv, decomp) == old_spectrum_csv(decomp)

    def test_ensemble(self):
        freq = fastslow.run_ensemble(two_state_model(5, 4), 0, 30, 50, 7)
        assert text_of(fastslow.write_ensemble_csv, freq) == old_ensemble_csv(freq)

    @pytest.mark.parametrize("samples", [0, 40])
    def test_comparison(self, samples):
        comparison = quantize.compare_dynamics(two_state_model(5, 4), 0, 20,
                                               sample_count=samples, seed=3)
        text = text_of(quantize.write_comparison_csv, comparison)
        assert text == old_comparison_csv(comparison)
        assert text.startswith("t,classical,full_quantum,effective" +
                               (",ensemble\r\n" if samples else "\r\n"))

    def test_correlation_grid(self):
        assert text_of(bellkit.write_correlation_grid_csv, 3) == old_grid_csv(3)

    @pytest.mark.parametrize("grid_size", [12, 64, 256])
    def test_correlation_grid_quantum_column(self, monkeypatch, grid_size):
        # one cos over the grid's columns gives each cell's own value, to the bit
        monkeypatch.setattr(bellkit, "correlated_expectation", lambda a, b: 0.0)
        grid = np.linspace(0.0, math.pi, grid_size, endpoint=False)
        want = [repr(float(bellkit.quantum_correlation(a, b))) for a in grid for b in grid]
        rows = text_of(bellkit.write_correlation_grid_csv, grid_size).splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == want

    def test_samples(self):
        samples = bellkit.sample_triples(10, 4)
        assert text_of(bellkit.write_samples_csv, samples) == old_samples_csv(samples)

    def test_model_spectrum_rows_end_like_every_table(self, capsys, tmp_path):
        # the one byte change: this table used to end its rows with "\n"
        path = tmp_path / "free.json"
        path.write_text('{"slow_count": 2, "periods": [2, 3], "special_points": []}')
        assert cli.main(["spectrum", "--input", str(path)]) == 0
        model = fastslow.model_from_json(path.read_text())
        distinct, counts = np.unique(np.round(free_energy_levels(model), 12),
                                     return_counts=True)
        old = "level,energy,multiplicity\n" + "".join(
            f"{i},{float(e)!r},{int(m)}\n" for i, (e, m) in enumerate(zip(distinct, counts)))
        assert capsys.readouterr().out == old.replace("\n", "\r\n")
