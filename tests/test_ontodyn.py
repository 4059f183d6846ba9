import io
import json
import math
import pickle
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosim import ontodyn
from ontosim.fixtures import fixture_path

from conftest import law_to_json, make_rng, random_law_image


def law(image) -> ontodyn.PermutationLaw:
    return ontodyn.PermutationLaw(np.asarray(image, dtype=np.int64))


class TestPermutationLaw:
    def test_rejects_duplicates(self):
        with pytest.raises(ontodyn.MalformedLawError):
            law([0, 0, 2])

    def test_rejects_out_of_range(self):
        with pytest.raises(ontodyn.MalformedLawError):
            law([0, 3, 1])
        with pytest.raises(ontodyn.MalformedLawError):
            law([-1, 0])

    def test_rejects_empty(self):
        with pytest.raises(ontodyn.MalformedLawError):
            law([])

    @pytest.mark.parametrize("image", [
        [0.0, 1.7], np.array([1.0, 0.0]), [True, False], [0, 1.0], ["1", "0"]])
    def test_rejects_non_integers(self, image):
        # never truncated: [0.0, 1.7] is not the law [0, 1]
        with pytest.raises(ontodyn.MalformedLawError, match="integer array"):
            ontodyn.PermutationLaw(image)

    @pytest.mark.parametrize("image", [
        [1, 0], [np.int64(1), 0], np.array([1, 0], dtype=np.uint8)])
    def test_accepts_python_and_numpy_integers(self, image):
        assert ontodyn.PermutationLaw(image).image.tolist() == [1, 0]


class TestDecompose:
    def test_figure_fixture_ranks(self):
        lw = ontodyn.load_law(fixture_path("figure1.json"))
        assert ontodyn.decompose(lw).ranks == (2, 3, 6, 8, 11)

    def test_identity(self):
        d = ontodyn.decompose(law([0, 1, 2, 3, 4]))
        assert d.ranks == (1, 1, 1, 1, 1)
        assert tuple(d.cycles) == ((0,), (1,), (2,), (3,), (4,))

    def test_hand_traced_orbits(self):
        d = ontodyn.decompose(law([1, 2, 0, 4, 3]))
        assert d.ranks == (2, 3)
        assert tuple(d.cycles) == ((0, 1, 2), (3, 4))

    def test_deterministic_anchor_ordering(self):
        # each cycle starts at its smallest member, cycles sorted by anchor
        d = ontodyn.decompose(law([3, 2, 1, 0]))
        assert tuple(d.cycles) == ((0, 3), (1, 2))

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(list(range(12))))
    def test_partition_property(self, image):
        lw = law(image)
        d = ontodyn.decompose(lw)
        flat = [s for c in d.cycles for s in c]
        assert sorted(flat) == list(range(12))
        assert sum(d.ranks) == 12
        for cycle in d.cycles:
            for j, s in enumerate(cycle):
                assert lw.image[s] == cycle[(j + 1) % len(cycle)]


class TestCycles:
    """The listing behind CycleDecomposition.cycles: a read-only sequence of
    tuples, equal only to another listing of the same states and lengths."""

    @staticmethod
    def listing(dtype=np.int64) -> ontodyn.Cycles:
        return ontodyn.Cycles(np.array([0, 3, 1, 4, 2], dtype=dtype),
                              np.array([2, 3], dtype=dtype))

    def test_length_and_indexing(self):
        cycles = self.listing()
        assert len(cycles) == 2
        assert cycles[0] == (0, 3) and cycles[1] == (1, 4, 2)
        assert cycles[-1] == (1, 4, 2) and cycles[-2] == (0, 3)
        assert all(type(s) is int for s in cycles[1])
        for index in (2, -3):
            with pytest.raises(IndexError):
                cycles[index]

    def test_iteration_gives_the_indexed_tuples(self):
        cycles = self.listing()
        assert list(cycles) == [cycles[0], cycles[1]] == [(0, 3), (1, 4, 2)]

    def test_equality_and_hash_across_integer_widths(self):
        narrow, wide = self.listing(np.int32), self.listing(np.int64)
        assert narrow.states.dtype == narrow.lengths.dtype == np.int64
        assert narrow == wide and hash(narrow) == hash(wide)
        assert narrow != ontodyn.Cycles([0, 3, 1, 2, 4], [2, 3])
        assert narrow != ontodyn.Cycles([0, 3, 1, 4, 2], [3, 2])

    def test_hash_copies_no_whole_listing(self):
        # 649 798 states, the listing of a two_state_model(571, 569) proof:
        # 5 MB as bytes, hashed a slice at a time
        states = np.roll(np.arange(649_798), 1)
        cycles = ontodyn.Cycles(states, [states.size])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            digest = hash(cycles)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert digest == hash(ontodyn.Cycles(states.copy(), [states.size]))
        changed = states.copy()
        changed[[0, -1]] = changed[[-1, 0]]
        assert digest != hash(ontodyn.Cycles(changed, [states.size]))

    def test_not_equal_to_a_tuple_literal(self):
        cycles = self.listing()
        assert cycles != ((0, 3), (1, 4, 2))
        assert ((0, 3), (1, 4, 2)) != cycles

    def test_arrays_are_read_only(self):
        cycles = self.listing()
        with pytest.raises(ValueError):
            cycles.states[0] = 1
        with pytest.raises(ValueError):
            cycles.lengths[0] = 1
        with pytest.raises(AttributeError):
            cycles.states = np.arange(5)

    def test_pickle_round_trip_stays_read_only(self):
        cycles = self.listing()
        back = pickle.loads(pickle.dumps(cycles))
        assert back == cycles and hash(back) == hash(cycles)
        with pytest.raises(ValueError):
            back.states[0] = 1

    @pytest.mark.parametrize("states,lengths", [
        ([0, 1, 2], [1, 1]), ([0, 1], [2, 0]), ([[0, 1]], [2])])
    def test_lengths_must_cover_the_states(self, states, lengths):
        with pytest.raises(ValueError):
            ontodyn.Cycles(states, lengths)


class TestPermutationMatrix:
    def test_swap(self):
        assert np.array_equal(ontodyn.permutation_matrix(law([1, 0])),
                              np.array([[0, 1], [1, 0]]))

    def test_identity(self):
        assert np.array_equal(ontodyn.permutation_matrix(law([0, 1, 2])), np.eye(3, dtype=int))

    def test_three_cycle_cubes_to_identity(self):
        u = ontodyn.permutation_matrix(law([1, 2, 0]))
        assert np.array_equal(u @ u @ u, np.eye(3, dtype=int))

    def test_size_cap(self):
        big = np.roll(np.arange(ontodyn.DENSE_CAP + 1), 1)
        with pytest.raises(ontodyn.SizeCapError):
            ontodyn.permutation_matrix(law(big))

    def test_bijectivity_implies_unitarity(self):
        # 200 random laws; exactly one 1 per row/column and U^T U = I in
        # integer arithmetic (sparse product keeps the big cases exact+fast).
        rng = make_rng(2)
        sizes = [int(v) for v in rng.integers(1, 257, size=195)] + [512, 1024, 2048, 3000, 4096]
        for size in sizes:
            u = ontodyn.permutation_matrix(law(random_law_image(rng, size)))
            assert np.array_equal(u.sum(axis=0), np.ones(size, dtype=np.int64))
            assert np.array_equal(u.sum(axis=1), np.ones(size, dtype=np.int64))
            us = sparse.csr_matrix(u)
            gram = (us.T @ us) - sparse.identity(size, dtype=np.int64, format="csr")
            assert gram.nnz == 0


class TestEvolveBasisState:
    def test_identity_law(self):
        lw = law([0, 1, 2])
        for t in (-7, 0, 3, 100):
            assert ontodyn.evolve_basis_state(lw, 1, t) == 1

    def test_full_period(self):
        assert ontodyn.evolve_basis_state(law([1, 2, 0]), 0, 3) == 0

    def test_negative_time_uses_inverse(self):
        assert ontodyn.evolve_basis_state(law([1, 2, 0]), 0, -1) == 2

    @pytest.mark.parametrize("k,t", [(3.0, 2), (1, 2.0), (True, 2), (np.int64(1), True)])
    def test_non_integer_state_or_time_is_refused(self, k, t):
        with pytest.raises(ValueError, match="state k and time t must be integers"):
            ontodyn.evolve_basis_state(law([1, 2, 0, 4, 3]), k, t)

    def test_numpy_integers_are_accepted(self):
        lw = law([1, 2, 0, 4, 3])
        assert ontodyn.evolve_basis_state(lw, np.int64(3), np.int32(3)) == 4
        assert np.array_equal(ontodyn.law_power(lw, np.int64(2)).image,
                              ontodyn.law_power(lw, 2).image)

    @pytest.mark.parametrize("t", [2.5, 2.0, True])
    def test_non_integer_power_is_refused(self, t):
        with pytest.raises(ValueError, match="power t must be an integer"):
            ontodyn.law_power(law([1, 2, 0]), t)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(n))), st.data(),
           st.one_of(st.integers(-40, 40), st.integers(-2 ** 80, 2 ** 80)))
    def test_equals_the_law_power(self, image, data, t):
        # t negative, and beyond int64, included
        lw = law(image)
        k = data.draw(st.integers(0, lw.size - 1))
        assert ontodyn.evolve_basis_state(lw, k, t) == ontodyn.law_power(lw, t).image[k]

    def test_ontology_conservation(self):
        # U^t applied to a basis state stays a single basis state of weight 1,
        # located where the orbit arithmetic says.
        rng = make_rng(3)
        for _ in range(25):
            size = int(rng.integers(2, 65))
            lw = law(random_law_image(rng, size))
            u = ontodyn.permutation_matrix(lw)
            k = int(rng.integers(size))
            t = int(rng.integers(-3 * size, 3 * size + 1))
            vec = np.zeros(size, dtype=np.int64)
            vec[k] = 1
            stepmat = u if t >= 0 else u.T
            for _ in range(abs(t)):
                vec = stepmat @ vec
            assert vec.sum() == 1 and vec.max() == 1
            assert int(np.argmax(vec)) == ontodyn.evolve_basis_state(lw, k, t)


class TestCycleSpectrum:
    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            ontodyn.cycle_spectrum(0)

    def test_trivial_cycle(self):
        spec = ontodyn.cycle_spectrum(1)
        assert np.allclose(spec.eigenvectors, [[1.0]])
        assert spec.eigenphases[0] == 1.0
        assert spec.energies[0] == 0.0

    def test_two_cycle_by_hand(self):
        spec = ontodyn.cycle_spectrum(2)
        assert np.allclose(sorted(spec.energies), [0.0, math.pi])
        r = 1 / math.sqrt(2)
        assert np.allclose(spec.eigenvectors[:, 0], [r, r])
        assert np.allclose(spec.eigenvectors[:, 1], [r, -r])

    def test_four_cycle_phases(self):
        spec = ontodyn.cycle_spectrum(4)
        assert np.allclose(spec.eigenphases, [1, -1j, -1, 1j], atol=1e-12)

    def test_shift_action_and_structure(self):
        rng = make_rng(4)
        for t in [1, 2, 3, 5, 8, 31] + [int(v) for v in rng.integers(2, 200, size=6)]:
            spec = ontodyn.cycle_spectrum(t)
            shift = ontodyn.permutation_matrix(law(np.roll(np.arange(t), -1)))
            action = shift @ spec.eigenvectors - spec.eigenvectors * spec.eigenphases
            assert np.abs(action).max() < 1e-10
            assert np.allclose(np.abs(spec.eigenvectors), 1 / math.sqrt(t), atol=1e-12)
            gram = spec.eigenvectors.conj().T @ spec.eigenvectors
            assert np.abs(gram - np.eye(t)).max() < 1e-10
            assert np.allclose(spec.energies, 2 * np.pi * np.arange(t) / t)


class TestSpectralDecomposition:
    def test_completeness(self):
        rng = make_rng(5)
        for size in (1, 7, 60, 200):
            lw = law(random_law_image(rng, size))
            dec = ontodyn.spectral_decomposition(lw)
            gram = dec.vectors.conj().T @ dec.vectors
            assert np.abs(gram - np.eye(size)).max() < 1e-10

    def test_reconstruction(self):
        rng = make_rng(6)
        for size in (3, 17, 64):
            lw = law(random_law_image(rng, size))
            dec = ontodyn.spectral_decomposition(lw)
            rebuilt = (dec.vectors * dec.eigenphases) @ dec.vectors.conj().T
            assert np.abs(rebuilt - ontodyn.permutation_matrix(lw)).max() < 1e-10

    def test_recursion_time(self):
        # U^L with L the lcm of ranks is the identity, exactly, in integers.
        rng = make_rng(7)
        for _ in range(10):
            lw = law(random_law_image(rng, int(rng.integers(1, 120))))
            ranks = ontodyn.decompose(lw).ranks
            l = math.lcm(*ranks)
            assert np.array_equal(ontodyn.law_power(lw, l).image, np.arange(lw.size))
            assert np.array_equal(
                ontodyn.permutation_matrix(ontodyn.law_power(lw, l)),
                np.eye(lw.size, dtype=np.int64))


class TestSerialization:
    def test_json_roundtrip(self):
        lw = ontodyn.load_law(fixture_path("figure1.json"))
        again = ontodyn.law_from_json(law_to_json(lw))
        assert np.array_equal(lw.image, again.image)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ontodyn.MalformedLawError):
            ontodyn.law_from_json('{"size": 3, "image": [0, 1]}')

    def test_missing_field(self):
        with pytest.raises(ValueError):
            ontodyn.law_from_json('{"image": [0, 1]}')

    def test_non_list_image_message(self):
        with pytest.raises(ValueError, match="'image' must be a list of integers, not 5"):
            ontodyn.law_from_json('{"size": 1, "image": 5}')

    def test_cycles_report_shape(self):
        report = ontodyn.cycles_report(ontodyn.decompose(law([1, 0, 2])))
        assert report == {"ranks": [1, 2], "cycles": [[0, 1], [2]]}

    def test_spectrum_csv(self):
        buf = io.StringIO()
        ontodyn.write_spectrum_csv(ontodyn.decompose(law([1, 0])), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "cycle_index,n,energy,re_phase,im_phase"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[:2] == ["0", "0"] and float(first[2]) == 0.0

    def test_spectrum_csv_rows_are_the_cycle_spectra(self):
        # cycles of lengths 1, 2, 3, 5 and 8, each listed from its smallest state
        decomp = ontodyn.decompose(law(np.concatenate([
            np.roll(np.arange(start, start + size), -1)
            for start, size in ((0, 1), (1, 2), (3, 3), (6, 5), (11, 8))])))
        buf = io.StringIO()
        ontodyn.write_spectrum_csv(decomp, buf)
        expected = ["cycle_index,n,energy,re_phase,im_phase"]
        for ci, cycle in enumerate(decomp.cycles):
            spec = ontodyn.cycle_spectrum(len(cycle))
            expected += [f"{ci},{n},{float(spec.energies[n])!r},"
                         f"{float(spec.eigenphases[n].real)!r},"
                         f"{float(spec.eigenphases[n].imag)!r}" for n in range(len(cycle))]
        assert buf.getvalue().splitlines() == expected

    def test_spectrum_csv_of_a_long_cycle_builds_no_eigenvectors(self):
        # cycle_spectrum(20_000) would need a 6.4 GB eigenvector matrix
        size = 20_000
        buf = io.StringIO()
        start = time.perf_counter()
        ontodyn.write_spectrum_csv(ontodyn.decompose(law(np.roll(np.arange(size), -1))), buf)
        assert time.perf_counter() - start < 10.0
        lines = buf.getvalue().splitlines()
        assert len(lines) == size + 1
        n = 12_345
        row = lines[n + 1].split(",")
        angle = 2.0 * math.pi * n / size
        assert row[:3] == ["0", str(n), repr(angle)]
        assert abs(float(row[3]) - math.cos(angle)) < 1e-12
        assert abs(float(row[4]) + math.sin(angle)) < 1e-12


class TestInputReaders:
    def test_document_that_is_not_an_object(self):
        with pytest.raises(ValueError, match=r"^permutation document must be a JSON object, "
                                             r"not \[1\]$"):
            ontodyn.law_from_json("[1]")

    def test_missing_field_is_named(self):
        with pytest.raises(ValueError, match="permutation document has no field 'size'"):
            ontodyn.law_from_json('{"image": [0, 1]}')

    def test_image_beyond_int64_is_malformed(self):
        with pytest.raises(ontodyn.MalformedLawError):
            ontodyn.law_from_json('{"size": 2, "image": [0, %d]}' % 2 ** 70)

    @pytest.mark.parametrize("value", [
        "x" * 10 ** 6, [5] * 10 ** 6, {str(i): i for i in range(1000)}, 7 ** 5000,
        [[[[["x" * 1000] * 50] * 50]]], 10 ** 5000],
        ids=["string", "list", "dict", "integer", "nested", "integer-beyond-str"])
    def test_shown_is_bounded(self, value):
        assert len(ontodyn.shown(value)) <= 100

    def test_shown_keeps_short_values_whole(self):
        assert ontodyn.shown([7]) == "[7]"
        assert ontodyn.shown("/tmp/a/b.json") == "'/tmp/a/b.json'"

    @pytest.mark.parametrize("value,message", [
        (True, "must be an integer, not True"),
        (2.0, "must be an integer, not 2.0"),
        ("2", "must be an integer, not '2'"),
        (-1, "must be at least 0, not -1"),
    ])
    def test_json_int(self, value, message):
        with pytest.raises(ValueError, match=f"^--n {message}$"):
            ontodyn.json_int(value, "--n", 0)

    def test_json_objects_names_the_entry(self):
        with pytest.raises(ValueError, match="^f entry 1 has no field 'b'$"):
            ontodyn.json_objects([{"a": 1, "b": 2}, {"a": 1}], "f", ("a", "b"))
        with pytest.raises(ValueError, match="^f entry 0 must be a JSON object, not 5$"):
            ontodyn.json_objects([5] * 100_000, "f")

    @pytest.mark.parametrize("value", [True, None, [1.0], "0.5", 10 ** 400])
    def test_json_real_refusals(self, value):
        with pytest.raises(ValueError, match="must be a number within float range"):
            ontodyn.json_real(value, "f")

    def test_json_real_reads_text_only_when_asked(self):
        assert math.isnan(ontodyn.json_real("nan", "f", text=True))
        assert ontodyn.json_real(3, "f") == 3.0 and type(ontodyn.json_real(3, "f")) is float
