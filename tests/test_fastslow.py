import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from ontosim import cli, fastslow, ontodyn, quantize
from ontosim.fixtures import fixture_path

from conftest import (free_energy_levels, make_rng, random_model, reference_cycles,
                      two_state_model, unflatten_config)


class TestSpecialPoint:
    def test_canonical_order(self):
        sp = fastslow.SpecialPoint(pair=(3, 1), trigger=(5, 2))
        assert sp.pair == (1, 3)
        assert sp.trigger == (2, 5)

    def test_self_pair_rejected(self):
        with pytest.raises(fastslow.ModelValidationError):
            fastslow.SpecialPoint(pair=(2, 2), trigger=(0, 0))


class TestModelValidation:
    @pytest.mark.parametrize("pair,trigger", [
        ((0.2, 1), (0, 0)), ((0, 1), (0, 0.9)), ((0, 1.0), (0, 0)), ((False, 1), (0, 0))])
    def test_special_point_refuses_non_integers(self, pair, trigger):
        # never truncated: pair (0.2, 1) is not pair (0, 1)
        with pytest.raises(fastslow.ModelValidationError, match="must be integers"):
            fastslow.SpecialPoint(pair=pair, trigger=trigger)

    @pytest.mark.parametrize("slow_count,periods", [
        (2.0, (10, 7)), (2, (10.9, 7)), (2, (10, np.float64(7))), (True, (10,))])
    def test_model_refuses_non_integers(self, slow_count, periods):
        with pytest.raises(fastslow.ModelValidationError, match="must be integers"):
            fastslow.OntologicalModel(slow_count=slow_count, periods=periods)

    def test_numpy_integers_are_stored_as_python_integers(self):
        m = fastslow.OntologicalModel(
            slow_count=np.int64(2), periods=(np.int32(10), 7),
            special_points=(fastslow.SpecialPoint(pair=(np.int64(1), 0),
                                                  trigger=(np.uint8(3), 4)),))
        assert type(m.slow_count) is int and all(type(p) is int for p in m.periods)
        assert m.special_points[0] == fastslow.SpecialPoint(pair=(0, 1), trigger=(4, 3))
        assert all(type(v) is int for v in (*m.special_points[0].pair,
                                            *m.special_points[0].trigger))

    @pytest.mark.parametrize("table", [np.zeros((1, 4)), np.zeros((1, 3), dtype=np.int64)])
    def test_point_table_must_be_k_by_4_signed_integers(self, table):
        with pytest.raises(fastslow.ModelValidationError, match=r"\(K, 4\) array of signed"):
            fastslow.OntologicalModel(slow_count=2, periods=(5, 5), special_points=table)

    def test_no_slow_states(self):
        with pytest.raises(fastslow.ModelValidationError, match="slow_count must be >= 1"):
            fastslow.OntologicalModel(slow_count=0, periods=())

    def test_period_count_mismatch(self):
        with pytest.raises(fastslow.ModelValidationError):
            fastslow.OntologicalModel(slow_count=2, periods=(5,))

    def test_unknown_state_in_point(self):
        with pytest.raises(fastslow.ModelValidationError):
            fastslow.OntologicalModel(
                slow_count=2, periods=(5, 5),
                special_points=(fastslow.SpecialPoint(pair=(0, 2), trigger=(0, 0)),))

    def test_trigger_out_of_range(self):
        with pytest.raises(fastslow.ModelValidationError):
            fastslow.OntologicalModel(
                slow_count=2, periods=(5, 5),
                special_points=(fastslow.SpecialPoint(pair=(0, 1), trigger=(0, 5)),))

    def test_duplicate_point_rejected(self):
        sp = fastslow.SpecialPoint(pair=(0, 1), trigger=(0, 0))
        with pytest.raises(fastslow.ConflictingSwapError):
            fastslow.OntologicalModel(slow_count=2, periods=(4, 4),
                                      special_points=(sp, sp))

    def test_shared_clock_collision_rejected(self):
        # both points would fire when clock 1 reads 2: state 1 gets two swaps
        points = (fastslow.SpecialPoint(pair=(0, 1), trigger=(0, 2)),
                  fastslow.SpecialPoint(pair=(1, 2), trigger=(2, 3)))
        with pytest.raises(fastslow.ConflictingSwapError):
            fastslow.OntologicalModel(slow_count=3, periods=(5, 5, 5),
                                      special_points=points)

    def test_same_pair_distinct_triggers_allowed(self):
        points = (fastslow.SpecialPoint(pair=(0, 1), trigger=(0, 0)),
                  fastslow.SpecialPoint(pair=(0, 1), trigger=(0, 1)))
        m = fastslow.OntologicalModel(slow_count=2, periods=(12, 12),
                                      special_points=points)
        assert len(m.special_points) == 2

    def test_small_period_warns(self):
        with pytest.warns(fastslow.FastPeriodWarning):
            fastslow.OntologicalModel(slow_count=1, periods=(3,))

    @pytest.mark.parametrize("periods,listed", [
        ((3, 12, 7), "[3, 7]"),
        ((1,) * 6, "[1, 1, 1, 1, 1, 1]"),
        ((1,) * 100_000, "[1, 1, 1, 1, 1, 1, ...] (100000 of them)"),
    ])
    def test_small_period_warning_is_bounded(self, periods, listed):
        with pytest.warns(fastslow.FastPeriodWarning) as record:
            fastslow.OntologicalModel(slow_count=len(periods), periods=periods)
        assert str(record[0].message) == (
            f"clock periods {listed} are below 10; the fast/slow separation is marginal")

    def test_small_period_warning_names_the_constructing_line(self):
        with pytest.warns(fastslow.FastPeriodWarning) as record:
            fastslow.OntologicalModel(slow_count=1, periods=(3,))
        assert record[0].filename == __file__


class TestStep:
    def test_free_rotation(self):
        m = fastslow.OntologicalModel(slow_count=1, periods=(10,))
        out = fastslow.step(m, fastslow.ClassicalConfig(slow=0, phases=(3,)))
        assert out == fastslow.ClassicalConfig(slow=0, phases=(4,))

    def test_hand_traced_swap(self):
        m = two_state_model(2, 3)
        out = fastslow.step(m, fastslow.ClassicalConfig(slow=0, phases=(1, 2)))
        assert out == fastslow.ClassicalConfig(slow=1, phases=(0, 0))

    def test_poincare_recursion(self):
        m = fastslow.OntologicalModel(
            slow_count=2, periods=(3, 5),
            special_points=(fastslow.SpecialPoint(pair=(0, 1), trigger=(1, 2)),))
        order = math.lcm(*fastslow.check_bijectivity(m).ranks)
        start = fastslow.ClassicalConfig(slow=0, phases=(2, 4))
        cfg = start
        for _ in range(order):
            cfg = fastslow.step(m, cfg)
        assert cfg == start
        assert (m.ontic_space_size * order) % order == 0  # N * prod(periods) * L form

    def test_bad_config_rejected(self):
        m = two_state_model(4, 4)
        with pytest.raises(fastslow.ConfigError):
            fastslow.step(m, fastslow.ClassicalConfig(slow=2, phases=(0, 0)))
        with pytest.raises(fastslow.ConfigError):
            fastslow.step(m, fastslow.ClassicalConfig(slow=0, phases=(0, 4)))
        with pytest.raises(fastslow.ConfigError):
            fastslow.step(m, fastslow.ClassicalConfig(slow=0, phases=(0,)))

    @pytest.mark.parametrize("config", [
        fastslow.ClassicalConfig(0.5, (1.5, 2)),
        fastslow.ClassicalConfig(True, (1, 2)),
        fastslow.ClassicalConfig(0, (1, 2.0)),
    ], ids=["float_state_and_phase", "bool_state", "float_phase"])
    def test_a_config_of_non_integers_is_refused(self, config):
        # once coerced: the first stepped as (0, (1, 2)), the second as state 1
        with pytest.raises(fastslow.ConfigError, match="must be integers"):
            fastslow.step(two_state_model(10, 7), config)

    def test_numpy_integers_step_as_ints(self):
        m = two_state_model(10, 7)
        config = fastslow.ClassicalConfig(np.int64(1), (np.int32(9), np.int64(6)))
        assert fastslow.step(m, config) == fastslow.step(m, fastslow.ClassicalConfig(1, (9, 6)))


class TestCheckBijectivity:
    def test_free_single_state(self):
        m = fastslow.OntologicalModel(slow_count=1, periods=(7,))
        assert fastslow.check_bijectivity(m).ranks == (7,)

    def test_two_state_point(self):
        m = fastslow.OntologicalModel(
            slow_count=2, periods=(3, 5),
            special_points=(fastslow.SpecialPoint(pair=(0, 1), trigger=(0, 0)),))
        d = fastslow.check_bijectivity(m)
        assert sum(d.ranks) == 2 * 15

    def test_reversibility_property(self):
        rng = make_rng(11)
        for _ in range(25):
            m = random_model(rng)
            d = fastslow.check_bijectivity(m)
            assert sum(d.ranks) == m.ontic_space_size

    def test_size_cap(self):
        m = fastslow.OntologicalModel(slow_count=1, periods=(fastslow.ENUMERATION_CAP + 1,))
        with pytest.raises(ontodyn.SizeCapError):
            fastslow.check_bijectivity(m)

    def test_memory_per_state(self):
        # the listing is one int64 per state; no Python object per state is
        # built, and the working arrays stay within a few int64s per state
        m = two_state_model(571, 569)
        states = m.ontic_space_size
        assert states == 649_798
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            d = fastslow.check_bijectivity(m)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(d.ranks) == states
        assert (retained - before) / states <= 10
        assert (peak - before) / states <= 18

    def test_step_table_is_int32_and_the_law_int64(self):
        m = two_state_model(571, 569)
        assert fastslow.step_tables(m).dtype == np.int32
        assert fastslow.step_map(m).image.dtype == np.int64


class TestOrbitPlaces:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    @example([1])
    @example([6, 6])
    @example([4, 6, 10])
    @example([1, 12, 1, 8])
    @example([40, 38, 36, 35])
    def test_inverts_the_tick_orbit_table(self, periods):
        model = fastslow.OntologicalModel(len(periods), tuple(periods))
        table = fastslow._tick_orbits(model).reshape(-1)
        places = fastslow._orbit_places(
            model.periods, fastslow._phase_rows(model.periods, np.arange(table.size)))
        assert places.dtype == np.int64
        assert np.array_equal(places[table], np.arange(table.size))


def _swapped(image: np.ndarray, i: int, j: int) -> np.ndarray:
    image[[i, j]] = image[[j, i]]
    return image


def _retargeted(image: np.ndarray, p: int, slows: dict) -> np.ndarray:
    """Config k steps to slow state ``slows[k]``, at the phase it ticks to."""
    for k, slow in slows.items():
        image[k] = slow * p + image[k] % p
    return image


def coupled(size: int, magnitudes: dict) -> np.ndarray:
    target = np.zeros((size, size), dtype=complex)
    for (a, b), x in magnitudes.items():
        target[a, b], target[b, a] = 1j * x, -1j * x
    return target


class TestCycleListing:
    """check_bijectivity lists the cycles from the tick orbits; the generic
    walk of the step map is its oracle."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_equals_the_walk_of_the_step_map(self, seed):
        # 1-4 slow states, periods 1-12, 0-6 points
        model = random_model(make_rng(seed), min_period=1, max_period=12, max_points=6)
        assert fastslow.check_bijectivity(model) == reference_cycles(model)

    @pytest.mark.parametrize("periods,points", [
        ((6, 6), [((0, 1), (0, 0))]),  # equal periods: 6 orbits
        ((5, 7, 11), [((0, 2), (1, 3))]),  # coprime: one orbit
        ((1, 9), [((0, 1), (0, 4))]),
        ((2, 3), [((0, 1), (1, 2))]),
        ((1, 1, 1, 1), []),
        ((4, 6, 4), [((0, 1), (1, 2)), ((1, 2), (3, 0)), ((0, 1), (3, 5))]),
    ])
    def test_equals_the_walk_on_chosen_periods(self, periods, points):
        model = fastslow.OntologicalModel(len(periods), periods, tuple(
            fastslow.SpecialPoint(pair, trigger) for pair, trigger in points))
        assert fastslow.check_bijectivity(model) == reference_cycles(model)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.005, 0.3), st.floats(0.005, 0.3), st.booleans(), st.integers(3, 16))
    def test_equals_the_walk_on_compiled_models(self, x01, x12, chain, max_period):
        target = (coupled(3, {(0, 1): x01, (1, 2): x12}) if chain
                  else coupled(2, {(0, 1): x01}))
        try:
            model = quantize.compile_target(target, 1e-2, max_period if chain else 4 * max_period)
        except quantize.UnreachableToleranceError:
            reject()
        assert fastslow.check_bijectivity(model) == reference_cycles(model)

    @staticmethod
    def machine():
        return fastslow.OntologicalModel(3, (4, 6, 5), (
            fastslow.SpecialPoint((0, 1), (1, 2)), fastslow.SpecialPoint((1, 2), (3, 0))))

    @staticmethod
    def tamper(monkeypatch, model, change) -> np.ndarray:
        """Make step_tables return the model's image changed by ``change``."""
        image = change(fastslow.step_tables(model).copy(), model.phase_space_size)
        monkeypatch.setattr(fastslow, "step_tables", lambda m: image)
        return image

    @pytest.mark.parametrize("change", [
        lambda image, p: _swapped(image, 3, 17),  # the tick skips ahead on two configs
        lambda image, p: _swapped(image, 5, 2 * p + 11),  # ... and changes slow state
        lambda image, p: (image + 1) % image.size,
        lambda image, p: np.where(np.arange(image.size) == 7, image[8], image),  # no bijection
        lambda image, p: np.where(image < p, image + p, image),  # ticks, but no bijection
        # ticks, and the runs' ends still reach distinct runs, but one end
        # steps into the middle of a run
        lambda image, p: _retargeted(image, p, {p + 44: 0, 69: 2}),
        # ticks, and lands on a run's start, which another end reaches too
        lambda image, p: _retargeted(image, p, {2 * p + 119: 0}),
    ], ids=["swap_in_row", "swap_across_rows", "shift", "duplicate", "tick_into_one_state",
            "end_into_mid_run", "end_onto_a_reached_start"])
    def test_a_step_map_that_breaks_the_tick_is_refused(self, monkeypatch, change):
        model = self.machine()
        self.tamper(monkeypatch, model, change)
        with pytest.raises(RuntimeError, match="tick orbits"):
            fastslow.check_bijectivity(model)

    @pytest.mark.parametrize("place", [
        fastslow.CHUNK - 1, fastslow.CHUNK, -2, -1,
    ], ids=["chunk_end", "chunk_start", "last_compared", "last"])
    def test_a_step_into_the_other_slow_state_is_refused_at_chunk_edges(
            self, monkeypatch, place):
        # one orbit per slow state, the only swap 100 ticks in; the config at
        # ``place`` in tick order steps to the other slow state instead
        model = two_state_model(257, 263, trigger=(100, 100))
        p = model.phase_space_size
        states = (np.arange(2)[:, None] * p + fastslow._tick_orbits(model)).reshape(-1)
        assert states.size > fastslow.CHUNK + 1
        config = int(states[place])
        self.tamper(monkeypatch, model,
                    lambda image, p: _retargeted(image, p, {config: 1 - config // p}))
        with pytest.raises(ontodyn.InternalCheckError, match="tick orbits"):
            fastslow.check_bijectivity(model)

    def test_the_listing_follows_the_image_not_the_model(self, monkeypatch):
        # one more swap on pair (0, 1) keeps the tick: the image is still a
        # machine's, and its cycles are listed
        model = self.machine()
        untouched = reference_cycles(model)
        image = self.tamper(monkeypatch, model, lambda image, p: _swapped(image, 5, p + 5))
        listed = fastslow.check_bijectivity(model)
        assert listed == ontodyn.decompose(ontodyn.PermutationLaw(image)) != untouched

    def test_cli_cycles_writes_the_oracle_report(self, tmp_path):
        model = random_model(make_rng(23), min_slow=3, max_slow=3, min_points=3)
        path = tmp_path / "model.json"
        path.write_text(fastslow.model_to_json(model))
        out = tmp_path / "cycles.json"
        assert cli.main(["cycles", "--input", str(path), "--output", str(out)]) == 0
        expected = json.dumps(ontodyn.cycles_report(reference_cycles(model))) + "\n"
        assert out.read_bytes() == expected.encode()


class TestFreeSpectrumStructure:
    def test_cycles_have_joint_period(self):
        rng = make_rng(12)
        for _ in range(8):
            n = int(rng.integers(1, 3))
            periods = tuple(int(rng.integers(2, 9)) for _ in range(n))
            if np.prod(periods) > 512:
                continue
            m = fastslow.OntologicalModel(slow_count=n, periods=periods)
            d = fastslow.check_bijectivity(m)
            joint = math.lcm(*periods)
            assert set(d.ranks) == {joint}

    def test_enumerated_phases_match_direct_sum(self):
        # eigenphase multiset of the step map == exp(-1j * direct-sum levels)
        for n, periods in [(1, (4, 6)), (2, (2, 3)), (1, (5, 5)), (2, (8, 12))]:
            if n != len(periods):
                periods = periods[:n] if n < len(periods) else periods + (3,) * (n - len(periods))
            m = fastslow.OntologicalModel(slow_count=len(periods), periods=periods)
            d = fastslow.check_bijectivity(m)
            enumerated = np.concatenate([
                ontodyn.cycle_spectrum(r).eigenphases for r in
                [len(c) for c in d.cycles]])
            direct = np.exp(-1j * free_energy_levels(m))
            enumerated = np.sort_complex(np.round(enumerated, 10))
            direct = np.sort_complex(np.round(direct, 10))
            assert np.abs(enumerated - direct).max() < 1e-10

    def test_ground_level_unique_per_slow_state(self):
        for periods in [(4, 6), (5, 7, 2), (9,)]:
            m = fastslow.OntologicalModel(slow_count=len(periods), periods=periods)
            levels = free_energy_levels(m)
            zeros = np.sum(np.abs(levels) < 1e-12)
            assert zeros == m.slow_count
            positive = levels[levels > 1e-12]
            assert positive.min() >= 2 * np.pi / max(periods) - 1e-12


class TestEnsembles:
    def test_free_model_stays_put(self):
        m = fastslow.OntologicalModel(slow_count=2, periods=(11, 13))
        freq = fastslow.run_ensemble(m, 0, 20, 50, seed=1)
        assert np.array_equal(freq[:, 0], np.ones(21))

    def test_seed_determinism(self):
        m = two_state_model(10, 7)
        a = fastslow.run_ensemble(m, 0, 30, 500, seed=99)
        b = fastslow.run_ensemble(m, 0, 30, 500, seed=99)
        assert np.array_equal(a, b)
        c = fastslow.run_ensemble(m, 0, 30, 500, seed=100)
        assert not np.array_equal(a, c)

    def test_matches_exact_enumeration_within_binomial_error(self):
        m = two_state_model(10, 7)
        samples = 10_000
        freq = fastslow.run_ensemble(m, 0, 35, samples, seed=5)
        exact = fastslow.enumerate_exact(m, 0, 35).fractions
        sigma = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / samples)
        assert np.all(np.abs(freq - exact) <= 4 * sigma + 1e-12)

    def test_full_flip_after_joint_period(self):
        m = two_state_model(5, 4)  # coprime
        freq = fastslow.run_ensemble(m, 0, 20, 200, seed=3)
        assert freq[20, 1] == 1.0


class TestEnumerateExact:
    def test_free_model(self):
        m = fastslow.OntologicalModel(slow_count=3, periods=(4, 3, 2))
        occ = fastslow.enumerate_exact(m, 1, 10)
        assert np.array_equal(occ.counts[:, 1], np.full(11, occ.total))

    def test_two_state_linear_flip_counts(self):
        # coprime clocks hit the trigger exactly once per joint period, and
        # the hit times sweep every residue: the flipped count is exactly t.
        m = two_state_model(10, 7)
        occ = fastslow.enumerate_exact(m, 0, 70)
        assert occ.total == 70
        assert np.array_equal(occ.counts[:, 1], np.arange(71))
        half = (10 * 7) // 2
        assert occ.counts[half, 1] * 1 == half  # exact fraction half/(N0*N1)

    def test_two_points_flip_twice_per_period(self):
        m = fastslow.OntologicalModel(
            slow_count=2, periods=(5, 3),
            special_points=(fastslow.SpecialPoint(pair=(0, 1), trigger=(0, 0)),
                            fastslow.SpecialPoint(pair=(0, 1), trigger=(2, 1)),))
        joint = 15
        image = fastslow.step_map(m).image
        state = np.arange(15)  # slow state 0 with every phase combination
        flips = np.zeros(15, dtype=np.int64)
        for _ in range(joint):
            before = state // 15
            state = image[state]
            flips += before != state // 15
        assert np.all(flips == 2)

    def test_memory_does_not_grow_with_horizon(self):
        # 133 x 177 clocks with 4496 points: every 5th row-step is a state change
        target = np.array([[0.0, -0.3j], [0.3j, 0.0]])
        m = quantize.compile_target(target, 1e-6, 200)
        assert (m.periods, len(m.special_points)) == ((133, 177), 4496)
        peaks = []
        for horizon in (70, 2000):
            tracemalloc.start()
            try:
                fastslow.enumerate_exact(m, 0, horizon)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 16 * 2 ** 20
        assert peaks[1] < 2 * peaks[0]

    def test_size_cap(self):
        m = fastslow.OntologicalModel(slow_count=1, periods=(fastslow.ENUMERATION_CAP + 1,))
        with pytest.raises(ontodyn.SizeCapError):
            fastslow.enumerate_exact(m, 0, 1)


class TestSerialization:
    def test_fixture_roundtrip(self):
        m = fastslow.load_model(fixture_path("two_state_10_7.json"))
        assert m.slow_count == 2 and m.periods == (10, 7)
        again = fastslow.model_from_json(fastslow.model_to_json(m))
        assert again == m

    def test_missing_field(self):
        with pytest.raises(ValueError):
            fastslow.model_from_json('{"periods": [3]}')

    def test_ensemble_csv_header(self):
        buf = io.StringIO()
        fastslow.write_ensemble_csv(np.array([[1.0, 0.0], [0.5, 0.5]]), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,state_0_freq,state_1_freq"
        assert lines[1] == "0,1.0,0.0"


class TestFlatIndexing:
    def test_documented_order(self):
        m = fastslow.OntologicalModel(slow_count=2, periods=(3, 4))
        # slow major, then clock 0, then clock 1
        assert fastslow.flat_config(m, 1, (2, 3)) == 1 * 12 + 2 * 4 + 3
        cfg = unflatten_config(m, 23)
        assert cfg == fastslow.ClassicalConfig(slow=1, phases=(2, 3))
        for flat in range(m.ontic_space_size):
            c = unflatten_config(m, flat)
            assert fastslow.flat_config(m, c.slow, c.phases) == flat


class TestInputChecks:
    def test_document_that_is_not_an_object(self):
        with pytest.raises(ValueError, match=r"^model document must be a JSON object, not \[1\]$"):
            fastslow.model_from_json("[1]")

    def test_missing_point_field_is_named(self):
        doc = '{"slow_count": 2, "periods": [3, 4], "special_points": [{"pair": [0, 1]}]}'
        with pytest.raises(ValueError, match="'special_points' entry 0 has no field 'trigger'"):
            fastslow.model_from_json(doc)

    @pytest.mark.parametrize("sample_count,horizon", [
        (fastslow.ENUMERATION_CAP + 1, 3),
        (5, fastslow.ENUMERATION_CAP // 2),  # (horizon + 1) * 2 table entries
    ])
    def test_run_caps(self, sample_count, horizon):
        with pytest.raises(ontodyn.SizeCapError, match="exceeds enumeration cap"):
            fastslow.run_ensemble(two_state_model(11, 13), 0, horizon, sample_count, seed=1)

    @pytest.mark.parametrize("initial,horizon,samples,error", [
        (True, 5, 10, "unknown slow state True"),
        (0.0, 5, 10, "unknown slow state 0.0"),
        (0, 5.0, 10, "horizon must be an integer >= 0, not 5.0"),
        (0, True, 10, "horizon must be an integer >= 0, not True"),
        (0, 5, 10.0, "sample_count must be an integer >= 1, not 10.0"),
        (0, 5, True, "sample_count must be an integer >= 1, not True"),
    ])
    def test_run_arguments_that_are_not_integers_are_refused(
            self, initial, horizon, samples, error):
        m = two_state_model(10, 7)
        kind = fastslow.ConfigError if "slow state" in error else ValueError
        with pytest.raises(kind, match=f"^{error}$") as refused:
            fastslow.run_ensemble(m, initial, horizon, samples, seed=1)
        assert refused.type is kind
        if "sample_count" not in error:  # enumerate_exact takes no sample count
            with pytest.raises(kind, match=f"^{error}$"):
                fastslow.enumerate_exact(m, initial, horizon)

    def test_table_cap_of_the_exact_count(self):
        with pytest.raises(ontodyn.SizeCapError, match="occupation table"):
            fastslow.enumerate_exact(two_state_model(11, 13), 0, fastslow.ENUMERATION_CAP // 2)

    def test_period_cap(self):
        # orbit keys 2 * P_a * P_b of a larger period would not fit int64
        m = fastslow.OntologicalModel(2, (fastslow.PERIOD_CAP + 1, 3),
                                      (fastslow.SpecialPoint((0, 1), (0, 0)),))
        with pytest.raises(ontodyn.SizeCapError, match="clock period"):
            fastslow.run_ensemble(m, 0, 5, 10, seed=1)
        m = fastslow.OntologicalModel(2, (fastslow.PERIOD_CAP, 3),
                                      (fastslow.SpecialPoint((0, 1), (0, 0)),))
        assert fastslow.run_ensemble(m, 0, 5, 10, seed=1).shape == (6, 2)
