import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eerpms import (
    AngleHistogram,
    BatParams,
    BatSwarm,
    ObjectiveWeights,
    exhaustive_best_threshold,
    objective_f1,
    optimize_thresholds,
)
from eerpms.bat import _repair_many

HALF = ObjectiveWeights(0.5, 0.5)


def cascade_repair(row, bins):
    """Per-column repair in plain Python: clamp, sort, push up, pull down."""
    v = sorted(min(max(int(x), 1), bins - 1) for x in row)
    for j in range(1, len(v)):
        v[j] = max(v[j], v[j - 1] + 1)
    v[-1] = min(v[-1], bins - 1)
    for j in range(len(v) - 2, -1, -1):
        v[j] = min(v[j], v[j + 1] - 1)
    return v


def repair_one(raw, bins):
    """One bat position through `_repair_many`, checked against `cascade_repair`."""
    got = _repair_many(np.array([raw], dtype=np.int64), bins)[0].tolist()
    assert got == cascade_repair(raw, bins), (raw, bins)
    return got


class TestRepairPosition:
    """One bat position: a single row of `_repair_many`."""

    def test_clamp_and_sort(self):
        assert repair_one([400, -3, 90], 360) == [1, 90, 359]

    def test_duplicates_cascade_upward(self):
        assert repair_one([90, 90, 90], 360) == [90, 91, 92]

    def test_full_top_wraps_downward(self):
        assert repair_one([359, 359], 360) == [358, 359]

    def test_valid_input_unchanged(self):
        assert repair_one([10, 20, 30], 360) == [10, 20, 30]

    @settings(max_examples=100)
    @given(
        raw=st.lists(st.integers(-1000, 1000), min_size=1, max_size=9),
        bins=st.integers(16, 400),
    )
    def test_always_valid_and_idempotent(self, raw, bins):
        t = repair_one(raw, bins)
        assert all(1 <= v <= bins - 1 for v in t)
        assert all(b > a for a, b in zip(t, t[1:]))
        assert repair_one(t, bins) == t


def random_raw(rng, rows, dim, bins):
    """Raw thresholds: in range, just outside it, and far outside it."""
    spread = int(rng.choice([bins, 3 * bins, 10**15]))
    return rng.integers(-spread, spread + 1, size=(rows, dim))


class TestRepairMany:
    def test_matches_plain_cascade(self):
        rng = np.random.default_rng(2024)
        for bins in (2, 3, 4, 5, 8, 36, 360):
            dims = set(range(1, min(bins - 1, 12) + 1)) | {bins - 1}
            for dim in sorted(dims):
                for _ in range(8):
                    raw = random_raw(rng, int(rng.integers(1, 40)), dim, bins)
                    got = _repair_many(raw, bins)
                    want = [cascade_repair(row, bins) for row in raw.tolist()]
                    assert got.tolist() == want, (bins, dim, raw.tolist())

    def test_stacked_call_equals_separate_calls(self):
        rng = np.random.default_rng(7)
        for bins, dim in ((2, 1), (36, 5), (360, 9), (12, 11)):
            a = random_raw(rng, 30, dim, bins)
            b = random_raw(rng, 30, dim, bins)
            both = _repair_many(np.vstack((a, b)), bins)
            np.testing.assert_array_equal(both[:30], _repair_many(a, bins))
            np.testing.assert_array_equal(both[30:], _repair_many(b, bins))


def toy_histogram(seed=0, bins=36):
    rng = np.random.default_rng(seed)
    return AngleHistogram(rng.integers(1, 20, size=bins))


class TestOptimizeThresholds:
    def test_k_one_short_circuits(self):
        h = toy_histogram()
        t, v = optimize_thresholds(h, 1, HALF, BatParams(seed=1))
        assert t.thresholds == ()
        assert v == pytest.approx(objective_f1(h, t, HALF))

    def test_deterministic_per_seed(self):
        h = toy_histogram(3)
        a = optimize_thresholds(h, 3, HALF, BatParams(seed=77))
        b = optimize_thresholds(h, 3, HALF, BatParams(seed=77))
        assert a == b

    def test_bimodal_matches_exhaustive(self):
        h = AngleHistogram([5, 0, 0, 5])
        _, v = optimize_thresholds(h, 2, HALF, BatParams(seed=9))
        _, best = exhaustive_best_threshold(h, 2, HALF)
        assert v == pytest.approx(best, rel=1e-12)

    def test_near_oracle_quality_across_seeds(self):
        rng = np.random.default_rng(123)
        hits = 0
        for _ in range(25):
            h = AngleHistogram(rng.integers(1, 20, size=36))
            k = int(rng.integers(2, 5))
            _, best = exhaustive_best_threshold(h, k, HALF)
            _, found = optimize_thresholds(h, k, HALF,
                                           BatParams(seed=int(rng.integers(2**63))))
            hits += found >= 0.99 * best
        assert hits >= 24

    def test_one_run_builds_the_segment_table_once(self, monkeypatch):
        built = []
        build = AngleHistogram.segment_table.func

        def counted(h):
            built.append(h)
            return build(h)
        table = functools.cached_property(counted)
        table.__set_name__(AngleHistogram, "segment_table")
        monkeypatch.setattr(AngleHistogram, "segment_table", table)
        h = toy_histogram(11, bins=360)
        optimize_thresholds(h, 10, HALF, BatParams(seed=5))
        assert built == [h]

    def test_result_is_valid_threshold_set(self):
        h = toy_histogram(11, bins=360)
        t, _ = optimize_thresholds(h, 10, HALF, BatParams(seed=5))
        t.validate_for(360)
        assert t.k == 10


class TestSwarmDynamics:
    def test_elitist_best_never_decreases(self):
        swarm = BatSwarm(toy_histogram(21), 4, HALF, BatParams(seed=4))
        initial_best = swarm.best_objective
        for _ in range(60):
            swarm.step()
        history = swarm.best_history
        assert all(b >= a for a, b in zip(history, history[1:]))
        assert swarm.best_objective >= initial_best

    def test_loudness_decays_and_pulse_grows(self):
        # small population on a rugged histogram so the seeded start is
        # improvable and acceptance events actually fire
        rng = np.random.default_rng(0)
        h = AngleHistogram(rng.integers(1, 30, size=48))
        swarm = BatSwarm(h, 4, HALF, BatParams(population=4, seed=0))
        loud_prev = swarm.loudness.copy()
        pulse_prev = swarm.pulse.copy()
        any_acceptance = False
        for _ in range(80):
            swarm.step()
            assert (swarm.loudness <= loud_prev + 1e-15).all()
            assert (swarm.pulse >= pulse_prev - 1e-15).all()
            any_acceptance |= (swarm.loudness < loud_prev).any()
            loud_prev = swarm.loudness.copy()
            pulse_prev = swarm.pulse.copy()
        assert any_acceptance
        assert (swarm.pulse <= swarm.params.pulse0).all()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), k=st.integers(2, 6))
    def test_positions_always_valid(self, seed, k):
        swarm = BatSwarm(toy_histogram(seed % 7), k, HALF, BatParams(seed=seed))
        for _ in range(10):
            swarm.step()
            pos = swarm.positions
            assert (pos >= 1).all() and (pos <= swarm.histogram.bin_count - 1).all()
            assert (np.diff(pos, axis=1) >= 1).all()

    def test_rejects_degenerate_k(self):
        with pytest.raises(ValueError):
            BatSwarm(toy_histogram(), 1, HALF, BatParams(seed=0))
        with pytest.raises(ValueError):
            BatSwarm(toy_histogram(bins=4), 6, HALF, BatParams(seed=0))


class TestBatParamsValidation:
    def test_bad_population(self):
        with pytest.raises(ValueError):
            BatParams(population=1)

    def test_bad_frequency_bounds(self):
        with pytest.raises(ValueError):
            BatParams(s_min=3.0, s_max=1.0)

    @pytest.mark.parametrize("name", ["s_min", "s_max", "loudness0", "gamma_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            BatParams(**{name: value})

    def test_bad_decay(self):
        with pytest.raises(ValueError):
            BatParams(epsilon_decay=1.0)
        with pytest.raises(ValueError):
            BatParams(epsilon_decay=0.0)

    def test_bad_pulse(self):
        with pytest.raises(ValueError):
            BatParams(pulse0=1.5)
