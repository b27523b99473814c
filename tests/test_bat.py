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
    ThresholdSet,
    exhaustive_best_threshold,
    optimize_thresholds,
)
from eerpms import bat
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
                    before = raw.copy()
                    got = _repair_many(raw, bins)
                    want = [cascade_repair(row, bins) for row in raw.tolist()]
                    assert got.tolist() == want, (bins, dim, raw.tolist())
                    assert np.array_equal(raw, before)  # the argument is left as it was

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
        assert v == pytest.approx(HALF.alpha2)  # one segment: f1 = f2 = 0

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError) as info:
            optimize_thresholds(toy_histogram(), 0, HALF, BatParams(seed=1))
        assert str(info.value) == "k must be at least 1"

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


def reference_repair(raw, bins):
    """The two-pass repair: clamp, sort, running max up, clamp the top,
    running min down, all on a fresh array."""
    arr = np.minimum(np.maximum(np.asarray(raw, dtype=np.int64), 1), bins - 1)
    arr.sort(axis=1)
    j = np.arange(arr.shape[1])
    arr = np.maximum.accumulate(arr - j, axis=1) + j
    arr[:, -1] = np.minimum(arr[:, -1], bins - 1)
    return np.minimum.accumulate((arr - j)[:, ::-1], axis=1)[:, ::-1] + j


def reference_objectives(h, tmat, w):
    """The objective with its f2 summands recomputed on every call."""
    batch, dim = tmat.shape
    k = dim + 1
    rank, f1_terms, seg_counts = h.segment_table
    ranks = np.column_stack((np.zeros(batch, dtype=np.int64), rank[tmat],
                             np.full(batch, rank[-1])))
    seg = ranks[:, :-1] * (rank[-1] + 1) + ranks[:, 1:]
    f1 = np.sum(f1_terms[seg], axis=1)
    f2 = np.sum((seg_counts[seg] - h.total / k) ** 2, axis=1) / h.total
    f1_norm = f1 / h.variance if h.variance > 0 else np.zeros(batch)
    return w.alpha1 * f1_norm + w.alpha2 * (1.0 / (1.0 + f2))


def reference_step(s):
    """One bat iteration with four separate draws and np.where selections,
    every array replaced rather than updated in place."""
    p, rng = s.params, s.rng
    pop, dim = s.positions.shape
    t = s.iteration + 1
    freq = p.s_min + (p.s_max - p.s_min) * rng.random((pop, dim))
    s.velocities = s.velocities + (s.positions - s.best_position) * freq
    flight_raw = np.ceil(s.positions + s.velocities).astype(np.int64)
    walk_draw = rng.random(pop)
    steps = rng.uniform(-1.0, 1.0, (pop, dim)) * (s.loudness.sum() / pop)
    walk_raw = np.rint(s.best_position + steps).astype(np.int64)
    repaired = reference_repair(np.vstack((flight_raw, walk_raw)), s.histogram.bin_count)
    flight, walk = repaired[:pop], repaired[pop:]
    s.positions = flight
    candidates = np.where((walk_draw > s.pulse)[:, None], walk, flight)
    objectives = reference_objectives(s.histogram, candidates, s.weights)
    accept = (rng.random(pop) < s.loudness) & (objectives > s.best_objective)
    s.positions = np.where(accept[:, None], candidates, s.positions)
    s.loudness = np.where(accept, s.loudness * p.epsilon_decay, s.loudness)
    s.pulse = np.where(accept, p.pulse0 * (1.0 - math.exp(-p.gamma_rate * t)), s.pulse)
    best = int(np.argmax(objectives))
    if objectives[best] > s.best_objective:
        s.best_objective = float(objectives[best])
        s.best_position = candidates[best].copy()
    s.iteration = t
    s.best_history.append(s.best_objective)


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_state(swarm, ref):
    for name in ("positions", "velocities", "loudness", "pulse", "best_position"):
        assert bitwise_equal(getattr(swarm, name), getattr(ref, name)), name
    assert swarm.best_objective == ref.best_objective
    assert swarm.best_history == ref.best_history
    assert swarm.iteration == ref.iteration


def run_in_lockstep(swarm, ref, steps):
    """Step `swarm` and `ref` (by `reference_step`) together; their state must
    agree bit for bit after every step."""
    for _ in range(steps):
        swarm.step()
        reference_step(ref)
        assert_same_state(swarm, ref)
    # the two generators are at the same point of the stream
    assert swarm.rng.random() == ref.rng.random()


def run_against_reference(swarm, ref):
    """`swarm.run()` in windows against `max_iterations` reference steps of
    `ref`; their end state, result and generator position must agree."""
    result = swarm.run()
    for _ in range(ref.params.max_iterations):
        reference_step(ref)
    assert_same_state(swarm, ref)
    assert swarm.rng.random() == ref.rng.random()
    assert result == (ThresholdSet(tuple(ref.best_position.tolist()), ref.k),
                      ref.best_objective)


def improving_iterations(swarm):
    """The iterations t >= 1 after which the best objective had risen."""
    history = swarm.best_history
    return [t for t in range(1, len(history)) if history[t] > history[t - 1]]


@st.composite
def histograms(draw):
    """Histograms of 2..720 bins: sparse ones with empty bins, dense ones,
    and ones with a single occupied bin."""
    bins = draw(st.integers(2, 720))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sparse", "dense", "single"]))
    if kind == "single":
        counts = np.zeros(bins, dtype=np.int64)
        counts[draw(st.integers(0, bins - 1))] = draw(st.integers(1, 300))
    else:
        occupied = rng.random(bins) < (0.05 if kind == "sparse" else 0.9)
        occupied[rng.integers(bins)] = True
        counts = np.where(occupied, rng.integers(1, 6, bins), 0)
    return AngleHistogram(counts)


class TestStepMatchesReference:
    """The in-place step, a window of one iteration, against the four-draw,
    copying step it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), h=histograms(), pop=st.integers(2, 40),
           s_bounds=st.sampled_from([(0.0, 2.0), (0.5, 1.5), (1.0, 1.0)]),
           alpha1=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**63 - 1))
    def test_bitwise_equal_every_step(self, data, h, pop, s_bounds, alpha1, seed):
        k = data.draw(st.one_of(st.integers(2, min(h.bin_count, 12)),
                                st.integers(2, h.bin_count)), label="k")
        w = ObjectiveWeights(alpha1, 1.0 - alpha1)
        params = BatParams(population=pop, s_min=s_bounds[0], s_max=s_bounds[1], seed=seed)
        run_in_lockstep(BatSwarm(h, k, w, params), BatSwarm(h, k, w, params), 12)

    def test_bitwise_equal_through_acceptances(self):
        # a small swarm on a rugged histogram accepts moves, so the pulse
        # rises and the walk draws decide between flight and walk
        rng = np.random.default_rng(0)
        h = AngleHistogram(rng.integers(1, 30, size=48))
        for seed in range(4):
            params = BatParams(population=4, seed=seed)
            swarm = BatSwarm(h, 4, HALF, params)
            run_in_lockstep(swarm, BatSwarm(h, 4, HALF, params), 80)
            assert (swarm.loudness < params.loudness0).any()


class TestRunMatchesReference:
    """`run()` advances in windows of several iterations, cut at the first
    that improves on the best; it must equal as many reference steps."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), h=histograms(), pop=st.integers(2, 40),
           iterations=st.one_of(st.sampled_from([1, 2, 100]), st.integers(1, 120)),
           s_bounds=st.sampled_from([(0.0, 2.0), (0.5, 1.5), (1.0, 1.0)]),
           alpha1=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**63 - 1))
    def test_bitwise_equal_to_reference_steps(self, data, h, pop, iterations, s_bounds,
                                              alpha1, seed):
        k = data.draw(st.one_of(st.integers(2, min(h.bin_count, 12)),
                                st.integers(2, h.bin_count)), label="k")
        w = ObjectiveWeights(alpha1, 1.0 - alpha1)
        params = BatParams(population=pop, max_iterations=iterations,
                           s_min=s_bounds[0], s_max=s_bounds[1], seed=seed)
        run_against_reference(BatSwarm(h, k, w, params), BatSwarm(h, k, w, params))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), pop=st.integers(2, 6),
           iterations=st.sampled_from([2, 100, 150]), pulse0=st.sampled_from([0.5, 1.0]))
    def test_late_acceptances_cut_windows(self, seed, pop, iterations, pulse0):
        # a small swarm on a rugged histogram keeps improving after the first
        # window, so windows are cut part-way; accepted bats get a pulse rate,
        # so their flights, not only walks, become candidates
        rng = np.random.default_rng(0)
        h = AngleHistogram(rng.integers(1, 30, size=48))
        params = BatParams(population=pop, max_iterations=iterations, pulse0=pulse0,
                           seed=seed)
        run_against_reference(BatSwarm(h, 4, HALF, params), BatSwarm(h, 4, HALF, params))

    def test_cases_above_reach_late_cuts_and_flights(self):
        # what the property above relies on, for fixed seeds
        rng = np.random.default_rng(0)
        h = AngleHistogram(rng.integers(1, 30, size=48))
        late, flying = 0, 0
        for seed in range(8):
            swarm = BatSwarm(h, 4, HALF, BatParams(population=4, max_iterations=100,
                                                   seed=seed))
            swarm.run()
            late += sum(t > 4 for t in improving_iterations(swarm))
            flying += int((swarm.pulse > 0).sum())
        assert late >= 8 and flying >= 8

    @pytest.mark.parametrize("pop, k, seed", [(30, 10, 4), (8, 12, 3)])
    def test_run_far_longer_than_a_window(self, pop, k, seed, monkeypatch):
        # windows of 66 and 208 iterations, and both runs still improve after
        # the first full-size window
        calls = []
        evaluate = bat.evaluate_threshold_sets

        def counted(h, tmat, w):
            calls.append(len(tmat))
            return evaluate(h, tmat, w)
        monkeypatch.setattr(bat, "evaluate_threshold_sets", counted)
        h = toy_histogram(11, bins=360) if k == 10 else \
            AngleHistogram(np.random.default_rng(0).integers(1, 30, size=48))
        params = BatParams(population=pop, max_iterations=1000, seed=seed)
        swarm, ref = BatSwarm(h, k, HALF, params), BatSwarm(h, k, HALF, params)
        calls.clear()
        run_against_reference(swarm, ref)
        window = bat._WINDOW_DRAWS // (2 * pop * k)
        assert max(calls) <= window * pop
        assert sum(calls) >= 1000 * pop  # every iteration was scored
        assert max(improving_iterations(swarm)) > window


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

    @pytest.mark.parametrize("field, value, message", [
        ("max_iterations", 0, "max_iterations must be at least 1"),
        ("loudness0", 0.0, "loudness0 must be positive"),
        ("gamma_rate", 0.0, "gamma_rate must be positive"),
    ], ids=["max-iterations-zero", "loudness0-zero", "gamma-rate-zero"])
    def test_out_of_range_named(self, field, value, message):
        with pytest.raises(ValueError) as info:
            BatParams(**{field: value})
        assert str(info.value) == message
