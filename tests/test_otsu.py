import functools
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eerpms import (
    AngleHistogram,
    ObjectiveWeights,
    ThresholdSet,
    build_histogram,
    evaluate_threshold_sets,
    exhaustive_best_threshold,
    materialize_clusters,
)
from eerpms import otsu
from eerpms.simulation import deploy
from eerpms.theory import AreaSpec

HALF = ObjectiveWeights(0.5, 0.5)
ANGLE_ONLY = ObjectiveWeights(1.0, 0.0)    # scores f1 / variance
BALANCE_ONLY = ObjectiveWeights(0.0, 1.0)  # scores 1 / (1 + f2)

histograms = st.lists(st.integers(min_value=0, max_value=25), min_size=4,
                      max_size=24).filter(lambda c: sum(c) > 0)


def random_threshold_set(counts, rng):
    bins = len(counts)
    k = int(rng.integers(1, min(5, bins) + 1))
    t = tuple(sorted(rng.choice(np.arange(1, bins), size=k - 1, replace=False).tolist()))
    return ThresholdSet(t, k)


def score(h, t, w):
    """The program's objective of one threshold set."""
    row = np.array([t.thresholds], dtype=np.int64).reshape(1, t.k - 1)
    return float(evaluate_threshold_sets(h, row, w)[0])


# The objective written out one threshold set at a time from the bin counts,
# in its centred float form, as the plain reference for `evaluate_threshold_sets`
# and the exhaustive search.

def segment_stats(h, t):
    """Per-segment (probability mass, mean bin index, node count), summed
    from the bin counts; the mean of an empty segment is 0 by convention."""
    t.validate_for(h.bin_count)
    counts = h.counts.tolist()
    total = sum(counts)
    out = []
    for a, b in itertools.pairwise((0, *t.thresholds, h.bin_count)):
        nc = sum(counts[a:b])
        s = sum(i * counts[i] for i in range(a, b))
        out.append((nc / total, s / nc if nc else 0.0, nc))
    return out


def index_variance(counts):
    """Variance of the bin index over the nodes of a list of bin counts."""
    total = sum(counts)
    mean = sum(i * c for i, c in enumerate(counts)) / total
    return sum(c * (i - mean) ** 2 for i, c in enumerate(counts)) / total


def f1_angle_variance(h, t):
    """Between-segment variance of mean bin indices, weighted by mass."""
    stats = segment_stats(h, t)
    u_t = sum(w * u for w, u, _ in stats)
    return sum(w * (u - u_t) ** 2 for w, u, _ in stats)


def f2_count_variance(h, t):
    """Mean squared deviation of segment populations from the even split,
    normalized by the node total."""
    stats = segment_stats(h, t)
    total = sum(nc for _, _, nc in stats)
    return sum((nc - total / t.k) ** 2 for _, _, nc in stats) / total


def objective_f1(h, t, w):
    """The composite objective: f1 over the histogram variance (0 when it is
    degenerate), and 1/(1 + f2)."""
    f1 = f1_angle_variance(h, t)
    f2 = f2_count_variance(h, t)
    variance = index_variance(h.counts.tolist())
    f1_norm = f1 / variance if variance > 0 else 0.0
    return w.alpha1 * f1_norm + w.alpha2 * (1.0 / (1.0 + f2))


class TestBuildHistogram:
    def test_quadrants(self):
        h = build_histogram([0.0, math.pi / 2, math.pi, 3 * math.pi / 2], 4)
        assert h.counts.tolist() == [1, 1, 1, 1]
        assert h.total == 4
        gen = build_histogram((q * math.pi / 2 for q in range(4)), 4)
        assert gen.counts.tolist() == [1, 1, 1, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_histogram([], 360)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_histogram([2 * math.pi], 360)
        with pytest.raises(ValueError):
            build_histogram([-0.1], 360)

    def test_conservation(self):
        rng = np.random.default_rng(5)
        angles = rng.uniform(0, 2 * math.pi, 100)
        h = build_histogram(angles, 360)
        assert h.counts.sum() == h.total == h.cum_counts[-1] == 100

    def test_top_edge_folds_into_last_bin(self):
        h = build_histogram([2 * math.pi * (1 - 1e-12)], 4)
        assert h.counts.tolist() == [0, 0, 0, 1]


class TestSegmentStats:
    def test_uniform_split(self):
        h = build_histogram([0.0, math.pi / 2, math.pi, 3 * math.pi / 2], 4)
        stats = segment_stats(h, ThresholdSet((2,), 2))
        assert [w for w, _, _ in stats] == pytest.approx([0.5, 0.5])
        assert [nc for _, _, nc in stats] == [2, 2]

    def test_single_segment_mean_is_global(self):
        h = AngleHistogram([3, 0, 0, 3])
        ((w, u, nc),) = segment_stats(h, ThresholdSet((), 1))
        assert w == pytest.approx(1.0)
        assert u == pytest.approx(1.5)
        assert nc == 6

    def test_bimodal_hand_example(self):
        h = AngleHistogram([3, 0, 0, 3])
        stats = segment_stats(h, ThresholdSet((2,), 2))
        assert stats[0] == pytest.approx((0.5, 0.0, 3))
        assert stats[1] == pytest.approx((0.5, 3.0, 3))


class TestF1:
    def test_single_segment_is_zero(self):
        h = AngleHistogram([1, 5, 2, 9])
        assert score(h, ThresholdSet((), 1), ANGLE_ONLY) == 0.0

    def test_bimodal_hand_value(self):
        # between-segment variance 2.25 of a histogram whose variance is 2.25
        h = AngleHistogram([3, 0, 0, 3])
        assert index_variance(h.counts.tolist()) == pytest.approx(2.25, rel=1e-12)
        assert score(h, ThresholdSet((2,), 2), ANGLE_ONLY) == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=100)
    @given(counts=histograms, seed=st.integers(0, 2**31))
    def test_variance_decomposition(self, counts, seed):
        h = AngleHistogram(counts)
        t = random_threshold_set(counts, np.random.default_rng(seed))
        variance = index_variance(counts)
        between = score(h, t, ANGLE_ONLY) * variance
        bounds = (0, *t.thresholds, h.bin_count)
        within = 0.0
        for a, b in itertools.pairwise(bounds):
            seg_p = h.counts[a:b] / h.total
            w = seg_p.sum()
            if w == 0:
                continue
            u = float(np.sum(np.arange(a, b) * seg_p) / w)
            within += float(np.sum(seg_p * (np.arange(a, b) - u) ** 2))
        assert between + within == pytest.approx(variance, abs=1e-10)

    @settings(max_examples=50)
    @given(counts=histograms, seed=st.integers(0, 2**31),
           shift=st.integers(1, 10))
    def test_translation_invariance(self, counts, seed, shift):
        h = AngleHistogram(counts)
        t = random_threshold_set(counts, np.random.default_rng(seed))
        shifted_counts = [0] * shift + list(counts)
        shifted = AngleHistogram(shifted_counts)
        t_shifted = ThresholdSet(tuple(v + shift for v in t.thresholds), t.k)
        assert score(shifted, t_shifted, ANGLE_ONLY) * index_variance(shifted_counts) == pytest.approx(
            score(h, t, ANGLE_ONLY) * index_variance(counts), abs=1e-10)


class TestF2:
    # the balance term 1 / (1 + f2) of f2 = 0, 3 and 1/3
    def test_balanced_is_zero(self):
        h = AngleHistogram([3, 3, 3, 3])
        assert score(h, ThresholdSet((2,), 2), BALANCE_ONLY) == 1.0

    def test_degenerate_split(self):
        h = AngleHistogram([6, 0, 0, 0])
        assert score(h, ThresholdSet((2,), 2), BALANCE_ONLY) == pytest.approx(1 / 4, rel=1e-12)

    def test_uneven_split(self):
        h = AngleHistogram([4, 0, 2, 0])
        assert score(h, ThresholdSet((2,), 2), BALANCE_ONLY) == pytest.approx(3 / 4, rel=1e-12)


class TestObjective:
    def test_ideal_bimodal_scores_one(self):
        h = AngleHistogram([5, 0, 0, 5])
        assert score(h, ThresholdSet((2,), 2), HALF) == pytest.approx(1.0, rel=1e-12)

    def test_single_segment(self):
        h = AngleHistogram([1, 2, 3, 4])
        t = ThresholdSet((), 1)
        expected = HALF.alpha2 * score(h, t, BALANCE_ONLY)
        assert score(h, t, HALF) == pytest.approx(expected, rel=1e-12)
        assert score(h, t, HALF) == pytest.approx(HALF.alpha2, rel=1e-12)

    def test_degenerate_histogram_angle_term_zero(self):
        h = AngleHistogram([0, 7, 0, 0])
        t = ThresholdSet((2,), 2)
        assert index_variance(h.counts.tolist()) == 0.0
        value = score(h, t, HALF)
        assert value == pytest.approx(HALF.alpha2 * score(h, t, BALANCE_ONLY))

    @settings(max_examples=100)
    @given(counts=histograms, seed=st.integers(0, 2**31))
    def test_bounds(self, counts, seed):
        h = AngleHistogram(counts)
        t = random_threshold_set(counts, np.random.default_rng(seed))
        value = score(h, t, HALF)
        assert 0.0 <= value <= 1.0 + 1e-12

    @settings(max_examples=100)
    @given(counts=histograms, seed=st.integers(0, 2**31))
    def test_batch_matches_scalar(self, counts, seed):
        h = AngleHistogram(counts)
        t = random_threshold_set(counts, np.random.default_rng(seed))
        w = ObjectiveWeights(0.3, 0.7)
        assert score(h, t, w) == pytest.approx(objective_f1(h, t, w), rel=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(0.6, 0.6)
        with pytest.raises(ValueError):
            ObjectiveWeights(-0.1, 1.1)


def integer_sums(counts):
    """N, M and Q of a list of bin counts: the sums of count_b, b * count_b
    and b**2 * count_b, as Python integers."""
    return (sum(counts), sum(b * c for b, c in enumerate(counts)),
            sum(b * b * c for b, c in enumerate(counts)))


def prefix_sum_objective(h, tmat, w):
    """The objective read straight from prefix sums of the bin counts: four
    gathers per call, no segment table."""
    tmat = np.asarray(tmat, dtype=np.int64)
    batch, dim = tmat.shape
    k = dim + 1
    n, m, q = integer_sums(h.counts.tolist())
    bounds = np.empty((batch, k + 1), dtype=np.int64)
    bounds[:, 0] = 0
    bounds[:, -1] = h.bin_count
    if dim:
        bounds[:, 1:-1] = tmat
    cum_counts = np.concatenate(([0], np.cumsum(h.counts)))
    cum_index = np.concatenate(([0], np.cumsum(np.arange(h.bin_count) * h.counts)))
    counts = cum_counts[bounds[:, 1:]] - cum_counts[bounds[:, :-1]]
    index_sums = (cum_index[bounds[:, 1:]] - cum_index[bounds[:, :-1]]).astype(np.float64)
    terms = np.divide(index_sums * index_sums, counts, out=np.zeros(counts.shape),
                      where=counts > 0)
    # each set's segment terms added in segment order, left to right
    f1 = functools.reduce(np.add, terms.T)
    spread = q * n - m * m
    f1_norm = (f1 - m * m / n) / (spread / n) if spread else np.zeros(batch)
    balance = float(k * n) / ((counts * counts).sum(axis=1) * float(k) + float(k * n - n * n))
    return w.alpha1 * f1_norm + w.alpha2 * balance


def sorted_threshold_rows(rng, bins, k, batch):
    """`batch` strictly increasing rows of k-1 thresholds in 1..bins-1."""
    base = np.sort(rng.integers(1, bins - k + 2, size=(batch, k - 1)), axis=1)
    return base + np.arange(k - 1)


def exact_terms(counts, thresholds):
    """f1_norm and the balance term of one threshold set as exact rationals,
    with Q and Q - M**2/N, the denominator of f1_norm."""
    n, m, q = integer_sums(counts)
    k = len(thresholds) + 1
    segments = [(sum(counts[a:b]), sum(i * counts[i] for i in range(a, b)))
                for a, b in itertools.pairwise((0, *thresholds, len(counts)))]
    spread = Fraction(q * n - m * m, n)
    between = sum(Fraction(w * w, c) for c, w in segments if c) - Fraction(m * m, n)
    s = sum(c * c for c, _ in segments)
    f1_norm = between / spread if spread else Fraction(0)
    return f1_norm, Fraction(k * n, k * n + k * s - n * n), q, spread


@st.composite
def split_histograms(draw):
    """(counts, thresholds) on 1..40 bins: any counts, mostly empty bins, or
    a single occupied bin; k from 1 to the bin count, and often k = bins."""
    bins = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["random", "sparse", "single"]))
    if shape == "single":
        counts = [0] * bins
        counts[draw(st.integers(0, bins - 1))] = draw(st.integers(1, 1000))
    else:
        values = st.integers(0, 1000) if shape == "random" else st.sampled_from([0, 0, 0, 1, 999])
        counts = draw(st.lists(values, min_size=bins, max_size=bins))
        if not sum(counts):
            counts[draw(st.integers(0, bins - 1))] = 1
    k = draw(st.one_of(st.just(bins), st.integers(1, bins)))
    return counts, tuple(sorted(draw(st.permutations(range(1, bins)))[:k - 1]))


class TestExactRationals:
    @settings(max_examples=300, deadline=None)
    @given(case=split_histograms())
    def test_terms_within_bounds_of_exact_values(self, case):
        counts, thresholds = case
        h = AngleHistogram(counts)
        t = ThresholdSet(thresholds, len(thresholds) + 1)
        f1_norm, balance, q, spread = exact_terms(counts, thresholds)
        # k * N * (N + 1) is far below 2**53: the balance term is correctly rounded
        assert score(h, t, BALANCE_ONLY) == float(balance)
        # W**2 is exact, so each of the k terms W**2/c is rounded once and
        # the k - 1 additions in order err by at most about k*u*Q, u = 2**-53
        # (each term is at most its share of Q); M**2/N adds u*Q, and the
        # difference, Q - M**2/N and the quotient one relative rounding each.
        # That is below ((k + 1) * Q / (Q - M**2/N) + 4) * u; allowed is twice
        # it and more.
        bound = (t.k + 4) * 2.0 ** -52 * (q / spread + 1) if spread else 0
        assert abs(Fraction(score(h, t, ANGLE_ONLY)) - f1_norm) <= bound


class TestSegmentTable:
    W = ObjectiveWeights(0.3, 0.7)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), bins=st.integers(2, 720),
           occupied=st.floats(0.0, 1.0), k_draw=st.floats(0.0, 1.0),
           rows=st.integers(1, 65536))
    def test_matches_six_gather_reference(self, seed, bins, occupied, k_draw, rows):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 6, size=bins) * (rng.random(bins) < occupied)
        counts[rng.integers(bins)] += 1
        h = AngleHistogram(counts)
        k = 1 + int(k_draw * (bins - 1))
        batch = max(1, min(rows, 2**18 // (k + 1)))  # at most 2**18 boundaries per call
        tmat = sorted_threshold_rows(rng, bins, k, batch)
        assert np.array_equal(evaluate_threshold_sets(h, tmat, self.W),
                              prefix_sum_objective(h, tmat, self.W))

    @pytest.mark.parametrize("bins, k, rows", [(2, 1, 1), (2, 2, 65536), (360, 10, 65536),
                                                (720, 720, 1), (720, 3, 65536)])
    def test_extremes_match_six_gather_reference(self, bins, k, rows):
        rng = np.random.default_rng(bins + k)
        counts = rng.integers(0, 3, size=bins)
        counts[0] += 1
        h = AngleHistogram(counts)
        tmat = sorted_threshold_rows(rng, bins, k, rows)
        assert np.array_equal(evaluate_threshold_sets(h, tmat, self.W),
                              prefix_sum_objective(h, tmat, self.W))

    @pytest.mark.parametrize("bins", [2, 36, 360, 720])
    def test_single_occupied_bin(self, bins):
        counts = np.zeros(bins, dtype=int)
        counts[bins // 3] = 7
        h = AngleHistogram(counts)
        assert index_variance(h.counts.tolist()) == 0.0
        rank, _, _ = h.segment_table
        assert rank[-1] == 1  # two ranks: below and above the one occupied bin
        rng = np.random.default_rng(bins)
        for k in sorted({1, 2, bins // 2, bins}):
            tmat = sorted_threshold_rows(rng, bins, k, 500)
            assert np.array_equal(evaluate_threshold_sets(h, tmat, self.W),
                                  prefix_sum_objective(h, tmat, self.W))

    def test_every_threshold_set_of_a_small_histogram(self):
        h = AngleHistogram([3, 0, 0, 5, 1, 0, 2, 0, 0, 4, 0, 1])
        for k in range(1, h.bin_count + 1):
            combos = list(itertools.combinations(range(1, h.bin_count), k - 1))
            tmat = np.array(combos, dtype=np.int64).reshape(len(combos), k - 1)
            assert np.array_equal(evaluate_threshold_sets(h, tmat, HALF),
                                  prefix_sum_objective(h, tmat, HALF))

    @pytest.mark.parametrize("row", [[-1, 5], [5, 2], [0, 5], [2, 8], [3, 3]],
                             ids=["negative", "decreasing", "zero", "past-last-bin", "repeated"])
    def test_invalid_row_rejected(self, row):
        # rows ThresholdSet or validate_for reject; the gathers would score
        # them (a negative index wraps) without this check
        h = AngleHistogram([3, 0, 2, 5, 1, 0, 4, 2])
        with pytest.raises(ValueError, match="strictly increasing"):
            evaluate_threshold_sets(h, np.array([[2, 4], row, [1, 7]]), HALF)

    def test_table_size_is_occupied_bins_plus_one_squared(self):
        h = AngleHistogram([0, 2, 0, 0, 1, 1, 0])
        rank, f1_terms, sq_counts = h.segment_table
        assert rank.tolist() == [0, 0, 1, 1, 1, 2, 3, 3]
        assert f1_terms.shape == sq_counts.shape == (16,)
        assert h.segment_table is h.segment_table  # built once per histogram


def plain_loop_objective(h, thresholds, w):
    """The objective of one threshold set with a Python loop over its
    segments in exact integers: each f1 term W**2 / c rounded once and added
    in order, and the balance term one correctly rounded ratio."""
    counts = h.counts.tolist()
    n, m, q = integer_sums(counts)
    k = len(thresholds) + 1
    f1, s = 0.0, 0
    for a, b in itertools.pairwise((0, *thresholds, len(counts))):
        c = sum(counts[a:b])
        index_sum = sum(i * counts[i] for i in range(a, b))
        f1 += index_sum * index_sum / c if c else 0.0
        s += c * c
    spread = q * n - m * m
    f1_norm = (f1 - m * m / n) / (spread / n) if spread else 0.0
    return w.alpha1 * f1_norm + w.alpha2 * (k * n / (k * n + k * s - n * n))


@pytest.mark.parametrize("batch", [1, 2, 3, 64])
@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 10, 129, 300])
def test_objective_does_not_depend_on_batch_size(k, batch):
    # k on both sides of 8 and 128, where numpy's pairwise row sums change
    # their order: a set must score the same alone as in any batch
    rng = np.random.default_rng(1000 * k + batch)
    counts = rng.integers(0, 4, size=360)
    counts[0] += 1
    h = AngleHistogram(counts)
    w = ObjectiveWeights(0.3, 0.7)
    tmat = sorted_threshold_rows(rng, h.bin_count, k, batch)
    scores = evaluate_threshold_sets(h, tmat, w)
    alone = [evaluate_threshold_sets(h, row[None, :], w)[0] for row in tmat]
    assert scores.tolist() == alone
    assert scores.tolist() == [plain_loop_objective(h, row.tolist(), w) for row in tmat]


def brute_force_best(h, k, w):
    best_t, best_v = None, -math.inf
    for combo in itertools.combinations(range(1, h.bin_count), k - 1):
        v = objective_f1(h, ThresholdSet(combo, k), w)
        if v > best_v:
            best_t, best_v = combo, v
    return best_t, best_v


class TestExhaustiveSearch:
    def test_bimodal_degrees_picks_smallest_optimal_cut(self):
        degs = [10, 11, 12, 200, 201, 202]
        angles = [math.radians(d) for d in degs]
        h = build_histogram(angles, 360)
        t, v = exhaustive_best_threshold(h, 2, HALF)
        ref_t, ref_v = brute_force_best(h, 2, HALF)
        assert v == pytest.approx(ref_v, rel=1e-12)
        assert t.thresholds == ref_t == (13,)

    def test_k_one_returns_empty_set(self):
        h = AngleHistogram([1, 2, 3])
        t, v = exhaustive_best_threshold(h, 1, HALF)
        assert t.thresholds == ()
        assert v == pytest.approx(HALF.alpha2)

    def test_k_equal_bins_unique_candidate(self):
        h = AngleHistogram([1, 1, 1, 1])
        t, _ = exhaustive_best_threshold(h, 4, HALF)
        assert t.thresholds == (1, 2, 3)

    def test_combinatorial_guard(self):
        h = AngleHistogram(np.ones(360, dtype=int))
        with pytest.raises(ValueError):
            exhaustive_best_threshold(h, 10, HALF)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), k=st.integers(2, 4))
    @example(seed=971, k=4)  # (4, 8, 11) and (5, 8, 11) tie exactly
    def test_is_global_optimum(self, seed, k):
        # exact optimality; which of exactly tied sets wins is pinned by
        # TestExhaustiveBlocks against the row-by-row reference
        rng = np.random.default_rng(seed)
        counts = (rng.integers(0, 9, size=12) + (rng.random(12) < 0.5)).tolist()
        t, v = exhaustive_best_threshold(AngleHistogram(counts), k, HALF)

        def exact(thresholds):
            f1_norm, balance, _, _ = exact_terms(counts, thresholds)
            return Fraction(HALF.alpha1) * f1_norm + Fraction(HALF.alpha2) * balance

        best = max(map(exact, itertools.combinations(range(1, 12), k - 1)))
        assert exact(t.thresholds) == best
        assert v == pytest.approx(float(best), rel=1e-12)


def row_by_row_best(h, k, w):
    """The exhaustive optimum by scoring each `itertools.combinations` row on
    its own; ties keep the first maximizer."""
    if k == 1:
        return (), objective_f1(h, ThresholdSet((), 1), w)
    best_t, best_v = None, -math.inf
    for combo in itertools.combinations(range(1, h.bin_count), k - 1):
        v = float(evaluate_threshold_sets(h, np.array([combo]), w)[0])
        if v > best_v:
            best_t, best_v = combo, v
    return best_t, best_v


ROW_BY_ROW_BUDGET = 3000  # combinations the plain reference scores per example


def draw_counts(draw, bins, shape):
    if shape == "random":
        counts = draw(st.lists(st.integers(0, 9), min_size=bins, max_size=bins))
    elif shape == "sparse":   # mostly empty bins: equal ranks tie many sets
        counts = draw(st.lists(st.sampled_from([0, 0, 0, 1, 4]), min_size=bins, max_size=bins))
    elif shape == "two-spike":  # all sets tie, and the bound prunes almost nothing
        counts = [0] * bins
        counts[0] += draw(st.integers(1, 9))
        counts[-1] += draw(st.integers(1, 9))
    else:                     # one occupied bin, or every bin alike: all ties
        counts = [0] * bins if shape == "single" else [3] * bins
    if sum(counts) == 0:
        counts[draw(st.integers(0, bins - 1))] += 2
    return counts


SHAPES = ["random", "sparse", "single", "flat", "two-spike"]


def no_bound(h, k, w):
    """A stand-in for `otsu._subtree_bound` under which the walk prunes
    nothing and scores every set."""
    return lambda depth, t, f1, s: np.full(np.shape(t), np.inf)


def spy_on_batches(monkeypatch, keep):
    """Record keep(prefix, levels, values) of each batch of leaves that the
    exhaustive search scores, through its seam `otsu._scored_leaves`."""
    kept = []
    walk = otsu._scored_leaves

    def spy(h, k, w):
        for batch in walk(h, k, w):
            kept.append(keep(*batch))
            yield batch

    monkeypatch.setattr(otsu, "_scored_leaves", spy)
    return kept


def every_leaf(prefix, levels, values):
    return otsu._leaf_thresholds(prefix, levels, np.arange(values.size))


class TestExhaustiveBlocks:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), bins=st.integers(2, 40),
           shape=st.sampled_from(SHAPES))
    def test_matches_row_by_row_reference(self, data, bins, shape):
        h = AngleHistogram(draw_counts(data.draw, bins, shape))
        ks = [k for k in range(1, bins + 1)
              if math.comb(bins - 1, k - 1) <= ROW_BY_ROW_BUDGET]
        k = data.draw(st.sampled_from(ks))
        w = data.draw(st.sampled_from([HALF, ObjectiveWeights(1.0, 0.0),
                                       ObjectiveWeights(0.2, 0.8)]))
        # small blocks split the sets as larger cases are split at the
        # full block size: ties and first values cross block boundaries
        block = data.draw(st.sampled_from([1, 2, 7, 64, otsu.EXHAUSTIVE_BLOCK]))
        with mock.patch.object(otsu, "EXHAUSTIVE_BLOCK", block):
            t, v = exhaustive_best_threshold(h, k, w)
        ref_t, ref_v = row_by_row_best(h, k, w)
        assert t.thresholds == ref_t
        assert v == ref_v

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), bins=st.integers(2, 40),
           shape=st.sampled_from(SHAPES))
    def test_every_leaf_scores_as_evaluate_threshold_sets(self, data, bins, shape):
        # the tree adds each leaf's f1 terms left to right from +0.0 through
        # its prefixes' partial sums, so every value is the batch scorer's,
        # bit for bit, whatever the batches
        h = AngleHistogram(draw_counts(data.draw, bins, shape))
        ks = [k for k in range(2, bins + 1)
              if math.comb(bins - 1, k - 1) <= ROW_BY_ROW_BUDGET]
        k = data.draw(st.sampled_from(ks))
        w = data.draw(st.sampled_from([HALF, ObjectiveWeights(1.0, 0.0),
                                       ObjectiveWeights(0.2, 0.8)]))
        block = data.draw(st.integers(1, otsu.EXHAUSTIVE_BLOCK))
        with mock.patch.object(otsu, "EXHAUSTIVE_BLOCK", block), \
                mock.patch.object(otsu, "_subtree_bound", no_bound):
            batches = list(otsu._scored_leaves(h, k, w))
        sets = []
        for prefix, levels, values in batches:
            tmat = every_leaf(prefix, levels, values)
            assert values.size <= block
            assert values.view(np.int64).tolist() == \
                evaluate_threshold_sets(h, tmat, w).view(np.int64).tolist()
            sets.extend(map(tuple, tmat.tolist()))
        assert sets == list(itertools.combinations(range(1, bins), k - 1))

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_scores_every_set_once_in_lexicographic_order(self, monkeypatch, block):
        scored = spy_on_batches(monkeypatch, every_leaf)
        monkeypatch.setattr(otsu, "EXHAUSTIVE_BLOCK", block)
        monkeypatch.setattr(otsu, "_subtree_bound", no_bound)
        for bins in range(2, 13):
            h = AngleHistogram(np.ones(bins, dtype=int))
            for k in range(2, bins + 1):
                scored.clear()
                exhaustive_best_threshold(h, k, HALF)
                assert max(len(rows) for rows in scored) <= block
                assert [tuple(row) for rows in scored for row in rows.tolist()] == \
                    list(itertools.combinations(range(1, bins), k - 1))

    def test_blocks_stay_small_where_k_is_near_the_bin_count(self, monkeypatch):
        # at 36 bins and k = 30 a table of every (k-2)-combination would hold
        # 6.7 M rows; each batch must stay within EXHAUSTIVE_BLOCK leaves
        def first_and_last(prefix, levels, values):
            ends = otsu._leaf_thresholds(prefix, levels, [0, values.size - 1]).tolist()
            return values.size, tuple(ends[0]), tuple(ends[1])

        batches = spy_on_batches(monkeypatch, first_and_last)
        monkeypatch.setattr(otsu, "_subtree_bound", no_bound)
        one_bin = np.zeros(36, dtype=int)
        one_bin[20] = 5   # every set scores alike: one segment holds all nodes
        h = AngleHistogram(one_bin)
        t, v = exhaustive_best_threshold(h, 30, HALF)
        assert max(rows for rows, _, _ in batches) <= otsu.EXHAUSTIVE_BLOCK == 8192
        assert sum(rows for rows, _, _ in batches) == math.comb(35, 29)
        assert batches[0][1] == tuple(range(1, 30)) and batches[-1][2] == tuple(range(7, 36))
        for (_, _, last), (_, first, _) in itertools.pairwise(batches):
            assert last < first  # batches follow one another in lexicographic order
        # all tie: the first wins
        assert t.thresholds == tuple(range(1, 30)) and v == score(h, t, HALF)

    @pytest.mark.parametrize("bins, k", [(24, 5), (36, 3), (12, 12), (20, 1)])
    def test_same_optimum_at_every_block_size(self, bins, k):
        # C(23, 4) = 8 855 sets: two blocks of at most 8 192 rows, one of 65 536
        rng = np.random.default_rng(bins * k)
        counts = rng.integers(0, 4, size=bins)
        counts[0] += 1
        h = AngleHistogram(counts)
        results = []
        for block in (1, 8192, 65536):
            with mock.patch.object(otsu, "EXHAUSTIVE_BLOCK", block):
                results.append(exhaustive_best_threshold(h, k, HALF))
        t, v = results[0]
        assert type(v) is float
        assert results[1] == results[2] == (t, v)

    @pytest.mark.parametrize("bins, k", [(80, 78), (80, 79), (80, 80), (300, 299)])
    def test_matches_row_by_row_where_binomials_overflow_int64(self, bins, k):
        # k near the bin count: each prefix has one or a few children, and
        # binomials of the bin count pass 2**63 here (C(79, 39) ~ 5.4e22);
        # at most C(79, 77) = 3 081 sets
        rng = np.random.default_rng(bins * k)
        counts = rng.integers(0, 6, size=bins) + (np.arange(bins) % 7 == 0) * 9
        h = AngleHistogram(counts)
        t, v = exhaustive_best_threshold(h, k, HALF)
        assert (t.thresholds, v) == row_by_row_best(h, k, HALF)


def prefix_sums(h, prefix):
    """The f1 sum and S of a prefix's segments, as the walk adds them: f1
    left to right from +0.0, S in integers."""
    rank, f1_terms, sq_counts = h.segment_table
    width = rank[-1] + 1
    f1, s = 0.0, 0
    for a, b in itertools.pairwise((0, *prefix)):
        f1 += f1_terms[rank[a] * width + rank[b]]
        s += int(sq_counts[rank[a] * width + rank[b]])
    return f1, s


@st.composite
def bounded_prefixes(draw):
    """(counts, k, weights, prefix): counts of every `draw_counts` shape,
    k >= 3 with at most 20 000 sets, and a prefix of 1 to k - 2 thresholds
    that leaves room for the others."""
    bins = draw(st.integers(3, 40))
    counts = draw_counts(draw, bins, draw(st.sampled_from(SHAPES)))
    k = draw(st.sampled_from([k for k in range(3, bins + 1)
                              if math.comb(bins - 1, k - 1) <= 20000]))
    w = draw(st.sampled_from([HALF, ObjectiveWeights(1.0, 0.0), ObjectiveWeights(0.0, 1.0),
                              ObjectiveWeights(0.2, 0.8)]))
    depth = draw(st.integers(1, k - 2))
    return counts, k, w, tuple(sorted(draw(st.permutations(range(1, bins - k + depth + 1)))[:depth]))


class TestPruning:
    @settings(max_examples=150, deadline=None)
    @given(case=bounded_prefixes())
    # the best completion's f1 sum rounds 1 ulp above the unscaled bound's
    @example(case=([4, 3, 6, 0, 4, 9, 8], 4, HALF, (4,)))
    def test_no_completion_beats_its_prefix_bound(self, case):
        counts, k, w, prefix = case
        h, depth, bins = AngleHistogram(counts), len(prefix), len(counts)
        f1, s = prefix_sums(h, prefix)
        bound = otsu._subtree_bound(h, k, w)(depth, prefix[-1], f1, s)
        rest = list(itertools.combinations(range(prefix[-1] + 1, bins), k - 1 - depth))
        tmat = np.array([prefix + tail for tail in rest], dtype=np.int64)
        assert evaluate_threshold_sets(h, tmat, w).max() <= bound

    @pytest.mark.parametrize("seed", range(5))
    def test_oracle_shapes_score_few_sets(self, monkeypatch, seed):
        # the oracle's searches: N = 100 deployments binned at 36, k = 6;
        # the bound leaves fewer than 5 % of the C(35, 5) sets to score,
        # and the pruned search returns the full walk's optimum, bit for bit
        h = build_histogram([n.angle for n in deploy(AreaSpec(150.0, 100), seed)], 36)
        with mock.patch.object(otsu, "_subtree_bound", no_bound):
            expected = exhaustive_best_threshold(h, 6, HALF)
        sizes = spy_on_batches(monkeypatch, lambda prefix, levels, values: values.size)
        assert exhaustive_best_threshold(h, 6, HALF) == expected
        assert sum(sizes) < 0.05 * math.comb(35, 5)


class TestMaterializeClusters:
    def test_quadrant_singletons(self):
        angles = np.radians([10.0, 100.0, 190.0, 280.0])
        t = ThresholdSet((90, 180, 270), 4)
        assert materialize_clusters(angles, t, 360).tolist() == [0, 1, 2, 3]

    def test_identical_angles_single_populated_cluster(self):
        t = ThresholdSet((90, 180, 270), 4)
        labels = materialize_clusters(np.full(5, 1.0), t, 360)
        assert np.bincount(labels, minlength=t.k).tolist() == [5, 0, 0, 0]

    def test_out_of_range_angle_rejected(self):
        with pytest.raises(ValueError):
            materialize_clusters([1.0, 2 * math.pi], ThresholdSet((180,), 2), 360)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_partition_property(self, seed):
        rng = np.random.default_rng(seed)
        angles = [n.angle for n in deploy(AreaSpec(150.0, 100), rng)]
        t = random_threshold_set(np.zeros(360), rng)
        labels = materialize_clusters(angles, t, 360)
        # one segment per node, the one whose bins hold its angle
        bounds = (0, *t.thresholds, 360)
        assert labels.shape == (100,)
        for a, label in zip(angles, labels):
            assert bounds[label] <= int(a * 360 / (2 * math.pi)) < bounds[label + 1]


class TestThresholdSetValidation:
    def test_not_increasing_rejected(self):
        with pytest.raises(ValueError):
            ThresholdSet((5, 5), 3)
        with pytest.raises(ValueError):
            ThresholdSet((7, 3), 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ThresholdSet((1, 2), 2)

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            ThresholdSet((0, 4), 3)

    def test_validate_for_bin_count(self):
        t = ThresholdSet((350,), 2)
        t.validate_for(360)
        with pytest.raises(ValueError):
            t.validate_for(300)


ONE_BIN = AngleHistogram([3])


@pytest.mark.parametrize("make, message", [
    (lambda: ThresholdSet((), 0), "k must be at least 1"),
    (lambda: ThresholdSet((1, 2), 3).validate_for(2), "more segments than bins"),
    (lambda: AngleHistogram([[1, 2]]), "counts must be a non-empty 1-D sequence"),
    (lambda: AngleHistogram([]), "counts must be a non-empty 1-D sequence"),
    (lambda: AngleHistogram([2, -1]), "counts must be non-negative"),
    (lambda: AngleHistogram([0, 0]), "histogram is empty"),
    (lambda: build_histogram([1.0], 0), "bin_count must be at least 1"),
    (lambda: evaluate_threshold_sets(ONE_BIN, [1], HALF), "expected a 2-D threshold matrix"),
    (lambda: exhaustive_best_threshold(ONE_BIN, 0, HALF), "k must be at least 1"),
    (lambda: exhaustive_best_threshold(ONE_BIN, 2, HALF), "more segments than bins"),
], ids=["threshold-set-k-zero", "segments-beyond-bins", "counts-2d", "counts-empty",
        "counts-negative", "counts-all-zero", "bin-count-zero", "matrix-1d",
        "exhaustive-k-zero", "exhaustive-k-beyond-bins"])
def test_invalid_input_named(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
