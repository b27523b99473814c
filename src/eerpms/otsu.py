"""Angle-histogram clustering machinery.

Nodes are binned by their angle around the sink; a set of K-1 integer
thresholds cuts the bins into K angular segments. The composite objective
rewards large between-segment angle variance (the classical multi-threshold
between-class criterion) and even segment populations. An exhaustive search
over all threshold sets serves as the ground-truth oracle for the
metaheuristic optimizer.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

#: Maximum number of threshold combinations the exhaustive search will visit.
EXHAUSTIVE_CAP = 10_000_000
#: Most threshold sets the exhaustive search scores in one batch.
EXHAUSTIVE_BLOCK = 8_192

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ObjectiveWeights:
    alpha1: float = 0.5   # weight of the angle-variance term
    alpha2: float = 0.5   # weight of the population-balance term

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha1 <= 1.0 and 0.0 <= self.alpha2 <= 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if abs(self.alpha1 + self.alpha2 - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")


@dataclass(frozen=True)
class ThresholdSet:
    """K-1 strictly increasing integer bin boundaries defining K segments.

    Segment j covers bins [t_{j-1}, t_j) with t_0 = 0 and t_K = bin count;
    there is no wrap-around across angle zero.
    """

    thresholds: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if len(self.thresholds) != self.k - 1:
            raise ValueError("a k-way split needs exactly k-1 thresholds")
        for a, b in itertools.pairwise(self.thresholds):
            if b <= a:
                raise ValueError("thresholds must be strictly increasing")
        if self.thresholds and self.thresholds[0] < 1:
            raise ValueError("thresholds must be at least 1")

    def validate_for(self, bin_count: int) -> None:
        if self.k > bin_count:
            raise ValueError("more segments than bins")
        if self.thresholds and self.thresholds[-1] > bin_count - 1:
            raise ValueError("threshold beyond the last bin")


class AngleHistogram:
    """Counts of node angles over `bin_count` equal bins of [0, 2*pi).

    `cum_counts` and `cum_index` are int64 prefix sums of count_b and
    b * count_b, so any segment's node count c and index sum W is O(1) and
    exact: both stay below total * bin_count <= 2**62 (`NetworkConfig`
    bounds each factor by 2**31).
    """

    def __init__(self, counts) -> None:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty 1-D sequence")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        total = int(counts.sum())
        if total == 0:
            raise ValueError("histogram is empty")
        self.counts = counts
        self.bin_count = int(counts.size)
        self.total = total
        weighted = np.arange(self.bin_count) * counts
        self.cum_counts = np.concatenate(([0], np.cumsum(counts)))
        self.cum_index = np.concatenate(([0], np.cumsum(weighted)))
        # N * Q - M**2, N**2 times the variance, in exact Python integers
        m = int(self.cum_index[-1])
        spread = sum(b * w for b, w in enumerate(weighted.tolist())) * total - m * m
        self._f1_offset, self._f1_scale = m * m / total, spread / total  # M**2/N, Q - M**2/N

    @functools.cached_property
    def segment_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every segment's f1 term W**2 / c (0 when empty) and squared node
        count c**2, for lookup by boundary rank.

        Returns (rank, f1_terms, sq_counts). `rank[b]` is the number of
        occupied bins below boundary b: the prefix sums are constant across
        empty bins, so boundaries of equal rank give equal segments. Entry
        [ra * width + rb] of the flat (width**2,) tables, width = occupied
        bins + 1, is the segment from rank ra to rank rb. c**2 <= 2**62 is
        exact in int64; each f1 term is W**2 / c rounded once while
        total * (bin_count - 1) <= 94 906 265, so that W * W <= 2**53.
        """
        rank = np.concatenate(([0], np.cumsum(self.counts > 0)))
        first = np.diff(rank, prepend=-1).nonzero()[0]  # one boundary per rank
        cum_counts, cum_index = self.cum_counts[first], self.cum_index[first]
        counts = cum_counts[None, :] - cum_counts[:, None]
        index_sums = (cum_index[None, :] - cum_index[:, None]).astype(np.float64)
        f1_terms = np.divide(index_sums * index_sums, counts,
                             out=np.zeros(counts.shape), where=counts > 0)
        return rank, f1_terms.ravel(), (counts * counts).ravel()


def _angle_bins(angles, bin_count: int) -> np.ndarray:
    """Bin index of each angle in [0, 2*pi); the top edge folds into the last bin."""
    if bin_count < 1:
        raise ValueError("bin_count must be at least 1")
    angles = np.asarray(angles, dtype=float)
    if ((angles < 0.0) | (angles >= _TWO_PI)).any():
        raise ValueError("angles must lie in [0, 2*pi)")
    return np.minimum((angles * bin_count / _TWO_PI).astype(np.int64), bin_count - 1)


def build_histogram(angles, bin_count: int) -> AngleHistogram:
    """Histogram of node angles (any iterable) over `bin_count` equal bins."""
    bins = _angle_bins(list(angles), bin_count)
    if bins.size == 0:
        raise ValueError("at least one angle is required")
    return AngleHistogram(np.bincount(bins, minlength=bin_count))


def evaluate_threshold_sets(h: AngleHistogram, tmat: np.ndarray,
                            w: ObjectiveWeights) -> np.ndarray:
    """The composite clustering objective, in [0, 1] and higher is better,
    of each row of a (batch, k-1) matrix of sorted thresholds, read from the
    histogram's segment table.

    With c_j and W_j the node count and index sum of segment j, and N, M
    and Q the sums of count_b, b * count_b and b**2 * count_b, the angle term
    is the between-segment variance over the total one in the between-class
    form of Otsu (IEEE Trans. SMC 9(1), 1979), (sum of W_j**2 / c_j - M**2/N)
    / (Q - M**2/N), 0 for a degenerate histogram; its two constants are
    rounded once from exact integers. The balance term 1/(1 + f2), f2 = sum
    of (c_j - N/k)**2 / N, is kN / (kN + kS - N**2) with S = sum of c_j**2,
    exact in int64 and multiplied by k in float64: while k * N * (N + 1) <=
    2**53 every operand is an exact integer and the term correctly rounded.

    Every row must be a valid threshold set for the histogram, strictly
    increasing within [1, bin_count - 1], as `ThresholdSet` and `validate_for`
    require; a (batch, 0) matrix scores the single segment k = 1. Each
    set's f1 terms are added in segment order, left to right, so a set
    scores the same alone as in any batch.
    """
    tmat = np.asarray(tmat, dtype=np.int64)
    if tmat.ndim != 2:
        raise ValueError("expected a 2-D threshold matrix")
    batch, dim = tmat.shape
    # segment-major from here: one row per threshold, boundary or segment,
    # one column per threshold set
    thresholds = np.ascontiguousarray(tmat.T)
    if batch and dim and (thresholds[0].min() < 1 or thresholds[-1].max() >= h.bin_count
                          or not (thresholds[1:] > thresholds[:-1]).all()):
        raise ValueError("threshold rows must be strictly increasing "
                         "within [1, bin_count - 1]")
    k = dim + 1
    rank, f1_terms, sq_counts = h.segment_table
    width = rank[-1] + 1
    ranks = np.empty((k + 1, batch), dtype=np.int64)
    ranks[0] = 0
    ranks[-1] = rank[-1]
    ranks[1:-1] = rank[thresholds]
    seg = ranks[:-1] * width
    seg += ranks[1:]
    return _objective(h, k, _sum_segments(f1_terms[seg]), sq_counts[seg].sum(axis=0), w)


def _objective(h: AngleHistogram, k: int, f1: np.ndarray, sq_sum: np.ndarray,
               w: ObjectiveWeights) -> np.ndarray:
    """The objective of k-segment threshold sets from their sums of f1 terms
    (float64) and of squared node counts S (int64)."""
    n = h.total
    f1_norm = (f1 - h._f1_offset) / h._f1_scale if h._f1_scale > 0 else np.zeros(f1.size)
    balance = float(k * n) / (sq_sum * float(k) + float(k * n - n * n))
    return w.alpha1 * f1_norm + w.alpha2 * balance


def _sum_segments(terms: np.ndarray) -> np.ndarray:
    """Column sums of a (k, batch) array, the k rows added in order from +0.0."""
    out = terms[0] + 0.0
    for row in terms[1:]:
        out += row
    return out


def _subtree_bound(h: AngleHistogram, k: int, w: ObjectiveWeights):
    """A function bound(depth, t, f1, s) that no leaf below the given nodes
    can exceed: nodes of `depth` thresholds, the last at t, whose segments
    have the f1 and S sums that `_scored_leaves` keeps.

    Suffix tables over boundary ranks, one DP pass per segment count r as in
    the multilevel-Otsu DP of Luessi et al. (J. Electron. Imaging 18(1),
    2009), hold the largest f1 sum and the smallest S that r segments, empty
    ones allowed, reach from each rank. S is exact. A leaf adds its r terms
    x_i >= 0 to its node's float f1 p in r roundings, so its f1 is at most
    (p + sum x_i)(1 + u)**r, u = 2**-53. The table's float sum is at least
    (1 - u)**(r - 1) times the largest exact sum x_i, and adding p and
    scaling by `grow` each round down by at most a factor 1 - u. So grow = 1
    + 4(k + 1)u, above (1 + u)**r / (1 - u)**(r + 1) for every r <= k, makes
    the f1 part an upper bound on every leaf's f1, and `_objective`,
    monotone in each argument rounding included, the result one on its value.
    """
    rank, f1_terms, sq_counts = h.segment_table
    width = rank[-1] + 1
    upper = np.triu(np.ones((width, width), dtype=bool))
    terms, squares = f1_terms.reshape(width, width), sq_counts.reshape(width, width)
    f1_max, s_min = np.zeros((k, width)), np.zeros((k, width), dtype=np.int64)
    f1_max[1], s_min[1] = terms[:, -1], squares[:, -1]
    for r in range(2, k):
        # r segments start at a boundary in k - r .. bins - r and the next
        # one further on: only those ranks are filled and read
        rows = slice(rank[k - r], rank[h.bin_count - r] + 1)
        cols = slice(rank[k - r + 1], rank[h.bin_count - r + 1] + 1)
        after = upper[rows, cols]
        f1_max[r, rows] = np.where(after, terms[rows, cols] + f1_max[r - 1, cols], -np.inf).max(1)
        s_min[r, rows] = np.where(after, squares[rows, cols] + s_min[r - 1, cols],
                                  h.total ** 2).min(1)
    grow = 1.0 + (k + 1) * 2.0 ** -51

    def bound(depth, t, f1, s):
        r = rank[t]
        return _objective(h, k, (f1 + f1_max[k - depth][r]) * grow, s + s_min[k - depth][r], w)
    return bound


def _scored_leaves(h: AngleHistogram, k: int, w: ObjectiveWeights):
    """The threshold sets of a k-way split (k >= 2) that can still beat the
    best found, in lexicographic order, with their objective, from a walk of
    the tree of threshold prefixes.

    A node at depth j is a prefix t_1 < ... < t_j, t_j <= bin_count - k + j,
    with the f1 sum of its j segments, added left to right from +0.0, and
    their int64 S. A child adds one segment to its parent's sums and a leaf
    (depth k - 1) the closing one, so each prefix's sums are added once and
    each leaf's are `evaluate_threshold_sets`'s, bit for bit. A node ending
    at t has C(bin_count - 1 - t, k - 1 - j) leaves; one with more than
    `EXHAUSTIVE_BLOCK` is split, its children walked one by one. Runs of
    children holding at most `EXHAUSTIVE_BLOCK` leaves are expanded level by
    level, one batch each.

    Pruning drops an inner node whose `_subtree_bound` is below a floor, the
    value of the leaf that a greedy dive down the bound reaches, or not
    above the best leaf yielded so far: no leaf below it can be the
    optimum, or beat an earlier leaf. The first maximizer is never dropped.

    Yields (prefix, levels, values) per batch: the prefix its leaves share;
    one (thresholds, ends) pair per depth below it, ends[i] one past the
    last child of node i (None at the leaves); and the leaves' objective.
    """
    rank, f1_terms, sq_counts = h.segment_table
    width, bins, block = rank[-1] + 1, h.bin_count, EXHAUSTIVE_BLOCK
    bound, best = _subtree_bound(h, k, w), -math.inf
    t, f1, s = 0, 0.0, 0
    for depth in range(1, k):   # the greedy dive
        child = np.arange(t + 1, bins - k + depth + 1)
        seg = rank[t] * width + rank[child]
        f1s, ss = f1 + f1_terms[seg], s + sq_counts[seg]
        i = int(np.argmax(bound(depth, child, f1s, ss)))
        t, f1, s = child[i], f1s[i], ss[i]
    seg = rank[t] * width + rank[-1]
    floor = _objective(h, k, f1 + f1_terms[seg], s + sq_counts[seg], w)

    def kept(depth, t, f1, s):
        """The bounds of the nodes (t, f1, s) at `depth`, inf at the leaves,
        and which of them to walk."""
        b = bound(depth, t, f1, s) if depth < k - 1 else np.full(t.size, math.inf)
        return b, (b >= floor) & (b > best)

    def children(t, f1, s, top, keep):
        """The children of the kept nodes (t, f1, s) whose next threshold
        runs to `top`, and one past each node's last child."""
        fan = np.where(keep, top - t, 0)
        ends = np.cumsum(fan)
        child = np.arange(ends[-1]) + np.repeat(t + 1 + fan - ends, fan)
        seg = np.repeat(rank[t] * width, fan) + rank[child]
        return child, ends, np.repeat(f1, fan) + f1_terms[seg], np.repeat(s, fan) + sq_counts[seg]

    # nodes whose children from `first` on are still to walk, with their
    # bound: (prefix, f1, S, first, bound)
    stack = [((), 0.0, 0, 1, math.inf)]
    while stack:
        prefix, f1, s, first, b = stack.pop()
        if b <= best:
            continue
        depth, row = len(prefix) + 1, rank[prefix[-1] if prefix else 0] * width
        left, top = k - 1 - depth, bins - k + depth   # thresholds below a child; last child
        t = np.arange(first, top + 1)
        seg = row + rank[t]
        f1s, ss = f1 + f1_terms[seg], s + sq_counts[seg]
        bounds, keep = kept(depth, t, f1s, ss)
        # the children with more than `block` leaves come first; each is walked alone
        big = bisect.bisect_left(range(first, top + 1), True,
                                 key=lambda c: math.comb(bins - 1 - c, left) <= block)
        if big:
            if big < t.size:
                stack.append((prefix, f1, s, first + big, b))
            for i in np.flatnonzero(keep[:big])[::-1]:
                stack.append((prefix + (int(t[i]),), f1s[i], ss[i], int(t[i]) + 1, bounds[i]))
            continue
        starts = np.flatnonzero(keep)
        while starts.size:
            lo = starts[0]
            # the children t[lo]..last hold C(bins - t[lo], left + 1) -
            # C(bins - 1 - last, left + 1) leaves (Pascal's rule, summed)
            room = math.comb(bins - first - lo, left + 1) - block
            last = bins - 1 - bisect.bisect_left(range(left, bins - first - lo), room,
                                                 key=lambda x: math.comb(x, left + 1)) - left
            run = slice(lo, last - first + 1)
            starts = starts[starts >= run.stop]
            level, f1r, sr, keep_run = t[run], f1s[run], ss[run], keep[run]
            levels = []
            for j in range(depth + 1, k):
                child, ends, f1r, sr = children(level, f1r, sr, bins - k + j, keep_run)
                levels.append((level, ends))
                level = child
                if not level.size:
                    break
                keep_run = kept(j, level, f1r, sr)[1] if j < k - 1 else None
            else:   # some leaves were kept
                levels.append((level, None))
                seg = rank[level] * width + rank[-1]
                values = _objective(h, k, f1r + f1_terms[seg], sr + sq_counts[seg], w)
                best = max(best, values.max())
                yield prefix, levels, values


def _leaf_thresholds(prefix: tuple[int, ...], levels, rows) -> np.ndarray:
    """The threshold sets of the given leaves of a `_scored_leaves` batch,
    as a (rows, k - 1) int64 matrix."""
    rows = np.asarray(rows, dtype=np.int64)
    columns = []
    for t, ends in reversed(levels):
        if ends is not None:
            rows = np.searchsorted(ends, rows, side="right")   # each row's parent
        columns.append(t[rows])
    return np.column_stack([np.full(rows.size, v, dtype=np.int64) for v in prefix]
                           + columns[::-1])


def exhaustive_best_threshold(h: AngleHistogram, k: int,
                              w: ObjectiveWeights) -> tuple[ThresholdSet, float]:
    """Global maximizer of the composite objective by full enumeration.

    Ties resolve to the lexicographically smallest threshold set. Guarded
    against combinatorial blowup; intended for oracle use at small bin
    counts. The sets are scored along the tree of their prefixes
    (`_scored_leaves`), in batches of at most `EXHAUSTIVE_BLOCK` leaves:
    the walk of the multilevel-Otsu dynamic programme of Luessi et al.
    (J. Electron. Imaging 18(1), 2009) without its merge of states. A
    subtree whose exact bound (`_subtree_bound`) cannot beat the best set
    is skipped, so where the bound is tight few sets are scored, and where
    it is not (exact ties, say) the walk scores them all. Only the winning
    set is rebuilt, so nothing else grows with the number of sets.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > h.bin_count:
        raise ValueError("more segments than bins")
    if k == 1:
        single = evaluate_threshold_sets(h, np.zeros((1, 0), np.int64), w)
        return ThresholdSet((), 1), float(single[0])
    n_combos = math.comb(h.bin_count - 1, k - 1)
    if n_combos > EXHAUSTIVE_CAP:
        raise ValueError(
            f"{n_combos} candidate threshold sets exceed the cap of {EXHAUSTIVE_CAP}"
        )
    best_val = -math.inf
    best_t: tuple[int, ...] | None = None
    for prefix, levels, vals in _scored_leaves(h, k, w):
        i = int(np.argmax(vals))
        # strict improvement keeps the first (lexicographically smallest) maximizer
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_t = tuple(_leaf_thresholds(prefix, levels, [i])[0].tolist())
    assert best_t is not None
    return ThresholdSet(best_t, k), best_val


def materialize_clusters(angles, t: ThresholdSet, bin_count: int) -> np.ndarray:
    """Label each node with the angular segment containing its angle bin.

    Takes one angle per node to cluster and returns one segment index in
    0..k-1 per angle; a segment may receive no node.
    """
    t.validate_for(bin_count)
    thresholds = np.asarray(t.thresholds, dtype=np.int64)
    return np.searchsorted(thresholds, _angle_bins(angles, bin_count), side="right")
