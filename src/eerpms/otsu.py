"""Angle-histogram clustering machinery.

Nodes are binned by their angle around the sink; a set of K-1 integer
thresholds cuts the bins into K angular segments. The composite objective
rewards large between-segment angle variance (the classical multi-threshold
between-class criterion) and even segment populations. An exhaustive search
over all threshold sets serves as the ground-truth oracle for the
metaheuristic optimizer.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

#: Maximum number of threshold combinations the exhaustive search will visit.
EXHAUSTIVE_CAP = 10_000_000
#: Most threshold sets the exhaustive search scores in one call.
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
    k, n = dim + 1, h.total
    rank, f1_terms, sq_counts = h.segment_table
    width = rank[-1] + 1
    ranks = np.empty((k + 1, batch), dtype=np.int64)
    ranks[0] = 0
    ranks[-1] = rank[-1]
    ranks[1:-1] = rank[thresholds]
    seg = ranks[:-1] * width
    seg += ranks[1:]
    f1 = _sum_segments(f1_terms[seg])
    f1_norm = (f1 - h._f1_offset) / h._f1_scale if h._f1_scale > 0 else np.zeros(batch)
    balance = float(k * n) / (sq_counts[seg].sum(axis=0) * float(k) + float(k * n - n * n))
    return w.alpha1 * f1_norm + w.alpha2 * balance


def _sum_segments(terms: np.ndarray) -> np.ndarray:
    """Column sums of a (k, batch) array, the k rows added in order from +0.0."""
    out = terms[0] + 0.0
    for row in terms[1:]:
        out += row
    return out


def _combination_blocks(hi: int, size: int, max_rows: int):
    """The `size`-combinations of 1..hi-1 in lexicographic order, as int64
    blocks of at most `max_rows` rows (size >= 1); each block is the
    transpose of a C-contiguous (size, rows) array.

    Each row is decoded from its rank in the combinatorial number system
    (Knuth, TAOCP 4A, 7.2.1.3). With a = hi - 1 - v for each value v, row r
    of the `total` rows has reverse rank q = total - 1 - r = sum of
    C(a_j, m) over its columns, m = size, ..., 1, and each a_j is the
    largest a with C(a, m) at most the rank left. Every rank is below
    `total` (at most `EXHAUSTIVE_CAP` in the search), so binomials capped at
    `total` decode the same and fit int64."""
    total = math.comb(hi - 1, size)
    tables = [np.array([min(math.comb(a, m), total) for a in range(hi - 1)], dtype=np.int64)
              for m in range(size, 1, -1)]
    for start in range(0, total, max_rows):
        q = total - 1 - np.arange(start, min(start + max_rows, total), dtype=np.int64)
        block = np.empty((size, q.size), dtype=np.int64)
        for column, table in zip(block, tables):
            a = np.searchsorted(table, q, side="right") - 1
            q -= table[a]
            np.subtract(hi - 1, a, out=column)
        np.subtract(hi - 1, q, out=block[-1])
        yield block.T


def exhaustive_best_threshold(h: AngleHistogram, k: int,
                              w: ObjectiveWeights) -> tuple[ThresholdSet, float]:
    """Global maximizer of the composite objective by full enumeration.

    Ties resolve to the lexicographically smallest threshold set. Guarded
    against combinatorial blowup; intended for oracle use at small bin
    counts. The candidates are scored in lexicographic blocks of at most
    `EXHAUSTIVE_BLOCK` rows, each decoded from its rows' ranks against
    binomial tables of (k - 2) x (bin count - 1) entries, so nothing else
    grows with the number of sets.
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
    for block in _combination_blocks(h.bin_count, k - 1, EXHAUSTIVE_BLOCK):
        vals = evaluate_threshold_sets(h, block, w)
        i = int(np.argmax(vals))
        # strict improvement keeps the first (lexicographically smallest) maximizer
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_t = tuple(block[i].tolist())
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
