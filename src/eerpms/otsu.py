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

    Prefix sums of the bin probabilities, index-weighted probabilities and
    raw counts are precomputed so that any segment statistic is O(1).
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
        p = counts / total
        idx = np.arange(self.bin_count)
        self.p = p
        self.cum_p = np.concatenate(([0.0], np.cumsum(p)))
        self.cum_ip = np.concatenate(([0.0], np.cumsum(idx * p)))
        self.cum_counts = np.concatenate(([0], np.cumsum(counts)))
        self.mean = float(self.cum_ip[-1])
        self.variance = float(np.sum(p * (idx - self.mean) ** 2))
        self._f2_terms: dict[int, np.ndarray] = {}

    @functools.cached_property
    def segment_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every segment's f1 term and node count, for lookup by boundary rank.

        Returns (rank, f1_terms, counts). `rank[b]` is the number of occupied
        bins below boundary b: the prefix sums stay bitwise constant across
        empty bins (each adds 0.0), so boundaries of equal rank give equal
        segment statistics. Entry [ra * width + rb] of the flat (width**2,)
        tables, width = occupied bins + 1, holds the segment from rank ra to
        rank rb: its f1 term w * (u - mean)**2, from its probability mass w
        and mean bin index u (0 for an empty segment), and its node count.
        """
        rank = np.concatenate(([0], np.cumsum(self.counts > 0)))
        first = np.diff(rank, prepend=-1).nonzero()[0]  # one boundary per rank
        cum_p, cum_ip, cum_counts = self.cum_p[first], self.cum_ip[first], self.cum_counts[first]
        mass = cum_p[None, :] - cum_p[:, None]
        weighted = cum_ip[None, :] - cum_ip[:, None]
        u = np.divide(weighted, mass, out=np.zeros_like(weighted), where=mass > 0)
        f1_terms = mass * (u - self.mean) ** 2
        counts = cum_counts[None, :] - cum_counts[:, None]
        return rank, f1_terms.ravel(), counts.ravel()

    def f2_terms(self, k: int) -> np.ndarray:
        """(count - total/k)**2 for every entry of the segment table's counts,
        the summands of the f2 term of a k-way split; cached per k."""
        table = self._f2_terms.get(k)
        if table is None:
            table = (self.segment_table[2] - self.total / k) ** 2
            self._f2_terms[k] = table
        return table


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

    The angle term f1 is the between-segment variance of mean bin indices,
    weighted by mass, over the total histogram variance (0 when the
    histogram is degenerate). The balance term is 1/(1 + f2), f2 the mean
    squared deviation of segment populations from the even split total/k,
    normalized by the total, so maximizing it evens out the populations.

    Every row must be a valid threshold set for the histogram, strictly
    increasing within [1, bin_count - 1], as `ThresholdSet` and `validate_for`
    require; a (batch, 0) matrix scores the single segment k = 1.
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
    rank, f1_terms, _ = h.segment_table
    width = rank[-1] + 1
    ranks = np.empty((k + 1, batch), dtype=np.int64)
    ranks[0] = 0
    ranks[-1] = rank[-1]
    ranks[1:-1] = rank[thresholds]
    seg = ranks[:-1] * width
    seg += ranks[1:]
    f1 = _sum_segments(f1_terms[seg])
    f2 = _sum_segments(h.f2_terms(k)[seg]) / h.total
    f1_norm = f1 / h.variance if h.variance > 0 else np.zeros(batch)
    return w.alpha1 * f1_norm + w.alpha2 * (1.0 / (1.0 + f2))


def _sum_segments(terms: np.ndarray) -> np.ndarray:
    """Column sums of a (k, batch) array, bit for bit the row sums that
    `.sum(axis=1)` gives on its C-contiguous transpose.

    numpy sums a contiguous row of k terms pairwise, from +0.0: in order
    below 8 terms; up to 128 in eight partial sums over strides of 8, folded
    as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and followed by the rest in
    order; above 128 as two halves cut at a multiple of 8. This runs the
    same order on every column at once. +0.0 only turns a -0.0 sum into
    +0.0, so it may be added after the fold and in each half."""
    n = len(terms)
    if n < 8:
        out = terms[0] + 0.0
        for row in terms[1:]:
            out += row
        return out
    if n > 128:
        half = n // 2 - n // 2 % 8
        out = _sum_segments(terms[:half])
        out += _sum_segments(terms[half:])
        return out
    rest = n - n % 8
    partial = terms[:8]
    if rest > 8:
        partial = partial + terms[8:16]
        for i in range(16, rest, 8):
            partial += terms[i:i + 8]
    pairs = partial[0::2] + partial[1::2]
    quads = pairs[0::2] + pairs[1::2]
    out = quads[0] + quads[1]
    out += 0.0
    for row in terms[rest:]:
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
