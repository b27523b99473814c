"""Angle-histogram clustering machinery.

Nodes are binned by their angle around the sink; a set of K-1 integer
thresholds cuts the bins into K angular segments. The composite objective
rewards large between-segment angle variance (the classical multi-threshold
between-class criterion) and even segment populations. An exact search, a
dynamic programme over boundary ranks, serves as the ground-truth oracle
for the metaheuristic optimizer.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

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


def _front(state: np.ndarray, f1: np.ndarray, s: np.ndarray, gap: int) -> np.ndarray:
    """Mask of the points that no point of their state removes, the points
    given in lexicographic order of their prefixes: p removes q when f1_p >=
    f1_q and either S_p <= S_q - gap, or S_p = S_q and p comes first.

    For gap = 2 these are all the removals that `exhaustive_best_threshold`
    allows; for a larger gap, a p that comes first with S less than gap below
    q's is not looked for. Both tests read running maxima over the points
    sorted by (state, S, order), of keys that rank f1, ties equal, above
    every key of the groups before.
    """
    order = np.lexsort((s, state))
    state, s = state[order], s[order]
    f1_rank = np.unique(f1, return_inverse=True)[1][order]
    span = int(f1_rank.max()) + 1
    s_values, s_rank = np.unique(s, return_inverse=True)
    cell = state * s_values.size + s_rank   # (state, S), ascending
    # an earlier point of the same state and S
    key = np.cumsum(np.diff(cell, prepend=-1) > 0) * span + f1_rank
    removed = np.maximum.accumulate(np.concatenate(([-1], key[:-1]))) >= key
    # any point of the same state whose S is at least `gap` smaller
    key = state * span + f1_rank
    below = np.searchsorted(cell, state * s_values.size
                            + np.searchsorted(s_values, s - gap, side="right"))
    removed |= np.concatenate(([-1], np.maximum.accumulate(key)))[below] >= key
    keep = np.empty(order.size, dtype=bool)
    keep[order] = ~removed
    return keep


def exhaustive_best_threshold(h: AngleHistogram, k: int,
                              w: ObjectiveWeights) -> tuple[ThresholdSet, float]:
    """Global maximizer of the composite objective: the largest value that
    `evaluate_threshold_sets` gives any threshold set, bit for bit, and the
    first set in lexicographic order that scores it.

    The multilevel-Otsu dynamic programme of Luessi et al. (J. Electron.
    Imaging 18(1), 2009) over boundary ranks, with S kept as a second
    criterion as in bicriterion label-setting (Hansen, "Bicriterion path
    problems", LNEMS 177, 1980). Boundaries of equal rank give equal
    segments, so of the sets with one rank sequence the lowest-bin one comes
    first, and these come in the order of their rank sequences. A threshold
    at t is therefore followed only by t + 1 or by a boundary that starts a
    higher rank, and a state, (thresholds placed, rank of the last one, how
    many share it), is (depth, t). A point of a state is a prefix with its
    f1 sum, added left to right from +0.0, and its int64 S. A move adds one
    segment to both, +0.0 and 0 at an already used rank, so each complete
    set scores as `evaluate_threshold_sets` scores it. A depth's points are
    made, and kept, in lexicographic order of their prefixes, by parent and
    then t, and the winner is rebuilt through their parents.

    Inside a state, p removes q only if f1_p >= f1_q, S_p <= S_q, and either
    p comes first or S_q - S_p >= gap (`_front`). Float addition and
    `_objective` are monotone, so p then scores at least as high as q after
    every completion, and q is never the first maximizer. In the second case
    q must score strictly lower. The balance term is y = 1/(1 + f2) with 0 <=
    f2 < N, so S larger by d lowers it by more than d/(N(N+1)**2). While
    k N (N + 1) <= 2**53, y is correctly rounded, and its rounding, that of
    alpha2 * y and that of the sum, below 2, cost less than 2**-50 in all.
    A drop of at least 2**-50 in alpha2 * y then survives them: gap =
    ceil(2**-50 N(N+1)**2 / alpha2), at least 2 and at most N**2. S lies in
    [N**2/k, N**2], so a gap of N**2 is never spanned: a tiny alpha2 leaves
    only the first case. Within a state S has the parity of the prefix's
    node count, so a gap of 2, which the default weights give up to N =
    10**5, takes every point dominated at a smaller S. When alpha2 = 0, S
    is ignored. The same rule over the points of one
    rank picks those that move on to a higher rank: they all reach it by
    the same segment.

    Meant for the oracle's N of up to a few hundred nodes: every move of a
    depth is held at once. At 360 bins and K = 10 on a 2-vCPU x86-64 Linux
    box, the searches of the default N = 100 run took 33-38 ms in the
    median and 0.13-0.18 s at most, with fronts of up to 78 points; a
    full-population search at N = 1000 took 3.8-4.3 s and peaked at
    378-394 MiB resident.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > h.bin_count:
        raise ValueError("more segments than bins")
    if k == 1:
        single = evaluate_threshold_sets(h, np.zeros((1, 0), np.int64), w)
        return ThresholdSet((), 1), float(single[0])
    rank, f1_terms, sq_counts = h.segment_table
    width, bins, n = rank[-1] + 1, h.bin_count, h.total
    gap = max(2, math.ceil(min(2.0 ** -50 * n * (n + 1) ** 2 / w.alpha2, n * n))) if w.alpha2 else 2

    def front(state, f1, s):
        return _front(state, f1, s if w.alpha2 else np.zeros_like(s), gap)

    # boundary b starts a rank when bin b - 1 is occupied
    opens = np.concatenate(([False], h.counts[:-1] > 0))
    t, f1, s = np.zeros(1, dtype=np.int64), np.zeros(1), np.zeros(1, dtype=np.int64)
    moves = []
    for depth in range(1, k):
        b = np.arange(bins - k + depth + 1)   # room for the thresholds after this one
        lead = front(rank[t], f1, s)   # the points that start a higher rank
        parent, child = np.nonzero(np.where(opens[b], lead[:, None] & (b > t[:, None]),
                                            b == t[:, None] + 1))
        seg = rank[t[parent]] * width + rank[child]
        t, f1, s = child, f1[parent] + f1_terms[seg], s[parent] + sq_counts[seg]
        if depth < k - 1:   # the last depth's points are only scored
            keep = front(t, f1, s)
            parent, t, f1, s = parent[keep], t[keep], f1[keep], s[keep]
        moves.append((t, parent))
    seg = rank[t] * width + rank[-1]
    values = _objective(h, k, f1 + f1_terms[seg], s + sq_counts[seg], w)
    i = int(np.argmax(values))
    best = float(values[i])
    thresholds = []
    for t, parent in reversed(moves):
        thresholds.append(int(t[i]))
        i = parent[i]
    return ThresholdSet(tuple(thresholds[::-1]), k), best


def materialize_clusters(angles, t: ThresholdSet, bin_count: int) -> np.ndarray:
    """Label each node with the angular segment containing its angle bin.

    Takes one angle per node to cluster and returns one segment index in
    0..k-1 per angle; a segment may receive no node.
    """
    t.validate_for(bin_count)
    thresholds = np.asarray(t.thresholds, dtype=np.int64)
    return np.searchsorted(thresholds, _angle_bins(angles, bin_count), side="right")
