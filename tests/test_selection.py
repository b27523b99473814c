import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eerpms import (
    ElectionTerms,
    Grouping,
    SelectionWeights,
    distance_to_ring,
    select_cluster_heads,
)
from eerpms.selection import _distance_term


def elect(labels, dists, residuals, w, initial=0.5, k=None):
    """Heads of `k` clusters (default: one per distinct label) over nodes
    given by their labels, distances to the sink and residual energies."""
    labels = np.asarray(labels)
    k = int(labels.max()) + 1 if k is None else k
    fraction = np.asarray(residuals, dtype=float) / initial
    terms = ElectionTerms(Grouping(labels, k), np.asarray(dists, dtype=float), w)
    return select_cluster_heads(terms, fraction)


def attribute_score(energy_fraction, ring_d, cluster_min_d, cluster_max_d, w):
    """The head-election score of candidates given as floats or equal-length
    arrays: the reference that `select_cluster_heads` fuses into one pass."""
    if np.any(np.greater(cluster_min_d, cluster_max_d)):
        raise ValueError("cluster_min_d must not exceed cluster_max_d")
    distance_term = _distance_term(ring_d, cluster_min_d, cluster_max_d)
    return w.omega1 * energy_fraction + w.omega2 * distance_term


def lexsort_election(labels, k, energy_fraction, distance_to_bs, w):
    """The one-call election: every term recomputed, heads by one `lexsort`
    on (label, -score, id)."""
    ids = np.flatnonzero(labels >= 0)
    lab = labels[ids]
    ring_d = distance_to_ring(distance_to_bs[ids], w.ring_radius_m)
    d_min = np.full(k, np.inf)
    d_max = np.full(k, -np.inf)
    np.minimum.at(d_min, lab, ring_d)
    np.maximum.at(d_max, lab, ring_d)
    score = attribute_score(energy_fraction[ids], ring_d, d_min[lab], d_max[lab], w)
    order = np.lexsort((ids, -score, lab))
    first = order[np.diff(lab[order], prepend=-1) != 0]
    heads = np.full(k, -1)
    heads[lab[first]] = ids[first]
    return heads


def plain_score(residual, initial, dist, lo, hi, w):
    """The attribute score written out in plain Python."""
    d = abs(dist - w.ring_radius_m)
    distance_term = 1.0 if hi == lo else (hi - d) / (hi - lo)
    return w.omega1 * residual / initial + w.omega2 * distance_term


class TestDistanceToRing:
    def test_on_ring(self):
        assert distance_to_ring(90.0, 90.0) == 0.0

    def test_at_sink(self):
        assert distance_to_ring(0.0, 90.0) == 90.0

    def test_outside(self):
        assert distance_to_ring(150.0, 90.0) == 60.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            distance_to_ring(-1.0, 90.0)
        with pytest.raises(ValueError):
            distance_to_ring(np.array([10.0, -1.0]), 90.0)

    def test_array_matches_elementwise(self):
        dists = np.array([0.0, 45.5, 90.0, 149.9])
        assert distance_to_ring(dists, 90.0).tolist() == \
            [distance_to_ring(d, 90.0) for d in dists]


class TestAttributeScore:
    W = SelectionWeights(0.7, 0.3, 90.0)

    def test_perfect_candidate(self):
        assert attribute_score(1.0, 0.0, 0.0, 30.0, self.W) == pytest.approx(1.0)

    def test_worst_candidate(self):
        # zero energy but scored before the death flag flips
        assert attribute_score(0.0, 60.0, 0.0, 60.0, self.W) == pytest.approx(0.0)

    def test_midpoint_hand_value(self):
        # energy 0.5, distance term 0.5: 0.7*0.5 + 0.3*0.5 = 0.5
        d = distance_to_ring(120.0, 90.0)
        assert attribute_score(0.5, d, 0.0, 60.0, self.W) == pytest.approx(0.5)

    def test_degenerate_spread_gives_full_distance_term(self):
        d = distance_to_ring(120.0, 90.0)
        assert attribute_score(1.0, d, d, d, self.W) == pytest.approx(1.0)

    def test_invalid_spread_rejected(self):
        with pytest.raises(ValueError):
            attribute_score(1.0, 5.0, 10.0, 5.0, self.W)

    @settings(max_examples=100)
    @given(
        dist=st.floats(0.0, 150.0),
        residual=st.floats(0.0, 0.5),
        spread=st.floats(0.0, 80.0),
    )
    def test_bounds(self, dist, residual, spread):
        d = distance_to_ring(dist, 90.0)
        lo, hi = max(0.0, d - spread), d + spread
        score = attribute_score(residual / 0.5, d, lo, hi, self.W)
        assert -1e-12 <= score <= 1.0 + 1e-12

    def test_array_matches_plain_python(self):
        rng = np.random.default_rng(4)
        dists = rng.uniform(0, 150, 12)
        residuals = rng.uniform(0.0, 0.5, 12)
        ring_d = distance_to_ring(dists, 90.0)
        lo, hi = ring_d.min(), ring_d.max()
        scores = attribute_score(residuals / 0.5, ring_d, lo, hi, self.W)
        assert scores.tolist() == [plain_score(e, 0.5, d, lo, hi, self.W)
                                   for e, d in zip(residuals, dists)]


class TestSelectClusterHeads:
    W = SelectionWeights(0.7, 0.3, 90.0)

    def test_singleton_cluster(self):
        assert elect([0], [42.0], [0.3], self.W).tolist() == [0]

    def test_higher_energy_wins_equal_distance(self):
        # both 10 m off the ring: distance terms equal, energy decides
        assert elect([0, 0], [80.0, 100.0], [0.25, 0.5], self.W).tolist() == [1]

    def test_tie_breaks_to_lowest_id(self):
        assert elect([0, 0], [85.0, 85.0], [0.4, 0.4], self.W).tolist() == [0]

    def test_empty_cluster_stays_headless(self):
        assert elect([0, 0, 2], [85.0, 40.0, 100.0], [0.4, 0.4, 0.4], self.W,
                     k=4).tolist() == [0, -1, 2, -1]
        assert elect(np.full(0, -1), [], [], self.W, k=1).tolist() == [-1]

    def test_dead_member_rejected(self):
        # the dead carry label -1: never elected, whatever their score
        heads = elect([-1, 0, 0], [90.0, 20.0, 160.0], [0.5, 0.1, 0.1], self.W)
        assert heads.tolist() == [1]
        with pytest.raises(ValueError):
            elect([0, 1], [42.0, 50.0], [0.3, 0.3], self.W, k=1)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_argmax_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        dists = [float(rng.uniform(0, 150)) for _ in range(10)]
        residuals = [float(rng.uniform(0.01, 0.5)) for _ in range(10)]
        labels = rng.integers(0, 3, size=10)
        heads = elect(labels, dists, residuals, self.W, k=3)
        for c in range(3):
            members = [i for i in range(10) if labels[i] == c]
            if not members:
                assert heads[c] == -1
                continue
            ring_d = [abs(dists[i] - self.W.ring_radius_m) for i in members]
            lo, hi = min(ring_d), max(ring_d)
            scores = {i: plain_score(residuals[i], 0.5, dists[i], lo, hi, self.W)
                      for i in members}
            assert heads[c] == max(members, key=lambda i: (scores[i], -i))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31), scale=st.floats(0.05, 1.0))
    def test_argmax_invariant_under_common_energy_scaling(self, seed, scale):
        # members share one ring distance so the distance term cannot move;
        # scaling every residual energy by a common factor then preserves the
        # argmax (with mixed distance terms the trade-off point shifts and
        # the winner may legitimately change)
        rng = np.random.default_rng(seed)
        side = rng.integers(0, 2, size=8)
        dists = [90.0 + (25.0 if s else -25.0) for s in side]
        energies = np.array([float(rng.uniform(0.05, 0.5)) for _ in range(8)])
        labels = np.zeros(8, dtype=np.int64)
        head_a = elect(labels, dists, energies, self.W)
        head_b = elect(labels, dists, energies * scale, self.W)
        assert head_a.tolist() == head_b.tolist()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(0, 120), k=st.integers(1, 12),
           levels=st.integers(1, 6))
    def test_matches_lexsort_reference(self, seed, n, k, levels):
        # energies and distances from a few levels force tied scores; labels
        # drawn from a subset of 0..k-1 leave clusters empty; -1 marks the dead
        rng = np.random.default_rng(seed)
        used = rng.choice(np.arange(-1, k), size=int(rng.integers(1, k + 2)), replace=False)
        labels = rng.choice(used, size=n)
        fraction = rng.integers(1, levels + 1, size=n) / levels
        dists = rng.choice(np.linspace(0.0, 150.0, levels + 1), size=n)
        w = SelectionWeights(0.7, 0.3, float(rng.choice([0.0, 75.0, 90.0])))
        grouping = Grouping(labels, k)
        members = [i for i in sorted(range(n), key=lambda i: (labels[i], i)) if labels[i] >= 0]
        clusters = sorted(set(labels[members].tolist()))
        sizes = [int((labels == c).sum()) for c in clusters]
        assert grouping.ids.tolist() == members
        assert grouping.clusters.tolist() == clusters
        assert grouping.sizes.tolist() == sizes
        assert grouping.starts.tolist() == [sum(sizes[:j]) for j in range(len(sizes))]
        terms = ElectionTerms(grouping, dists, w)
        expected = lexsort_election(labels, k, fraction, dists, w)
        assert np.array_equal(select_cluster_heads(terms, fraction), expected)
        # the terms are fixed by the clustering: any later energies elect as the reference does
        later = fraction * rng.uniform(0.0, 1.0, size=n)
        assert np.array_equal(select_cluster_heads(terms, later),
                              lexsort_election(labels, k, later, dists, w))

    def test_grouping_rejects_labels_beyond_k(self):
        with pytest.raises(ValueError, match="labels must lie in -1..k-1"):
            Grouping(np.array([0, 2, -1]), 2)

    def test_head_is_member_and_alive(self):
        rng = np.random.default_rng(0)
        dists = rng.uniform(0, 150, 20)
        residuals = rng.uniform(0.01, 0.5, 20)
        labels = np.array([0, 0, 0, 1, 1] + [2] * 15)
        labels[[4, 9]] = -1  # dead
        heads = elect(labels, dists, residuals, self.W)
        for c, head in enumerate(heads):
            assert labels[head] == c


class TestWeightsValidation:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            SelectionWeights(0.7, 0.4, 90.0)

    def test_negative_ring_rejected(self):
        with pytest.raises(ValueError):
            SelectionWeights(0.5, 0.5, -1.0)

    @pytest.mark.parametrize("omega1, omega2", [(1.5, -0.5), (-0.5, 1.5)])
    def test_weight_outside_unit_interval_rejected(self, omega1, omega2):
        with pytest.raises(ValueError) as info:
            SelectionWeights(omega1, omega2, 90.0)
        assert str(info.value) == "weights must lie in [0, 1]"
