"""Per-cluster head election from residual energy and ring proximity.

Heads should sit close to the minimum-energy ring around the sink, but
rotating the role toward members with more residual energy keeps any single
node from burning out. The attribute score trades the two off.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SelectionWeights:
    omega1: float = 0.7        # residual-energy weight
    omega2: float = 0.3        # ring-proximity weight
    ring_radius_m: float = 90.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.omega1 <= 1.0 and 0.0 <= self.omega2 <= 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if abs(self.omega1 + self.omega2 - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if self.ring_radius_m < 0:
            raise ValueError("ring_radius_m must be non-negative")


def distance_to_ring(node_bs_distance, ring_radius: float):
    """Radial distance from nodes (a float or an array of distances to the
    sink) to the circle of the given radius."""
    d = np.asarray(node_bs_distance, dtype=float)
    if (d < 0).any() or ring_radius < 0:
        raise ValueError("distances must be non-negative")
    return np.abs(d - ring_radius)


def _distance_term(ring_d, cluster_min_d, cluster_max_d):
    gap = np.subtract(cluster_max_d, ring_d)
    spread = np.subtract(cluster_max_d, cluster_min_d)
    return np.divide(gap, spread, out=np.ones(np.broadcast(gap, spread).shape),
                     where=spread != 0)


def attribute_score(energy_fraction, ring_d, cluster_min_d, cluster_max_d,
                    w: SelectionWeights):
    """Head-election score in [0, 1]; higher is better. Takes floats or
    equal-length arrays, one entry per candidate.

    `energy_fraction` is residual over initial energy and `ring_d` the
    candidate's distance to the ring. `cluster_min_d`/`cluster_max_d` are
    the smallest and largest ring distances among the candidate's cluster.
    When they coincide (singleton or equidistant cluster) every member is
    positionally optimal and the distance term is 1.
    """
    if np.any(np.greater(cluster_min_d, cluster_max_d)):
        raise ValueError("cluster_min_d must not exceed cluster_max_d")
    distance_term = _distance_term(ring_d, cluster_min_d, cluster_max_d)
    return w.omega1 * energy_fraction + w.omega2 * distance_term


class Grouping:
    """One clustering's members grouped by cluster: `labels[i]` is node i's
    cluster in 0..k-1, or -1 outside every cluster. Holds the clustered ids
    in id order (`members`) with their labels, and the non-empty `clusters`
    with their `sizes` and `starts`, offsets into `ids`, the members in
    (cluster, id) order. `ids` and `starts` are made on first read: RLEACH
    groups every round and needs only the sizes."""

    def __init__(self, labels, k: int) -> None:
        labels = np.asarray(labels)
        self.k = k
        self.members = (labels >= 0).nonzero()[0]
        self.member_labels = labels[self.members]
        counts = np.bincount(self.member_labels, minlength=k)
        if counts.size > k:
            raise ValueError("labels must lie in -1..k-1")
        self.clusters = counts.nonzero()[0]
        self.sizes = counts[self.clusters]

    @functools.cached_property
    def ids(self) -> np.ndarray:
        return self.members[np.argsort(self.member_labels, kind="stable")]

    @functools.cached_property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.sizes) - self.sizes


class ElectionTerms:
    """The part of head election that one clustering fixes: the `grouping`
    and its members' weighted distance term `omega2 * term`, in `ids` order
    (`distance_to_bs` has one entry per node), so that a round's election
    only adds the energy term and takes each group's maximum."""

    def __init__(self, grouping: Grouping, distance_to_bs, w: SelectionWeights) -> None:
        g = grouping
        ring_d = distance_to_ring(np.asarray(distance_to_bs)[g.ids], w.ring_radius_m)
        d_min = np.repeat(np.minimum.reduceat(ring_d, g.starts), g.sizes)
        d_max = np.repeat(np.maximum.reduceat(ring_d, g.starts), g.sizes)
        self.grouping = g
        self.omega1 = w.omega1
        self.group = np.repeat(np.arange(g.clusters.size), g.sizes)
        self.distance_term = w.omega2 * _distance_term(ring_d, d_min, d_max)


def select_cluster_heads(terms: ElectionTerms, energy_fraction) -> np.ndarray:
    """Elect the highest-scoring member of each of the grouping's k clusters.

    `energy_fraction` holds residual over initial energy, one entry per
    node. Returns each cluster's head id, -1 for an empty cluster. Ties
    break toward the lowest node id.
    """
    g = terms.grouping
    score = terms.omega1 * energy_fraction[g.ids] + terms.distance_term
    best = np.maximum.reduceat(score, g.starts)
    top = (score == best[terms.group]).nonzero()[0]
    heads = np.full(g.k, -1)
    # members are in id order within a cluster, so its first top score has the lowest id
    heads[g.clusters] = g.ids[top[np.searchsorted(top, g.starts)]]
    return heads
