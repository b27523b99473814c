"""Per-cluster head election from residual energy and ring proximity.

Heads should sit close to the minimum-energy ring around the sink, but
rotating the role toward members with more residual energy keeps any single
node from burning out. The attribute score trades the two off.
"""

from __future__ import annotations

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
    gap = np.subtract(cluster_max_d, ring_d)
    spread = np.subtract(cluster_max_d, cluster_min_d)
    distance_term = np.divide(gap, spread, out=np.ones(np.broadcast(gap, spread).shape),
                              where=spread != 0)
    return w.omega1 * energy_fraction + w.omega2 * distance_term


def select_cluster_heads(labels, k: int, energy_fraction, distance_to_bs,
                         w: SelectionWeights) -> np.ndarray:
    """Elect the highest-scoring member of each of `k` clusters.

    `labels[i]` is node i's cluster in 0..k-1, or -1 for a node outside
    every cluster (the dead). `energy_fraction` and `distance_to_bs` are
    arrays with one entry per node. Returns each cluster's head id, -1 for
    an empty cluster. Ties break toward the lowest node id.
    """
    if (labels >= k).any():
        raise ValueError("labels must lie in -1..k-1")
    ids = np.flatnonzero(labels >= 0)
    lab = labels[ids]
    ring_d = distance_to_ring(distance_to_bs[ids], w.ring_radius_m)
    d_min = np.full(k, np.inf)
    d_max = np.full(k, -np.inf)
    np.minimum.at(d_min, lab, ring_d)
    np.maximum.at(d_max, lab, ring_d)
    score = attribute_score(energy_fraction[ids], ring_d, d_min[lab], d_max[lab], w)
    # by cluster, best score first, lowest id among equals
    order = np.lexsort((ids, -score, lab))
    first = order[np.diff(lab[order], prepend=-1) != 0]
    heads = np.full(k, -1)
    heads[lab[first]] = ids[first]
    return heads
