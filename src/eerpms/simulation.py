"""Round-based network simulation with pluggable clustering protocols.

One round = (re-)clustering when triggered, head election, data
transmission, energy accounting. The engine owns a single seeded RNG, so a
(config, seed) pair fully determines every metric stream.

Death semantics: all round costs are computed from the start-of-round
structure, then deducted with clamping at zero. A node that cannot afford
its full cost spends what it has (the packet is lost) and is dead from the
next round on. This keeps the energy-conservation identity exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bat import optimize_thresholds
from .config import NetworkConfig
from .fcm import fuzzy_c_means
from .network import Cluster, ClusterAssignment, Node, Protocol
from .otsu import ObjectiveWeights, build_histogram, materialize_clusters
from .radio import aggregation_energy, rx_energy, tx_energy
from .selection import ElectionTerms, Grouping, SelectionWeights, select_cluster_heads
from .theory import AreaSpec, optimal_ch_distance

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RoundMetrics:
    round_index: int
    alive_count: int
    total_residual_j: float
    spent_j: float
    ch_count: int
    per_ch_energy_j: tuple[float, ...]
    member_counts: tuple[int, ...]
    dead_node_ids: tuple[int, ...]

    @property
    def ch_energy_mean_j(self) -> float:
        if not self.per_ch_energy_j:
            return 0.0
        return sum(self.per_ch_energy_j) / len(self.per_ch_energy_j)

    @property
    def ch_energy_var(self) -> float:
        return _population_variance(self.per_ch_energy_j)

    @property
    def member_count_var(self) -> float:
        return _population_variance(self.member_counts)


def _population_variance(values) -> float:
    """Mean squared deviation from the mean; 0.0 for no values."""
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return sum((v - mean) * (v - mean) for v in values) / len(values)


@dataclass(frozen=True)
class LifetimeSummary:
    fdn_round: int | None      # first death
    hdn_round: int | None      # dead count first reaches ceil(N/2)
    ldn_round: int | None      # last death
    rounds_completed: int


@dataclass
class SimulationResult:
    config: NetworkConfig
    rounds: list[RoundMetrics]
    lifetime: LifetimeSummary


def deploy(area: AreaSpec, seed) -> list[Node]:
    """Place `node_count` nodes i.i.d. uniform over the disk (area-uniform:
    r = R*sqrt(u), theta = 2*pi*v). Deterministic per seed."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    r = area.radius_m * np.sqrt(rng.random(area.node_count))
    theta = _TWO_PI * rng.random(area.node_count)
    return [Node(id=i, x=ri * math.cos(ti), y=ri * math.sin(ti), distance_to_bs=ri, angle=ti)
            for i, (ri, ti) in enumerate(zip(r.tolist(), theta.tolist()))]


class Simulation:
    """Simulation state and the one round path of all three protocols.

    Node state lives in arrays indexed by node id: position (`x`, `y`,
    `d_bs`, `angle`), residual `energy`, the `alive` mask and the cluster
    `labels` (-1 outside every cluster); `heads` holds one head id per
    cluster (-1 for an empty one). These two arrays are the only record of
    the clustering. `grouping` groups `labels` by cluster once per
    clustering, for costing, election and `assignment`, a per-step cached
    view of the clustering as lists.

    A round (`step`) takes the alive ids from `alive` once, elects heads with
    them, then charges the round (`_transmit`).
    RLEACH elects by rotation (`_elect_rleach`); EERPMS and CRPFCM partition
    the alive nodes whenever their count changes (`_recluster`), then elect
    each cluster's head by residual energy and ring proximity.
    """

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.nodes = deploy(AreaSpec(config.radius_m, config.node_count), self.rng)
        n = config.node_count
        self.x, self.y, self.d_bs, self.angle = np.array(list(zip(*self.nodes))[1:])
        self.energy = np.full(n, config.initial_energy_j)
        self.alive = np.ones(n, dtype=bool)
        self.labels = np.full(n, -1)
        self.heads = np.full(0, -1)
        self.grouping = Grouping(self.labels, 0)
        self.round_index = 0
        self._election: ElectionTerms | None = None
        self._alive_ids = np.zeros(0, dtype=np.int64)
        self.clustering_events = 0
        self._election_p = min(1.0, config.cluster_count(n) / n)
        self._epoch_len = int(1.0 / self._election_p)
        self._eligible = np.ones(n, dtype=bool)

    def _set_clusters(self, alive, labels, k: int) -> None:
        """Cluster the alive nodes, `alive` from `step()`, into `k` clusters:
        `labels` gives each one's cluster, or -1 for every alive node when
        there are no clusters. Fixes, until the next clustering (every death
        triggers one), the grouping, the alive ids, those that send straight
        to the sink and each served cluster's head cost before its sink link:
        every head is a member of its cluster, so it receives size - 1 packets."""
        self.labels[:] = -1
        self.labels[alive] = labels
        self.grouping = g = Grouping(self.labels, k)
        self._alive_ids = alive
        self._direct = alive[self.labels[alive] < 0]
        radio = self.config.radio
        self._head_cost = ((g.sizes - 1) * rx_energy(radio, radio.packet_bits)
                           + aggregation_energy(radio, radio.packet_bits, g.sizes))
        self._member_counts = tuple(g.sizes.tolist())  # one tuple shared by its rounds
        self.clustering_events += 1

    @functools.cached_property
    def _sink_tx(self) -> np.ndarray:
        """Every node's cost of one packet straight to the sink. `d_bs` never
        changes, so this is priced once, in the first round."""
        radio = self.config.radio
        return tx_energy(radio, radio.packet_bits, self.d_bs)

    @functools.cached_property
    def assignment(self) -> ClusterAssignment:
        """The current clustering as lists, built from `labels` and `heads` on
        first read and dropped by the next `step()`, so that reads within one
        round share one object. It exists only for the benchmark's round
        checks (`benchmark/checks.py`, and `benchmark/selfcheck.py`, which
        edits it in place)."""
        g = self.grouping
        sizes = np.zeros(g.k, dtype=np.int64)
        sizes[g.clusters] = g.sizes
        return ClusterAssignment([Cluster(ids.tolist(), h if h >= 0 else None) for ids, h in
                                  zip(np.split(g.ids, np.cumsum(sizes)[:-1]), self.heads.tolist())])

    # -- one round -------------------------------------------------------

    def step(self) -> RoundMetrics:
        alive = self.alive.nonzero()[0]
        if not alive.size:
            raise RuntimeError("no alive nodes left to simulate")
        self.round_index += 1
        self.__dict__.pop("assignment", None)
        if self.config.protocol is Protocol.RLEACH:
            self._elect_rleach(alive)
        else:
            # nodes only die, so a changed count means a death; none clustered at first
            if alive.size != self._alive_ids.size:
                self._recluster(alive)
            self.heads = select_cluster_heads(
                self._election, self.energy / self.config.initial_energy_j)
        return self._transmit()

    def _recluster(self, alive) -> None:
        """Partition the alive nodes, the ids `alive`, EERPMS by the bat's
        angle thresholds and CRPFCM by fuzzy c-means, and fix the election
        terms until the next reclustering."""
        config = self.config
        k = min(config.cluster_count(alive.size), config.bin_count)
        if config.protocol is Protocol.EERPMS:
            angles = self.angle[alive]
            hist = build_histogram(angles, config.bin_count)
            bat = replace(config.bat, seed=int(self.rng.integers(0, 2 ** 63)))
            tset, _ = optimize_thresholds(
                hist, k, ObjectiveWeights(config.alpha1, config.alpha2), bat)
            labels, k_eff = materialize_clusters(angles, tset, config.bin_count), k
        else:
            k_eff = min(k, alive.size)
            points = np.column_stack((self.x[alive], self.y[alive]))
            labels, _ = fuzzy_c_means(points, k_eff, self.rng)
        self._set_clusters(alive, labels, k_eff)
        ring = config.ring_radius_m if config.ring_radius_m is not None \
            else optimal_ch_distance(AreaSpec(config.radius_m, alive.size), k)
        self._election = ElectionTerms(self.grouping, self.d_bs,
                                       SelectionWeights(config.omega1, config.omega2, ring))

    def _elect_rleach(self, alive) -> None:
        r = self.round_index - 1
        if r % self._epoch_len == 0:
            self._eligible[:] = True
        p = self._election_p
        threshold_base = p / (1.0 - p * (r % self._epoch_len))
        # one draw per alive, eligible node, in id order
        candidates = alive[self._eligible[alive]]
        threshold = threshold_base * (self.energy[candidates] / self.config.initial_energy_j)
        heads = candidates[self.rng.random(candidates.size) < threshold]
        self._eligible[heads] = False
        if heads.size:
            # each alive node joins its nearest head, the first listed among
            # equals; a head joins its own cluster (distance 0) unless an earlier
            # head shares its position, and then no node joins it
            labels = np.argmin(np.hypot(self.x[alive, None] - self.x[heads],
                                        self.y[alive, None] - self.y[heads]), axis=1)
        else:
            labels = -1  # no heads: every alive node sends straight to the sink
        self._set_clusters(alive, labels, heads.size)
        self.heads = heads

    def _transmit(self) -> RoundMetrics:
        """Charge the round's costs and emit metrics.

        Clustered nodes send to their cluster's head, which fuses the
        readings and forwards one packet to the sink; alive nodes outside
        every cluster (after an election without heads) send straight to
        the sink. One `tx_energy` call prices the round's member links; the
        sink links come from `_sink_tx`.
        """
        radio = self.config.radio
        g = self.grouping
        to = self.heads[g.member_labels]
        sends = g.members != to
        senders, to = g.members[sends], to[sends]
        head_ids = self.heads[g.clusters]
        cost = np.zeros(self.config.node_count)
        cost[self._direct] = self._sink_tx[self._direct]
        cost[senders] = tx_energy(radio, radio.packet_bits, np.hypot(
            self.x[senders] - self.x[to], self.y[senders] - self.y[to]))
        cost[head_ids] = self._head_cost + self._sink_tx[head_ids]

        alive = self._alive_ids
        before = self.energy[alive]
        head_before = self.energy[head_ids]
        after = np.maximum(0.0, before - cost[alive])
        spent_alive = before - after  # exact by construction
        self.energy[alive] = after
        dead = alive[after <= 0.0]
        self.alive[dead] = False

        # Dead nodes hold exactly 0.0, so both sums may skip them: fsum is
        # exact, and a running sum does not change when it adds 0.0
        return RoundMetrics(
            round_index=self.round_index,
            alive_count=alive.size - dead.size,
            total_residual_j=math.fsum(after.tolist()),
            # one node at a time in id order; np.sum's pairwise order would
            # change the last bits
            spent_j=float(np.cumsum(spent_alive)[-1]),
            ch_count=head_ids.size,
            per_ch_energy_j=tuple((head_before - self.energy[head_ids]).tolist()),
            member_counts=self._member_counts,
            dead_node_ids=tuple(dead.tolist()),
        )

    # -- full run --------------------------------------------------------

    def run(self) -> SimulationResult:
        n, alive_before = self.config.node_count, int(self.alive.sum())
        metrics: list[RoundMetrics] = []
        while self.round_index < self.config.max_rounds and self.alive.any():
            metrics.append(self.step())

        def first_round(deaths: int) -> int | None:
            """The first round by whose end this run has seen `deaths` deaths."""
            return next((m.round_index for m in metrics
                         if alive_before - m.alive_count >= deaths), None)
        lifetime = LifetimeSummary(first_round(1), first_round(math.ceil(n / 2)),
                                   first_round(n), self.round_index)
        return SimulationResult(config=self.config, rounds=metrics, lifetime=lifetime)


def run_simulation(config: NetworkConfig) -> SimulationResult:
    return Simulation(config).run()
