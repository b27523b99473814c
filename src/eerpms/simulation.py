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
from .otsu import ObjectiveWeights, ThresholdSet, build_histogram, materialize_clusters
from .radio import aggregation_energy, rx_energy, tx_energy
from .selection import ElectionTerms, SelectionWeights, select_cluster_heads
from .theory import AreaSpec, optimal_ch_distance, optimal_cluster_count

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
        if len(self.per_ch_energy_j) < 2:
            return 0.0
        mean = self.ch_energy_mean_j
        return sum((e - mean) ** 2 for e in self.per_ch_energy_j) / len(self.per_ch_energy_j)

    @property
    def member_count_var(self) -> float:
        if len(self.member_counts) < 1:
            return 0.0
        mean = sum(self.member_counts) / len(self.member_counts)
        return sum((c - mean) ** 2 for c in self.member_counts) / len(self.member_counts)


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
    """Simulation state plus the per-protocol round logic.

    Node state lives in arrays indexed by node id: position (`x`, `y`,
    `d_bs`, `angle`), residual `energy`, the `alive` mask and the cluster
    `labels` (-1 outside every cluster); `heads` holds one head id per
    cluster (-1 for an empty one). These two arrays are the only record of
    the clustering; `assignment` is a per-step cached view of them as lists.
    """

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config
        self.area = AreaSpec(config.radius_m, config.node_count)
        self.rng = np.random.default_rng(config.seed)
        self.nodes = deploy(self.area, self.rng)
        n = config.node_count
        self.x = np.array([node.x for node in self.nodes])
        self.y = np.array([node.y for node in self.nodes])
        self.d_bs = np.array([node.distance_to_bs for node in self.nodes])
        self.angle = np.array([node.angle for node in self.nodes])
        self.energy = np.full(n, config.initial_energy_j)
        self.alive = np.ones(n, dtype=bool)
        self.labels = np.full(n, -1)
        self.heads = np.full(0, -1)
        self.round_index = 0
        self.current_k = 0
        self._election: ElectionTerms | None = None
        self.last_clustered_alive: int | None = None
        self.clustering_events = 0
        # rx_sums[j]: j receptions added one at a time, as a head pays them
        self._rx_sums = np.concatenate(
            ([0.0], np.cumsum(np.full(n, rx_energy(config.radio, config.radio.packet_bits)))))
        p_target = config.k_clusters if config.k_clusters is not None \
            else optimal_cluster_count(self.area)
        self._election_p = min(1.0, p_target / config.node_count)
        self._epoch_len = max(1, int(1.0 / self._election_p))
        self._eligible = np.ones(n, dtype=bool)

    # -- helpers ---------------------------------------------------------

    def _cluster_count(self, alive: int) -> int:
        if self.config.k_clusters is not None:
            k = self.config.k_clusters
        else:
            k = optimal_cluster_count(AreaSpec(self.config.radius_m, max(1, alive)))
        return max(1, min(k, self.config.bin_count))

    def _ring_radius(self, alive: int, k: int) -> float:
        if self.config.ring_radius_m is not None:
            return self.config.ring_radius_m
        return optimal_ch_distance(AreaSpec(self.config.radius_m, max(1, alive)), k)

    def _set_clusters(self, labels) -> None:
        """Cluster the alive nodes: `labels` gives each one's cluster, or -1
        for every alive node when there are no clusters."""
        self.labels[:] = -1
        self.labels[self.alive] = labels
        self.last_clustered_alive = int(self.alive.sum())
        self.clustering_events += 1

    @functools.cached_property
    def assignment(self) -> ClusterAssignment:
        """The current clustering as lists, built from `labels` and `heads` on
        first read and dropped by the next `step()`, so that reads within one
        round share one object. It exists only for the benchmark's round
        checks (`benchmark/checks.py`, and `benchmark/selfcheck.py`, which
        edits it in place)."""
        ids = np.flatnonzero(self.labels >= 0)
        lab = self.labels[ids]
        groups = np.split(ids[np.argsort(lab, kind="stable")],
                          np.cumsum(np.bincount(lab, minlength=self.heads.size))[:-1])
        return ClusterAssignment([Cluster(g.tolist(), h if h >= 0 else None)
                                  for g, h in zip(groups, self.heads.tolist())])

    def _cluster_for_election(self, labels, k_eff: int, k: int) -> None:
        """Cluster the alive nodes into `k_eff` clusters, planned for `k`, and
        fix the election terms until the next reclustering; the ring radius
        depends only on the alive count and `k`."""
        self._set_clusters(labels)
        self.current_k = k
        weights = SelectionWeights(
            omega1=self.config.omega1,
            omega2=self.config.omega2,
            ring_radius_m=self._ring_radius(self.last_clustered_alive, max(1, k)),
        )
        self._election = ElectionTerms(self.labels, k_eff, self.d_bs, weights)

    def _select_heads(self) -> None:
        self.heads = select_cluster_heads(
            self._election, self.energy / self.config.initial_energy_j)

    def _transmit(self) -> RoundMetrics:
        """Charge the round's costs and emit metrics.

        Clustered nodes send to their cluster's head, which fuses the
        readings and forwards one packet to the sink; alive nodes outside
        every cluster (after an election without heads) send straight to
        the sink.
        """
        radio = self.config.radio
        bits = radio.packet_bits
        labels = self.labels
        cost = np.zeros(len(self.nodes))

        direct = self.alive & (labels < 0)
        cost[direct] = tx_energy(radio, bits, self.d_bs[direct])

        members = np.flatnonzero(labels >= 0)
        to = self.heads[labels[members]]
        senders, to = members[members != to], to[members != to]
        cost[senders] = tx_energy(radio, bits, np.hypot(self.x[senders] - self.x[to],
                                                        self.y[senders] - self.y[to]))
        sizes = np.bincount(labels[members], minlength=self.heads.size)
        served = np.flatnonzero(sizes)
        head_ids = self.heads[served]
        received = np.bincount(labels[senders], minlength=self.heads.size)[served]
        cost[head_ids] += (self._rx_sums[received]
                           + aggregation_energy(radio, bits, sizes[served])
                           + tx_energy(radio, bits, self.d_bs[head_ids]))

        before = self.energy[self.alive]
        after = np.maximum(0.0, before - cost[self.alive])
        spent = np.zeros(len(self.nodes))
        spent[self.alive] = before - after  # exact by construction
        self.energy[self.alive] = after
        dead = np.flatnonzero(self.alive)[after <= 0.0]
        self.alive[dead] = False

        return RoundMetrics(
            round_index=self.round_index,
            alive_count=int(self.alive.sum()),
            total_residual_j=math.fsum(self.energy.tolist()),
            # one node at a time in id order; np.sum's pairwise order would
            # change the last bits
            spent_j=float(np.cumsum(spent)[-1]),
            ch_count=int(head_ids.size),
            per_ch_energy_j=tuple(spent[head_ids].tolist()),
            member_counts=tuple(sizes[served].tolist()),
            dead_node_ids=tuple(dead.tolist()),
        )

    # -- protocol rounds -------------------------------------------------

    def step(self) -> RoundMetrics:
        if not self.alive.any():
            raise RuntimeError("no alive nodes left to simulate")
        self.round_index += 1
        self.__dict__.pop("assignment", None)
        if self.config.protocol is Protocol.EERPMS:
            return self._round_eerpms()
        if self.config.protocol is Protocol.RLEACH:
            return self._round_rleach()
        return self._round_crpfcm()

    def _needs_reclustering(self) -> bool:
        # None before the first clustering, which equals no alive count
        return int(self.alive.sum()) != self.last_clustered_alive

    def _round_eerpms(self) -> RoundMetrics:
        if self._needs_reclustering():
            angles = self.angle[self.alive]
            k = self._cluster_count(angles.size)
            hist = build_histogram(angles, self.config.bin_count)
            weights = ObjectiveWeights(self.config.alpha1, self.config.alpha2)
            if k == 1:
                tset = ThresholdSet((), 1)
            else:
                bat = replace(self.config.bat, seed=int(self.rng.integers(0, 2 ** 63)))
                tset, _ = optimize_thresholds(hist, k, weights, bat)
            self._cluster_for_election(
                materialize_clusters(angles, tset, self.config.bin_count), k, k)
        self._select_heads()
        return self._transmit()

    def _round_crpfcm(self) -> RoundMetrics:
        if self._needs_reclustering():
            points = np.column_stack((self.x[self.alive], self.y[self.alive]))
            k = self._cluster_count(len(points))
            k_eff = min(k, len(points))
            labels, _ = fuzzy_c_means(points, k_eff, self.rng)
            self._cluster_for_election(labels, k_eff, k)
        self._select_heads()
        return self._transmit()

    def _round_rleach(self) -> RoundMetrics:
        r = self.round_index - 1
        if r % self._epoch_len == 0:
            self._eligible[:] = True
        p = self._election_p
        threshold_base = p / (1.0 - p * (r % self._epoch_len))
        # one draw per alive, eligible node, in id order
        candidates = np.flatnonzero(self.alive & self._eligible)
        threshold = threshold_base * (self.energy[candidates] / self.config.initial_energy_j)
        heads = candidates[self.rng.random(candidates.size) < threshold]
        self._eligible[heads] = False
        if heads.size:
            # each alive node joins its nearest head, the first listed among
            # equals; a head with no other takers forms its own singleton cluster
            alive = np.flatnonzero(self.alive)
            labels = np.argmin(np.hypot(self.x[alive, None] - self.x[heads],
                                        self.y[alive, None] - self.y[heads]), axis=1)
        else:
            labels = -1  # no heads: every alive node sends straight to the sink
        self._set_clusters(labels)
        self.heads = heads
        self.current_k = int(heads.size)
        return self._transmit()

    # -- full run --------------------------------------------------------

    def run(self) -> SimulationResult:
        metrics: list[RoundMetrics] = []
        n = self.config.node_count
        half = math.ceil(n / 2)
        fdn = hdn = ldn = None
        dead_total = 0
        while self.round_index < self.config.max_rounds and self.alive.any():
            m = self.step()
            metrics.append(m)
            if m.dead_node_ids:
                dead_total += len(m.dead_node_ids)
                if fdn is None:
                    fdn = m.round_index
                if hdn is None and dead_total >= half:
                    hdn = m.round_index
                if ldn is None and dead_total == n:
                    ldn = m.round_index
        return SimulationResult(
            config=self.config,
            rounds=metrics,
            lifetime=LifetimeSummary(fdn_round=fdn, hdn_round=hdn, ldn_round=ldn,
                                     rounds_completed=self.round_index),
        )


def run_simulation(config: NetworkConfig) -> SimulationResult:
    return Simulation(config).run()
