import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eerpms import (
    AreaSpec,
    BatParams,
    NetworkConfig,
    Protocol,
    RoundMetrics,
    Simulation,
    aggregation_energy,
    deploy,
    predicted_round_energy,
    run_simulation,
    rx_energy,
    tx_energy,
)
from eerpms.experiments import _mean_sd

FAST = dict(max_rounds=250)


class ReferenceSimulation(Simulation):
    """`Simulation` with round costing rebuilt from the node arrays every
    round and priced with one `tx_energy` call per kind of link."""

    def _transmit(self):
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
        cost[head_ids] += (received * rx_energy(radio, bits)
                           + aggregation_energy(radio, bits, sizes[served])
                           + tx_energy(radio, bits, self.d_bs[head_ids]))

        before = self.energy[self.alive]
        after = np.maximum(0.0, before - cost[self.alive])
        spent = np.zeros(len(self.nodes))
        spent[self.alive] = before - after
        self.energy[self.alive] = after
        dead = np.flatnonzero(self.alive)[after <= 0.0]
        self.alive[dead] = False

        return RoundMetrics(
            round_index=self.round_index,
            alive_count=int(self.alive.sum()),
            total_residual_j=math.fsum(self.energy.tolist()),
            spent_j=float(np.cumsum(spent)[-1]),
            ch_count=int(head_ids.size),
            per_ch_energy_j=tuple(spent[head_ids].tolist()),
            member_counts=tuple(sizes[served].tolist()),
            dead_node_ids=tuple(dead.tolist()),
        )


# id prefix -> overrides of the costing cases; the first keeps its bare protocol id
COSTING_CASES = {
    "": dict(seed=6),
    "n100-seed7-": dict(seed=7),
    "n1-": dict(seed=8, node_count=1),
    "n3-": dict(seed=9, node_count=3),
    "n250-": dict(seed=10, node_count=250),
    "auto-n60-": dict(seed=11, node_count=60, k_clusters=None, ring_radius_m=None),
}


def alive_heads(sim):
    """Ids of this round's heads that are still alive after it."""
    return {int(h) for h in sim.heads if h >= 0 and sim.alive[h]}


class TestRoundMetrics:
    @staticmethod
    def metrics(per_ch_energy_j, member_counts):
        return RoundMetrics(round_index=1, alive_count=9, total_residual_j=4.5, spent_j=0.5,
                            ch_count=len(per_ch_energy_j), per_ch_energy_j=per_ch_energy_j,
                            member_counts=member_counts, dead_node_ids=())

    def test_head_energy_and_member_count_summaries(self):
        m = self.metrics((0.25, 0.75), (1, 4, 4))
        assert m.ch_energy_mean_j == 0.5
        assert m.ch_energy_var == 0.0625   # population variance, not sample
        assert m.member_count_var == 2.0   # deviations -2, 1, 1 from 3

    def test_no_heads_give_zero(self):
        m = self.metrics((), ())
        assert (m.ch_energy_mean_j, m.ch_energy_var, m.member_count_var) == (0.0, 0.0, 0.0)

    # round 636 of the auto-n60 EERPMS golden run: one deviation's square
    # taken as (v - mean) ** 2, through libm's pow, is one bit off v*v
    @example(energies=[0.002359355715084291, 0.0027310795132781673, 0.0024125234241352267,
                       0.0019199233271857963, 0.0019552820237797863, 0.0027358685169373287,
                       0.0025388836914504442], counts=[8] * 7)
    @given(energies=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1),
           counts=st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1))
    def test_variances_are_sums_of_products(self, energies, counts):
        def variance(values, ddof):
            mean = sum(values) / len(values)
            return sum((v - mean) * (v - mean) for v in values) / (len(values) - ddof)

        m = self.metrics(tuple(energies), tuple(counts))
        assert m.ch_energy_var == variance(energies, 0)
        assert m.member_count_var == variance(counts, 0)
        for values in (energies, [float(c) for c in counts]):
            sd = math.sqrt(variance(values, 1)) if len(values) > 1 else 0.0
            assert _mean_sd(values) == (sum(values) / len(values), sd)


class TestDeploy:
    def test_deterministic_per_seed(self):
        area = AreaSpec(150.0, 50)
        a = deploy(area, 42)
        b = deploy(area, 42)
        assert [(n.x, n.y) for n in a] == [(n.x, n.y) for n in b]

    def test_single_node_inside_field(self):
        (node,) = deploy(AreaSpec(150.0, 1), 7)
        assert 0.0 <= node.distance_to_bs <= 150.0

    def test_area_uniformity(self):
        # area within half the radius holds a quarter of the nodes
        nodes = deploy(AreaSpec(150.0, 100_000), 3)
        frac = sum(n.distance_to_bs <= 75.0 for n in nodes) / len(nodes)
        assert frac == pytest.approx(0.25, abs=0.01)

    def test_polar_cartesian_consistency(self):
        for node in deploy(AreaSpec(150.0, 200), 11):
            assert math.hypot(node.x, node.y) == pytest.approx(node.distance_to_bs, rel=1e-9)
            assert 0.0 <= node.angle < 2 * math.pi
            recon = math.atan2(node.y, node.x) % (2 * math.pi)
            assert recon == pytest.approx(node.angle, abs=1e-9)

    def test_full_energy_at_start(self):
        sim = Simulation(NetworkConfig(node_count=10, seed=1, initial_energy_j=0.25))
        assert sim.energy.tolist() == [0.25] * 10
        assert sim.alive.all()


class TestEnergyAccounting:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_per_round_conservation(self, protocol):
        config = NetworkConfig(protocol=protocol, seed=5, **FAST)
        sim = Simulation(config)
        total = config.node_count * config.initial_energy_j
        assert math.fsum(sim.energy) == pytest.approx(total)
        prev = total
        for _ in range(config.max_rounds):
            if not sim.alive.any():
                break
            m = sim.step()
            assert prev - m.total_residual_j == pytest.approx(
                m.spent_j, rel=1e-12, abs=1e-12 * total)
            prev = m.total_residual_j

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_global_conservation(self, protocol):
        config = NetworkConfig(protocol=protocol, seed=9, **FAST)
        result = run_simulation(config)
        initial = config.node_count * config.initial_energy_j
        spent = math.fsum(m.spent_j for m in result.rounds)
        final = result.rounds[-1].total_residual_j
        assert initial - spent == pytest.approx(final, rel=1e-12, abs=1e-12 * initial)

    def test_initial_pool_matches_config(self):
        # 100 nodes at 0.5 J each
        sim = Simulation(NetworkConfig(seed=1))
        assert math.fsum(sim.energy) == pytest.approx(50.0)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_residual_never_increases(self, protocol):
        config = NetworkConfig(protocol=protocol, seed=2, **FAST)
        sim = Simulation(config)
        before = sim.energy.copy()
        for _ in range(80):
            sim.step()
            assert (sim.energy <= before + 1e-18).all()
            before = sim.energy.copy()

    def test_single_node_round_cost(self):
        config = NetworkConfig(node_count=1, seed=4, max_rounds=5)
        sim = Simulation(config)
        node = sim.nodes[0]
        d_bs = node.distance_to_bs
        m = sim.step()
        radio = config.radio
        expected = aggregation_energy(radio, radio.packet_bits, 1) \
            + tx_energy(radio, radio.packet_bits, d_bs)
        assert m.spent_j == pytest.approx(expected, rel=1e-12)
        assert m.ch_count == 1
        assert alive_heads(sim) == {node.id}

    def test_first_round_tracks_prediction(self):
        config = NetworkConfig(seed=8)
        sim = Simulation(config)
        m = sim.step()
        heads = [sim.nodes[h] for h in alive_heads(sim)]
        mean_d = sum(h.distance_to_bs for h in heads) / len(heads)
        predicted = predicted_round_energy(
            AreaSpec(config.radius_m, config.node_count), config.radio,
            sim.heads.size, mean_d)
        assert 0.75 * predicted <= m.spent_j <= 1.25 * predicted


class TestRoundStructure:
    def test_metrics_invariants(self):
        config = NetworkConfig(seed=3, **FAST)
        result = run_simulation(config)
        prev_alive = config.node_count
        prev_res = math.inf
        for m in result.rounds:
            assert m.alive_count <= prev_alive
            assert m.total_residual_j <= prev_res
            assert m.ch_count == len(m.per_ch_energy_j) == len(m.member_counts)
            prev_alive, prev_res = m.alive_count, m.total_residual_j

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_partition_covers_alive_nodes(self, protocol):
        # 0.02 J: every node is dead within 80 rounds; on the way EERPMS and
        # CRPFCM recluster, EERPMS leaves clusters empty and RLEACH elects no head
        config = NetworkConfig(protocol=protocol, seed=6, initial_energy_j=0.02)
        sim = Simulation(config)
        previous = None
        while sim.alive.any():
            alive_before = np.flatnonzero(sim.alive).tolist()
            sim.step()
            record = sim.assignment
            assert record is not previous  # rebuilt after every step
            assert sim.assignment is record  # one object within a round
            previous = record
            clustered = np.flatnonzero(sim.labels >= 0).tolist()
            assert clustered == (alive_before if sim.heads.size else [])
            assert len(record.clusters) == sim.heads.size
            for j, (cluster, head) in enumerate(zip(record.clusters, sim.heads.tolist())):
                assert cluster.member_ids == np.flatnonzero(sim.labels == j).tolist()
                assert cluster.head_id == (head if head >= 0 else None)

    @pytest.mark.parametrize("protocol, overrides",
                             [(p, o) for o in COSTING_CASES.values() for p in Protocol],
                             ids=[f"{name}{p.value}" for name in COSTING_CASES for p in Protocol])
    def test_costing_matches_reference(self, protocol, overrides):
        # 0.02 J to last death: reclusterings, EERPMS clusters left empty,
        # RLEACH rounds without a head and deaths in most rounds. The
        # reference counts each head's receptions from the senders, where
        # the program takes size - 1 from the grouping.
        config = NetworkConfig(protocol=protocol, initial_energy_j=0.02, **overrides)
        sim, ref = Simulation(config), ReferenceSimulation(config)
        while ref.alive.any():
            assert sim.step() == ref.step()
            assert sim.energy.tobytes() == ref.energy.tobytes()
            assert sim.alive.tobytes() == ref.alive.tobytes()
        assert not sim.alive.any()

    def test_reclustering_only_on_alive_change(self):
        config = NetworkConfig(seed=6, **FAST)
        sim = Simulation(config)
        deaths_seen = 0
        for _ in range(120):
            m = sim.step()
            if m.dead_node_ids:
                deaths_seen += 1
        assert deaths_seen == 0  # comfortably before the first death
        assert sim.clustering_events == 1

    def test_reclustering_after_death(self):
        config = NetworkConfig(seed=6, **FAST)
        sim = Simulation(config)
        sim.step()
        assert sim.clustering_events == 1
        # kill one node by hand; the next round must rebuild the clusters
        victim = next(i for i in np.flatnonzero(sim.alive) if i not in sim.heads)
        sim.energy[victim] = 0.0
        sim.alive[victim] = False
        sim.step()
        assert sim.clustering_events == 2

    def test_rleach_reclusters_every_round(self):
        config = NetworkConfig(protocol=Protocol.RLEACH, seed=6, **FAST)
        sim = Simulation(config)
        for expected in range(1, 31):
            sim.step()
            assert sim.clustering_events == expected

    def test_eerpms_cluster_count_stable_before_deaths(self):
        config = NetworkConfig(seed=2, **FAST)
        sim = Simulation(config)
        for _ in range(100):
            m = sim.step()
            assert not m.dead_node_ids
            assert m.ch_count == 10


class TestRleachElection:
    def test_round_one_is_plain_binomial(self):
        # full energy, epoch start: every node volunteers with probability
        # K/N = 0.1, so the head count is Binomial(100, 0.1)
        counts = []
        for seed in range(150):
            sim = Simulation(NetworkConfig(protocol=Protocol.RLEACH, seed=seed))
            counts.append(sim.step().ch_count)
        mean = np.mean(counts)
        # 3 standard errors of the mean around N*p
        assert abs(mean - 10.0) < 3 * 3.0 / math.sqrt(len(counts))

    def test_no_reelection_within_epoch(self):
        config = NetworkConfig(protocol=Protocol.RLEACH, seed=12, **FAST)
        sim = Simulation(config)
        assert sim._epoch_len == 10
        heads_per_round = []
        for _ in range(10):
            sim.step()
            heads_per_round.append(alive_heads(sim))
        seen = set()
        for heads in heads_per_round:
            assert not (heads & seen)
            seen |= heads

    def test_eligibility_resets_across_epochs(self):
        config = NetworkConfig(protocol=Protocol.RLEACH, seed=12, **FAST)
        sim = Simulation(config)
        epoch1, epoch2 = set(), set()
        for r in range(20):
            sim.step()
            heads = alive_heads(sim)
            (epoch1 if r < 10 else epoch2).update(heads)
        assert epoch1 & epoch2  # some node serves in both epochs

    def test_mean_head_count_with_energy_drift(self):
        config = NetworkConfig(protocol=Protocol.RLEACH, seed=1, max_rounds=300)
        result = run_simulation(config)
        mean = np.mean([m.ch_count for m in result.rounds])
        assert 5.0 <= mean <= 15.0

    def test_zero_head_round_sends_direct(self):
        # round 2 sits mid-epoch, so marking everyone ineligible guarantees
        # an empty election and the direct-to-station fallback
        config = NetworkConfig(protocol=Protocol.RLEACH, seed=3)
        sim = Simulation(config)
        sim.step()
        sim._eligible[:] = False
        m = sim.step()
        assert m.ch_count == 0
        assert m.per_ch_energy_j == ()
        assert m.spent_j > 0.0
        expected = sum(
            tx_energy(config.radio, config.radio.packet_bits, n.distance_to_bs)
            for n in sim.nodes)
        assert m.spent_j == pytest.approx(expected, rel=1e-9)


class TestLifetime:
    def test_ordering_and_presence(self):
        result = run_simulation(NetworkConfig(node_count=20, seed=5))
        lt = result.lifetime
        assert lt.fdn_round is not None
        assert lt.fdn_round <= lt.hdn_round <= lt.ldn_round
        assert result.rounds[-1].alive_count == 0

    def test_hdn_uses_ceil_half(self):
        result = run_simulation(NetworkConfig(node_count=21, seed=5))
        dead = 0
        hdn = None
        for m in result.rounds:
            dead += len(m.dead_node_ids)
            if hdn is None and dead >= 11:
                hdn = m.round_index
                break
        assert result.lifetime.hdn_round == hdn

    def test_truncated_run_reports_none(self):
        result = run_simulation(NetworkConfig(seed=5, max_rounds=50))
        assert result.lifetime.fdn_round is None
        assert result.lifetime.ldn_round is None
        assert result.lifetime.rounds_completed == 50

    def test_stepping_exhausted_network_raises(self):
        config = NetworkConfig(node_count=2, seed=5)
        sim = Simulation(config)
        while sim.alive.any():
            sim.step()
        with pytest.raises(RuntimeError):
            sim.step()


class TestDeterminism:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_identical_metric_streams(self, protocol):
        config = NetworkConfig(protocol=protocol, seed=13, max_rounds=120)
        a = run_simulation(config)
        b = run_simulation(config)
        assert a.rounds == b.rounds
        assert a.lifetime == b.lifetime

    def test_different_seeds_differ(self):
        a = run_simulation(NetworkConfig(seed=1, max_rounds=50))
        b = run_simulation(NetworkConfig(seed=2, max_rounds=50))
        assert a.rounds != b.rounds


@st.composite
def network_configs(draw):
    """Configs the validator accepts: N 1..300, bins 2..720, k 1..bins or
    auto, ring auto or fixed, election weights at their ends, tiny energy;
    a short bat so that a run with a reclustering every round stays cheap."""
    bins = draw(st.integers(2, 720))
    omega1 = draw(st.sampled_from([0.0, 1.0, 0.7]))
    alpha1 = draw(st.sampled_from([0.0, 1.0, 0.5]))
    return NetworkConfig(
        protocol=draw(st.sampled_from(list(Protocol))),
        radius_m=draw(st.floats(1.0, 300.0)),
        node_count=draw(st.integers(1, 300)),
        initial_energy_j=draw(st.floats(1e-6, 1e-2)),
        seed=draw(st.integers(0, 2**32 - 1)),
        alpha1=alpha1, alpha2=1.0 - alpha1,
        omega1=omega1, omega2=1.0 - omega1,
        k_clusters=draw(st.none() | st.integers(1, bins)),
        ring_radius_m=draw(st.none() | st.floats(0.0, 300.0)),
        bin_count=bins,
        bat=BatParams(population=draw(st.integers(2, 6)),
                      max_iterations=draw(st.integers(1, 3))),
        max_rounds=draw(st.integers(1, 80)),
    )


class TestConfigSpace:
    @settings(max_examples=40, deadline=None)
    @given(config=network_configs())
    def test_every_accepted_config_runs_soundly(self, config):
        sim = Simulation(config)
        total = config.node_count * config.initial_energy_j
        prev_residual = math.fsum(sim.energy)
        assert prev_residual == pytest.approx(total)
        while sim.round_index < config.max_rounds and sim.alive.any():
            alive_before = sim.alive.copy()
            energy_before = sim.energy.copy()
            m = sim.step()
            # conservation and a monotone residual
            assert prev_residual - m.total_residual_j == pytest.approx(
                m.spent_j, rel=1e-12, abs=1e-12 * total)
            assert m.total_residual_j == math.fsum(sim.energy)
            assert (sim.energy >= 0.0).all() and (sim.energy <= energy_before).all()
            assert sim.alive.tolist() == (alive_before & (sim.energy > 0.0)).tolist()
            prev_residual = m.total_residual_j
            # the partition covers the nodes alive at the start of the round
            clustered = sim.labels >= 0
            if sim.heads.size:
                assert clustered.tolist() == alive_before.tolist()
                assert sim.labels.max() < sim.heads.size
                assert alive_before[sim.heads[sim.heads >= 0]].all()
                if config.protocol is not Protocol.RLEACH:
                    own = sim.labels[np.maximum(sim.heads, 0)] == np.arange(sim.heads.size)
                    assert ((sim.heads < 0) | own).all()  # a head leads its own cluster
                sizes = np.bincount(sim.labels[clustered], minlength=sim.heads.size)
                assert ((sizes > 0) == (sim.heads >= 0)).all()
            else:
                assert not clustered.any()
        # termination within max_rounds
        assert sim.round_index <= config.max_rounds
        assert sim.round_index == config.max_rounds or not sim.alive.any()
