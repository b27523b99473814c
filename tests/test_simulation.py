import math

import numpy as np
import pytest

from eerpms import (
    AreaSpec,
    NetworkConfig,
    Protocol,
    Simulation,
    aggregation_energy,
    deploy,
    predicted_round_energy,
    run_simulation,
    tx_energy,
)

FAST = dict(max_rounds=250)


def alive_heads(sim):
    """Ids of this round's heads that are still alive after it."""
    return {int(h) for h in sim.heads if h >= 0 and sim.alive[h]}


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
            sim.current_k, mean_d)
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

    @pytest.mark.parametrize("protocol", [Protocol.EERPMS, Protocol.CRPFCM])
    def test_partition_covers_alive_nodes(self, protocol):
        config = NetworkConfig(protocol=protocol, seed=6, **FAST)
        sim = Simulation(config)
        for _ in range(40):
            alive_before = np.flatnonzero(sim.alive).tolist()
            sim.step()
            if sim.assignment.round_created == sim.round_index:
                members = sorted(
                    nid for c in sim.assignment.clusters for nid in c.member_ids)
                assert members == alive_before

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
