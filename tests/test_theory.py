import contextlib
import copy
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eerpms import (
    AreaSpec,
    RadioParams,
    distance_threshold,
    expected_sq_member_distance,
    feasible_ch_band,
    free_space_radius_limit,
    optimal_ch_distance,
    optimal_cluster_count,
    optimal_plan,
    predicted_round_energy,
    sector_coverage_violations,
    wedge_sq_distance_mc,
)
from eerpms.cli import main
from eerpms.theory import MC_BLOCK

RADIO = RadioParams()
D_TH = distance_threshold(RADIO)


class TestOptimalClusterCount:
    def test_hundred_nodes(self):
        assert optimal_cluster_count(AreaSpec(150.0, 100)) == 9

    def test_single_node(self):
        # (0.75*pi^2)^(1/3) = 1.9489 rounds to 2
        assert optimal_cluster_count(AreaSpec(150.0, 1)) == 2

    def test_250_nodes(self):
        # (0.75*pi^2*250)^(1/3) = 12.277 rounds to 12
        assert optimal_cluster_count(AreaSpec(150.0, 250)) == 12


class TestOptimalChDistance:
    def test_paper_operating_point(self):
        assert optimal_ch_distance(AreaSpec(150.0, 100), 9) == pytest.approx(91.743, abs=0.01)

    def test_large_population_asymptote(self):
        # limit 2R/3 as N grows
        assert optimal_ch_distance(AreaSpec(150.0, 10**6), 9) == pytest.approx(100.0, abs=1e-3)

    def test_k_ten(self):
        assert optimal_ch_distance(AreaSpec(150.0, 100), 10) == pytest.approx(30000 / 330, rel=1e-12)

    def test_inside_field(self):
        for n in (1, 10, 100, 5000):
            for k in range(2, 30):
                d = optimal_ch_distance(AreaSpec(150.0, n), k)
                assert 0.0 < d < 150.0


class TestFreeSpaceRadiusLimit:
    def test_k_ten(self):
        assert free_space_radius_limit(D_TH, 10) == pytest.approx(166.8263, abs=1e-3)

    def test_k_two_is_crossover_distance(self):
        # a head at the sink reaches a half-disk of radius d_th
        assert free_space_radius_limit(D_TH, 2) == D_TH

    def test_k_three(self):
        assert free_space_radius_limit(D_TH, 3) == pytest.approx(D_TH / math.sin(math.pi / 3))

    def test_k_nine(self):
        assert free_space_radius_limit(D_TH, 9) == pytest.approx(164.8330, abs=1e-3)

    def test_rejects_single_sector(self):
        with pytest.raises(ValueError):
            free_space_radius_limit(D_TH, 1)


class TestFeasibleChBand:
    # Endpoint values cross-checked by the sector sampling oracle below.
    def test_k_ten(self):
        lo, hi = feasible_ch_band(AreaSpec(150.0, 100), D_TH, 10)
        assert lo == pytest.approx(68.2021, abs=1e-3)
        assert hi == pytest.approx(D_TH, rel=1e-12)

    def test_k_nine(self):
        lo, hi = feasible_ch_band(AreaSpec(150.0, 100), D_TH, 9)
        assert lo == pytest.approx(69.8181, abs=1e-3)
        assert hi == pytest.approx(D_TH, rel=1e-12)

    def test_many_sectors_limit(self):
        # R = d_th with tiny sectors: band approaches [0, d_th]
        lo, hi = feasible_ch_band(AreaSpec(D_TH, 100), D_TH, 360)
        assert lo == pytest.approx(0.0, abs=0.01)
        assert hi == pytest.approx(D_TH, rel=1e-12)

    def test_rejects_oversized_field(self):
        with pytest.raises(ValueError):
            feasible_ch_band(AreaSpec(150.0, 100), 30.0, 3)
        with pytest.raises(ValueError):
            feasible_ch_band(AreaSpec(170.0, 100), D_TH, 10)
        # beyond the k = 3 limit (d_th / sin(pi/3) = 1.1547 d_th) the arc
        # ends are more than 2 d_th apart, so no head reaches both
        with pytest.raises(ValueError):
            feasible_ch_band(AreaSpec(1.16 * D_TH, 100), D_TH, 3)

    @pytest.mark.parametrize("n, r", [(100, 164.83298974878403), (10, 124.03473458920845)])
    def test_point_at_radius_limit(self, n, r):
        # the field radius is the limit for K* (9 and 4) as the plan computes it
        k = optimal_cluster_count(AreaSpec(r, n))
        assert r == free_space_radius_limit(D_TH, k)
        assert feasible_ch_band(AreaSpec(r, n), D_TH, k) == (D_TH, D_TH)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 9])
    def test_band_covers_sector_just_inside_radius_limit(self, k):
        limit = free_space_radius_limit(D_TH, k)
        r = limit * (1.0 - 1e-9)
        lo, hi = feasible_ch_band(AreaSpec(r, 100), D_TH, k)
        assert 0.0 <= lo <= hi <= D_TH
        rng = np.random.default_rng(k)
        for d_ch in (lo, hi):
            assert sector_coverage_violations(r, k, D_TH, d_ch, 100_000, rng) == 0
        with pytest.raises(ValueError):
            feasible_ch_band(AreaSpec(limit * (1.0 + 1e-9), 100), D_TH, k)

    @pytest.mark.parametrize("r, k", [(80.0, 9), (80.0, 3), (1e-300, 9)])
    def test_lower_end_not_negative(self, r, k):
        # R < d_th: a head at the sink reaches every point of the field
        assert feasible_ch_band(AreaSpec(r, 100), D_TH, k) == (0.0, D_TH)

    def test_band_endpoints_cover_sector(self):
        rng = np.random.default_rng(2024)
        for k in (9, 10):
            lo, hi = feasible_ch_band(AreaSpec(150.0, 100), D_TH, k)
            for d_ch in (lo, hi):
                assert sector_coverage_violations(150.0, k, D_TH, d_ch, 100_000, rng) == 0
            # just below the lower endpoint the far corner escapes
            assert sector_coverage_violations(150.0, k, D_TH, lo - 1.0, 200_000, rng) > 0


class TestExpectedSqMemberDistance:
    def test_zero_head_distance(self):
        area = AreaSpec(150.0, 100)
        for k in (2, 5, 9):
            expected = 150.0 ** 2 / 2 + math.pi ** 2 * 150.0 ** 2 / (6 * k * k)
            assert expected_sq_member_distance(area, k, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_paper_operating_point(self):
        # hand-evaluated closed form, cross-checked by the wedge MC oracle
        value = expected_sq_member_distance(AreaSpec(150.0, 100), 9, 91.74)
        assert value == pytest.approx(1775.15, abs=0.01)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(99)
        area = AreaSpec(150.0, 100)
        for k, tol in ((6, 0.15), (7, 0.15), (8, 0.15), (9, 0.05), (10, 0.05), (12, 0.05)):
            for d in (0.0, 90.0, 135.0):
                closed = expected_sq_member_distance(area, k, d)
                sampled = wedge_sq_distance_mc(area.radius_m, k, d, 400_000, rng)
                assert abs(closed - sampled) / sampled < tol

    @pytest.mark.parametrize("seed, k, d", [(1, 9, 0.0), (2, 10, 90.0), (3, 12, 135.0),
                                            (4, 3, 150.0), (5, 40, 12.5)])
    def test_monte_carlo_equals_allocating_form(self, seed, k, d):
        # the in-place sampler against the plain expression, bit for bit
        w = np.random.default_rng(seed).random(2 * 10_001)
        tan_half = math.tan(math.pi / k)
        x = 150.0 * np.sqrt(w[0::2])
        y = (2.0 * w[1::2] - 1.0) * x * tan_half
        expected = float(np.mean((x - d) ** 2 + y ** 2))
        assert wedge_sq_distance_mc(150.0, k, d, 10_001, np.random.default_rng(seed)) == expected

    @pytest.mark.parametrize("seed, k, d, samples", [(1, 9, 0.0, 1), (2, 10, 90.0, 8),
                                                     (3, 12, 135.0, 10_001),
                                                     (4, 3, 150.0, 200_003)])
    def test_monte_carlo_equals_uniform_draw(self, seed, k, d, samples):
        # against the in-place body on all pairs at once, with the lateral
        # coordinate the value uniform(-1, 1) draws from v: the same value,
        # and the generator left in the same state
        def uniform_draw(radius_m, k, d_ch, samples, rng):
            tan_half = math.tan(math.pi / k)
            x, v = rng.random((samples, 2)).T.copy()
            np.sqrt(x, out=x)
            x *= radius_m
            y = -1.0 + 2.0 * v
            y *= x
            y *= tan_half
            x -= d_ch
            np.square(x, out=x)
            np.square(y, out=y)
            x += y
            return block_order_mean(x)
        rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert wedge_sq_distance_mc(150.0, k, d, samples, rng) == \
            uniform_draw(150.0, k, d, samples, expected_rng)
        assert same_state(rng, expected_rng)

    def test_domain_validation(self):
        area = AreaSpec(150.0, 100)
        with pytest.raises(ValueError):
            expected_sq_member_distance(area, 1, 50.0)
        with pytest.raises(ValueError):
            expected_sq_member_distance(area, 9, 151.0)


class TestPredictedRoundEnergy:
    AREA = AreaSpec(150.0, 100)

    def test_vertex_matches_optimal_distance(self):
        # reconstruct the parabola in d from three samples; its vertex must
        # equal the closed-form optimal distance
        for k in (1, 2, 5, 9, 10, 17, 30):
            e0 = predicted_round_energy(self.AREA, RADIO, k, 0.0)
            e1 = predicted_round_energy(self.AREA, RADIO, k, 1.0)
            e2 = predicted_round_energy(self.AREA, RADIO, k, 2.0)
            a = (e2 - 2 * e1 + e0) / 2.0
            b = (e1 - e0) - a
            vertex = -b / (2 * a)
            assert vertex == pytest.approx(optimal_ch_distance(self.AREA, k), rel=1e-9)

    def test_distance_gradient_vanishes_at_optimum(self):
        k = optimal_cluster_count(self.AREA)
        d_star = optimal_ch_distance(self.AREA, k)
        h = 1e-3
        up = predicted_round_energy(self.AREA, RADIO, k, d_star + h)
        down = predicted_round_energy(self.AREA, RADIO, k, d_star - h)
        slope = (up - down) / (2 * h)
        scale = predicted_round_energy(self.AREA, RADIO, k, d_star) / d_star
        assert abs(slope) / scale < 1e-9

    def test_single_cluster_matches_per_cluster_formula(self):
        # with one cluster the network total equals the per-cluster energy:
        # l*[2*E_elec*N + E_DA*N + eps*d^2 + N*eps*E[d^2_member]]
        n, r = 100, 150.0
        l, fs = RADIO.packet_bits, RADIO.e_fs
        for d in (0.0, 40.0, 91.74, 150.0):
            member_sq = expected_sq_member_distance(self.AREA, 2, d) \
                - math.pi ** 2 * r * r / (6 * 4) + math.pi ** 2 * r * r / 6
            per_cluster = l * (2 * RADIO.e_elec * n + RADIO.e_da * n
                               + fs * d * d + n * fs * member_sq)
            assert predicted_round_energy(self.AREA, RADIO, 1, d) == pytest.approx(
                per_cluster, rel=1e-12)

    def test_integer_grid_argmin(self):
        # regression: on an integer-K, fine-d grid the exact formula bottoms
        # out at K=10, d=90.9 (the closed-form K* of 9 comes from a
        # large-N approximation and sits a hair higher)
        best = min(
            ((k, round(0.1 * i, 1)) for k in range(1, 31) for i in range(1501)),
            key=lambda kd: predicted_round_energy(self.AREA, RADIO, kd[0], kd[1]),
        )
        assert best == (10, 90.9)


class TestOptimalPlan:
    def test_paper_operating_point(self):
        plan = optimal_plan(AreaSpec(150.0, 100), RADIO)
        assert plan.k_star == 9
        assert plan.d_star_m == pytest.approx(91.743, abs=0.01)
        assert plan.d_th_m == D_TH
        assert plan.radius_limit_m == free_space_radius_limit(D_TH, 9)
        assert plan.band == feasible_ch_band(AreaSpec(150.0, 100), D_TH, 9)
        # the unconstrained optimum exceeds the crossover distance, so it
        # falls outside the feasible band; reported, not silently projected
        assert plan.band[1] < plan.d_star_m

    def test_small_field_fully_feasible(self):
        plan = optimal_plan(AreaSpec(80.0, 100), RADIO)
        assert plan.band == (0.0, D_TH)
        assert plan.band[0] <= plan.d_star_m <= plan.band[1]

    def test_no_band_beyond_radius_limit(self):
        plan = optimal_plan(AreaSpec(170.0, 100), RADIO)
        assert plan.radius_limit_m < 170.0
        assert plan.band is None


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3000), data=st.data())
def test_plan_band_exists_exactly_within_radius_limit(n, data):
    # R at the limit for K*, one ulp either side of it, or anywhere up to twice it
    limit = free_space_radius_limit(D_TH, optimal_cluster_count(AreaSpec(1.0, n)))
    edge = data.draw(st.sampled_from([limit, math.nextafter(limit, 0.0),
                                      math.nextafter(limit, math.inf), None]))
    r = edge if edge is not None else data.draw(
        st.floats(0.0, 2.0 * limit, exclude_min=True))
    plan = optimal_plan(AreaSpec(r, n), RADIO)
    assert plan.radius_limit_m == limit
    assert (plan.band is not None) == (r <= limit)
    if plan.band is not None:
        lo, hi = plan.band
        assert 0.0 <= lo <= hi <= D_TH
        # for k < 4 the arc ends can cap the band below d_th
        assert hi == D_TH or plan.k_star < 4
    if edge is not None:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["theory", "--nodes", str(n), "--radius", repr(r)]) == 0


class TestSectorCoverageViolations:
    # a 1 m sector: every point lies within 6 m of a head at 5 m and at least
    # 19 m from a head at 20 m, so with d_th = 10 m none or all of them violate
    @pytest.mark.parametrize("d_ch, expected", [(5.0, 0), (20.0, 1000 + 1)],
                             ids=["head-within", "head-beyond"])
    def test_head_beyond_threshold_counts_once(self, d_ch, expected):
        rng = np.random.default_rng(0)
        assert sector_coverage_violations(1.0, 9, 10.0, d_ch, 1000, rng) == expected


AREA = AreaSpec(150.0, 100)


@pytest.mark.parametrize("call, message", [
    (lambda: AreaSpec(0.0, 100), "radius_m must be strictly positive"),
    (lambda: AreaSpec(math.nan, 100), "radius_m must be strictly positive"),
    (lambda: AreaSpec(150.0, 0), "node_count must be at least 1"),
    (lambda: optimal_ch_distance(AREA, 0), "k must be at least 1"),
    (lambda: feasible_ch_band(AREA, D_TH, 1), "k must be at least 2"),
    (lambda: predicted_round_energy(AREA, RADIO, 0, 90.0), "k must be at least 1"),
], ids=["radius-zero", "radius-nan", "node-count-zero", "ch-distance-k-zero",
        "band-k-one", "round-energy-k-zero"])
def test_invalid_input_named(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# --- Monte Carlo samplers in blocks ---------------------------------------------

def block_order_mean(values):
    """The mean of `values` with the sums of its `MC_BLOCK` blocks added in
    block order; `np.mean` up to `MC_BLOCK` values."""
    total = 0.0
    for start in range(0, values.size, MC_BLOCK):
        total += float(np.add.reduce(values[start:start + MC_BLOCK]))
    return total / values.size


def wedge_allocating(radius_m, k, d_ch, samples, rng):
    # the sampler's body on all pairs at once: (u, v) = (w[0::2], w[1::2])
    w = rng.random(2 * samples)
    tan_half = math.tan(math.pi / k)
    x = radius_m * np.sqrt(w[0::2])
    y = (2.0 * w[1::2] - 1.0) * x * tan_half
    return block_order_mean((x - d_ch) ** 2 + y ** 2)


def sector_allocating(radius_m, k, d_th, d_ch, samples, rng):
    w = rng.random(2 * samples)
    half = math.pi / k
    r = radius_m * np.sqrt(w[0::2])
    phi = -half + (2.0 * half) * w[1::2]
    d = np.hypot(r * np.cos(phi) - d_ch, r * np.sin(phi))
    return int(np.sum(d > d_th)) + (1 if d_ch > d_th else 0)


def generators(seed):
    # every bit generator numpy ships; PCG64DXSM with the buffered half of a
    # 32-bit draw, which double draws leave in place
    dxsm = np.random.Generator(np.random.PCG64DXSM(seed))
    dxsm.integers(0, 2, dtype=np.int32)
    return [np.random.default_rng(seed), dxsm] + [
        np.random.Generator(bits(seed))
        for bits in (np.random.Philox, np.random.MT19937, np.random.SFC64)]


def same_state(rng, other):
    # repr, as some bit generator states hold arrays
    return repr(rng.bit_generator.state) == repr(other.bit_generator.state)


BLOCK_EDGES = [1, 7, 8, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 2 * MC_BLOCK + 7, 1_000_003]


@pytest.mark.parametrize("samples", BLOCK_EDGES)
@pytest.mark.parametrize("seed, k, d", [(1, 9, 0.0), (2, 10, 90.0), (3, 3, 150.0)])
def test_wedge_blocks_equal_allocating_form(samples, seed, k, d):
    for rng in generators(seed):
        expected_rng = copy.deepcopy(rng)
        assert wedge_sq_distance_mc(150.0, k, d, samples, rng) == \
            wedge_allocating(150.0, k, d, samples, expected_rng)
        assert same_state(rng, expected_rng)


@pytest.mark.parametrize("samples", BLOCK_EDGES)
@pytest.mark.parametrize("seed, k, d_ch", [(1, 9, 80.0), (2, 10, 120.0)],
                         ids=["head-within", "head-beyond"])
def test_coverage_blocks_equal_allocating_form(samples, seed, k, d_ch):
    for rng in generators(seed):
        expected_rng = copy.deepcopy(rng)
        assert sector_coverage_violations(150.0, k, D_TH, d_ch, samples, rng) == \
            sector_allocating(150.0, k, D_TH, d_ch, samples, expected_rng)
        assert same_state(rng, expected_rng)


@pytest.mark.parametrize("sample", [
    lambda rng: wedge_sq_distance_mc(150.0, 9, 90.0, 1_000_000, rng),
    lambda rng: sector_coverage_violations(150.0, 9, D_TH, 80.0, 1_000_000, rng),
], ids=["wedge", "coverage"])
def test_sampler_memory_does_not_grow_with_samples(sample):
    # 10**6 samples in the allocating forms peaked at 45.8 MiB (wedge) and
    # 53.4 MiB (coverage); in blocks of at most 2**14 pairs at 0.88 MiB each.
    # That is 0.12 MiB under the bound, down from 0.50 and 0.64 MiB with
    # reused block buffers: each block's expressions now allocate their own
    # temporaries, so a failure here more likely means one more temporary
    # kept alive than memory that grows with the samples.
    rng = np.random.default_rng(7)
    sample(rng)
    tracemalloc.start()
    try:
        sample(rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("call, message", [
    (lambda rng: wedge_sq_distance_mc(150.0, 9, 90.0, 0, rng), "samples must be at least 1"),
    (lambda rng: wedge_sq_distance_mc(150.0, 9, 90.0, -1, rng), "samples must be at least 1"),
    (lambda rng: sector_coverage_violations(150.0, 9, D_TH, 80.0, 0, rng),
     "samples must be at least 1"),
    (lambda rng: wedge_sq_distance_mc(150.0, 1, 90.0, 1000, rng), "k must be at least 2"),
    (lambda rng: sector_coverage_violations(150.0, 0, D_TH, 80.0, 1000, rng),
     "k must be at least 1"),
], ids=["wedge-samples-zero", "wedge-samples-negative", "coverage-samples-zero",
        "wedge-k-one", "coverage-k-zero"])
def test_sampler_rejects_bad_input_before_drawing(call, message):
    rng = np.random.default_rng(11)
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as info:
        call(rng)
    assert str(info.value) == message
    assert rng.bit_generator.state == state
