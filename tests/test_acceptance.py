"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
`pytest tests/test_acceptance.py -v -s` to see them as they complete).
The heavyweight comparative runs are shared through session fixtures.
Criterion 8 and the users of the 60-run `lifetime_runs` fixture are marked
`slow`; `pytest -m "not slow"` leaves them out.
"""

import itertools
import math
import re
import statistics

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eerpms import (
    AngleHistogram,
    AreaSpec,
    BatParams,
    NetworkConfig,
    ObjectiveWeights,
    Protocol,
    RadioParams,
    analytic_energy_grid,
    distance_threshold,
    exhaustive_best_threshold,
    expected_sq_member_distance,
    feasible_ch_band,
    grid_argmin,
    optimal_plan,
    optimize_thresholds,
    run_simulation,
    sector_coverage_violations,
    simulated_energy_grid,
    wedge_sq_distance_mc,
)
from eerpms.cli import main
from eerpms.experiments import write_rounds_csv

RADIO = RadioParams()
AREA = AreaSpec(150.0, 100)
SEEDS = list(range(1, 21))


def report(number, name, passed, detail):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="session")
def lifetime_runs():
    """20-seed comparative runs for all three protocols at the defaults."""
    runs = {}
    for protocol in Protocol:
        for seed in SEEDS:
            config = NetworkConfig(protocol=protocol, seed=seed)
            runs[(protocol, seed)] = run_simulation(config)
    return runs


def residual_at(result, round_index):
    for m in result.rounds:
        if m.round_index == round_index:
            return m.total_residual_j
    return 0.0


def test_criterion_1_closed_form_optimum(capsys):
    code = main(["theory", "--nodes", "100", "--radius", "150"])
    out = capsys.readouterr().out
    k_star = int(re.search(r"K\* = (\d+)", out).group(1))
    d_star = float(re.search(r"d\* = ([\d.]+) m", out).group(1))
    ok = code == 0 and k_star == 9 and abs(d_star - 91.74) <= 0.01
    report(1, "closed-form optimum", ok, f"K*={k_star} d*={d_star:.2f} m")
    assert code == 0
    assert k_star == 9
    assert abs(d_star - 91.74) <= 0.01


def test_criterion_2_energy_landscape():
    # Expected analytic argmin, derived from the closed form rather than read
    # off the grid. Divided by L*e_fs, predicted_round_energy is
    # (N+K)(d - d*(K))^2 + g(K) + const with vertex d*(K) = 2NR/(3(N+K)) and
    #     g(K) = N pi^2 R^2 / (6 K^2) - 4 N^2 R^2 / (9 (N+K)).
    # At N=100, R=150: g(9) = -871738.6 and g(10) = -872079.9, so the integer
    # minimum is K=10 with d*(10) = 90.909, which is 90.9 on the 0.1 m grid.
    # The continuous stationary point K^3 = (3 pi^2/4)(N+K)^2/N lies at
    # K ~ 9.62; criterion 1's K*=9 rounds the large-N root K^3 = 3 pi^2 N/4
    # (K ~ 9.05), so it may sit one cluster below the integer minimum.
    n, r = AREA.node_count, AREA.radius_m
    k_values = range(1, 31)
    d_step = 0.1
    d_fine = [round(d_step * i, 1) for i in range(1501)]

    def g(k):
        return n * math.pi ** 2 * r * r / (6 * k * k) - 4 * n * n * r * r / (9 * (n + k))

    def d_vertex(k):
        return 2 * n * r / (3 * (n + k))

    k_expected = min(k_values, key=g)
    d_expected = round(d_vertex(k_expected), 1)
    # Snapping d to the grid raises a column's minimum by at most
    # (N+K)(step/2)^2, far less than the gap to the runner-up K, so the grid
    # argmin is the vertex of the best K rounded to the grid.
    best_g, runner_up_g = sorted(g(k) for k in k_values)[:2]
    assert runner_up_g - best_g > (n + max(k_values)) * (d_step / 2) ** 2
    assert (k_expected, d_expected) == (10, 90.9)

    ka, da, _ = grid_argmin(analytic_energy_grid(AREA, RADIO, k_values, d_fine))
    plan = optimal_plan(AREA, RADIO)
    analytic_ok = (ka, da) == (k_expected, d_expected)
    linked_ok = abs(ka - plan.k_star) <= 1 and abs(da - plan.d_star_m) <= 1.0

    d_coarse = [10.0 * i for i in range(16)]
    ks, ds, _ = grid_argmin(simulated_energy_grid(AREA, RADIO, k_values,
                                                  d_coarse, range(1, 11)))
    simulated_ok = 8 <= ks <= 11 and 80.0 <= ds <= 100.0

    report(2, "energy landscape", analytic_ok and linked_ok and simulated_ok,
           f"analytic argmin=({ka},{da}) expected ({k_expected},{d_expected}), "
           f"within (1, 1 m) of K*={plan.k_star} d*={plan.d_star_m:.2f}; "
           f"simulated argmin=({ks},{ds:g}) expected K in [8,11], d in [80,100]")
    assert simulated_ok, f"simulated argmin ({ks},{ds}) outside the band"
    assert analytic_ok, (
        f"analytic argmin ({ka},{da}) is not ({k_expected},{d_expected})")
    assert linked_ok, (
        f"analytic argmin ({ka},{da}) is not within (1, 1 m) of "
        f"K*={plan.k_star} d*={plan.d_star_m:.2f}")


def test_criterion_3_wedge_distance_oracle():
    rng = np.random.default_rng(31)
    worst = 0.0
    for k in (9, 10, 12):
        for d in (0.0, 90.0, 135.0):
            closed = expected_sq_member_distance(AREA, k, d)
            sampled = wedge_sq_distance_mc(AREA.radius_m, k, d, 1_000_000, rng)
            worst = max(worst, abs(closed - sampled) / sampled)
    ok = worst < 0.05
    report(3, "wedge-distance Monte Carlo", ok, f"worst rel err {worst:.3%} < 5%")
    assert ok


def classic_multi_otsu(counts, k):
    """Independent between-class-variance maximizer (plain prefix sums)."""
    total = sum(counts)
    bins = len(counts)
    cum_w = [0.0]
    cum_m = [0.0]
    for i, c in enumerate(counts):
        cum_w.append(cum_w[-1] + c / total)
        cum_m.append(cum_m[-1] + i * c / total)
    mu_total = cum_m[-1]
    best_v, best_t = -1.0, None
    for combo in itertools.combinations(range(1, bins), k - 1):
        edges = (0,) + combo + (bins,)
        sigma_b = 0.0
        for a, b in zip(edges, edges[1:]):
            w = cum_w[b] - cum_w[a]
            if w > 0:
                mu = (cum_m[b] - cum_m[a]) / w
                sigma_b += w * (mu - mu_total) ** 2
        if sigma_b > best_v:
            best_v, best_t = sigma_b, combo
    return best_t


def test_criterion_4_threshold_oracle_equivalence():
    rng = np.random.default_rng(41)
    weights = ObjectiveWeights(0.5, 0.5)
    angle_only = ObjectiveWeights(1.0, 0.0)
    hits = 0
    otsu_matches = 0
    cases = 50
    for _ in range(cases):
        counts = rng.integers(1, 20, size=36)
        h = AngleHistogram(counts)
        k = int(rng.integers(2, 5))
        _, best = exhaustive_best_threshold(h, k, weights)
        _, found = optimize_thresholds(h, k, weights,
                                       BatParams(seed=int(rng.integers(2**63))))
        hits += found >= 0.99 * best
        ours, _ = exhaustive_best_threshold(h, k, angle_only)
        otsu_matches += ours.thresholds == classic_multi_otsu(counts.tolist(), k)
    ok = hits >= 48 and otsu_matches == cases
    report(4, "threshold-search oracle", ok,
           f"{hits}/{cases} within 0.99x; classic multi-threshold match "
           f"{otsu_matches}/{cases}")
    assert hits >= 48
    assert otsu_matches == cases


def test_criterion_5_sector_coverage():
    rng = np.random.default_rng(51)
    d_th = distance_threshold(RADIO)
    total_violations = 0
    checks = []
    for k in (9, 10):
        lo, hi = feasible_ch_band(AREA, d_th, k)
        for d_ch in (lo, hi):
            bad = sector_coverage_violations(AREA.radius_m, k, d_th, d_ch,
                                             100_000, rng)
            total_violations += bad
            checks.append(f"K={k} d={d_ch:.2f}: {bad}")
    ok = total_violations == 0
    report(5, "sector coverage geometry", ok, "; ".join(checks))
    assert total_violations == 0


@pytest.mark.slow
def test_criterion_6_conservation_and_determinism(lifetime_runs, tmp_path):
    worst_rel = 0.0
    initial = AREA.node_count * 0.5
    for (protocol, seed), result in lifetime_runs.items():
        prev = initial
        for m in result.rounds:
            drift = abs((prev - m.total_residual_j) - m.spent_j)
            worst_rel = max(worst_rel, drift / initial)
            prev = m.total_residual_j
    conservation_ok = worst_rel < 1e-12

    identical = True
    for protocol in Protocol:
        config = NetworkConfig(protocol=protocol, seed=7, max_rounds=300)
        paths = []
        for tag in ("a", "b"):
            result = run_simulation(config)
            path = tmp_path / f"{protocol.value}_{tag}.csv"
            write_rounds_csv(path, result.rounds)
            paths.append(path)
        identical &= paths[0].read_bytes() == paths[1].read_bytes()

    ok = conservation_ok and identical
    report(6, "conservation and determinism", ok,
           f"worst drift {worst_rel:.2e} (60 full runs); byte-identical re-runs: "
           f"{identical}")
    assert conservation_ok
    assert identical


@pytest.mark.slow
def test_criterion_7_comparative_lifetime(lifetime_runs):
    med = {p: np.median([lifetime_runs[(p, s)].lifetime.fdn_round for s in SEEDS])
           for p in Protocol}
    fdn_ok = med[Protocol.EERPMS] > med[Protocol.RLEACH] and \
        med[Protocol.EERPMS] > med[Protocol.CRPFCM]

    beats_rleach = sum(
        residual_at(lifetime_runs[(Protocol.EERPMS, s)], 800)
        > residual_at(lifetime_runs[(Protocol.RLEACH, s)], 800) for s in SEEDS)
    beats_crpfcm = sum(
        residual_at(lifetime_runs[(Protocol.EERPMS, s)], 800)
        > residual_at(lifetime_runs[(Protocol.CRPFCM, s)], 800) for s in SEEDS)
    residual_ok = beats_rleach >= 15 and beats_crpfcm >= 15

    def mean_load_variance(protocol):
        values = []
        for s in SEEDS:
            rounds = lifetime_runs[(protocol, s)].rounds[:100]
            values.extend(m.member_count_var for m in rounds if m.ch_count > 0)
        return float(np.mean(values))

    var_eerpms = mean_load_variance(Protocol.EERPMS)
    var_rleach = mean_load_variance(Protocol.RLEACH)
    balance_ok = var_eerpms < var_rleach

    ok = fdn_ok and residual_ok and balance_ok
    report(7, "comparative lifetime", ok,
           f"(a) median FDN E/R/C = {med[Protocol.EERPMS]:.0f}/"
           f"{med[Protocol.RLEACH]:.0f}/{med[Protocol.CRPFCM]:.0f}; "
           f"(b) residual@800 wins vs RLEACH {beats_rleach}/20, vs CRPFCM "
           f"{beats_crpfcm}/20 (need >=15); (c) load variance {var_eerpms:.2f} "
           f"vs {var_rleach:.2f}")
    assert fdn_ok, "median FDN ordering violated"
    assert balance_ok, "load-balance comparison violated"
    # Fails today: EERPMS holds more residual than CRPFCM at round 800 in 0/20
    # seeds (RLEACH: 20/20). CRPFCM reuses EERPMS's head election and
    # transmission, and its compact fuzzy c-means clusters cost less per round
    # than angular wedges that run from the sink to the rim: at seed 1 the
    # mean spend over rounds 1-100 is 0.0536 J (EERPMS) vs 0.0531 J (CRPFCM),
    # and the residual at round 800 is 5.37 J vs 7.14 J. Settling it needs the
    # paper's own CRPFCM and the setup behind its 58.60 % figure; until the
    # model changes with that reason, the clause and its bound stay as they are.
    assert residual_ok, (
        f"residual@800 wins: RLEACH {beats_rleach}/20, CRPFCM {beats_crpfcm}/20")


def average_ranks(values):
    """1-based ranks of `values`; tied values share the mean of their ranks."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    for _, group in itertools.groupby(order, key=values.__getitem__):
        tied = list(group)
        for i in tied:
            ranks[i] = start + (len(tied) + 1) / 2
        start += len(tied)
    return ranks


def spearman(x, y):
    """Spearman's rank correlation: Pearson's r of the average ranks."""
    return statistics.correlation(average_ranks(x), average_ranks(y))


@settings(deadline=None)  # the first example imports scipy.stats
@given(st.lists(st.tuples(st.integers(-3, 3), st.floats(-1e3, 1e3) | st.integers(-2, 2)),
                min_size=3, max_size=40))
def test_spearman_matches_scipy_with_ties(pairs):
    stats = pytest.importorskip("scipy.stats")
    x, y = (list(v) for v in zip(*pairs))
    assume(len(set(x)) > 1 and len(set(y)) > 1)
    assert abs(spearman(x, y) - stats.spearmanr(x, y).statistic) <= 1e-12


@pytest.mark.slow
def test_criterion_8_weight_sweep_trends():
    omegas = [0.0, 0.25, 0.5, 0.75, 1.0]
    mean_fdn, mean_ldn = [], []
    for omega1 in omegas:
        fdn, ldn = [], []
        for seed in range(1, 11):
            config = NetworkConfig(omega1=omega1, omega2=1.0 - omega1, seed=seed)
            lifetime = run_simulation(config).lifetime
            fdn.append(lifetime.fdn_round)
            ldn.append(lifetime.ldn_round)
        mean_fdn.append(float(np.mean(fdn)))
        mean_ldn.append(float(np.mean(ldn)))
    rho_fdn = spearman(omegas, mean_fdn)
    rho_ldn = spearman(omegas, mean_ldn)
    ok = rho_fdn > 0 and rho_ldn < 0
    report(8, "energy-weight sweep trends", ok,
           f"spearman(omega1, FDN)={rho_fdn:+.2f} (>0), "
           f"spearman(omega1, LDN)={rho_ldn:+.2f} (<0); "
           f"FDN means {[round(v) for v in mean_fdn]}, "
           f"LDN means {[round(v) for v in mean_ldn]}")
    assert rho_fdn > 0
    assert rho_ldn < 0


@pytest.mark.slow
def test_criterion_9_cluster_count_stability(lifetime_runs):
    stable = True
    for protocol in (Protocol.EERPMS, Protocol.CRPFCM):
        for seed in (1, 2, 3):
            result = lifetime_runs[(protocol, seed)]
            fdn = result.lifetime.fdn_round
            pre_death = [m for m in result.rounds if m.round_index < fdn]
            stable &= all(m.ch_count == 10 for m in pre_death)
    rleach_counts = []
    for seed in (1, 2, 3):
        result = lifetime_runs[(Protocol.RLEACH, seed)]
        fdn = result.lifetime.fdn_round
        rleach_counts.extend(m.ch_count for m in result.rounds
                             if m.round_index < fdn)
    rleach_var = float(np.var(rleach_counts))
    ok = stable and rleach_var > 0
    report(9, "cluster-count stability", ok,
           f"EERPMS/CRPFCM hold 10 clusters pre-death: {stable}; "
           f"RLEACH head-count variance {rleach_var:.2f} > 0")
    assert stable
    assert rleach_var > 0
