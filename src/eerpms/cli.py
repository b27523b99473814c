"""Command-line front end.

Subcommands: `simulate` (one run), `sweep` (experiment spec file), `theory`
(closed-form plan for given N, R and radio constants), `verify` (oracle
suites: exhaustive-threshold comparison, wedge-distance Monte Carlo, energy
landscape argmin, sector coverage sampling).

Exit codes: 0 success, 1 configuration error (an output directory that
cannot be created or written included), 2 runtime failure. Output directory
resolution: --out flag, else the EERPMS_OUT_DIR environment variable, else
the spec's output_dir for `sweep` and ./out otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bat import BatParams, optimize_thresholds
from .config import (
    _MAX_ARRAY_ELEMENTS,
    ConfigError,
    NetworkConfig,
    load_network_config,
    parse_protocol,
)
from .experiments import (
    _check_writable,
    analytic_energy_grid,
    grid_argmin,
    load_experiment_spec,
    run_experiment,
    simulated_energy_grid,
    write_landscape_csv,
    write_rounds_csv,
)
from .network import Protocol
from .otsu import AngleHistogram, ObjectiveWeights, exhaustive_best_threshold
from .radio import distance_threshold
from .simulation import run_simulation
from .theory import (
    AreaSpec,
    expected_sq_member_distance,
    feasible_ch_band,
    free_space_radius_limit,
    optimal_plan,
    sector_coverage_violations,
    wedge_sq_distance_mc,
)

ENV_OUT_DIR = "EERPMS_OUT_DIR"


class _CliParser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are configuration errors (exit 1)
        raise ConfigError(message)


def _int_at_least(low: int, high: int | None = None):
    """Argument type for an integer of at least `low` (a count or a seed),
    and at most `high` if given."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


def _resolve_out(flag_value: str | None, fallback: str | Path) -> Path:
    """The --out flag, else the environment variable, else `fallback`."""
    return Path(flag_value or os.environ.get(ENV_OUT_DIR) or fallback)


def _load_config(path: str | None) -> NetworkConfig:
    if path is None:
        return NetworkConfig()
    return load_network_config(path)


def _with_flags(config: NetworkConfig, **flags) -> NetworkConfig:
    """`config` with the flags that were given; `NetworkConfig` checks them."""
    return config.with_overrides(**{name: value for name, value in flags.items()
                                    if value is not None})


def cmd_simulate(args) -> int:
    config = _with_flags(_load_config(args.config), seed=args.seed,
                         protocol=args.protocol, max_rounds=args.max_rounds)
    out_dir = _resolve_out(args.out, "out")
    _check_writable(out_dir)
    result = run_simulation(config)
    path = out_dir / f"rounds_{config.protocol.value}_seed{config.seed}.csv"
    write_rounds_csv(path, result.rounds)
    lt = result.lifetime
    print(f"wrote {path}")
    print(f"rounds: {lt.rounds_completed}  FDN: {lt.fdn_round}  "
          f"HDN: {lt.hdn_round}  LDN: {lt.ldn_round}")
    return 0


def cmd_sweep(args) -> int:
    spec = load_experiment_spec(args.spec)
    spec.output_dir = _resolve_out(args.out, spec.output_dir)
    paths = run_experiment(spec)
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_theory(args) -> int:
    config = _with_flags(_load_config(args.config), node_count=args.nodes,
                         radius_m=args.radius)
    area = AreaSpec(radius_m=config.radius_m, node_count=config.node_count)
    radio = config.radio
    d_th = distance_threshold(radio)
    plan = optimal_plan(area, radio)
    print(f"N = {area.node_count}  R = {area.radius_m:g} m")
    print(f"crossover distance d_th = {d_th:.4f} m")
    print(f"K* = {plan.k_star}")
    print(f"d* = {plan.d_star_m:.2f} m")
    print(f"minimum-energy ring radius = {plan.d_star_m:.2f} m")
    if plan.k_star >= 2:
        limit = free_space_radius_limit(d_th, plan.k_star)
        print(f"free-space radius limit (K={plan.k_star}) = {limit:.2f} m")
        print(f"radius within free-space limit: {'yes' if plan.feasible else 'no'}")
        if plan.feasible:
            lo, hi = feasible_ch_band(area, d_th, plan.k_star)
            print(f"feasible head-distance band (K={plan.k_star}) = "
                  f"[{lo:.2f}, {hi:.2f}] m")
            print(f"d* inside feasible band: {'yes' if plan.d_star_in_band else 'no'}")
    return 0


def cmd_verify(args) -> int:
    config = _load_config(args.config)
    radio = config.radio
    out_dir = _resolve_out(args.out, "out")
    _check_writable(out_dir)
    rng = np.random.default_rng(args.seed)

    # exhaustive-threshold oracle vs the metaheuristic, at oracle-friendly size
    bins, cases = 36, args.histograms
    weights = ObjectiveWeights(config.alpha1, config.alpha2)
    hits = 0
    for i in range(cases):
        hist = AngleHistogram(rng.integers(1, 20, size=bins))
        k = int(rng.integers(2, 5))
        _, best = exhaustive_best_threshold(hist, k, weights)
        bat = BatParams(seed=int(rng.integers(0, 2 ** 63)))
        _, found = optimize_thresholds(hist, k, weights, bat)
        if found >= 0.99 * best:
            hits += 1
    print(f"[thresholds] {hits}/{cases} searches within 0.99x of the "
          f"exhaustive optimum (bins={bins}, k in 2..4)")

    # closed-form wedge distance vs Monte-Carlo sampling
    area = AreaSpec(config.radius_m, config.node_count)
    worst = 0.0
    for k in (9, 10, 12):
        for frac in (0.0, 0.6, 0.9):
            d = frac * area.radius_m
            closed = expected_sq_member_distance(area, k, d)
            sampled = wedge_sq_distance_mc(area.radius_m, k, d, args.mc_samples, rng)
            rel = abs(closed - sampled) / sampled
            worst = max(worst, rel)
            print(f"[wedge-mc] k={k} d={d:g}: closed={closed:.2f} "
                  f"sampled={sampled:.2f} rel_err={rel:.3%}")
    print(f"[wedge-mc] worst relative error: {worst:.3%}")

    # energy landscape: analytic fine grid and forced-placement simulation
    k_values = range(1, 31)
    d_fine = [round(0.1 * i, 1) for i in range(0, 1501)]
    analytic = analytic_energy_grid(area, radio, k_values, d_fine)
    write_landscape_csv(out_dir / "landscape_analytic.csv", analytic)
    ak, ad, ae = grid_argmin(analytic)
    print(f"[landscape] analytic argmin: K={ak} d={ad:g} energy={ae:.6g} J")
    d_coarse = [10.0 * i for i in range(0, 16)]
    seeds = list(range(1, args.seeds + 1))
    simulated = simulated_energy_grid(area, radio, k_values, d_coarse, seeds)
    write_landscape_csv(out_dir / "landscape_simulated.csv", simulated)
    sk, sd, se = grid_argmin(simulated)
    print(f"[landscape] simulated argmin: K={sk} d={sd:g} energy={se:.6g} J "
          f"({len(seeds)} seeds)")

    # sector coverage at the feasible-band endpoints
    d_th = distance_threshold(radio)
    plan = optimal_plan(area, radio)
    k = max(2, plan.k_star)
    if area.radius_m <= free_space_radius_limit(d_th, k):
        lo, hi = feasible_ch_band(area, d_th, k)
        for name, d_ch in (("band lo", lo), ("band hi", hi)):
            bad = sector_coverage_violations(area.radius_m, k, d_th, d_ch,
                                             100_000, rng)
            print(f"[coverage] K={k} head at {name}={d_ch:.2f} m: "
                  f"violations={bad}/100000")
    else:
        print(f"[coverage] skipped: R={area.radius_m:g} exceeds the "
              f"free-space limit for K={k}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="eerpms",
                        description="Cluster-routing simulator and analysis tools")
    parser.add_argument("--version", action="version", version=f"eerpms {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation, write a rounds CSV")
    p_sim.add_argument("--config", help="network config file (INI)")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--protocol", type=parse_protocol,
                       help=f"{', '.join(p.value for p in Protocol)} (any case)")
    p_sim.add_argument("--max-rounds", type=int, dest="max_rounds")
    p_sim.add_argument("--out", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run an experiment spec file")
    p_sweep.add_argument("spec", help="experiment spec file (INI)")
    p_sweep.add_argument("--out", help="output directory (overrides the spec)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_theory = sub.add_parser("theory", help="print the closed-form plan")
    p_theory.add_argument("--nodes", type=int)
    p_theory.add_argument("--radius", type=float)
    p_theory.add_argument("--config", help="config file for radio constants")
    p_theory.set_defaults(func=cmd_theory)

    p_verify = sub.add_parser("verify", help="run the oracle suites")
    p_verify.add_argument("--config", help="config file for constants")
    p_verify.add_argument("--out", help="output directory for landscape CSVs")
    p_verify.add_argument("--seed", type=_int_at_least(0), default=0)
    # one array holds a value per seed or per sample: at most 2**31 of them
    p_verify.add_argument("--seeds", type=_int_at_least(1, _MAX_ARRAY_ELEMENTS), default=10,
                          help="deployments for the simulated landscape")
    p_verify.add_argument("--mc-samples", type=_int_at_least(1, _MAX_ARRAY_ELEMENTS),
                          default=1_000_000, dest="mc_samples")
    p_verify.add_argument("--histograms", type=_int_at_least(1), default=50)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit:
        raise
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
