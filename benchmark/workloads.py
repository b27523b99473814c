"""The benchmark's workloads.

Each workload builds its inputs from the seed alone (`setup`), lists the
timed steps of one pass (`steps`), and checks a pass's outputs, the list of
the steps' results (`check`, which maps each failed operation to its
problems). Every pass repeats the same operations on the same inputs, so
passes must give the same `digest`, and so must a step run again on its own.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import importlib
import math
import sys
from pathlib import Path

import numpy as np

import checks

PROTOCOLS = ("EERPMS", "RLEACH", "CRPFCM")


def import_eerpms():
    """Import the package afresh, so that each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "eerpms" or m.startswith("eerpms.")]:
        del sys.modules[name]
    return importlib.import_module("eerpms")


def seed_list(rng: np.random.Generator, n: int) -> list[int]:
    return [int(v) for v in rng.integers(1, 2 ** 31 - 1, size=n)]


def _lifetime_problems(result, n: int) -> list[str]:
    deaths = [len(m.dead_node_ids) for m in result.rounds]
    life = result.lifetime
    expected = checks.lifetimes(deaths, n)
    if (life.fdn_round, life.hdn_round, life.ldn_round) != expected:
        return [f"lifetime {life} != recomputed {expected}"]
    if life.rounds_completed != len(result.rounds):
        return [f"rounds_completed {life.rounds_completed} != {len(result.rounds)} rounds"]
    return []


class Workload:
    name = ""
    setup_repeats = 21
    recheck_step = 0       # the step run again when a run makes only one pass
    ops: list[str] = []

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work before each pass."""

    def release(self) -> None:
        """Drop what `setup` built ahead for the first pass, so that a traced
        pass builds it under the tracer."""

    def steps(self) -> list:
        """The pass's timed calls, in order."""
        raise NotImplementedError

    def check(self, out: list) -> dict[str, list[str]]:
        raise NotImplementedError

    def step_digest(self, result) -> str:
        """SHA-256 of one step's outputs."""
        raise NotImplementedError

    def digest(self, out: list) -> str:
        return hashlib.sha256("".join(map(self.step_digest, out)).encode()).hexdigest()

    def details(self, out: list, walls: list[float]) -> dict[str, tuple[float, str]]:
        """Figures of one pass reported beside the end-to-end metrics."""
        return {}


class PaperN100(Workload):
    """All three protocols to last death at the paper's operating point,
    through `run_experiment`, with its CSVs written to a scratch directory.

    One `run_experiment` per deployment seed, so that reference timings fall
    all through the pass and a run can repeat one deployment on its own."""

    name = "paper-n100"
    deployments = 8

    def setup(self) -> None:
        self.ee = ee = import_eerpms()
        self.seeds = seed_list(np.random.default_rng(self.seed), self.deployments)
        self.base = ee.NetworkConfig()
        self.specs = [ee.ExperimentSpec(base=self.base, protocols=list(ee.Protocol),
                                        seeds=[seed], output_dir=self.workdir / f"seed{seed}")
                      for seed in self.seeds]
        self.ops = [f"{p}-seed{s}" for s in self.seeds for p in PROTOCOLS]

    def steps(self) -> list:
        return [functools.partial(self.ee.experiments.run_experiment, spec)
                for spec in self.specs]

    def _read(self, seed: int, name: str) -> list[dict]:
        with open(self.workdir / f"seed{seed}" / name, newline="") as fh:
            return list(csv.DictReader(fh))

    def check(self, out: list) -> dict[str, list[str]]:
        n, e0 = self.base.node_count, self.base.initial_energy_j
        failed: dict[str, list[str]] = {}
        for seed in self.seeds:
            summary = {row["protocol"]: row for row in self._read(seed, "summary.csv")}
            for protocol in PROTOCOLS:
                rows = self._read(seed, f"rounds_{protocol}_base_seed{seed}.csv")
                alive = [int(r["alive"]) for r in rows]
                residual = [float(r["total_residual_j"]) for r in rows]
                deaths = [int(r["deaths"]) for r in rows]
                problems = checks.round_series(alive, residual, deaths, n, e0)
                row = summary.get(protocol, {})
                summarized = tuple(float(row.get(k, "nan"))
                                   for k in ("fdn_mean", "hdn_mean", "ldn_mean"))
                if summarized != checks.lifetimes(deaths, n):
                    problems.append(f"summary.csv lifetimes {summarized} differ from "
                                    "the rounds CSV")
                # round 1 again, stepped by hand, so its structure can be checked
                config = self.base.with_overrides(protocol=self.ee.Protocol[protocol],
                                                  seed=seed)
                sim = self.ee.Simulation(config)
                first = sim.step()
                problems += checks.first_round(sim, first)
                if (first.alive_count, repr(first.total_residual_j), first.ch_count) != \
                        (alive[0], rows[0]["total_residual_j"], int(rows[0]["ch_count"])):
                    problems.append("rounds CSV row 1 differs from a fresh first round")
                if problems:
                    failed[f"{protocol}-seed{seed}"] = problems
        return failed

    def step_digest(self, result) -> str:
        h = hashlib.sha256()
        for path in sorted(map(Path, result)):
            h.update(f"{path.parent.name}/{path.name}".encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    def details(self, out: list, walls: list[float]) -> dict[str, tuple[float, str]]:
        rounds = 0
        hdn = []
        for seed in self.seeds:
            for protocol in PROTOCOLS:
                deaths = [int(r["deaths"])
                          for r in self._read(seed, f"rounds_{protocol}_base_seed{seed}.csv")]
                rounds += len(deaths)
                if protocol == "EERPMS":
                    hdn.append(checks.lifetimes(deaths, self.base.node_count)[1])
        return {"rounds_per_s": (rounds / sum(walls), "1/s"),
                "eerpms_hdn_rounds": (sum(hdn) / len(hdn), "rounds")}


class DenseN1000(Workload):
    """One deployment of 1000 nodes, RLEACH and CRPFCM each run to last death
    through `Simulation(config).run()`. The simulations are built before the
    pass. EERPMS is left out here: its bat search is most of `paper-n100`."""

    name = "dense-n1000"
    protocols = ("RLEACH", "CRPFCM")
    setup_repeats = 9
    recheck_step = 0       # RLEACH, the shorter run
    node_count = 1000

    def setup(self) -> None:
        self.sims = None   # a repeated set-up must not hold the last one's tables
        self.ee = ee = import_eerpms()
        (seed,) = seed_list(np.random.default_rng(self.seed), 1)
        self.configs = [ee.NetworkConfig(node_count=self.node_count, seed=seed,
                                         protocol=ee.Protocol[p]) for p in self.protocols]
        self.ops = list(self.protocols)
        self.sims = [ee.Simulation(c) for c in self.configs]

    def release(self) -> None:
        self.sims = None

    def prepare(self) -> None:
        if self.sims is None:
            self.sims = [self.ee.Simulation(c) for c in self.configs]

    def steps(self) -> list:
        sims, self.sims = self.sims, None
        return [sim.run for sim in sims]

    def check(self, out: list) -> dict[str, list[str]]:
        failed = {}
        for protocol, config, result in zip(self.protocols, self.configs, out):
            n, e0 = config.node_count, config.initial_energy_j
            rounds = result.rounds
            problems = checks.conservation(rounds, n, e0)
            problems += checks.round_series(
                [m.alive_count for m in rounds], [m.total_residual_j for m in rounds],
                [len(m.dead_node_ids) for m in rounds], n, e0)
            problems += _lifetime_problems(result, n)
            sim = self.ee.Simulation(config)
            first = sim.step()
            problems += checks.first_round(sim, first)
            if first != rounds[0]:
                problems.append("round 1 of the run differs from a fresh first round")
            if problems:
                failed[protocol] = problems
        return failed

    def step_digest(self, result) -> str:
        h = hashlib.sha256()
        for m in result.rounds:
            h.update(f"{result.config.protocol.value},{m.round_index},{m.alive_count},"
                     f"{m.total_residual_j!r},{m.spent_j!r},{m.per_ch_energy_j!r},"
                     f"{m.member_counts!r},{m.dead_node_ids!r}\n".encode())
        return h.hexdigest()

    def details(self, out: list, walls: list[float]) -> dict[str, tuple[float, str]]:
        figures = {f"{p.lower()}_run_s": (s, "s") for p, s in zip(self.protocols, walls)}
        rounds = sum(len(result.rounds) for result in out)
        figures["rounds_per_s"] = (rounds / sum(walls), "1/s")
        return figures


class Oracle(Workload):
    """The threshold oracle, the bat at the operating point, the energy
    landscapes and the wedge Monte Carlo. No simulation runs here."""

    name = "oracle"
    small_bins = 36
    small_ks = (3, 4, 5, 6)
    plain_max_k = 4        # plain-Python enumeration re-checks these cases
    small_histograms = 3
    paper_histograms = 12
    k_values = tuple(range(1, 31))
    d_fine = tuple(round(0.1 * i, 1) for i in range(1501))
    d_coarse = tuple(10.0 * i for i in range(16))
    landscape_deployments = 10
    wedge_cases = tuple((k, d) for k in (9, 10, 12) for d in (0.0, 90.0, 135.0))
    wedge_samples = 1_000_000

    def setup(self) -> None:
        self.ee = ee = import_eerpms()
        rng = np.random.default_rng(self.seed)
        base = ee.NetworkConfig()
        self.base = base
        self.area = ee.AreaSpec(base.radius_m, base.node_count)
        self.weights = ee.ObjectiveWeights(base.alpha1, base.alpha2)
        angles = [[n.angle for n in ee.deploy(self.area, s)]
                  for s in seed_list(rng, self.small_histograms + self.paper_histograms)]
        self.small = [ee.build_histogram(a, self.small_bins)
                      for a in angles[:self.small_histograms]]
        self.paper = [ee.build_histogram(a, base.bin_count)
                      for a in angles[self.small_histograms:]]
        self.bat_seeds = seed_list(rng, len(self.small) * len(self.small_ks) + len(self.paper))
        self.landscape_seeds = seed_list(rng, self.landscape_deployments)
        self.wedge_seeds = seed_list(rng, len(self.wedge_cases))
        self.ops = ([f"exhaustive-h{i}-k{k}" for i in range(len(self.small))
                     for k in self.small_ks]
                    + [f"bat360-h{i}" for i in range(len(self.paper))]
                    + ["analytic-grid", "simulated-grid"]
                    + [f"wedge-k{k}-d{d:g}" for k, d in self.wedge_cases])

    def steps(self) -> list:
        return [self._cases]

    def _cases(self) -> dict:
        ee, out = self.ee, {}
        bat_seeds = iter(self.bat_seeds)
        k_paper = self.base.k_clusters
        for i, h in enumerate(self.small):
            for k in self.small_ks:
                best = ee.otsu.exhaustive_best_threshold(h, k, self.weights)
                found = ee.bat.optimize_thresholds(
                    h, k, self.weights, ee.BatParams(seed=next(bat_seeds)))
                out[f"exhaustive-h{i}-k{k}"] = (best, found)
        for i, h in enumerate(self.paper):
            out[f"bat360-h{i}"] = ee.bat.optimize_thresholds(
                h, k_paper, self.weights, ee.BatParams(seed=next(bat_seeds)))
        radio = self.base.radio
        out["analytic-grid"] = ee.experiments.analytic_energy_grid(
            self.area, radio, self.k_values, self.d_fine)
        out["simulated-grid"] = ee.experiments.simulated_energy_grid(
            self.area, radio, self.k_values, self.d_coarse, self.landscape_seeds)
        for (k, d), seed in zip(self.wedge_cases, self.wedge_seeds):
            out[f"wedge-k{k}-d{d:g}"] = ee.theory.wedge_sq_distance_mc(
                self.area.radius_m, k, d, self.wedge_samples, np.random.default_rng(seed))
        return out

    def check(self, out: list) -> dict[str, list[str]]:
        (out,) = out
        a1, a2 = self.weights.alpha1, self.weights.alpha2
        failed: dict[str, list[str]] = {}

        def bat_problems(h, k, found) -> list[str]:
            counts = [int(c) for c in h.counts]
            t, value = found
            if not checks.valid_thresholds(t.thresholds, k, h.bin_count):
                return [f"invalid thresholds {t.thresholds}"]
            plain = checks.objective(counts, t.thresholds, a1, a2)
            if abs(plain - value) > 1e-12 or not 0.0 < value <= 1.0:
                return [f"bat objective {value!r}, plain evaluation {plain!r}"]
            return []

        for i, h in enumerate(self.small):
            counts = [int(c) for c in h.counts]
            for k in self.small_ks:
                op = f"exhaustive-h{i}-k{k}"
                (best_t, best_v), found = out[op]
                problems = bat_problems(h, k, found)
                if found[1] > best_v + 1e-12:
                    problems.append(f"bat {found[1]!r} beats the exhaustive optimum {best_v!r}")
                if abs(checks.objective(counts, best_t.thresholds, a1, a2) - best_v) > 1e-12:
                    problems.append("exhaustive optimum misreports its objective")
                if k <= self.plain_max_k:
                    plain_t, plain_v = checks.plain_enumeration(counts, k, a1, a2)
                    if abs(plain_v - best_v) > 1e-12:
                        problems.append(f"exhaustive optimum {best_v!r} ({best_t.thresholds}) "
                                        f"!= plain enumeration {plain_v!r} ({plain_t})")
                if problems:
                    failed[op] = problems
        for i, h in enumerate(self.paper):
            problems = bat_problems(h, self.base.k_clusters, out[f"bat360-h{i}"])
            if problems:
                failed[f"bat360-h{i}"] = problems

        # g(K) is the round energy at each K's best head distance
        # d*(K) = 2NR/(3(N+K)), up to terms that do not depend on K.
        n, r = self.area.node_count, self.area.radius_m
        k_best = min(self.k_values, key=lambda k: n * math.pi ** 2 * r * r / (6 * k * k)
                     - 4 * n * n * r * r / (9 * (n + k)))
        expected = (k_best, round(2 * n * r / (3 * (n + k_best)), 1))
        k_min, d_min, _ = min(out["analytic-grid"], key=lambda row: row[2])
        if (k_min, d_min) != expected or expected != (10, 90.9):
            failed["analytic-grid"] = [f"analytic argmin ({k_min}, {d_min}), "
                                       f"closed form {expected}, expected (10, 90.9)"]

        grid = {(k, d): e for k, d, e in out["simulated-grid"]}
        deployments = [self.ee.deploy(self.area, s) for s in self.landscape_seeds]
        for k, d in ((2, 50.0), (10, 90.0), (30, 150.0)):
            mean = math.fsum(
                checks.forced_round_energy([p.x for p in nodes], [p.y for p in nodes],
                                           self.base.radio, k, d)
                for nodes in deployments) / len(deployments)
            if abs(grid[(k, d)] - mean) > checks.REL_TOL * mean:
                failed["simulated-grid"] = [f"cell ({k}, {d}) is {grid[(k, d)]!r}, "
                                            f"radio model gives {mean!r}"]
                break

        for k, d in self.wedge_cases:
            op = f"wedge-k{k}-d{d:g}"
            closed = self.ee.expected_sq_member_distance(self.area, k, d)
            if abs(closed - out[op]) > 0.05 * out[op]:
                failed[op] = [f"Monte Carlo {out[op]!r} vs closed form {closed!r}"]
        return failed

    def step_digest(self, result) -> str:
        return hashlib.sha256(repr(sorted(result.items())).encode()).hexdigest()

    def details(self, out: list, walls: list[float]) -> dict[str, tuple[float, str]]:
        (out,) = out
        values = [out[f"bat360-h{i}"][1] for i in range(len(self.paper))]
        return {"bat_objective": (sum(values) / len(values), "1")}


WORKLOADS = {w.name: w for w in (PaperN100, DenseN1000, Oracle)}
