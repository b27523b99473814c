import csv
from pathlib import Path

import numpy as np
import pytest

from eerpms import (
    ConfigError,
    ExperimentSpec,
    NetworkConfig,
    Protocol,
    load_experiment_spec,
    run_experiment,
    summarize_lifetime,
)
from eerpms import experiments
from eerpms.experiments import ROUND_CSV_HEADER, write_rounds_csv
from eerpms.simulation import LifetimeSummary, deploy, run_simulation
from eerpms.theory import AreaSpec


def small_spec(tmp_path, **kwargs):
    base = NetworkConfig(node_count=12, max_rounds=60)
    defaults = dict(
        base=base,
        protocols=[Protocol.EERPMS, Protocol.RLEACH],
        seeds=[1, 2, 3],
        output_dir=tmp_path / "out",
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestRunExperiment:
    def test_file_counts(self, tmp_path):
        paths = run_experiment(small_spec(tmp_path))
        names = sorted(p.name for p in paths)
        rounds = [n for n in names if n.startswith("rounds_")]
        assert len(rounds) == 6  # 2 protocols x 3 seeds
        assert "summary.csv" in names
        assert "improvements.csv" in names

    def test_round_csv_schema(self, tmp_path):
        paths = run_experiment(small_spec(tmp_path, protocols=[Protocol.EERPMS],
                                          seeds=[1]))
        rounds_path = next(p for p in paths if p.name.startswith("rounds_"))
        text = rounds_path.read_text()
        assert text.splitlines()[0] == ROUND_CSV_HEADER
        assert "\r" not in text
        with open(rounds_path) as fh:
            rows = list(csv.DictReader(fh))
        assert int(rows[0]["round"]) == 1
        assert int(rows[0]["alive"]) <= 12

    def test_byte_identical_rerun(self, tmp_path):
        spec_a = small_spec(tmp_path / "a")
        spec_b = small_spec(tmp_path / "b")
        paths_a = run_experiment(spec_a)
        paths_b = run_experiment(spec_b)
        for pa, pb in zip(sorted(paths_a), sorted(paths_b)):
            assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("fault", ["simulation", "replace"])
    def test_failed_rerun_leaves_no_summary(self, tmp_path, monkeypatch, fault):
        # an earlier complete run, then a rerun into the same directory that
        # fails at its second rounds file: in a simulation, or in the rename
        spec = small_spec(tmp_path)
        run_experiment(spec)
        assert (spec.output_dir / "summary.csv").is_file()
        calls = []

        def failing(real):
            def call(*args, **kwargs):
                calls.append(args)
                if len(calls) == 2:
                    raise RuntimeError("injected fault")
                return real(*args, **kwargs)
            return call
        if fault == "simulation":
            monkeypatch.setattr(experiments, "run_simulation",
                                failing(experiments.run_simulation))
        else:
            monkeypatch.setattr(experiments.os, "replace", failing(experiments.os.replace))
        with pytest.raises(RuntimeError, match="injected fault"):
            run_experiment(spec)
        names = {p.name for p in spec.output_dir.iterdir()}
        assert "summary.csv" not in names and "improvements.csv" not in names
        assert not [n for n in names if n.endswith(".tmp")]
        assert len(names) == 6  # the rounds files, each whole

    def test_summary_recomputable_from_round_csvs(self, tmp_path):
        # tiny batteries so first deaths happen inside the round budget
        base = NetworkConfig(node_count=12, max_rounds=60, initial_energy_j=0.01)
        spec = small_spec(tmp_path, base=base, protocols=[Protocol.RLEACH],
                          seeds=[1, 2])
        paths = run_experiment(spec)
        summary_path = next(p for p in paths if p.name == "summary.csv")
        with open(summary_path) as fh:
            (row,) = list(csv.DictReader(fh))
        fdns = []
        n = spec.base.node_count
        for p in paths:
            if not p.name.startswith("rounds_"):
                continue
            with open(p) as fh:
                dead = 0
                for r in csv.DictReader(fh):
                    dead += int(r["deaths"])
                    if dead >= 1:
                        fdns.append(int(r["round"]))
                        break
        assert float(row["fdn_mean"]) == pytest.approx(sum(fdns) / len(fdns))

    def test_omega_sweep_cells(self, tmp_path):
        spec = small_spec(tmp_path, protocols=[Protocol.EERPMS], seeds=[1],
                          sweep_axis="omega1", omega1_values=[0.3, 0.7])
        paths = run_experiment(spec)
        names = {p.name for p in paths}
        assert "rounds_EERPMS_w0.3_seed1.csv" in names
        assert "rounds_EERPMS_w0.7_seed1.csv" in names

    def test_grid_sweep_writes_landscape(self, tmp_path):
        spec = small_spec(tmp_path, sweep_axis="k_dch_grid",
                          k_values=[2, 3], d_values=[50.0, 90.0], seeds=[1, 2])
        (path,) = run_experiment(spec)
        assert path.name == "landscape_simulated.csv"
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["k"] for r in rows} == {"2", "3"}

    def test_invalid_spec_rejected_before_running(self, tmp_path):
        with pytest.raises(ConfigError):
            small_spec(tmp_path, seeds=[])
        with pytest.raises(ConfigError):
            small_spec(tmp_path, sweep_axis="nodes")
        with pytest.raises(ConfigError):
            small_spec(tmp_path, sweep_axis="omega1")


class TestSimulatedEnergyGrid:
    @pytest.mark.parametrize("radius, n, k_values, d_values, seeds", [
        (150.0, 100, range(1, 31), [10.0 * i for i in range(16)], [1, 2, 3]),
        (300.0, 40, [1, 7, 64], [0.0, 0.1, 87.7, 87.8, 299.9], [9]),
        (20.0, 1, [2], [5.0], [4, 5]),
    ], ids=["operating-point", "multipath", "one-node"])
    def test_equals_cell_by_cell_loop(self, radius, n, k_values, d_values, seeds):
        # every distance of a deployment at once, against one
        # forced_round_energy call per cell and deployment, bit for bit
        area = AreaSpec(radius, n)
        radio = NetworkConfig().radio
        deployments = [(np.array([p.x for p in nodes]), np.array([p.y for p in nodes]))
                       for nodes in (deploy(area, s) for s in seeds)]
        expected = []
        for k in k_values:
            for d in d_values:
                total = 0.0
                for xs, ys in deployments:
                    total += experiments.forced_round_energy(xs, ys, radio, k, d)
                expected.append((k, d, total / len(deployments)))
        assert experiments.simulated_energy_grid(area, radio, k_values, d_values,
                                                 seeds) == expected


class TestSummaries:
    def test_identical_streams_zero_sd(self):
        lt = LifetimeSummary(fdn_round=800, hdn_round=900, ldn_round=1000,
                             rounds_completed=1000)
        rows, _ = summarize_lifetime({(Protocol.EERPMS, "base"): [lt, lt, lt]}, "none")
        (row,) = rows
        assert row.fdn_mean == 800 and row.fdn_sd == 0.0

    def test_mean_and_sample_sd(self):
        summaries = [
            LifetimeSummary(800, 900, 1000, 1000),
            LifetimeSummary(900, 1000, 1100, 1100),
        ]
        rows, _ = summarize_lifetime({(Protocol.EERPMS, "base"): summaries}, "none")
        (row,) = rows
        assert row.fdn_mean == pytest.approx(850.0)
        assert row.fdn_sd == pytest.approx(70.71067811865476)

    def test_improvement_percentages(self):
        ours = [LifetimeSummary(900, 1000, 1100, 1100)]
        theirs = [LifetimeSummary(600, 800, 1000, 1000)]
        rows, improvements = summarize_lifetime(
            {(Protocol.EERPMS, "base"): ours, (Protocol.RLEACH, "base"): theirs},
            "none")
        (imp,) = improvements
        assert imp["baseline"] == "RLEACH"
        assert imp["fdn_improvement_pct"] == pytest.approx(50.0)
        assert imp["hdn_improvement_pct"] == pytest.approx(25.0)
        assert imp["ldn_improvement_pct"] == pytest.approx(10.0)

    def test_no_improvements_without_reference_protocol(self):
        theirs = [LifetimeSummary(600, 800, 1000, 1000)]
        _, improvements = summarize_lifetime({(Protocol.RLEACH, "base"): theirs}, "none")
        assert improvements == []


class TestSpecFile:
    def test_load_round_trip(self, tmp_path):
        spec_file = tmp_path / "exp.ini"
        spec_file.write_text(
            "[experiment]\n"
            "protocols = EERPMS, CRPFCM\n"
            "seeds = 5, 6\n"
            "sweep = node_count\n"
            "node_counts = 10, 20\n"
            "output_dir = out/test\n"
            "[network]\n"
            "node_count = 10\n"
            "max_rounds = 50\n"
        )
        spec = load_experiment_spec(spec_file)
        assert spec.protocols == [Protocol.EERPMS, Protocol.CRPFCM]
        assert spec.seeds == [5, 6]
        assert spec.node_counts == [10, 20]
        assert spec.base.max_rounds == 50

    def test_unknown_experiment_key_rejected(self, tmp_path):
        spec_file = tmp_path / "exp.ini"
        spec_file.write_text("[experiment]\nseeds = 1\nprotocol = EERPMS\n")
        with pytest.raises(ConfigError):
            load_experiment_spec(spec_file)

    def test_missing_experiment_section_rejected(self, tmp_path):
        spec_file = tmp_path / "exp.ini"
        spec_file.write_text("[network]\nnode_count = 5\n")
        with pytest.raises(ConfigError):
            load_experiment_spec(spec_file)

    @pytest.mark.parametrize("line, message", [
        ("seeds = 1 x", "[experiment] seeds: cannot parse '1 x'"),
        ("protocols = EERPMS, FOO",
         "unknown protocol 'FOO' (expected one of EERPMS, RLEACH, CRPFCM)"),
    ])
    def test_bad_list_value_named(self, tmp_path, line, message):
        spec_file = tmp_path / "exp.ini"
        spec_file.write_text(f"[experiment]\n{line}\n")
        with pytest.raises(ConfigError) as info:
            load_experiment_spec(spec_file)
        assert str(info.value) == message

    def test_shipped_specs_parse(self):
        configs = Path(__file__).resolve().parents[1] / "configs"
        for name in ("sweep_lifetime.ini", "sweep_omega1.ini",
                     "sweep_node_count.ini", "landscape_grid.ini"):
            spec = load_experiment_spec(configs / name)
            assert spec.seeds


def test_rounds_csv_float_format_round_trips(tmp_path):
    result = run_simulation(NetworkConfig(node_count=8, seed=1, max_rounds=30))
    path = tmp_path / "rounds.csv"
    write_rounds_csv(path, result.rounds)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for m, row in zip(result.rounds, rows):
        assert float(row["total_residual_j"]) == m.total_residual_j
        assert float(row["ch_energy_var"]) == m.ch_energy_var
