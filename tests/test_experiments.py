import csv
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eerpms import (
    ConfigError,
    ExperimentSpec,
    NetworkConfig,
    Protocol,
    RadioParams,
    load_experiment_spec,
    run_experiment,
    summarize_lifetime,
)
from eerpms import experiments
from eerpms.experiments import ROUND_CSV_HEADER, write_rounds_csv
from eerpms.radio import aggregation_energy, distance_threshold, rx_energy, tx_energy
from eerpms.simulation import LifetimeSummary, deploy, run_simulation
from eerpms.theory import AreaSpec, predicted_round_energy


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


def reference_round_energy(area, radio, k, d_ch):
    """The closed form of `theory.predicted_round_energy` for one float d_ch."""
    n, r, fs = area.node_count, area.radius_m, radio.e_fs
    return radio.packet_bits * (
        fs * ((k + n) * d_ch * d_ch - (4.0 * n * r / 3.0) * d_ch)
        + n * (2.0 * radio.e_elec + radio.e_da
               + fs * (3.0 * k * k + math.pi ** 2) * r * r / (6.0 * k * k))
    )


positive = st.floats(1e-15, 1e3, allow_nan=False, allow_infinity=False)


class TestAnalyticEnergyGrid:
    @settings(max_examples=150, deadline=None)
    @given(radius=st.floats(0.5, 1e4), n=st.integers(1, 10**6),
           radio=st.builds(RadioParams, e_elec=positive, e_fs=positive, e_mp=positive,
                           e_da=positive, packet_bits=st.integers(1, 2**40)),
           k_values=st.lists(st.integers(1, 500), max_size=8),
           d_values=st.lists(st.floats(0.0, 1e4), max_size=12))
    def test_equals_scalar_closed_form(self, radius, n, radio, k_values, d_values):
        # K = 1, a duplicate and an unsorted order; d = 0 and distances past
        # the 87.7 m crossover of the default radio
        k_values = k_values + [1, 3, 3, 2]
        d_values = [0.0, 87.8, 150.0] + d_values + [0.0]
        area = AreaSpec(radius, n)
        rows = experiments.analytic_energy_grid(area, radio, k_values, d_values)
        assert rows == [(k, d, reference_round_energy(area, radio, k, d))
                        for k in k_values for d in d_values]
        assert all(type(v) is t for row in rows for v, t in zip(row, (int, float, float)))

    def test_closed_form_returns_python_float(self):
        # `_write_csv` writes a Python float with repr; np.float64 reprs differently
        value = predicted_round_energy(AreaSpec(150.0, 100), RadioParams(), 10, 90.9)
        assert type(value) is float
        assert value == reference_round_energy(AreaSpec(150.0, 100), RadioParams(), 10, 90.9)


def reference_forced_energies(xs, ys, angles, radio, k, d_values):
    """The forced-placement round energy of one deployment, its angles from
    `deploy`, at one K for every head distance, as one (D, n) array: the
    grid's reference, written apart from its blocked kernel."""
    bits = radio.packet_bits
    sector = np.minimum((angles * k / (2.0 * math.pi)).astype(np.int64), k - 1)
    bisector = (sector + 0.5) * (2.0 * math.pi / k)
    d = np.array(d_values, dtype=float)
    hx = np.multiply.outer(d, np.cos(bisector))
    hy = np.multiply.outer(d, np.sin(bisector))
    dist = np.hypot(xs - hx, ys - hy)
    d_th = math.sqrt(radio.e_fs / radio.e_mp)
    amp = np.where(dist <= d_th, radio.e_fs * dist ** 2,
                   radio.e_mp * ((dist * dist) * (dist * dist)))
    total = np.sum(bits * radio.e_elec + bits * amp, axis=1)
    # s occupied sectors: N - s receptions, N packets fused, s to the sink
    n, s = xs.size, int(np.count_nonzero(np.bincount(sector, minlength=k)))
    heads = (n - s) * rx_energy(radio, bits) + aggregation_energy(radio, bits, n)
    return total + heads + s * tx_energy(radio, bits, d)


def per_sector_energy(xs, ys, angles, radio, k, d):
    """One cell by the per-sector accounting that the closed form replaced:
    `np.hypot` distances, and per occupied sector of m members (m - 1)
    receptions, m packets fused and one packet to the sink, every term added
    exactly by `math.fsum`."""
    bits = radio.packet_bits
    sector = np.minimum((angles * k / (2.0 * math.pi)).astype(np.int64), k - 1)
    bisector = (sector + 0.5) * (2.0 * math.pi / k)
    dist = np.hypot(xs - d * np.cos(bisector), ys - d * np.sin(bisector))
    terms = tx_energy(radio, bits, dist).tolist()
    for m in np.unique(sector, return_counts=True)[1].tolist():
        terms += [(m - 1) * rx_energy(radio, bits), m * bits * radio.e_da,
                  tx_energy(radio, bits, d)]
    return math.fsum(terms)


def deployed_points(area, seed):
    nodes = deploy(area, seed)
    return tuple(np.array([getattr(p, f) for p in nodes]) for f in ("x", "y", "angle"))


class TestSimulatedEnergyGrid:
    @pytest.mark.parametrize("radius, n, k_values, d_values, seeds", [
        (150.0, 100, range(1, 31), [10.0 * i for i in range(16)], [1, 2, 3]),
        (300.0, 40, [1, 7, 64], [0.0, 0.1, 87.7, 87.8, 299.9], [9]),
        (20.0, 1, [2], [5.0], [4, 5]),
        (150.0, 129, [1, 5, 10, 40], [0.0, 60.0, 90.0, 140.0], [1, 2]),
        (150.0, 257, [3, 10, 17], [0.0, 45.0, 91.0], [3]),
        (100.0, 12, [13, 40, 1000, 12, 11], [0.0, 50.0, 99.0], [6, 7]),
        (150.0, 30, [9, 2, 9, 30, 1, 2, 17], [90.0, 0.0, 90.0], [8, 9]),
        (150.0, 50, list(range(1, 400, 3)), [20.0, 90.0, 200.0], [10]),
    ], ids=["operating-point", "multipath", "one-node", "n129", "n257", "k-above-n",
            "unsorted-duplicated-k", "block-boundary"])
    def test_equals_cell_by_cell_loop(self, radius, n, k_values, d_values, seeds):
        # the blocked grid against the per-K reference, bit for bit: n = 129
        # and 257 split numpy's pairwise row sums (128 terms per leaf)
        area = AreaSpec(radius, n)
        radio = NetworkConfig().radio
        deployments = [deployed_points(area, s) for s in seeds]
        expected = []
        for k in k_values:
            total = np.zeros(len(d_values))
            for xs, ys, angles in deployments:
                total += reference_forced_energies(xs, ys, angles, radio, k, d_values)
            expected.extend((k, d, e / len(seeds)) for d, e in zip(d_values, total.tolist()))
        assert experiments.simulated_energy_grid(area, radio, k_values, d_values,
                                                 seeds) == expected

    @settings(max_examples=60, deadline=None)
    @given(radius=st.floats(1.0, 1000.0), n=st.integers(1, 300),
           k_values=st.lists(st.one_of(st.integers(1, 400), st.just(10**6)), min_size=1,
                             max_size=4),
           d_values=st.lists(st.floats(0.0, 2000.0), min_size=1, max_size=4),
           seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=2, unique=True))
    @example(radius=150.0, n=1, k_values=[1, 2, 10**6], d_values=[0.0, 90.0], seeds=[1])
    @example(radius=150.0, n=100, k_values=[1, 10, 101, 10**6], d_values=[0.0, 90.9, 200.0],
             seeds=[1, 2])
    def test_within_bound_of_per_sector_sum(self, radius, n, k_values, d_values, seeds):
        # The bound was set before measuring. Both sides take the same hypot
        # distances and member prices (u = 2**-53); numpy's pairwise sum of at
        # most 300 positive members adds about 20u, and the head terms and the
        # seed mean a few roundings more: under 40u, 4.4e-15. Allowed is 1e-14.
        area = AreaSpec(radius, n)
        radio = NetworkConfig().radio
        deployments = [deployed_points(area, s) for s in seeds]
        rows = experiments.simulated_energy_grid(area, radio, k_values, d_values, seeds)
        expected = [math.fsum(per_sector_energy(*points, radio, k, d) for points in deployments)
                    / len(seeds) for k in k_values for d in d_values]
        assert [row[:2] for row in rows] == [(k, d) for k in k_values for d in d_values]
        assert max(abs(row[2] - e) / e for row, e in zip(rows, expected)) <= 1e-14

    def test_free_space_at_the_largest_accepted_d(self):
        """A radio whose crossover, about 1e154 m, lies where the multipath
        price's (d*d)**2 overflows. At the largest d that `ExperimentSpec`
        accepts, every link is free-space, and the grid runs without a
        warning. A member p and its head h satisfy |p - h| <= d + R, and the
        spec's bound prices d + R, widened for the few ulps by which the
        rounded distance can exceed it."""
        radio = RadioParams(e_fs=1e-15, e_mp=1e-323)
        base = NetworkConfig(radio=radio)

        def accepts(bits):
            d = float(np.int64(bits).view(np.float64))
            try:
                ExperimentSpec(base=base, protocols=[], sweep_axis="k_dch_grid",
                               k_values=[1], d_values=[d])
            except ConfigError:
                return False
            return True

        # bisection over the bit patterns of the non-negative floats
        lo, hi = 0, int(np.float64(1e308).view(np.int64))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
        d, d_th = float(np.int64(lo).view(np.float64)), distance_threshold(radio)
        assert 1e154 < d + base.radius_m < d_th
        with np.errstate(over="ignore"):  # one ulp past the crossover
            assert tx_energy(radio, radio.packet_bits, np.nextafter(d_th, math.inf)) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = experiments.simulated_energy_grid(AreaSpec(base.radius_m, base.node_count),
                                                     radio, [1, 2, 3, 10, 100, 10**6],
                                                     [0.0, d], [1, 2, 3])
        assert all(math.isfinite(energy) for _, _, energy in rows)

    def test_cases_cross_a_block_boundary(self):
        # the operating point and "block-boundary" price their K values in
        # several blocks of the element budget
        for n, d_count, k_count in ((100, 16, 30), (50, 3, len(range(1, 400, 3)))):
            assert k_count > experiments.LANDSCAPE_BLOCK // (n * d_count) >= 1

    def test_k_below_one_rejected(self):
        radio = NetworkConfig().radio
        for k in (0, -3):
            with pytest.raises(ValueError, match="k must be at least 1"):
                experiments.simulated_energy_grid(AreaSpec(150.0, 10), radio, [3, k], [10.0], [1])

    def test_memory_does_not_grow_with_k(self):
        # one K of a million sectors over 50 nodes: the per-K form held two
        # arrays of K entries (9 MB); the grid's arrays scale with the nodes
        area, radio = AreaSpec(150.0, 50), NetworkConfig().radio
        experiments.simulated_energy_grid(area, radio, [10**6], [90.0], [1])
        tracemalloc.start()
        try:
            rows = experiments.simulated_energy_grid(area, radio, [10**6], [90.0], [1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        xs, ys, angles = deployed_points(area, 1)
        assert rows == [(10**6, 90.0,
                         reference_forced_energies(xs, ys, angles, radio, 10**6, [90.0])[0])]


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
        assert imp.baseline is Protocol.RLEACH
        assert imp.fdn_improvement_pct == pytest.approx(50.0)
        assert imp.hdn_improvement_pct == pytest.approx(25.0)
        assert imp.ldn_improvement_pct == pytest.approx(10.0)

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

    @pytest.mark.parametrize("lines, message", [
        ("sweep = node_count", "node_count sweep needs a non-empty node_counts list"),
        ("sweep = k_dch_grid\nd_values = 0", "k_dch_grid sweep needs k_values and d_values"),
        ("sweep = k_dch_grid\nk_values = 1", "k_dch_grid sweep needs k_values and d_values"),
        ("protocols =", "at least one protocol is required"),
    ], ids=["node-count-no-list", "grid-no-k", "grid-no-d", "no-protocols"])
    def test_incomplete_spec_named(self, tmp_path, lines, message):
        spec_file = tmp_path / "exp.ini"
        spec_file.write_text(f"[experiment]\n{lines}\n")
        with pytest.raises(ConfigError) as info:
            load_experiment_spec(spec_file)
        assert str(info.value) == message

    @pytest.mark.parametrize("lines, message", [
        # both points print as w0.3 under :g
        ("sweep = omega1\nomega1_values = 0.3, 0.3000001",
         "omega1 sweep points share output names: ['w0.3', 'w0.3']"),
        ("sweep = node_count\nnode_counts = 10, 12, 10",
         "node_count sweep points share output names: ['n10', 'n12', 'n10']"),
        ("protocols = EERPMS, eerpms\nseeds = 1, 1", "seeds must not repeat"),
        ("protocols = EERPMS, eerpms", "protocols must not repeat"),
    ], ids=["omega1-label", "node-count-label", "seed", "protocol"])
    def test_colliding_cells_rejected_before_writing(self, tmp_path, lines, message):
        # cells that share an output name would write one rounds CSV over
        # another and count as extra seeds in summary.csv
        spec_file = tmp_path / "exp.ini"
        spec_file.write_text(f"[experiment]\n{lines}\noutput_dir = {tmp_path / 'out'}\n"
                             "[network]\nnode_count = 10\nmax_rounds = 20\n")
        with pytest.raises(ConfigError) as info:
            run_experiment(load_experiment_spec(spec_file))
        assert str(info.value) == message
        assert not (tmp_path / "out").exists()

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
