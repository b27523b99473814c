import re
import runpy
import sys
import warnings
from pathlib import Path

import pytest

from eerpms import Protocol, cli, experiments
from eerpms.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# sweep cells that no run may be made for: each must stop the sweep before
# it touches the output directory
BAD_CELLS = [
    ("sweep = omega1\nomega1_values = 1.5\n", "omega1_values must lie in [0, 1]"),
    ("sweep = node_count\nnode_counts = 0\n", "node_counts must be at least 1"),
]
BAD_CELL_IDS = ["omega1-above-one", "node-count-zero"]


def free_space_field(n):
    """INI sections for n nodes with e_fs = 1e-5 and e_mp = 5e-324 (J/bit/m**2
    and /m**4): the crossover overflows to inf, so every link is free-space."""
    return f"[network]\nnode_count = {n}\n[radio]\ne_fs_pj = 1e7\ne_mp_pj = 5e-312\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTheory:
    def test_default_operating_point(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--nodes", "100", "--radius", "150")
        assert code == 0
        assert "K* = 9" in out
        d_star = float(re.search(r"d\* = ([\d.]+) m", out).group(1))
        assert d_star == pytest.approx(91.74, abs=0.01)
        assert "d* inside feasible band: no" in out

    def test_reads_radio_from_config(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--config",
                               str(CONFIGS / "default.ini"))
        assert code == 0
        assert "d_th = 87.7058 m" in out

    def test_small_population(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--nodes", "1", "--radius", "50")
        assert code == 0
        assert "K* = 2" in out

    @pytest.mark.parametrize("nodes, radius, k", [("100", "164.83298974878403", 9),
                                                  ("10", "124.03473458920845", 4)])
    def test_band_is_a_point_at_radius_limit(self, capsys, nodes, radius, k):
        code, out, err = run_cli(capsys, "theory", "--nodes", nodes, "--radius", radius)
        assert code == 0, err
        assert "radius within free-space limit: yes" in out
        assert f"feasible head-distance band (K={k}) = [87.71, 87.71] m" in out

    @pytest.mark.parametrize("nodes, k", [("100", 9), ("3", 3)])
    def test_band_lower_end_not_negative(self, capsys, nodes, k):
        code, out, _ = run_cli(capsys, "theory", "--nodes", nodes, "--radius", "80")
        assert code == 0
        assert f"feasible head-distance band (K={k}) = [0.00, 87.71] m" in out

    @pytest.mark.parametrize("flag, value, message", [
        ("--nodes", "0", "node_count must be at least 1"),
        ("--radius", "-5", "radius_m must be strictly positive"),
        ("--radius", "nan", "radius_m must be strictly positive"),
    ], ids=["nodes-zero", "radius-negative", "radius-nan"])
    def test_bad_flag_value_is_config_error(self, capsys, flag, value, message):
        code, out, err = run_cli(capsys, "theory", flag, value)
        assert code == 1
        assert f"error: {message}" in err
        assert out == ""


class TestSimulate:
    def test_writes_rounds_csv(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", "--seed", "2",
                               "--protocol", "RLEACH", "--max-rounds", "40",
                               "--out", str(tmp_path))
        assert code == 0
        path = tmp_path / "rounds_RLEACH_seed2.csv"
        assert path.is_file()
        assert str(path) in out
        assert len(path.read_text().splitlines()) == 41

    def test_env_var_output_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("EERPMS_OUT_DIR", str(tmp_path / "env_out"))
        code, _, _ = run_cli(capsys, "simulate", "--seed", "1",
                             "--max-rounds", "5")
        assert code == 0
        assert (tmp_path / "env_out" / "rounds_EERPMS_seed1.csv").is_file()

    def test_flag_beats_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("EERPMS_OUT_DIR", str(tmp_path / "env_out"))
        code, _, _ = run_cli(capsys, "simulate", "--seed", "1",
                             "--max-rounds", "5", "--out", str(tmp_path / "flag"))
        assert code == 0
        assert (tmp_path / "flag" / "rounds_EERPMS_seed1.csv").is_file()
        assert not (tmp_path / "env_out").exists()

    def test_missing_config_file_is_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--config",
                               str(tmp_path / "absent.ini"))
        assert code == 1
        assert "error" in err

    def test_malformed_config_file_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("node_count = 5\n")  # a key before any section header
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1
        assert f"error: malformed config file {path}: " in err
        assert out == ""

    def test_runtime_failure_exits_two(self, capsys, tmp_path, monkeypatch):
        def fail(config):
            raise RuntimeError("simulated fault")
        monkeypatch.setattr(cli, "run_simulation", fail)
        code, out, err = run_cli(capsys, "simulate", "--out", str(tmp_path))
        assert code == 2
        assert err == "runtime failure: simulated fault\n"
        assert out == ""

    def test_bad_flag_value_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--protocol", "FIGWO")
        assert code == 1
        assert ("error: unknown protocol 'FIGWO' "
                "(expected one of EERPMS, RLEACH, CRPFCM)") in err

    def test_protocol_flag_is_case_insensitive(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "simulate", "--protocol", "rleach",
                             "--max-rounds", "5", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "rounds_RLEACH_seed1.csv").is_file()

    def test_help_lists_protocols(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert all(p.value in out for p in Protocol)

    def test_negative_seed_is_config_error(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--seed", "-1",
                                 "--out", str(out_dir))
        assert code == 1
        assert "seed must be non-negative" in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("text", ["[network]\ninitial_energy_j = nan\n",
                                      "[selection]\nring_radius_m = inf\n",
                                      "[bat]\ns_min = nan\n",
                                      "[bat]\nloudness = inf\n"])
    def test_non_finite_value_is_config_error(self, capsys, tmp_path, text):
        config = tmp_path / "bad.ini"
        config.write_text(text)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--config", str(config),
                                 "--out", str(out_dir))
        assert code == 1
        assert "finite" in err
        assert out == ""
        assert not out_dir.exists()


# accepted before, though the model cannot compute them: each exited 2 or ran
# on float-to-int casts that overflow
UNCOMPUTABLE = [
    ("[bat]\ns_max = 1e15\n", "below 2**52"),
    ("[bat]\ns_max = 1e300\n", "below 2**52"),
    ("[bat]\nloudness = 1e19\n", "below 2**52"),
    ("[network]\nradius_m = 1e300\n", "link across the field"),
    (f"[radio]\npacket_bits = {10 ** 23}\n", "fit a 64-bit integer"),
    ("[network]\ninitial_energy_j = 1e308\n", "initial_energy_j must be finite"),
    # counts beyond float range: a float product of them would overflow
    (f"[network]\nnode_count = {10 ** 400}\n", "node_count must fit a 64-bit integer"),
    (f"[clustering]\nbin_count = {10 ** 400}\n", "bin_count must fit a 64-bit integer"),
    (f"[bat]\nmax_iterations = {10 ** 400}\n", "max_iterations must fit a 64-bit integer"),
    # each exited 2: an array dimension, a float division and a file name too large
    (f"[bat]\npopulation = {10 ** 400}\n", "population must fit a 64-bit integer"),
    (f"[clustering]\nk_clusters = {10 ** 400}\n", "k_clusters must fit a 64-bit integer"),
    (f"[network]\nseed = {10 ** 400}\n", "seed must fit a 64-bit integer"),
    # sizes that fit int64 but no memory; the first two exited 2
    (f"[bat]\npopulation = {2 ** 63 - 1}\n", "population * k must not exceed 2**31"),
    (f"[network]\nnode_count = {2 ** 40}\n", "node_count must not exceed 2**31"),
    (f"[network]\nnode_count = {10 ** 8}\n[clustering]\nk_clusters = 100\n",
     "node_count * k must not exceed 2**31"),
    (f"[network]\nnode_count = {10 ** 5}\n[clustering]\nbin_count = {10 ** 5}\n",
     "(min(node_count, bin_count) + 1)**2 must not exceed 2**31"),
]
UNCOMPUTABLE_IDS = ["s_max-1e15", "s_max-1e300", "loudness-1e19", "radius-1e300",
                    "packet_bits-1e23", "energy-1e308", "node_count-1e400",
                    "bin_count-1e400", "max_iterations-1e400", "population-1e400",
                    "k_clusters-1e400", "seed-1e400", "population-int64-max",
                    "node_count-2e40", "fcm-buffers-1e10", "segment-table-1e10"]


class TestUncomputableConfig:
    @pytest.mark.parametrize("text, message", UNCOMPUTABLE, ids=UNCOMPUTABLE_IDS)
    def test_is_config_error(self, capsys, tmp_path, text, message):
        config = tmp_path / "bad.ini"
        config.write_text(text)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--config", str(config),
                                 "--max-rounds", "5", "--out", str(out_dir))
        assert code == 1
        assert message in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("text", [
        f"[bat]\npopulation = {10 ** 7}\n",
        f"[network]\nnode_count = {10 ** 6}\n[clustering]\nk_clusters = auto\n"
        f"bin_count = 3600\n",
    ], ids=["population-1e7", "node_count-1e6-auto-k"])
    def test_large_config_within_array_bound_is_accepted(self, capsys, tmp_path, text):
        # the array bound counts the k a run reaches, 10 and 195 here, not
        # bin_count
        config = tmp_path / "large.ini"
        config.write_text(text)
        code, out, err = run_cli(capsys, "theory", "--config", str(config))
        assert code == 0, err
        assert "K* = " in out

    def test_large_but_exact_s_max_runs_without_warning(self, capsys, tmp_path):
        config = tmp_path / "fast.ini"
        config.write_text("[bat]\ns_max = 1e6\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                                   "--max-rounds", "5", "--out", str(tmp_path))
        assert code == 0, err
        assert (tmp_path / "rounds_EERPMS_seed1.csv").is_file()

    def test_far_crossover_runs_without_warning(self, capsys, tmp_path):
        # crossover 1e79 m: every link of a 1e78 m field is free space, and
        # its multipath price, e_mp * d**4, would overflow
        config = tmp_path / "far.ini"
        config.write_text("[radio]\ne_mp_pj = 1e-157\n[network]\nradius_m = 1e78\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                                   "--max-rounds", "2", "--out", str(tmp_path))
        assert code == 0, err
        assert (tmp_path / "rounds_EERPMS_seed1.csv").is_file()


class TestSweep:
    def test_runs_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "exp.ini"
        spec.write_text(
            "[experiment]\n"
            "protocols = RLEACH\n"
            "seeds = 1, 2\n"
            "output_dir = unused\n"
            "[network]\n"
            "node_count = 10\n"
            "max_rounds = 30\n"
        )
        code, out, _ = run_cli(capsys, "sweep", str(spec), "--out",
                               str(tmp_path / "results"))
        assert code == 0
        assert (tmp_path / "results" / "summary.csv").is_file()
        assert out.count("wrote") == 3  # 2 round files + summary

    @pytest.mark.parametrize("env, expected", [("env_out", "env_out"), (None, "spec_out"),
                                               ("", "spec_out")], ids=["env", "unset", "empty"])
    def test_output_dir_without_flag(self, capsys, tmp_path, monkeypatch, env, expected):
        if env is None:
            monkeypatch.delenv("EERPMS_OUT_DIR", raising=False)
        else:
            monkeypatch.setenv("EERPMS_OUT_DIR", env and str(tmp_path / env))
        spec = tmp_path / "exp.ini"
        spec.write_text("[experiment]\nprotocols = RLEACH\n"
                        f"output_dir = {tmp_path / 'spec_out'}\n"
                        "[network]\nnode_count = 10\nmax_rounds = 5\n")
        code, _, _ = run_cli(capsys, "sweep", str(spec))
        assert code == 0
        assert (tmp_path / expected / "summary.csv").is_file()

    @pytest.mark.parametrize("body, message", [
        ("seeds =\n", "at least one seed is required"),
        ("sweep = k_dch_grid\nk_values = 0\nd_values = 90\n",
         "k_values must be at least 1"),
        ("sweep = k_dch_grid\nk_values = 10\nd_values = -5\n",
         "d_values must be non-negative and finite"),
        ("sweep = k_dch_grid\nk_values = 10\nd_values = nan\n",
         "d_values must be non-negative and finite"),
        (f"seeds = 1, {10 ** 400}\n", "seeds must fit a 64-bit integer"),
        # above the bounds: nothing is allocated or written
        ("sweep = k_dch_grid\nk_values = 35184372088832\nd_values = 90\n",
         "k_values must not exceed 2**31"),
        (f"sweep = k_dch_grid\nk_values = {10 ** 20}\nd_values = 90\n",
         "k_values must not exceed 2**31"),
        ("sweep = k_dch_grid\nk_values = 10\nd_values = 90, 1e100\n",
         "a landscape cell's energy summed over the seeds must be finite"),
        # every link free-space and near 1e307 J: 20 member links fit, but
        # not with 20 head links, nor 10 member links over three seeds
        ("sweep = k_dch_grid\nk_values = 1, 20\nd_values = 1.3e154\n" + free_space_field(20),
         "a landscape cell's energy summed over the seeds must be finite"),
        ("sweep = k_dch_grid\nseeds = 1, 2, 3\nk_values = 1, 2\nd_values = 1.34e154\n"
         + free_space_field(10),
         "a landscape cell's energy summed over the seeds must be finite"),
    ] + BAD_CELLS, ids=["no-seeds", "k-zero", "d-negative", "d-nan", "seed-1e400",
                        "k-2e45", "k-1e20", "d-1e100", "cell-head-links", "cell-seed-sum",
                        *BAD_CELL_IDS])
    def test_invalid_spec_exit_code(self, capsys, tmp_path, body, message):
        spec = tmp_path / "exp.ini"
        spec.write_text("[experiment]\n" + body)
        out_dir = tmp_path / "results"
        code, _, err = run_cli(capsys, "sweep", str(spec), "--out", str(out_dir))
        assert code == 1
        assert f"error: {message}" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("body, message", BAD_CELLS, ids=BAD_CELL_IDS)
    def test_bad_rerun_keeps_finished_summary(self, capsys, tmp_path, body, message):
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        (out_dir / "summary.csv").write_text("finished\n")
        spec = tmp_path / "exp.ini"
        spec.write_text("[experiment]\n" + body)
        code, _, err = run_cli(capsys, "sweep", str(spec), "--out", str(out_dir))
        assert code == 1
        assert f"error: {message}" in err
        assert (out_dir / "summary.csv").read_text() == "finished\n"


    def test_negative_seed_is_config_error(self, capsys, tmp_path):
        spec = tmp_path / "exp.ini"
        spec.write_text(
            "[experiment]\n"
            "protocols = RLEACH\n"
            "seeds = 1, -1\n"
            "[network]\n"
            "node_count = 10\n"
        )
        out_dir = tmp_path / "results"
        code, out, err = run_cli(capsys, "sweep", str(spec), "--out", str(out_dir))
        assert code == 1
        assert "seeds must be non-negative" in err
        assert out == ""
        assert not out_dir.exists()  # rejected before the output directory is made


class TestVerify:
    def test_quick_run_emits_landscapes(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "verify", "--out", str(tmp_path), "--seeds", "2",
            "--mc-samples", "20000", "--histograms", "3")
        assert code == 0
        assert (tmp_path / "landscape_analytic.csv").is_file()
        assert (tmp_path / "landscape_simulated.csv").is_file()
        assert "[thresholds] 3/3" in out
        assert "[wedge-mc]" in out
        assert re.search(r"\[landscape\] analytic argmin: K=\d+", out)
        assert "[coverage]" in out

    def test_coverage_skipped_beyond_free_space_limit(self, capsys, tmp_path):
        # K* = 5 at N = 20, whose free-space radius limit is about 142 m
        config = tmp_path / "wide.ini"
        config.write_text("[network]\nradius_m = 200\nnode_count = 20\n")
        code, out, _ = run_cli(
            capsys, "verify", "--config", str(config), "--out", str(tmp_path / "out"),
            "--seeds", "1", "--mc-samples", "2000", "--histograms", "1")
        assert code == 0
        assert "[coverage] skipped: R=200 exceeds the free-space limit for K=5" in out

    @pytest.mark.parametrize("text, k", [
        ("radius_m = 164.83298974878403\n", 9),
        ("radius_m = 124.03473458920845\nnode_count = 10\n", 4),
    ], ids=["n100-at-limit", "n10-at-limit"])
    def test_coverage_at_radius_limit(self, capsys, tmp_path, text, k):
        config = tmp_path / "limit.ini"
        config.write_text("[network]\n" + text)
        code, out, err = run_cli(
            capsys, "verify", "--config", str(config), "--out", str(tmp_path / "out"),
            "--seeds", "1", "--mc-samples", "2000", "--histograms", "1")
        assert code == 0, err
        assert f"[coverage] K={k} head at band lo=87.71 m" in out
        assert f"[coverage] K={k} head at band hi=87.71 m" in out

    @pytest.mark.parametrize("radius, worst", [("1e-300", "0.000%"),
                                               ("1.7012542798525718e-162", "inf%")])
    def test_tiny_field_runs(self, capsys, tmp_path, radius, worst):
        # at 1e-300 every wedge mean underflows to 0.0, closed form and sample
        # alike; at 1.7e-162 the samples at d = 0.9 R do but the closed form
        # rounds to -5e-324
        config = tmp_path / "tiny.ini"
        config.write_text(f"[network]\nradius_m = {radius}\n")
        code, out, err = run_cli(
            capsys, "verify", "--config", str(config), "--out", str(tmp_path / "out"),
            "--seeds", "2", "--mc-samples", "20000", "--histograms", "3")
        assert code == 0, err
        assert f"[wedge-mc] worst relative error: {worst}" in out
        assert "[coverage] K=9 head at band lo=0.00 m" in out

    @pytest.mark.parametrize("flag", ["--seeds", "--mc-samples", "--histograms"])
    def test_count_below_one_is_config_error(self, capsys, tmp_path, flag):
        code, out, err = run_cli(capsys, "verify", "--out", str(tmp_path), flag, "0")
        assert code == 1
        assert f"argument {flag}: must be at least 1" in err
        assert out == ""  # rejected before any suite runs

    @pytest.mark.parametrize("flag", ["--seeds", "--mc-samples", "--histograms"])
    def test_non_integer_count_is_config_error(self, capsys, tmp_path, flag):
        code, out, err = run_cli(capsys, "verify", "--out", str(tmp_path), flag, "abc")
        assert code == 1
        assert f"argument {flag}: must be an integer, got 'abc'" in err
        assert out == ""


    @pytest.mark.parametrize("flag, value", [("--mc-samples", 2 ** 45),
                                             ("--mc-samples", 10 ** 19),
                                             ("--seeds", 10 ** 30)],
                             ids=["mc-samples-2e45", "mc-samples-1e19", "seeds-1e30"])
    def test_count_above_array_bound_is_config_error(self, capsys, tmp_path, flag, value):
        out_dir = tmp_path / "results"
        code, out, err = run_cli(capsys, "verify", "--out", str(out_dir), flag, str(value))
        assert code == 1
        assert f"argument {flag}: must be at most {2 ** 31}, got {value}" in err
        assert out == ""
        assert not out_dir.exists()  # rejected before any suite runs or writes

    def test_negative_seed_is_config_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "verify", "--out", str(tmp_path), "--seed", "-1")
        assert code == 1
        assert "argument --seed: must be at least 0, got -1" in err
        assert out == ""

    def test_seeds_reach_the_landscape_as_a_range(self, capsys, tmp_path, monkeypatch):
        # a list of the largest accepted --seeds would be 2**31 Python ints
        seen = []

        def grid(area, radio, k_values, d_values, seeds):
            seen.append(seeds)
            return [(1, 0.0, 1.0)]  # no deployment runs

        monkeypatch.setattr(cli, "simulated_energy_grid", grid)
        code, out, _ = run_cli(capsys, "verify", "--out", str(tmp_path), "--seeds", str(2 ** 31),
                               "--histograms", "1", "--mc-samples", "100")
        assert code == 0
        (seeds,) = seen
        assert type(seeds) is range and len(seeds) == 2 ** 31 and seeds[0] == 1
        assert f"({2 ** 31} seeds)" in out


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_unwritable_out_is_config_error(capsys, tmp_path, command):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    code, out, err = run_cli(capsys, command, "--out", str(blocker / "x"))
    assert code == 1
    assert "error: cannot create output directory" in err
    assert out == ""  # rejected before anything runs


def test_unwritable_existing_out_is_config_error(capsys, tmp_path, monkeypatch):
    # root writes anywhere, so the access check is what reads as denied
    monkeypatch.setattr(experiments.os, "access", lambda path, mode: False)
    code, out, err = run_cli(capsys, "simulate", "--out", str(tmp_path))
    assert code == 1
    assert f"error: output directory is not writable: {tmp_path}" in err
    assert out == ""


def test_module_entry_point_exits_with_main_code(capsys, monkeypatch):
    # a fresh copy of the module, so runpy does not warn about the imported one
    monkeypatch.delitem(sys.modules, "eerpms.cli")
    monkeypatch.setattr(sys, "argv", ["eerpms", "frobnicate"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("eerpms.cli", run_name="__main__")
    assert info.value.code == 1
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


class TestParsing:
    def test_unknown_subcommand_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_subcommand_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1
