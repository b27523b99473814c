import math
from pathlib import Path

import pytest

from eerpms import BatParams, ConfigError, NetworkConfig, Protocol, RadioParams, \
    load_experiment_spec, load_network_config
from eerpms.config import INI_KEYS, read_ini

REPO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.ini"


def write(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(text)
    return path


def test_shipped_default_config_matches_dataclass_defaults():
    loaded = load_network_config(REPO_CONFIG)
    assert loaded == NetworkConfig()


def test_shipped_default_config_sets_every_key():
    # README points to configs/default.ini as the reference for the keys
    cp = read_ini(REPO_CONFIG, "config file")
    assert {section: set(cp.options(section)) for section in cp.sections()} == \
        {section: set(keys) for section, keys in INI_KEYS.items()}


def test_radio_units_converted_to_joules(tmp_path):
    path = write(tmp_path, "[radio]\ne_elec_nj = 50\ne_fs_pj = 10\ne_mp_pj = 0.0013\n")
    config = load_network_config(path)
    assert config.radio.e_elec == pytest.approx(50e-9)
    assert config.radio.e_fs == pytest.approx(10e-12)
    assert config.radio.e_mp == pytest.approx(0.0013e-12)


def test_partial_file_fills_defaults(tmp_path):
    path = write(tmp_path, "[network]\nnode_count = 42\n")
    config = load_network_config(path)
    assert config.node_count == 42
    assert config.radius_m == 150.0
    assert config.protocol is Protocol.EERPMS


def test_auto_values_disable_overrides(tmp_path):
    path = write(tmp_path, "[clustering]\nk_clusters = auto\n"
                           "[selection]\nring_radius_m = auto\n")
    config = load_network_config(path)
    assert config.k_clusters is None
    assert config.ring_radius_m is None


def test_protocol_parse(tmp_path):
    path = write(tmp_path, "[network]\nprotocol = rleach\n")
    assert load_network_config(path).protocol is Protocol.RLEACH


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "[network]\nnode_cuont = 42\n")
    with pytest.raises(ConfigError):
        load_network_config(path)


@pytest.mark.parametrize("load, text", [
    (load_network_config, "[network]\nnode_count = many\n[bat]\nloudnes = 1\n"),
    (load_experiment_spec, "[experiment]\nseeds = 1 x\n[bat]\nloudnes = 1\n"),
], ids=["config", "spec"])
def test_unknown_key_reported_before_bad_value(tmp_path, load, text):
    with pytest.raises(ConfigError) as info:
        load(write(tmp_path, text))
    assert str(info.value) == "unknown keys in [bat]: ['loudnes']"


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[radios]\ne_elec_nj = 50\n")
    with pytest.raises(ConfigError):
        load_network_config(path)


def test_unparseable_value_rejected(tmp_path):
    path = write(tmp_path, "[network]\nnode_count = many\n")
    with pytest.raises(ConfigError):
        load_network_config(path)


def test_unknown_protocol_rejected(tmp_path):
    path = write(tmp_path, "[network]\nprotocol = FIGWO\n")
    with pytest.raises(ConfigError):
        load_network_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_network_config(tmp_path / "nope.ini")


def test_weight_sum_validated():
    with pytest.raises(ConfigError):
        NetworkConfig(alpha1=0.8, alpha2=0.8)
    with pytest.raises(ConfigError):
        NetworkConfig(omega1=0.2, omega2=0.2)


def test_value_ranges_validated():
    with pytest.raises(ConfigError):
        NetworkConfig(node_count=0)
    with pytest.raises(ConfigError):
        NetworkConfig(radius_m=-5.0)
    with pytest.raises(ConfigError):
        NetworkConfig(k_clusters=0)
    with pytest.raises(ConfigError):
        NetworkConfig(max_rounds=0)


@pytest.mark.parametrize("fields, message", [
    (dict(alpha1=1.5, alpha2=-0.5), "alpha1/alpha2 must lie in [0, 1]"),
    (dict(omega1=-0.25, omega2=1.25), "omega1/omega2 must lie in [0, 1]"),
    (dict(bin_count=1), "bin_count must be at least 2"),
], ids=["alpha-pair", "omega-pair", "bin-count-one"])
def test_out_of_range_named(fields, message):
    with pytest.raises(ConfigError) as info:
        NetworkConfig(**fields)
    assert str(info.value) == message


def test_bin_count_bounded_as_an_array_size():
    # a run would histogram into bin_count bins; the config is only constructed
    NetworkConfig(bin_count=2 ** 31)
    with pytest.raises(ConfigError) as info:
        NetworkConfig(bin_count=2 ** 40)
    assert str(info.value).startswith("bin_count must not exceed 2**31")


def test_malformed_file_rejected(tmp_path):
    path = write(tmp_path, "node_count = 5\n")  # a key before any section header
    with pytest.raises(ConfigError) as info:
        load_network_config(path)
    assert str(info.value).startswith(f"malformed config file {path}: ")


def test_negative_seed_rejected(tmp_path):
    NetworkConfig(seed=0)  # numpy accepts 0, so it is a valid seed
    with pytest.raises(ConfigError, match="seed"):
        NetworkConfig(seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        NetworkConfig().with_overrides(seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        load_network_config(write(tmp_path, "[network]\nseed = -1\n"))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_values_rejected(value):
    with pytest.raises(ConfigError, match="initial_energy_j"):
        NetworkConfig(initial_energy_j=value)
    with pytest.raises(ConfigError, match="ring_radius_m"):
        NetworkConfig(ring_radius_m=value)


@pytest.mark.parametrize("section, key", [
    ("network", "initial_energy_j"), ("selection", "ring_radius_m"),
    ("bat", "s_min"), ("bat", "s_max"), ("bat", "loudness"), ("bat", "pulse_growth")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_ini_values_rejected(tmp_path, section, key, value):
    with pytest.raises(ConfigError):
        load_network_config(write(tmp_path, f"[{section}]\n{key} = {value}\n"))


def test_overrides_round_trip():
    config = NetworkConfig().with_overrides(seed=9, protocol=Protocol.CRPFCM)
    assert config.seed == 9
    assert config.protocol is Protocol.CRPFCM
    assert config.node_count == NetworkConfig().node_count


def test_computable_bounds_are_per_product():
    # each bound is on a product, so one factor may be large where the other is small
    NetworkConfig(node_count=2, radio=RadioParams(packet_bits=2 ** 62 - 1))
    with pytest.raises(ConfigError, match="packet_bits"):
        NetworkConfig(node_count=3, radio=RadioParams(packet_bits=2 ** 62 - 1))
    NetworkConfig(node_count=1, initial_energy_j=1e308)
    with pytest.raises(ConfigError, match="initial_energy_j"):
        NetworkConfig(node_count=2, initial_energy_j=1e308)
    bins = NetworkConfig().bin_count
    NetworkConfig(bat=BatParams(max_iterations=1, s_max=2.0 ** 52 / bins - 1))
    with pytest.raises(ConfigError, match="s_max"):
        NetworkConfig(bat=BatParams(max_iterations=1, s_max=2.0 ** 52 / bins))
    with pytest.raises(ConfigError, match="s_min"):   # |s_min| counts as well
        NetworkConfig(bat=BatParams(s_min=-1e15))
    NetworkConfig(radius_m=1e70)
    with pytest.raises(ConfigError, match="radius_m"):
        NetworkConfig(radius_m=1e77)  # (2R)**4 overflows in the multipath branch
