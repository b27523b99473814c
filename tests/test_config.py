from pathlib import Path

import pytest

from eerpms import ConfigError, NetworkConfig, Protocol, load_network_config

REPO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.ini"


def write(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(text)
    return path


def test_shipped_default_config_matches_dataclass_defaults():
    loaded = load_network_config(REPO_CONFIG)
    assert loaded == NetworkConfig()


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


def test_negative_seed_rejected(tmp_path):
    NetworkConfig(seed=0)  # numpy accepts 0, so it is a valid seed
    with pytest.raises(ConfigError, match="seed"):
        NetworkConfig(seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        NetworkConfig().with_overrides(seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        load_network_config(write(tmp_path, "[network]\nseed = -1\n"))


def test_overrides_round_trip():
    config = NetworkConfig().with_overrides(seed=9, protocol=Protocol.CRPFCM)
    assert config.seed == 9
    assert config.protocol is Protocol.CRPFCM
    assert config.node_count == NetworkConfig().node_count
