import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eerpms import RadioParams, aggregation_energy, distance_threshold, rx_energy, tx_energy

DEFAULTS = RadioParams()


def test_distance_threshold_default_constants():
    # sqrt(10 pJ / 0.0013 pJ) checked by hand: 87.70580193...
    assert distance_threshold(DEFAULTS) == pytest.approx(87.70580193070292, rel=1e-12)


def test_distance_threshold_trivial_ratios():
    assert distance_threshold(RadioParams(e_fs=1e-12, e_mp=1e-12)) == pytest.approx(1.0)
    assert distance_threshold(RadioParams(e_fs=4e-12, e_mp=1e-12)) == pytest.approx(2.0)


def test_tx_energy_free_space():
    # 4000*50e-9 + 4000*10e-12*2500 = 2.0e-4 + 1.0e-4
    assert tx_energy(DEFAULTS, 4000, 50.0) == pytest.approx(3.0e-4, rel=1e-12)


def test_tx_energy_zero_distance_is_pure_electronics():
    assert tx_energy(DEFAULTS, 4000, 0.0) == pytest.approx(2.0e-4, rel=1e-12)


def test_tx_energy_multipath():
    # 4000*50e-9 + 4000*1.3e-15*1e8 = 2.0e-4 + 5.2e-4
    assert tx_energy(DEFAULTS, 4000, 100.0) == pytest.approx(7.2e-4, rel=1e-12)


def test_tx_energy_rejects_negative_distance():
    with pytest.raises(ValueError):
        tx_energy(DEFAULTS, 4000, -1.0)
    with pytest.raises(ValueError):
        tx_energy(DEFAULTS, 4000, np.array([1.0, -1.0]))


def test_tx_energy_array_matches_plain_python():
    # bit for bit, both branches: d ** 4 must be Python's, not numpy's power
    dists = np.linspace(0.0, 300.0, 30_001)
    d_th = distance_threshold(DEFAULTS)
    plain = [4000 * DEFAULTS.e_elec + 4000 * DEFAULTS.e_fs * d * d if d <= d_th
             else 4000 * DEFAULTS.e_elec + 4000 * DEFAULTS.e_mp * d ** 4
             for d in dists.tolist()]
    assert tx_energy(DEFAULTS, 4000, dists).tolist() == plain
    assert tx_energy(DEFAULTS, 4000, 123.4) == plain[12_340]
    # any scalar gives a float, numpy scalars and 0-d arrays included
    for scalar in (100, np.int64(100), np.float32(100.0), np.float64(100.0),
                   np.array(100.0)):
        energy = tx_energy(DEFAULTS, 4000, scalar)
        assert type(energy) is float and energy == plain[10_000]


def test_rx_energy_values():
    assert rx_energy(DEFAULTS, 4000) == pytest.approx(2.0e-4, rel=1e-12)
    assert rx_energy(DEFAULTS, 0) == 0.0
    assert rx_energy(DEFAULTS, 1) == pytest.approx(5.0e-8, rel=1e-12)


def test_aggregation_energy_values():
    assert aggregation_energy(DEFAULTS, 4000, 10) == pytest.approx(2.0e-4, rel=1e-12)
    assert aggregation_energy(DEFAULTS, 4000, 0) == 0.0
    assert aggregation_energy(DEFAULTS, 4000, 1) == pytest.approx(2.0e-5, rel=1e-12)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        RadioParams(e_elec=0.0)
    with pytest.raises(ValueError):
        RadioParams(e_mp=-1e-15)
    with pytest.raises(ValueError):
        RadioParams(packet_bits=0)


def test_branches_agree_at_crossover():
    d_th = distance_threshold(DEFAULTS)
    free = 4000 * DEFAULTS.e_elec + 4000 * DEFAULTS.e_fs * d_th ** 2
    multi = 4000 * DEFAULTS.e_elec + 4000 * DEFAULTS.e_mp * d_th ** 4
    assert free == pytest.approx(multi, rel=1e-12)
    assert tx_energy(DEFAULTS, 4000, d_th) == pytest.approx(free, rel=1e-12)


@given(eps=st.floats(min_value=1e-9, max_value=1e-4))
def test_continuity_at_crossover(eps):
    d_th = distance_threshold(DEFAULTS)
    below = tx_energy(DEFAULTS, 4000, d_th - eps)
    above = tx_energy(DEFAULTS, 4000, d_th + eps)
    assert abs(below - above) <= 4000 * DEFAULTS.e_fs * 8 * d_th * eps + 1e-15


@settings(max_examples=50)
@given(
    d1=st.floats(min_value=0.0, max_value=500.0),
    step=st.floats(min_value=1e-3, max_value=200.0),
)
def test_tx_strictly_increasing_in_distance(d1, step):
    assert tx_energy(DEFAULTS, 4000, d1 + step) > tx_energy(DEFAULTS, 4000, d1)


@settings(max_examples=50)
@given(
    bits1=st.integers(min_value=1, max_value=10**6),
    bits2=st.integers(min_value=1, max_value=10**6),
    d=st.floats(min_value=0.0, max_value=300.0),
)
def test_tx_linear_in_bits(bits1, bits2, d):
    together = tx_energy(DEFAULTS, bits1 + bits2, d)
    split = tx_energy(DEFAULTS, bits1, d) + tx_energy(DEFAULTS, bits2, d)
    assert together == pytest.approx(split, rel=1e-12)


@settings(max_examples=50)
@given(bits=st.integers(min_value=1, max_value=10**6))
def test_tx_increasing_in_bits(bits):
    d = 42.0
    assert tx_energy(DEFAULTS, bits + 1, d) > tx_energy(DEFAULTS, bits, d)
