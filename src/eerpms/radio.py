"""First-order radio model: energy of transmitting, receiving and fusing packets.

All quantities are in SI units (joules, meters, bits). Constants quoted in
pJ/nJ elsewhere are converted once at config load, never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RadioParams:
    e_elec: float = 50e-9      # J/bit, transmitter/receiver electronics
    e_fs: float = 10e-12       # J/bit/m^2, free-space amplifier
    e_mp: float = 0.0013e-12   # J/bit/m^4, multipath amplifier
    e_da: float = 5e-9         # J/bit, data fusion
    packet_bits: int = 4000

    def __post_init__(self) -> None:
        for name in ("e_elec", "e_fs", "e_mp", "e_da"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be strictly positive and finite")
        if self.packet_bits < 1:
            raise ValueError("packet_bits must be a positive integer")


def distance_threshold(params: RadioParams) -> float:
    """Crossover distance between the free-space and multipath branches."""
    return math.sqrt(params.e_fs / params.e_mp)


def tx_energy(params: RadioParams, bits: int, d):
    """Energy to transmit `bits` over `d` meters: a float for one distance,
    an array for a 1-D array of distances.

    Free space (d^2 dissipation) at or below the crossover distance,
    multipath (d^4) above it. At exactly the crossover the two branches
    agree; the free-space branch is used.
    """
    given = np.asarray(d, dtype=float)
    d = np.atleast_1d(given)
    if (d < 0).any():
        raise ValueError("distance must be non-negative")
    amp = bits * params.e_fs * d * d
    far = d > distance_threshold(params)
    if far.any():
        # Python's d ** 4 element by element: numpy's vectorised power
        # differs from it in the last bit on some distances
        amp[far] = [bits * params.e_mp * v ** 4 for v in d[far].tolist()]
    energy = bits * params.e_elec + amp
    return float(energy[0]) if given.ndim == 0 else energy


def rx_energy(params: RadioParams, bits: int) -> float:
    """Energy to receive `bits`."""
    return bits * params.e_elec


def aggregation_energy(params: RadioParams, bits: int, n_packets: int) -> float:
    """Energy to fuse `n_packets` packets of `bits` bits each."""
    return n_packets * bits * params.e_da
