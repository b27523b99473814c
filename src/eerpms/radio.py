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
    an array of the same shape for an array of distances.

    The energy is bits*e_elec + bits*amp, with amp = e_fs*(d*d) at or below
    the crossover distance (free space; at exactly the crossover the two
    branches agree) and e_mp*((d*d)*(d*d)) above it (multipath). A discarded
    branch raises no overflow warning of its own: the multipath one squares 0
    there, and above the crossover d*d > e_fs/e_mp, so e_fs*(d*d) is below
    e_mp*(d*d)**2 and overflows only where the energy does. Products only: no
    libm call and no CPU-dispatched power, so the bits are the same on every
    machine.
    """
    given = np.asarray(d, dtype=float)
    d = np.atleast_1d(given)
    if (d < 0).any():
        raise ValueError("distance must be non-negative")
    sq = d * d
    far = d > distance_threshold(params)
    q = np.where(far, sq, 0.0)
    amp = np.where(far, params.e_mp * (q * q), params.e_fs * sq)
    energy = bits * params.e_elec + bits * amp
    return float(energy[0]) if given.ndim == 0 else energy


def rx_energy(params: RadioParams, bits: int) -> float:
    """Energy to receive `bits`."""
    return bits * params.e_elec


def aggregation_energy(params: RadioParams, bits: int, n_packets: int) -> float:
    """Energy to fuse `n_packets` packets of `bits` bits each."""
    return n_packets * bits * params.e_da
