"""Simulation configuration and its INI file format.

The file format mirrors the conventional parameter table for this kind of
experiment: radio constants are written in pJ/nJ and converted to joules
exactly once here, so everything downstream works in SI units.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from .bat import BatParams
from .network import Protocol
from .radio import RadioParams


class ConfigError(Exception):
    """Invalid configuration file or option values."""


@dataclass(frozen=True)
class NetworkConfig:
    radius_m: float = 150.0
    node_count: int = 100
    initial_energy_j: float = 0.5
    radio: RadioParams = field(default_factory=RadioParams)
    alpha1: float = 0.5              # clustering objective: angle-variance weight
    alpha2: float = 0.5              # clustering objective: balance weight
    omega1: float = 0.7              # head election: residual-energy weight
    omega2: float = 0.3              # head election: ring-proximity weight
    protocol: Protocol = Protocol.EERPMS
    seed: int = 1
    k_clusters: int | None = 10      # None: recompute from the alive count
    ring_radius_m: float | None = 90.0   # None: recompute from theory
    bin_count: int = 360
    bat: BatParams = field(default_factory=BatParams)
    max_rounds: int = 5000

    def __post_init__(self) -> None:
        if self.radius_m <= 0 or not math.isfinite(self.radius_m):
            raise ConfigError("radius_m must be strictly positive")
        if self.node_count < 1:
            raise ConfigError("node_count must be at least 1")
        if not (self.initial_energy_j > 0 and math.isfinite(self.initial_energy_j)):
            raise ConfigError("initial_energy_j must be strictly positive and finite")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        for pair in (("alpha1", "alpha2"), ("omega1", "omega2")):
            a, b = (getattr(self, name) for name in pair)
            if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
                raise ConfigError(f"{pair[0]}/{pair[1]} must lie in [0, 1]")
            if abs(a + b - 1.0) > 1e-9:
                raise ConfigError(f"{pair[0]} + {pair[1]} must equal 1")
        if self.k_clusters is not None and self.k_clusters < 1:
            raise ConfigError("k_clusters must be at least 1 (or auto)")
        if self.ring_radius_m is not None and not (
                self.ring_radius_m >= 0 and math.isfinite(self.ring_radius_m)):
            raise ConfigError("ring_radius_m must be non-negative and finite (or auto)")
        if self.bin_count < 2:
            raise ConfigError("bin_count must be at least 2")
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be at least 1")

    def with_overrides(self, **kwargs) -> "NetworkConfig":
        return replace(self, **kwargs)


_KNOWN_KEYS = {
    "network": {"radius_m", "node_count", "initial_energy_j", "seed",
                "protocol", "max_rounds"},
    "radio": {"e_elec_nj", "e_fs_pj", "e_mp_pj", "e_da_nj", "packet_bits"},
    "clustering": {"alpha1", "alpha2", "k_clusters", "bin_count"},
    "selection": {"omega1", "omega2", "ring_radius_m"},
    "bat": {"population", "max_iterations", "s_min", "s_max", "loudness",
            "pulse_rate", "loudness_decay", "pulse_growth"},
}


def _reader(cp: configparser.ConfigParser, section: str):
    def get(key, cast, default):
        if not cp.has_option(section, key):
            return default
        raw = cp.get(section, key).strip()
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    return get


def _optional(cast):
    def parse(raw: str):
        if raw.lower() in {"auto", "none"}:
            return None
        return cast(raw)
    return parse


def _scaled(exponent: int):
    # exact decimal scaling with a single float rounding, so that values in
    # the file reproduce the equivalent literals bit for bit
    def parse(raw: str) -> float:
        return float(Fraction(raw) * Fraction(10) ** exponent)
    return parse


def parse_network_config(cp: configparser.ConfigParser) -> NetworkConfig:
    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(cp.options(section)) - _KNOWN_KEYS[section]
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")

    net = _reader(cp, "network")
    rad = _reader(cp, "radio")
    clu = _reader(cp, "clustering")
    sel = _reader(cp, "selection")
    bat = _reader(cp, "bat")

    def parse_protocol(raw: str) -> Protocol:
        try:
            return Protocol[raw.upper()]
        except KeyError as exc:
            names = ", ".join(p.value for p in Protocol)
            raise ConfigError(f"unknown protocol {raw!r} (expected one of {names})") from exc

    defaults = NetworkConfig()
    try:
        radio = RadioParams(
            e_elec=rad("e_elec_nj", _scaled(-9), defaults.radio.e_elec),
            e_fs=rad("e_fs_pj", _scaled(-12), defaults.radio.e_fs),
            e_mp=rad("e_mp_pj", _scaled(-12), defaults.radio.e_mp),
            e_da=rad("e_da_nj", _scaled(-9), defaults.radio.e_da),
            packet_bits=rad("packet_bits", int, defaults.radio.packet_bits),
        )
        bat_params = BatParams(
            population=bat("population", int, defaults.bat.population),
            max_iterations=bat("max_iterations", int, defaults.bat.max_iterations),
            s_min=bat("s_min", float, defaults.bat.s_min),
            s_max=bat("s_max", float, defaults.bat.s_max),
            loudness0=bat("loudness", float, defaults.bat.loudness0),
            pulse0=bat("pulse_rate", float, defaults.bat.pulse0),
            epsilon_decay=bat("loudness_decay", float, defaults.bat.epsilon_decay),
            gamma_rate=bat("pulse_growth", float, defaults.bat.gamma_rate),
        )
        return NetworkConfig(
            radius_m=net("radius_m", float, defaults.radius_m),
            node_count=net("node_count", int, defaults.node_count),
            initial_energy_j=net("initial_energy_j", float, defaults.initial_energy_j),
            radio=radio,
            alpha1=clu("alpha1", float, defaults.alpha1),
            alpha2=clu("alpha2", float, defaults.alpha2),
            omega1=sel("omega1", float, defaults.omega1),
            omega2=sel("omega2", float, defaults.omega2),
            protocol=net("protocol", parse_protocol, defaults.protocol),
            seed=net("seed", int, defaults.seed),
            k_clusters=clu("k_clusters", _optional(int), defaults.k_clusters),
            ring_radius_m=sel("ring_radius_m", _optional(float), defaults.ring_radius_m),
            bin_count=clu("bin_count", int, defaults.bin_count),
            bat=bat_params,
            max_rounds=net("max_rounds", int, defaults.max_rounds),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_network_config(path: str | Path) -> NetworkConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    return parse_network_config(cp)
