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

import numpy as np

from .bat import BatParams
from .network import Protocol
from .radio import RadioParams, tx_energy
from .theory import AreaSpec, optimal_cluster_count

# Bat flights and walks are computed in float64 and cast to int64 bin
# indices: their magnitudes must stay among float64's exact integers.
_EXACT_FLOAT_INT = 2.0 ** 52
_INT64_MAX = 2 ** 63 - 1
# The most elements one array of a run may hold: a float64 array of 2**31
# takes 16 GiB. Every size `NetworkConfig` checks against it stays below
# 10**6 in the goldens, `configs/` and the benchmark.
_MAX_ARRAY_ELEMENTS = 2 ** 31


class ConfigError(Exception):
    """Invalid configuration file or option values."""


def _finite_energy(radio: RadioParams, d: float, packets: int = 1) -> bool:
    """Whether sending `packets` packets over `d` metres costs a finite energy."""
    with np.errstate(over="ignore"):
        return math.isfinite(packets * tx_energy(radio, radio.packet_bits, d))


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
        self._check_computable()

    def _check_computable(self) -> None:
        """Reject values the model cannot compute: every sum of energies and
        every cost must stay finite, the per-cluster bit counts must fit
        int64, and the bat's moves must stay exact integers in float64. The
        counts and the seed must fit int64 as well, so that every product
        below is one that float64 can hold. No array may have more than 2**31
        elements (16 GiB as float64), so that sizes far beyond any memory
        are a ConfigError and not a failed allocation."""
        for name, count in (("node_count", self.node_count), ("bin_count", self.bin_count),
                            ("seed", self.seed), ("k_clusters", self.k_clusters or 0),
                            ("bat population", self.bat.population),
                            ("bat max_iterations", self.bat.max_iterations)):
            if count > _INT64_MAX:
                raise ConfigError(f"{name} must fit a 64-bit integer")
        # the per-node arrays, the angle histogram (the first two bounds keep
        # its index sums below 2**62), the bat's (population, k - 1) arrays,
        # FCM's (n, k) buffers and the (occupied bins + 1)**2 segment table
        # of the threshold objective, at the largest k a run clusters into
        k = min(self.cluster_count(self.node_count), self.bin_count)
        for name, size in (("node_count", self.node_count), ("bin_count", self.bin_count),
                           ("bat population * k", self.bat.population * k),
                           ("node_count * k", self.node_count * k),
                           ("(min(node_count, bin_count) + 1)**2",
                            (min(self.node_count, self.bin_count) + 1) ** 2)):
            if size > _MAX_ARRAY_ELEMENTS:
                raise ConfigError(f"{name} must not exceed 2**31, the most elements "
                                  f"of one array (k: k_clusters, or the auto count at "
                                  f"node_count; at most bin_count)")
        if not math.isfinite(self.node_count * self.initial_energy_j):
            raise ConfigError("node_count * initial_energy_j must be finite")
        bits = self.radio.packet_bits
        if self.node_count * bits > _INT64_MAX:
            raise ConfigError("node_count * packet_bits must fit a 64-bit integer")
        if not _finite_energy(self.radio, 2.0 * self.radius_m):
            raise ConfigError("the energy of a link across the field (2 * radius_m) "
                              "must be finite")
        bat = self.bat
        speed = max(abs(bat.s_min), abs(bat.s_max))
        if bat.max_iterations * self.bin_count * speed >= _EXACT_FLOAT_INT:
            raise ConfigError("bat max_iterations * bin_count * max(|s_min|, |s_max|) "
                              "must stay below 2**52")
        if bat.loudness0 * self.bin_count >= _EXACT_FLOAT_INT:
            raise ConfigError("bat loudness * bin_count must stay below 2**52")

    def cluster_count(self, alive: int) -> int:
        """`k_clusters`, or when it is auto the closed-form optimum for `alive` nodes."""
        return self.k_clusters or optimal_cluster_count(AreaSpec(self.radius_m, alive))

    def with_overrides(self, **kwargs) -> "NetworkConfig":
        return replace(self, **kwargs)


def parse_protocol(raw: str) -> Protocol:
    try:
        return Protocol[raw.upper()]
    except KeyError as exc:
        names = ", ".join(p.value for p in Protocol)
        raise ConfigError(f"unknown protocol {raw!r} (expected one of {names})") from exc


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


# The config file format: per section, INI key -> (field, parser). [radio]
# fills RadioParams, [bat] fills BatParams and the other sections fill
# NetworkConfig; a key that a file leaves out keeps the dataclass default.
INI_KEYS = {
    "network": {
        "radius_m": ("radius_m", float),
        "node_count": ("node_count", int),
        "initial_energy_j": ("initial_energy_j", float),
        "seed": ("seed", int),
        "protocol": ("protocol", parse_protocol),
        "max_rounds": ("max_rounds", int),
    },
    "radio": {
        "e_elec_nj": ("e_elec", _scaled(-9)),
        "e_fs_pj": ("e_fs", _scaled(-12)),
        "e_mp_pj": ("e_mp", _scaled(-12)),
        "e_da_nj": ("e_da", _scaled(-9)),
        "packet_bits": ("packet_bits", int),
    },
    "clustering": {
        "alpha1": ("alpha1", float),
        "alpha2": ("alpha2", float),
        "k_clusters": ("k_clusters", _optional(int)),
        "bin_count": ("bin_count", int),
    },
    "selection": {
        "omega1": ("omega1", float),
        "omega2": ("omega2", float),
        "ring_radius_m": ("ring_radius_m", _optional(float)),
    },
    "bat": {
        "population": ("population", int),
        "max_iterations": ("max_iterations", int),
        "s_min": ("s_min", float),
        "s_max": ("s_max", float),
        "loudness": ("loudness0", float),
        "pulse_rate": ("pulse0", float),
        "loudness_decay": ("epsilon_decay", float),
        "pulse_growth": ("gamma_rate", float),
    },
}


def read_sections(cp: configparser.ConfigParser, tables: dict) -> dict[str, dict]:
    """Parse `cp` by `tables` (section -> INI key -> (field, parser)): the
    fields that each section of `tables` sets. Unknown sections and keys are
    reported before any value is parsed."""
    for section in cp.sections():
        if section not in tables:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(cp.options(section)) - tables[section].keys()
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    fields = {section: {} for section in tables}
    for section in cp.sections():
        for key in cp.options(section):
            name, parse = tables[section][key]
            raw = cp.get(section, key).strip()
            try:
                fields[section][name] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    return fields


def network_config(sections: dict[str, dict]) -> NetworkConfig:
    """The `NetworkConfig` of the fields that `read_sections` gave for `INI_KEYS`."""
    try:
        return NetworkConfig(radio=RadioParams(**sections["radio"]),
                             bat=BatParams(**sections["bat"]), **sections["network"],
                             **sections["clustering"], **sections["selection"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def read_ini(path: str | Path, what: str) -> configparser.ConfigParser:
    """Parse the INI file at `path`; `what` names the file in errors."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed {what} {path}: {exc}") from exc
    return cp


def load_network_config(path: str | Path) -> NetworkConfig:
    return network_config(read_sections(read_ini(path, "config file"), INI_KEYS))
