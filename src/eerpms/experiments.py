"""Experiment orchestration: seed/parameter sweeps, CSV emission, summaries.

All output is data-only CSV with LF line endings, '.' decimal separator and
a fixed, versioned column order, so re-running an identical spec produces
byte-identical files. Rendering is left to external tooling.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import _INT64_MAX, _MAX_ARRAY_ELEMENTS, INI_KEYS, ConfigError, NetworkConfig, \
    _finite_energy, network_config, parse_protocol, read_ini, read_sections
from .network import Protocol
from .radio import RadioParams, aggregation_energy, rx_energy, tx_energy
from .simulation import LifetimeSummary, RoundMetrics, deploy, run_simulation
from .theory import AreaSpec, predicted_round_energy

ROUND_CSV_HEADER = "round,alive,total_residual_j,ch_count,ch_energy_mean_j,ch_energy_var,deaths"
LANDSCAPE_CSV_HEADER = "k,d_ch_m,energy_j"

SWEEP_AXES = ("none", "node_count", "omega1", "k_dch_grid")


@dataclass
class ExperimentSpec:
    base: NetworkConfig
    protocols: list[Protocol] = field(default_factory=lambda: [Protocol.EERPMS])
    seeds: list[int] = field(default_factory=lambda: [1])
    output_dir: Path = Path("out")
    sweep_axis: str = "none"
    node_counts: list[int] = field(default_factory=list)
    omega1_values: list[float] = field(default_factory=list)
    k_values: list[int] = field(default_factory=list)
    d_values: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must be non-negative")
        if max(self.seeds) > _INT64_MAX:
            raise ConfigError("seeds must fit a 64-bit integer")
        for name, values in (("seeds", self.seeds), ("protocols", self.protocols)):
            if len(set(values)) < len(values):  # a repeat would run a cell twice
                raise ConfigError(f"{name} must not repeat")
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigError(f"sweep must be one of {SWEEP_AXES}")
        if self.sweep_axis == "node_count" and not self.node_counts:
            raise ConfigError("node_count sweep needs a non-empty node_counts list")
        if self.sweep_axis == "omega1" and not self.omega1_values:
            raise ConfigError("omega1 sweep needs a non-empty omega1_values list")
        if self.sweep_axis == "k_dch_grid" and not (self.k_values and self.d_values):
            raise ConfigError("k_dch_grid sweep needs k_values and d_values")
        if any(n < 1 for n in self.node_counts):
            raise ConfigError("node_counts must be at least 1")
        if not all(0.0 <= w <= 1.0 for w in self.omega1_values):
            raise ConfigError("omega1_values must lie in [0, 1]")
        if any(k < 1 for k in self.k_values):
            raise ConfigError("k_values must be at least 1")
        if any(k > _MAX_ARRAY_ELEMENTS for k in self.k_values):
            raise ConfigError("k_values must not exceed 2**31, the most elements of one array")
        if not all(d >= 0 and math.isfinite(d) for d in self.d_values):
            raise ConfigError("d_values must be non-negative and finite")
        # a member transmits over at most d + radius_m to its forced head. The
        # 1 + 2**-40 covers only its rounded distance, a few ulps past that,
        # crossing into tx_energy's overflowing multipath branch. A cell's and
        # its seeds' sums are not priced, so they can still overflow.
        base = self.base
        if not all(_finite_energy(base.radio, (d + base.radius_m) * (1.0 + 2.0 ** -40),
                                  base.node_count) for d in self.d_values):
            raise ConfigError("node_count * the energy of a link over d + radius_m "
                              "must be finite for every d of d_values")
        if self.sweep_axis != "k_dch_grid" and not self.protocols:
            raise ConfigError("at least one protocol is required")


def _list_of(cast):
    """Parser for a comma- or space-separated list of `cast` values."""
    return lambda raw: [cast(s) for s in raw.replace(",", " ").split()]


# The [experiment] section of a spec file: INI key -> (field, parser)
EXPERIMENT_KEYS = {
    "protocols": ("protocols", _list_of(parse_protocol)),
    "seeds": ("seeds", _list_of(int)),
    "sweep": ("sweep_axis", str),
    "node_counts": ("node_counts", _list_of(int)),
    "omega1_values": ("omega1_values", _list_of(float)),
    "k_values": ("k_values", _list_of(int)),
    "d_values": ("d_values", _list_of(float)),
    "output_dir": ("output_dir", Path),
}


def load_experiment_spec(path: str | Path) -> ExperimentSpec:
    cp = read_ini(path, "experiment spec")
    if not cp.has_section("experiment"):
        raise ConfigError("spec file needs an [experiment] section")
    sections = read_sections(cp, {"experiment": EXPERIMENT_KEYS, **INI_KEYS})
    return ExperimentSpec(base=network_config(sections), **sections["experiment"])


# --- CSV emission -------------------------------------------------------------


def _write_csv(path: Path, header: str, rows) -> None:
    """Write `header` and one line per row to `path`, floats as `repr` (which
    reads back to the same float) and everything else as `str`. The text goes
    through a temporary file in the same directory, so that `path` never holds
    a partly written file."""
    lines = [header] + [",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
                        for row in rows]
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n", newline="\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_rounds_csv(path: Path, rounds: list[RoundMetrics]) -> None:
    _write_csv(path, ROUND_CSV_HEADER, (
        (m.round_index, m.alive_count, m.total_residual_j, m.ch_count,
         m.ch_energy_mean_j, m.ch_energy_var, len(m.dead_node_ids)) for m in rounds))


class SummaryRow(NamedTuple):
    """One row of `summary.csv`; its fields are the columns."""

    protocol: Protocol
    sweep: str
    value: str
    n_seeds: int
    fdn_mean: float
    fdn_sd: float
    hdn_mean: float
    hdn_sd: float
    ldn_mean: float
    ldn_sd: float


class ImprovementRow(NamedTuple):
    """One row of `improvements.csv`: EERPMS against one baseline at one
    sweep point; its fields are the columns."""

    sweep: str
    value: str
    baseline: Protocol
    fdn_improvement_pct: float
    hdn_improvement_pct: float
    ldn_improvement_pct: float


def _mean_sd(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    var = sum((v - mean) * (v - mean) for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


def summarize_lifetime(cells: dict[tuple[Protocol, str], list[LifetimeSummary]],
                       sweep: str) -> tuple[list[SummaryRow], list[ImprovementRow]]:
    """Per-cell mean/sd of the lifetime metrics plus EERPMS-vs-baseline
    improvement percentages, computed as (EERPMS - baseline) / baseline."""
    rows = []
    for (protocol, value), summaries in cells.items():
        stats = []
        for metric in ("fdn_round", "hdn_round", "ldn_round"):
            observed = [float(getattr(s, metric)) for s in summaries
                        if getattr(s, metric) is not None]
            stats.extend(_mean_sd(observed) if observed else (math.nan, math.nan))
        rows.append(SummaryRow(protocol, sweep, value, len(summaries), *stats))

    ours = {row.value: row for row in rows if row.protocol is Protocol.EERPMS}
    improvements = []
    for value in dict.fromkeys(row.value for row in rows):  # in order of first appearance
        for row in rows:
            if value in ours and row.value == value and row.protocol is not Protocol.EERPMS:
                pcts = [100.0 * (getattr(ours[value], m) - getattr(row, m)) / getattr(row, m)
                        for m in ("fdn_mean", "hdn_mean", "ldn_mean")]
                improvements.append(ImprovementRow(sweep, value, row.protocol, *pcts))
    return rows, improvements


def write_summary_csv(path: Path, rows: list[SummaryRow]) -> None:
    _write_csv(path, ",".join(SummaryRow._fields), rows)


def write_improvements_csv(path: Path, improvements: list[ImprovementRow]) -> None:
    _write_csv(path, ",".join(ImprovementRow._fields), improvements)


def write_landscape_csv(path: Path, rows: list[tuple[int, float, float]]) -> None:
    _write_csv(path, LANDSCAPE_CSV_HEADER, rows)


# --- energy landscape ---------------------------------------------------------


#: Most elements in one (K, distance, node) array of the forced-placement grid.
LANDSCAPE_BLOCK = 1 << 14


def analytic_energy_grid(area: AreaSpec, radio: RadioParams, k_values,
                         d_values) -> list[tuple[int, float, float]]:
    """Closed-form round energy over a (cluster count, head distance) grid."""
    d = np.array([float(v) for v in d_values])
    d_list, rows = d.tolist(), []
    for k in map(int, k_values):
        rows.extend(zip(repeat(k), d_list, predicted_round_energy(area, radio, k, d).tolist()))
    return rows


def _forced_energies(xs: np.ndarray, ys: np.ndarray, angles: np.ndarray, radio: RadioParams,
                     k: np.ndarray, d: np.ndarray, head_to_sink: np.ndarray) -> np.ndarray:
    """One round's energy of one deployment, its angles in [0, 2 pi) given,
    with k equal angular sectors and each sector's head forced onto the
    bisector at distance d from the sink, as a (K, distance) array.

    Costs mirror the idealized-cluster accounting that the closed form
    integrates: every member transmits to its sector's head position, the
    head receives one packet per other member, fuses the sector's readings
    and forwards a single packet to the sink. Empty sectors cost nothing.
    Member costs are summed along the rows of a (K, distance, node) array.
    Then each K adds in closed form the head terms of its s occupied sectors
    (one more than the changes in its sorted sectors): N - s receptions,
    N packets fused, s sent to the sink."""
    if k.min() < 1:
        raise ValueError("k must be at least 1")
    bits, n = radio.packet_bits, xs.size
    kc = k[:, None]
    sector = np.minimum((angles * kc / (2.0 * math.pi)).astype(np.int64), kc - 1)
    bisector = (sector + 0.5) * (2.0 * math.pi / kc)
    dist = np.hypot(xs - d[:, None] * np.cos(bisector)[:, None, :],
                    ys - d[:, None] * np.sin(bisector)[:, None, :])
    members = np.sum(tx_energy(radio, bits, dist), axis=-1)
    s = 1 + np.count_nonzero(np.diff(np.sort(sector, axis=1), axis=1), axis=1)
    # (N - s) * rx is one rounding, and N * bits is exact as the config bounds it
    heads = (n - s) * rx_energy(radio, bits) + aggregation_energy(radio, bits, n)
    return members + heads[:, None] + s[:, None] * head_to_sink


def simulated_energy_grid(area: AreaSpec, radio: RadioParams, k_values, d_values,
                          seeds) -> list[tuple[int, float, float]]:
    """Forced-placement round energy averaged over one deployment per seed,
    priced in blocks of K values of at most `LANDSCAPE_BLOCK` array elements.
    Angles are `deploy`'s (EERPMS bins by them), not CPU-dependent `arctan2`'s."""
    k = np.array([int(v) for v in k_values], dtype=np.int64)
    d = np.array([float(v) for v in d_values])
    head_to_sink = tx_energy(radio, radio.packet_bits, d)
    block = max(1, LANDSCAPE_BLOCK // max(1, d.size * area.node_count))
    total = np.zeros((k.size, d.size))
    for nodes in (deploy(area, seed) for seed in seeds):
        xs, ys, _, angles = np.array(list(zip(*nodes))[1:])
        for i in range(0, k.size, block):
            total[i:i + block] += _forced_energies(xs, ys, angles, radio, k[i:i + block], d,
                                                   head_to_sink)
    d_list, rows = d.tolist(), []
    for kk, energies in zip(k.tolist(), (total / len(seeds)).tolist()):
        rows.extend(zip(repeat(kk), d_list, energies))
    return rows


def grid_argmin(rows: list[tuple[int, float, float]]) -> tuple[int, float, float]:
    return min(rows, key=lambda row: row[2])


# --- experiment runner --------------------------------------------------------


def _cell_configs(spec: ExperimentSpec) -> list[tuple[str, NetworkConfig]]:
    if spec.sweep_axis == "none":
        return [("base", spec.base)]
    if spec.sweep_axis == "node_count":
        return [(f"n{n}", spec.base.with_overrides(node_count=n))
                for n in spec.node_counts]
    return [(f"w{w:g}", spec.base.with_overrides(omega1=w, omega2=1.0 - w))
            for w in spec.omega1_values]  # omega1, the last axis with per-run cells


def _check_writable(directory: Path) -> None:
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {directory}: {exc}") from exc
    if not os.access(directory, os.W_OK):
        raise ConfigError(f"output directory is not writable: {directory}")


def run_experiment(spec: ExperimentSpec) -> list[Path]:
    """Run every (protocol, sweep point, seed) cell and write all CSVs.

    Returns the list of written paths. Validation happens before any
    simulation starts.
    """
    if spec.sweep_axis == "k_dch_grid":
        _check_writable(spec.output_dir)
        area = AreaSpec(spec.base.radius_m, spec.base.node_count)
        rows = simulated_energy_grid(area, spec.base.radio, spec.k_values,
                                     spec.d_values, spec.seeds)
        path = spec.output_dir / "landscape_simulated.csv"
        write_landscape_csv(path, rows)
        return [path]

    cells = _cell_configs(spec)
    labels = [label for label, _ in cells]   # they name each cell's rounds CSVs
    if len(set(labels)) < len(labels):
        raise ConfigError(f"{spec.sweep_axis} sweep points share output names: {labels}")
    _check_writable(spec.output_dir)
    # a summary.csv in the directory means the run that wrote it finished
    for name in ("summary.csv", "improvements.csv"):
        (spec.output_dir / name).unlink(missing_ok=True)
    written: list[Path] = []
    lifetimes: dict[tuple[Protocol, str], list[LifetimeSummary]] = {}
    for protocol in spec.protocols:
        for label, config in cells:
            for seed in spec.seeds:
                run_config = config.with_overrides(protocol=protocol, seed=seed)
                result = run_simulation(run_config)
                path = spec.output_dir / f"rounds_{protocol.value}_{label}_seed{seed}.csv"
                write_rounds_csv(path, result.rounds)
                written.append(path)
                lifetimes.setdefault((protocol, label), []).append(result.lifetime)

    rows, improvements = summarize_lifetime(lifetimes, spec.sweep_axis)
    summary_path = spec.output_dir / "summary.csv"
    write_summary_csv(summary_path, rows)
    written.append(summary_path)
    if improvements:
        imp_path = spec.output_dir / "improvements.csv"
        write_improvements_csv(imp_path, improvements)
        written.append(imp_path)
    return written
