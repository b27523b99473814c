"""Closed-form placement theory for a disk-shaped field with a central sink.

Covers the optimal cluster count and head-to-sink distance, the free-space
feasibility geometry (how large the field may be before some link is forced
onto the multipath branch), and the analytical per-round energy of an
idealized equal-sector clustering. Monte-Carlo counterparts of the geometric
quantities are provided as independent checks of the closed forms.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .radio import RadioParams, distance_threshold


@dataclass(frozen=True)
class AreaSpec:
    radius_m: float
    node_count: int

    def __post_init__(self) -> None:
        if not (self.radius_m > 0 and math.isfinite(self.radius_m)):
            raise ValueError("radius_m must be strictly positive")
        if self.node_count < 1:
            raise ValueError("node_count must be at least 1")


@dataclass(frozen=True)
class OptimalPlan:
    """Closed-form plan: cluster count, head ring radius, feasibility flags."""

    k_star: int
    d_star_m: float          # head-to-sink distance: the minimum-energy ring's radius
    feasible: bool           # field radius within the free-space limit for k_star
    d_star_in_band: bool     # d_star inside the feasible head-distance band


def optimal_cluster_count(area: AreaSpec) -> int:
    """Large-N optimal cluster count: the root of K^3 = 3 pi^2 N / 4, rounded
    to the nearest integer. It is at least 2: N = 1 gives a root of 1.949.

    The root solves dE/dK = 0 for `predicted_round_energy` with the head
    distance held at 2R/3 (the limit of `optimal_ch_distance` as N grows).
    With d at its exact optimum for each K, the integer minimiser of
    `predicted_round_energy` can be one higher: 10 rather than 9 at
    N = 100, R = 150.
    """
    k = (0.75 * math.pi ** 2 * area.node_count) ** (1.0 / 3.0)
    return int(k + 0.5)


def optimal_ch_distance(area: AreaSpec, k: int) -> float:
    """Head-to-sink distance minimizing the analytical round energy for a
    given cluster count."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = area.node_count
    return 2.0 * n * area.radius_m / (3.0 * (n + k))


def free_space_radius_limit(d_th: float, k: int) -> float:
    """Largest field radius for which a head position exists that keeps every
    in-sector link and the head-to-sink link on the free-space branch."""
    if k < 2:
        raise ValueError("k must be at least 2 (single-sector geometry is degenerate)")
    return 2.0 * d_th * math.cos(math.pi / k)


def feasible_ch_band(area: AreaSpec, d_th: float, k: int) -> tuple[float, float]:
    """Interval of head-to-sink distances (head on the sector bisector) for
    which all sector points and the sink stay within `d_th` of the head.

    Raises if the field is too large for such a band to exist.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    r = area.radius_m
    s = r * math.sin(math.pi / k)
    if s > d_th:
        raise ValueError(
            "no feasible head position: R*sin(pi/k) exceeds the crossover distance"
        )
    lo = r * math.cos(math.pi / k) - math.sqrt(d_th * d_th - s * s)
    hi = d_th
    if lo > hi:
        raise ValueError("no feasible head position: field radius exceeds the limit")
    return (lo, hi)


def expected_sq_member_distance(area: AreaSpec, k: int, d_ch: float) -> float:
    """Mean squared member-to-head distance over an idealized wedge cluster
    with the head on the bisector at distance `d_ch` from the sink.

    Small-angle closed form; see `wedge_sq_distance_mc` for the sampling
    counterpart that quantifies the approximation error.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    r = area.radius_m
    if not (0.0 <= d_ch <= r):
        raise ValueError("d_ch must lie in [0, R]")
    return d_ch * d_ch - (4.0 * r / 3.0) * d_ch + r * r / 2.0 \
        + math.pi ** 2 * r * r / (6.0 * k * k)


def predicted_round_energy(area: AreaSpec, params: RadioParams, k: int, d_ch: float) -> float:
    """Analytical network energy per round (joules) for `k` equal clusters
    with every head at distance `d_ch` from the sink, all links free-space.
    An array `d_ch` gives an array, each element by the float form's steps."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = area.node_count
    r = area.radius_m
    l = params.packet_bits
    fs = params.e_fs
    return l * (
        fs * ((k + n) * d_ch * d_ch - (4.0 * n * r / 3.0) * d_ch)
        + n * (2.0 * params.e_elec + params.e_da
               + fs * (3.0 * k * k + math.pi ** 2) * r * r / (6.0 * k * k))
    )


def optimal_plan(area: AreaSpec, params: RadioParams) -> OptimalPlan:
    """Assemble the closed-form plan and its feasibility flags."""
    k = optimal_cluster_count(area)
    d = optimal_ch_distance(area, k)
    d_th = distance_threshold(params)
    feasible = area.radius_m <= free_space_radius_limit(d_th, k)
    in_band = False
    if feasible:
        lo, hi = feasible_ch_band(area, d_th, k)
        in_band = lo <= d <= hi
    return OptimalPlan(k_star=k, d_star_m=d, feasible=feasible,
                       d_star_in_band=in_band)


# --- Monte-Carlo counterparts -------------------------------------------------

#: Most samples a Monte Carlo sampler draws, transforms and reduces at once.
MC_BLOCK = 1 << 14


def wedge_sq_distance_mc(radius_m: float, k: int, d_ch: float, samples: int,
                         rng: np.random.Generator) -> float:
    """Sampling estimate of the mean squared member-to-head distance over the
    triangular wedge {0 <= x <= R, |y| <= x tan(pi/k)}, uniform density.

    The allocating form: x = R sqrt(u) over `rng.random(samples)`,
    y = (2v - 1) x tan(pi/k) over the next `samples` draws (the values and
    stream of `uniform(-1, 1)`), and the mean of (x - d_ch)**2 + y**2,
    leaving `rng` where that form leaves it. The samples are drawn,
    transformed and summed in place in blocks of at most `MC_BLOCK`, so
    memory does not grow with `samples`: v comes from a copy of the bit
    generator advanced by `samples`, and the block sums are added in block
    order. `rng` must draw from PCG64 or PCG64DXSM, whose `advance` skips
    exactly one double draw per step."""
    if k < 2:
        raise ValueError("k must be at least 2")
    lateral = _second_stream(samples, rng)
    tan_half = math.tan(math.pi / k)
    x_block = np.empty(min(samples, MC_BLOCK))
    y_block = np.empty_like(x_block)
    total = 0.0
    for start in range(0, samples, MC_BLOCK):
        x = rng.random(out=x_block[:samples - start])
        np.sqrt(x, out=x)
        x *= radius_m
        y = lateral.random(out=y_block[:x.size])
        y *= 2.0
        y -= 1.0
        y *= x
        y *= tan_half
        x -= d_ch
        np.square(x, out=x)
        np.square(y, out=y)
        x += y
        total += float(np.add.reduce(x))
    _skip(samples, rng)
    return total / samples


def sector_coverage_violations(radius_m: float, k: int, d_th: float, d_ch: float,
                               samples: int, rng: np.random.Generator) -> int:
    """Count sampled sector points farther than `d_th` from a head placed on
    the bisector at distance `d_ch`; adds one if the head itself is farther
    than `d_th` from the sink.

    The points are r = R sqrt(u) over `rng.random(samples)` and
    phi = `uniform(-pi/k, pi/k)` over the next `samples` draws, the count
    and the final state of `rng` those of drawing both at once. They are
    drawn and tested in the blocks of `wedge_sq_distance_mc`, phi from a
    copy of the bit generator advanced by `samples`. `rng` must draw from
    PCG64 or PCG64DXSM."""
    if k < 1:
        raise ValueError("k must be at least 1")
    angles = _second_stream(samples, rng)
    half = math.pi / k
    r_block = np.empty(min(samples, MC_BLOCK))
    x_block = np.empty_like(r_block)
    violations = 0
    for start in range(0, samples, MC_BLOCK):
        r = rng.random(out=r_block[:samples - start])
        np.sqrt(r, out=r)
        r *= radius_m
        phi = angles.uniform(-half, half, r.size)
        x = np.cos(phi, out=x_block[:r.size])
        x *= r
        x -= d_ch
        y = np.sin(phi, out=phi)
        y *= r
        violations += int(np.count_nonzero(np.hypot(x, y, out=x) > d_th))
    _skip(samples, rng)
    if d_ch > d_th:
        violations += 1
    return violations


def _second_stream(samples: int, rng: np.random.Generator) -> np.random.Generator:
    """A generator on a copy of `rng`'s bit generator advanced by `samples`
    draws: where a second `rng.random(samples)` would start. Checks the
    sample count and the bit generator before anything is drawn."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    bits = rng.bit_generator
    if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)):
        raise ValueError("rng must draw from a PCG64 or PCG64DXSM bit generator")
    ahead = copy.deepcopy(bits)
    ahead.advance(samples)
    return np.random.Generator(ahead)


def _skip(samples: int, rng: np.random.Generator) -> None:
    """Advance `rng` past `samples` double draws. `advance` also drops the
    buffered half of a 32-bit draw, which double draws keep, so it is put
    back."""
    bits = rng.bit_generator
    state = bits.state
    bits.advance(samples)
    bits.state = {**bits.state, "has_uint32": state["has_uint32"],
                  "uinteger": state["uinteger"]}
