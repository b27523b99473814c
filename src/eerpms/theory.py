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
    """Closed-form plan: cluster count, head ring radius and the free-space
    geometry at that count."""

    k_star: int
    d_star_m: float          # head-to-sink distance: the minimum-energy ring's radius
    d_th_m: float            # crossover distance of the radio
    radius_limit_m: float    # free-space radius limit for k_star
    band: tuple[float, float] | None  # feasible head-distance band; None beyond the limit


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
    """Largest field radius for which a head on the sector bisector at `d_th`
    from the sink keeps every in-sector link and the head-to-sink link on the
    free-space branch. For k >= 4 no other head position reaches farther."""
    if k < 2:  # single-sector geometry is degenerate
        raise ValueError("k must be at least 2")
    return 2.0 * d_th * math.cos(math.pi / k)


def feasible_ch_band(area: AreaSpec, d_th: float, k: int) -> tuple[float, float]:
    """Interval of head-to-sink distances (head on the sector bisector) for
    which all sector points and the sink stay within `d_th` of the head.

    The upper end is `d_th`, the lower end the nearest head distance that
    still reaches the arc ends, and never below 0: a head at the sink
    reaches every point of a field smaller than `d_th`. At the radius limit
    the band is the point [d_th, d_th]; beyond it this raises."""
    r = area.radius_m
    if r > free_space_radius_limit(d_th, k):
        raise ValueError("no feasible head position: field radius exceeds the limit")
    s = r * math.sin(math.pi / k)
    lo = r * math.cos(math.pi / k) - math.sqrt(max(d_th * d_th - s * s, 0.0))
    return (min(max(lo, 0.0), d_th), d_th)


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
    """Assemble the closed-form plan, its radius limit and, within the limit,
    its feasible head-distance band."""
    k = optimal_cluster_count(area)
    d_th = distance_threshold(params)
    limit = free_space_radius_limit(d_th, k)
    band = feasible_ch_band(area, d_th, k) if area.radius_m <= limit else None
    return OptimalPlan(k_star=k, d_star_m=optimal_ch_distance(area, k), d_th_m=d_th,
                       radius_limit_m=limit, band=band)


# --- Monte-Carlo counterparts -------------------------------------------------

#: Most samples a Monte Carlo sampler draws, transforms and reduces at once.
MC_BLOCK = 1 << 14


def wedge_sq_distance_mc(radius_m: float, k: int, d_ch: float, samples: int,
                         rng: np.random.Generator) -> float:
    """Sampling estimate of the mean squared member-to-head distance over the
    triangular wedge {0 <= x <= R, |y| <= x tan(pi/k)}, uniform density.

    x = R sqrt(u) and y = (2v - 1) x tan(pi/k), the values of `uniform(-1, 1)`,
    over the pairs of `_uniform_pairs`, so `rng` must draw from PCG64 or
    PCG64DXSM; the mean of (x - d_ch)**2 + y**2 is the block sums added in
    block order, divided by `samples`."""
    if k < 2:
        raise ValueError("k must be at least 2")
    tan_half = math.tan(math.pi / k)
    total = 0.0
    for x, y in _uniform_pairs(samples, rng):
        np.sqrt(x, out=x)
        x *= radius_m
        y *= 2.0
        y -= 1.0
        y *= x
        y *= tan_half
        x -= d_ch
        np.square(x, out=x)
        np.square(y, out=y)
        x += y
        total += float(np.add.reduce(x))
    return total / samples


def sector_coverage_violations(radius_m: float, k: int, d_th: float, d_ch: float,
                               samples: int, rng: np.random.Generator) -> int:
    """Count sampled sector points farther than `d_th` from a head placed on
    the bisector at distance `d_ch`; adds one if the head itself is farther
    than `d_th` from the sink.

    The points are r = R sqrt(u) and phi = -pi/k + (2 pi/k) v, the values of
    `uniform(-pi/k, pi/k)`, over the pairs of `_uniform_pairs`, so `rng`
    must draw from PCG64 or PCG64DXSM."""
    if k < 1:
        raise ValueError("k must be at least 1")
    half = math.pi / k
    x_block = np.empty(MC_BLOCK)
    violations = 0
    for r, phi in _uniform_pairs(samples, rng):
        np.sqrt(r, out=r)
        r *= radius_m
        phi *= 2.0 * half
        phi -= half
        x = np.cos(phi, out=x_block[:r.size])
        x *= r
        x -= d_ch
        y = np.sin(phi, out=phi)
        y *= r
        violations += int(np.count_nonzero(np.hypot(x, y, out=x) > d_th))
    return violations + int(d_ch > d_th)


def _uniform_pairs(samples: int, rng: np.random.Generator):
    """Yield `rng.random(samples)` and the `samples` draws after it as pairs
    (u, v) of blocks of at most `MC_BLOCK` values, written into the same two
    buffers for every block, then leave `rng` where drawing both at once
    leaves it, so memory does not grow with `samples`.

    v comes from a copy of the bit generator advanced by `samples`, so `rng`
    must draw from PCG64 or PCG64DXSM, whose `advance` skips exactly one
    double draw per step. Both are checked before anything is drawn."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    bits = rng.bit_generator
    if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)):
        raise ValueError("rng must draw from a PCG64 or PCG64DXSM bit generator")
    ahead = np.random.Generator(copy.deepcopy(bits))
    ahead.bit_generator.advance(samples)
    u_block, v_block = np.empty((2, min(samples, MC_BLOCK)))
    for start in range(0, samples, MC_BLOCK):
        u = rng.random(out=u_block[:samples - start])
        yield u, ahead.random(out=v_block[:u.size])
    # `advance` also drops the buffered half of a 32-bit draw, which double
    # draws keep, so it is put back
    state = bits.state
    bits.advance(samples)
    bits.state = {**bits.state, "has_uint32": state["has_uint32"],
                  "uinteger": state["uinteger"]}
