"""Bat-algorithm search over angle-threshold sets.

Echolocation metaphor: each bat carries a candidate threshold vector, a
velocity, a loudness that decays on accepted moves and a pulse rate that
grows toward its ceiling. Position updates are synchronous: all bats move
against the global best of the previous iteration, then the best is
refreshed once per iteration (elitist, never worsens).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the clip ufunc itself: np.clip wraps it in argument handling
from numpy._core.umath import clip as _clip

from .otsu import AngleHistogram, ObjectiveWeights, ThresholdSet, evaluate_threshold_sets


@dataclass(frozen=True)
class BatParams:
    population: int = 30
    max_iterations: int = 100
    s_min: float = 0.0           # frequency lower bound
    s_max: float = 2.0           # frequency upper bound
    loudness0: float = 1.0
    pulse0: float = 0.5          # pulse-rate ceiling
    epsilon_decay: float = 0.9   # loudness multiplier on acceptance
    gamma_rate: float = 0.9      # pulse-rate growth rate
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        for name in ("s_min", "s_max", "loudness0", "gamma_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.s_min > self.s_max:
            raise ValueError("s_min must not exceed s_max")
        if self.loudness0 <= 0:
            raise ValueError("loudness0 must be positive")
        if not (0.0 <= self.pulse0 <= 1.0):
            raise ValueError("pulse0 must lie in [0, 1]")
        if not (0.0 < self.epsilon_decay < 1.0):
            raise ValueError("epsilon_decay must lie in (0, 1)")
        if self.gamma_rate <= 0:
            raise ValueError("gamma_rate must be positive")


def _repair_in_place(arr: np.ndarray, bin_count: int, ramp: np.ndarray) -> None:
    """Clamp, sort and deduplicate the rows of a float64 (batch, dim) matrix
    of integers below 2**52 in magnitude; `ramp` is `np.arange(dim)` in
    float64. Every step is exact on such integers.

    Duplicates cascade upward to the nearest free level; if the top fills
    up, the tail is pulled back down from the last valid level.
    """
    arr.sort(axis=1)
    # The upward cascade arr[j] = max(arr[j], arr[j-1] + 1) is a running max
    # of arr[j] - j. That running max never falls, so the downward pass from
    # the top, arr[j] = min(arr[j], arr[j+1] - 1) below a last level clamped
    # at bin_count - 1, is one clamp of arr[j] - j at bin_count - dim, which
    # also makes a clamp of the inputs at bin_count - 1 unnecessary. The
    # clamp of the inputs at 1 commutes with the sort, and the running max of
    # max(arr[j], 1) - j is that of arr[j] - j clamped at 1 (at j = 0, 1 - j
    # is 1), so it joins the clamp at the top.
    arr -= ramp
    np.maximum.accumulate(arr, axis=1, out=arr)
    _clip(arr, 1.0, bin_count - arr.shape[1], out=arr)
    arr += ramp


def _repair_many(raw: np.ndarray, bin_count: int) -> np.ndarray:
    """`_repair_in_place` on a float64 copy of `raw`, which is left as it
    was; returns int64."""
    arr = np.array(raw, dtype=np.float64)
    _repair_in_place(arr, bin_count, np.arange(arr.shape[1], dtype=np.float64))
    return arr.astype(np.int64)


def _split(block: np.ndarray, pop: int, dim: int):
    """Views of a drawn (m, 2*pop*(dim+1)) block, one row per iteration: the
    (m, pop, dim) flight frequencies, (m, pop) walk draws, (m, pop, dim) walk
    steps and (m, pop) acceptance draws."""
    m = len(block)
    return (block[:, :pop * dim].reshape(m, pop, dim),
            block[:, pop * dim:pop * (dim + 1)],
            block[:, pop * (dim + 1):pop * (2 * dim + 1)].reshape(m, pop, dim),
            block[:, pop * (2 * dim + 1):])


_FIRST_WINDOW = 4        # iterations in a window after the start or an improvement
_WINDOW_DRAWS = 40_000   # uniforms a window draws, at most (and one iteration at least):
                         # 66 iterations, 1 980 candidates, at population 30 and k = 10


class BatSwarm:
    """Mutable optimizer state; `step()` advances one synchronous iteration.

    Iteration t draws one block of 2*pop*(dim+1) uniforms from `rng` and
    reads it in order as: the (pop, dim) flight frequencies, pop walk
    draws, the (pop, dim) walk steps and pop acceptance draws. This is the
    stream that four separate draws of those shapes would take. Each bat
    flies, `v += (x - best) * (s_min + (s_max - s_min) * u)` and
    `x = repair(ceil(x + v))`; its candidate is that flight, or a walk
    `repair(rint(best + (2u - 1) * mean loudness))` when its walk draw
    exceeds its pulse rate. A candidate above the best objective is
    accepted when its acceptance draw is below the bat's loudness; the
    best is refreshed once per iteration.

    `_advance` runs iterations in windows of several at a time, with the
    same result bit for bit. An iteration in which no candidate beats
    `best_objective` accepts nothing, so it leaves `best_position`,
    `best_objective`, `loudness` and `pulse` as they were. Until the first
    improving iteration, the draws alone then fix every walk and every
    choice between walk and flight. So a window draws the blocks of its m
    iterations in one `rng.random` call (the stream is the same as m
    draws), runs only the flight recurrence one iteration at a time, and
    repairs the walks, picks the candidates and scores all m * pop of them
    at once; repair and objective work row by row. The window is cut at
    its first improving iteration: that iteration commits with its own t,
    and the later ones are recomputed from the same draws in the next
    window. The frequency and walk-step rescales are applied to a block
    once, when it is drawn; nothing that depends on the swarm is written
    into it. Windows start at `_FIRST_WINDOW` iterations, double after a
    window without improvement and start over after one, and draw at most
    `_WINDOW_DRAWS` uniforms, which bounds every buffer of a window.
    """

    def __init__(self, histogram: AngleHistogram, k: int, weights: ObjectiveWeights,
                 params: BatParams) -> None:
        if k < 2:
            raise ValueError("use k >= 2; a single segment needs no search")
        if k > histogram.bin_count:
            raise ValueError("more segments than bins")
        self.histogram = histogram
        self.k = k
        self.weights = weights
        self.params = params
        self.rng = np.random.default_rng(params.seed)
        dim = k - 1
        pop = params.population
        # Half the population starts at (jittered) equal-count quantile cuts,
        # the rest uniform at random; the elitist search refines from there.
        cuts = np.searchsorted(
            histogram.cum_counts,
            histogram.total * np.arange(1, k) / k, side="left",
        ).astype(np.int64)
        seeded = pop // 2
        raw = np.empty((pop, dim), dtype=np.int64)
        raw[0] = cuts
        raw[1:seeded] = cuts + self.rng.integers(-3, 4, size=(seeded - 1, dim))
        raw[seeded:] = self.rng.integers(1, histogram.bin_count,
                                         size=(pop - seeded, dim))
        self.positions = _repair_many(raw, histogram.bin_count)
        self.velocities = np.zeros((pop, dim))
        self.loudness = np.full(pop, params.loudness0)
        self.pulse = np.zeros(pop)
        self.iteration = 0
        objectives = evaluate_threshold_sets(histogram, self.positions, weights)
        best = int(np.argmax(objectives))
        self.best_position = self.positions[best].copy()
        self.best_objective = float(objectives[best])
        self.best_history = [self.best_objective]

    def step(self) -> None:
        """One synchronous iteration."""
        self._advance(1)

    def run(self) -> tuple[ThresholdSet, float]:
        self._advance(self.params.max_iterations)
        t = ThresholdSet(tuple(int(v) for v in self.best_position), self.k)
        return t, self.best_objective

    def _advance(self, n: int) -> None:
        """`n` synchronous iterations, in windows (see the class docstring)."""
        p = self.params
        pop, dim = self.positions.shape
        width = 2 * pop * (dim + 1)
        cap = max(1, _WINDOW_DRAWS // width)
        size = _FIRST_WINDOW
        block = np.empty((0, width))
        remaining = n
        while remaining:
            if not len(block):
                block = self.rng.random((min(size, cap, remaining), width))
                freq, _, steps, _ = _split(block, pop, dim)
                freq *= p.s_max - p.s_min
                freq += p.s_min
                steps *= 2.0
                steps -= 1.0
            done = self._window(block)
            remaining -= done
            block = block[done:]
            size = _FIRST_WINDOW if len(block) else 2 * size

    def _window(self, block: np.ndarray) -> int:
        """Run the m iterations whose rescaled draws are the rows of `block`
        up to the first that improves on the best; return how many ran."""
        p = self.params
        m = len(block)
        pop, dim = self.positions.shape
        bins = self.histogram.bin_count
        freq, walk_draw, steps, accept_draw = _split(block, pop, dim)
        # Flights and walks run in float64: positions, best and ramp are
        # integers below 2**52 (`NetworkConfig` bounds the moves), so every
        # step is exact; candidates and positions are cast to int64 once.
        best = self.best_position.astype(np.float64)
        ramp = np.arange(dim, dtype=np.float64)

        # The flights, one iteration at a time against the unchanged best.
        flights = np.empty((m, pop, dim))
        velocities = np.empty((m, pop, dim))
        x, v = self.positions.astype(np.float64), self.velocities
        for f, velocity, flight in zip(freq, velocities, flights):
            np.subtract(x, best, out=velocity)
            velocity *= f
            velocity += v
            np.add(x, velocity, out=flight)
            np.ceil(flight, out=flight)
            _repair_in_place(flight, bins, ramp)
            x, v = flight, velocity

        # Local walks around the incumbent best, scaled by the mean loudness.
        # Rounded to nearest: with a sub-unit symmetric step, a ceiling could
        # never decrease a threshold and the walk would only drift upward.
        walks = steps * (self.loudness.sum() / pop)
        walks += best
        np.rint(walks, out=walks)
        _repair_in_place(walks.reshape(m * pop, dim), bins, ramp)
        # a bat's flight where it does not walk
        np.copyto(walks, flights, where=(walk_draw <= self.pulse)[:, :, None])
        candidates = walks.astype(np.int64)
        objectives = evaluate_threshold_sets(
            self.histogram, candidates.reshape(m * pop, dim), self.weights).reshape(m, pop)

        improving = (objectives.max(axis=1) > self.best_objective).nonzero()[0]
        last = int(improving[0]) if improving.size else m - 1
        np.copyto(self.positions, flights[last], casting="unsafe")
        np.copyto(self.velocities, velocities[last])
        self.best_history += [self.best_objective] * last
        if improving.size:
            t = self.iteration + last + 1
            obj, cand = objectives[last], candidates[last]
            accept = (accept_draw[last] < self.loudness) & (obj > self.best_objective)
            np.copyto(self.positions, cand, where=accept[:, None])
            np.multiply(self.loudness, p.epsilon_decay, out=self.loudness, where=accept)
            np.copyto(self.pulse, p.pulse0 * (1.0 - math.exp(-p.gamma_rate * t)),
                      where=accept)
            top = int(obj.argmax())
            self.best_objective = float(obj[top])
            self.best_position = cand[top].copy()
        self.best_history.append(self.best_objective)
        self.iteration += last + 1
        return last + 1


def optimize_thresholds(h: AngleHistogram, k: int, w: ObjectiveWeights,
                        bp: BatParams) -> tuple[ThresholdSet, float]:
    """Best-found threshold set and its objective; deterministic per seed.

    k = 1 short-circuits to the empty threshold set.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        single = evaluate_threshold_sets(h, np.zeros((1, 0), np.int64), w)
        return ThresholdSet((), 1), float(single[0])
    return BatSwarm(h, k, w, bp).run()
