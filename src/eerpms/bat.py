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

from .otsu import AngleHistogram, ObjectiveWeights, ThresholdSet, \
    evaluate_threshold_sets, objective_f1


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


def _repair_in_place(arr: np.ndarray, bin_count: int) -> None:
    """Clamp, sort and deduplicate the rows of an int64 (batch, dim) matrix.

    Duplicates cascade upward to the nearest free level; if the top fills
    up, the tail is pulled back down from the last valid level.
    """
    np.maximum(arr, 1, out=arr)
    arr.sort(axis=1)
    # The upward cascade arr[j] = max(arr[j], arr[j-1] + 1) is a running max
    # of arr[j] - j. That running max never falls, so the downward pass from
    # the top, arr[j] = min(arr[j], arr[j+1] - 1) below a last level clamped
    # at bin_count - 1, is one clamp of arr[j] - j at bin_count - dim, which
    # also makes a clamp of the inputs at bin_count - 1 unnecessary.
    j = np.arange(arr.shape[1])
    arr -= j
    np.maximum.accumulate(arr, axis=1, out=arr)
    np.minimum(arr, bin_count - arr.shape[1], out=arr)
    arr += j


def _repair_many(raw: np.ndarray, bin_count: int) -> np.ndarray:
    """`_repair_in_place` on a copy of `raw`, which is left as it was."""
    arr = np.array(raw, dtype=np.int64)
    _repair_in_place(arr, bin_count)
    return arr


class BatSwarm:
    """Mutable optimizer state; `step()` advances one synchronous iteration."""

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
        self._raw = np.empty((2 * pop, dim), dtype=np.int64)  # flight, then walk
        self.loudness = np.full(pop, params.loudness0)
        self.pulse = np.zeros(pop)
        self.iteration = 0
        objectives = evaluate_threshold_sets(histogram, self.positions, weights)
        best = int(np.argmax(objectives))
        self.best_position = self.positions[best].copy()
        self.best_objective = float(objectives[best])
        self.best_history = [self.best_objective]

    def step(self) -> None:
        """One synchronous iteration.

        The iteration draws one block of 2*pop*(dim+1) uniforms from `rng`
        and reads it in order as: the (pop, dim) flight frequencies, pop
        walk draws, the (pop, dim) walk steps (each -1 + 2u, uniform on
        [-1, 1)) and pop acceptance draws. This is the stream that four
        separate draws of those shapes would take, in that order.
        """
        p = self.params
        pop, dim = self.positions.shape
        t = self.iteration + 1
        u = self.rng.random(2 * pop * (dim + 1))
        freq = u[:pop * dim].reshape(pop, dim)
        walk_draw = u[pop * dim:pop * (dim + 1)]
        steps = u[pop * (dim + 1):pop * (2 * dim + 1)].reshape(pop, dim)
        accept_draw = u[pop * (2 * dim + 1):]

        # velocity += (position - best) * (s_min + (s_max - s_min) * u)
        freq *= p.s_max - p.s_min
        freq += p.s_min
        freq *= self.positions - self.best_position
        self.velocities += freq
        raw = self._raw
        np.ceil(self.positions + self.velocities, out=raw[:pop], casting="unsafe")

        # Local walk around the incumbent best, scaled by the mean loudness.
        # Rounded to nearest: with a sub-unit symmetric step, a ceiling could
        # never decrease a threshold and the walk would only drift upward.
        steps *= 2.0
        steps -= 1.0
        steps *= self.loudness.sum() / pop
        steps += self.best_position
        np.rint(steps, out=raw[pop:], casting="unsafe")
        _repair_in_place(raw, self.histogram.bin_count)
        np.copyto(self.positions, raw[:pop])
        # the candidates overwrite the flight rows: a bat's walk where it walks
        candidates = raw[:pop]
        np.copyto(candidates, raw[pop:], where=(walk_draw > self.pulse)[:, None])

        objectives = evaluate_threshold_sets(self.histogram, candidates, self.weights)
        accept = (accept_draw < self.loudness) & (objectives > self.best_objective)
        np.copyto(self.positions, candidates, where=accept[:, None])
        np.multiply(self.loudness, p.epsilon_decay, out=self.loudness, where=accept)
        np.copyto(self.pulse, p.pulse0 * (1.0 - math.exp(-p.gamma_rate * t)), where=accept)

        best = int(objectives.argmax())
        if objectives[best] > self.best_objective:
            self.best_objective = float(objectives[best])
            self.best_position = candidates[best].copy()
        self.iteration = t
        self.best_history.append(self.best_objective)

    def run(self) -> tuple[ThresholdSet, float]:
        for _ in range(self.params.max_iterations):
            self.step()
        t = ThresholdSet(tuple(int(v) for v in self.best_position), self.k)
        return t, self.best_objective


def optimize_thresholds(h: AngleHistogram, k: int, w: ObjectiveWeights,
                        bp: BatParams) -> tuple[ThresholdSet, float]:
    """Best-found threshold set and its objective; deterministic per seed.

    k = 1 short-circuits to the empty threshold set.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        t = ThresholdSet((), 1)
        return t, objective_f1(h, t, w)
    return BatSwarm(h, k, w, bp).run()
