"""What `benchmark/` relies on in the program.

The benchmark wraps module attributes from outside the package and checks
round 1 of a simulation against `sim.nodes` and `sim.assignment` (a view of
`labels`/`heads` cached for the current step); these tests fail when a change
to the program takes away something it uses.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import eerpms

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
sys.path.insert(0, str(BENCHMARK))

import selfcheck  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize("path, attr, name", tracer.PATCHES,
                         ids=[f"{path}.{attr}" for path, attr, _ in tracer.PATCHES])
def test_patch_target_resolves(path, attr, name):
    owner = eerpms
    for part in path.split("."):
        owner = getattr(owner, part)
    assert attr in owner.__dict__  # Tracer.install reads the owner's __dict__
    assert callable(owner.__dict__[attr])


def test_traced_simulation_calls_through_patched_names():
    tr = tracer.Tracer()
    uninstall = tr.install(eerpms)
    try:
        eerpms.run_simulation(eerpms.NetworkConfig(node_count=30, seed=2, max_rounds=3))
    finally:
        uninstall()
    calls, _, _ = tr.totals()
    assert calls["simulation.step"] == 3
    assert calls["selection.select_cluster_heads"] == 3
    assert calls["otsu.materialize_clusters"] == 1
    assert calls["bat.optimize_thresholds"] == 1


def test_traced_eerpms_counts_every_objective_call():
    # the per-layer objective metrics read spans on `bat.evaluate_threshold_sets`;
    # a bat that scored its candidates by another name would read as no work
    tr = tracer.Tracer()
    uninstall = tr.install(eerpms)
    try:
        sim = eerpms.Simulation(eerpms.NetworkConfig(node_count=40, seed=3,
                                                     initial_energy_j=0.02))
        sim.run()
    finally:
        uninstall()
    calls, _, self_s = tr.totals()
    assert sim.config.k_clusters > 1
    assert sim.clustering_events > 1  # reclustered after deaths
    assert calls["bat.optimize_thresholds"] == sim.clustering_events
    assert calls["otsu.evaluate_threshold_sets"] >= calls["bat.optimize_thresholds"]
    # the start and every iteration of every search scored a row per bat
    bp = sim.config.bat
    assert tr.counts["otsu.evaluate_threshold_sets.rows"] >= \
        calls["bat.optimize_thresholds"] * bp.population * (bp.max_iterations + 1) > 0
    assert self_s["otsu.evaluate_threshold_sets"] > 0.0


@pytest.mark.parametrize("bins, k", [(36, 2), (36, 4), (36, 6), (12, 12), (40, 3)])
def test_traced_exhaustive_search_counts_every_row(bins, k):
    # the oracle's per-layer row metric reads spans on `otsu.evaluate_threshold_sets`;
    # an exhaustive search that scored its sets by another name would read as no rows
    h = eerpms.AngleHistogram(np.random.default_rng(bins + k).integers(0, 5, size=bins) + 1)
    tr = tracer.Tracer()
    uninstall = tr.install(eerpms)
    try:
        eerpms.otsu.exhaustive_best_threshold(h, k, eerpms.ObjectiveWeights())
    finally:
        uninstall()
    calls, _, _ = tr.totals()
    assert calls["otsu.exhaustive_best_threshold"] == 1
    assert tr.counts["otsu.evaluate_threshold_sets.rows"] == math.comb(bins - 1, k - 1)


def test_traced_crpfcm_counts_every_fcm_call():
    # the per-layer FCM metrics read spans on `simulation.fuzzy_c_means`; a
    # CRPFCM round that reached FCM by another name would read as no FCM work
    tr = tracer.Tracer()
    uninstall = tr.install(eerpms)
    try:
        sim = eerpms.Simulation(eerpms.NetworkConfig(
            protocol=eerpms.Protocol.CRPFCM, node_count=40, seed=3, initial_energy_j=0.02))
        sim.run()
    finally:
        uninstall()
    calls, _, self_s = tr.totals()
    assert sim.clustering_events > 1  # reclustered after deaths
    assert calls["fcm.fuzzy_c_means"] == sim.clustering_events
    assert self_s["fcm.fuzzy_c_means"] > 0.0


def test_round_checks():
    # mutates sim.assignment after a step and reads it again, so every read
    # within one step must return the same object
    selfcheck.check_round_checks()
