"""What `benchmark/` relies on in the program.

The benchmark wraps module attributes from outside the package and checks
round 1 of a simulation against `sim.nodes` and `sim.assignment`; these
tests fail when a change to the program takes away something it uses.
"""

import sys
from pathlib import Path

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


def test_round_checks():
    # mutates sim.assignment after a step, so it must be a stored record
    selfcheck.check_round_checks()
