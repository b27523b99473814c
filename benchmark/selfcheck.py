"""Checks of the benchmark's own parts: the tracer's self-time arithmetic and
the correctness checks' power to catch a wrong output.

    python3 benchmark/selfcheck.py

Exits 1 on the first failed check. Not named test_*.py, so the repository's
pytest run does not collect it.
"""

import dataclasses
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402


def check_self_time() -> None:
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()
    tracer.wrap("outer", outer_body)()
    calls, total, own = tracer.totals()
    assert calls == {"outer": 1, "inner": 2}, calls
    assert abs(own["outer"] - (total["outer"] - total["inner"])) < 1e-9
    assert 0.009 < own["outer"] < 0.03 and total["inner"] >= 0.04, (own, total)


def check_round_checks() -> None:
    import eerpms
    for protocol in eerpms.Protocol:
        sim = eerpms.Simulation(eerpms.NetworkConfig(node_count=40, protocol=protocol, seed=3))
        first = sim.step()
        assert checks.first_round(sim, first) == [], checks.first_round(sim, first)
        wrong = dataclasses.replace(first, spent_j=first.spent_j * (1 + 1e-6))
        assert checks.first_round(sim, wrong), f"{protocol}: wrong spend passed"
        cluster = max(sim.assignment.clusters, key=lambda c: len(c.member_ids))
        right = cluster.head_id
        cluster.head_id = next(i for i in cluster.member_ids if i != right)
        assert checks.first_round(sim, first), f"{protocol}: wrong head passed"
        cluster.head_id = right
        cluster.member_ids.pop()
        assert checks.first_round(sim, first), f"{protocol}: missing member passed"
    assert checks.round_series([3, 4, 0], [1.0, 0.5, 0.0], [1, 0, 4], 4, 0.5)
    assert checks.round_series([3, 1, 0], [1.0, 0.5, 0.0], [1, 1, 1], 4, 0.5)
    assert not checks.round_series([3, 1, 0], [1.0, 0.5, 0.0], [1, 2, 1], 4, 0.5)


def check_objective() -> None:
    import eerpms
    counts = [3, 0, 5, 1, 7, 2, 0, 4, 6, 2]
    h = eerpms.AngleHistogram(counts)
    w = eerpms.ObjectiveWeights()
    for k in (2, 3, 4):
        t, v = eerpms.exhaustive_best_threshold(h, k, w)
        plain_t, plain_v = checks.plain_enumeration(counts, k, w.alpha1, w.alpha2)
        assert abs(plain_v - v) < 1e-12 and plain_t == t.thresholds, (k, t, v, plain_t, plain_v)


if __name__ == "__main__":
    for check in (check_self_time, check_round_checks, check_objective):
        check()
        print(f"ok {check.__name__}")
