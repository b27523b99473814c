"""Correctness checks computed apart from the program.

Each check returns a list of problems (empty when the output is right). The
radio model, the lifetime counts and the threshold objective are written
here again from their definitions, so a fault in the program's version
shows as a mismatch instead of being repeated by the check.
"""

from __future__ import annotations

import itertools
import math

REL_TOL = 1e-9


def tx_energy(radio, bits: int, d: float) -> float:
    """First-order radio model: d^2 loss up to sqrt(e_fs/e_mp), d^4 beyond."""
    if d * d <= radio.e_fs / radio.e_mp:
        return bits * (radio.e_elec + radio.e_fs * d * d)
    return bits * (radio.e_elec + radio.e_mp * d ** 4)


def first_round(sim, metrics) -> list[str]:
    """Check round 1 of `sim`, just stepped once, against its structure.

    All nodes start with the same energy, so the costs cannot empty a
    battery and the round's spend is the plain sum of its radio costs.
    """
    config = sim.config
    radio, bits = config.radio, config.radio.packet_bits
    nodes = sim.nodes
    xy = {n.id: (n.x, n.y) for n in nodes}
    alive = {n.id for n in nodes}
    problems = []

    clusters = [c for c in sim.assignment.clusters if c.member_ids]
    members = [i for c in clusters for i in c.member_ids]
    if clusters and (len(members) != len(set(members)) or set(members) != alive):
        problems.append("clusters do not cover the alive nodes exactly once")
    heads = [c.head_id for c in clusters]
    if any(h not in c.member_ids for h, c in zip(heads, clusters)):
        problems.append("a head is not a member of its own cluster")

    def dist(a, b):
        return math.hypot(xy[a][0] - xy[b][0], xy[a][1] - xy[b][1])

    costs = []
    if not clusters:
        costs = [tx_energy(radio, bits, math.hypot(*xy[i])) for i in alive]
    for head, c in zip(heads, clusters):
        m = len(c.member_ids)
        costs += [tx_energy(radio, bits, dist(i, head)) for i in c.member_ids if i != head]
        costs += [(m - 1) * bits * radio.e_elec, m * bits * radio.e_da,
                  tx_energy(radio, bits, math.hypot(*xy[head]))]
    expected = math.fsum(costs)
    if abs(metrics.spent_j - expected) > REL_TOL * expected:
        problems.append(f"round-1 spent_j {metrics.spent_j!r} != radio model {expected!r}")
    if metrics.ch_count != len(heads):
        problems.append(f"round-1 ch_count {metrics.ch_count} != {len(heads)} heads")

    protocol = config.protocol.value
    if protocol == "RLEACH":
        for head, c in zip(heads, clusters):
            for i in c.member_ids:
                if dist(i, head) > min(dist(i, h) for h in heads) + 1e-9:
                    problems.append(f"RLEACH node {i} did not join its nearest head")
    else:
        ring = config.ring_radius_m
        for head, c in zip(heads, clusters):
            nearest = min(abs(math.hypot(*xy[i]) - ring) for i in c.member_ids)
            if abs(math.hypot(*xy[head]) - ring) > nearest + 1e-9:
                problems.append(f"{protocol} head {head} is not its cluster's member "
                                "nearest the ring")
    return problems


def lifetimes(deaths: list[int], node_count: int) -> tuple[int | None, ...]:
    """(first, half, last) death rounds from per-round death counts."""
    half = math.ceil(node_count / 2)
    fdn = hdn = ldn = None
    dead = 0
    for r, d in enumerate(deaths, start=1):
        dead += d
        if d and fdn is None:
            fdn = r
        if hdn is None and dead >= half:
            hdn = r
        if ldn is None and dead == node_count:
            ldn = r
    return fdn, hdn, ldn


def round_series(alive: list[int], residual: list[float], deaths: list[int],
                 node_count: int, initial_j: float) -> list[str]:
    """Monotone residual and alive count, deaths that match the alive count,
    and a run that ends with every node dead and no energy left."""
    problems = []
    prev_alive, prev_res = node_count, node_count * initial_j
    for r, (a, res, d) in enumerate(zip(alive, residual, deaths), start=1):
        if a > prev_alive or res > prev_res:
            problems.append(f"round {r}: alive or residual increased")
            break
        if prev_alive - a != d:
            problems.append(f"round {r}: {d} deaths but alive fell by {prev_alive - a}")
            break
        prev_alive, prev_res = a, res
    if not alive or alive[-1] != 0 or residual[-1] != 0.0:
        problems.append("run did not end with every node dead")
    fdn, hdn, ldn = lifetimes(deaths, node_count)
    if None in (fdn, hdn, ldn) or not fdn <= hdn <= ldn:
        problems.append(f"FDN <= HDN <= LDN fails: {fdn}, {hdn}, {ldn}")
    return problems


def conservation(rounds, node_count: int, initial_j: float) -> list[str]:
    """Residual falls by exactly the round's spend, every round."""
    prev = node_count * initial_j
    for m in rounds:
        if abs((prev - m.total_residual_j) - m.spent_j) > 1e-9:
            return [f"round {m.round_index}: residual fell by {prev - m.total_residual_j!r}, "
                    f"spent_j {m.spent_j!r}"]
        prev = m.total_residual_j
    return []


def objective(counts: list[int], thresholds: tuple[int, ...], a1: float, a2: float) -> float:
    """The composite threshold objective, written out from its definition."""
    total = sum(counts)
    k = len(thresholds) + 1
    mean = sum(i * c for i, c in enumerate(counts)) / total
    var = sum(c * (i - mean) ** 2 for i, c in enumerate(counts)) / total
    f1 = f2 = 0.0
    for a, b in itertools.pairwise((0, *thresholds, len(counts))):
        n = sum(counts[a:b])
        if n:
            u = sum(i * counts[i] for i in range(a, b)) / n
            f1 += n / total * (u - mean) ** 2
        f2 += (n - total / k) ** 2
    f1_norm = f1 / var if var > 0 else 0.0
    return a1 * f1_norm + a2 / (1.0 + f2 / total)


def plain_enumeration(counts: list[int], k: int, a1: float, a2: float):
    """Best threshold set by plain enumeration; first maximiser in lexicographic order."""
    best_t, best_v = None, -math.inf
    for t in itertools.combinations(range(1, len(counts)), k - 1):
        v = objective(counts, t, a1, a2)
        if v > best_v:
            best_t, best_v = t, v
    return best_t, best_v


def valid_thresholds(t: tuple[int, ...], k: int, bins: int) -> bool:
    return (len(t) == k - 1 and all(1 <= v <= bins - 1 for v in t)
            and all(a < b for a, b in itertools.pairwise(t)))


def forced_round_energy(xs, ys, radio, k: int, d_ch: float) -> float:
    """One round with k equal sectors, each head placed on its bisector at d_ch."""
    bits = radio.packet_bits
    costs = []
    sizes = [0] * k
    for x, y in zip(xs, ys):
        angle = math.atan2(y, x) % (2.0 * math.pi)
        s = min(int(angle * k / (2.0 * math.pi)), k - 1)
        sizes[s] += 1
        phi = (s + 0.5) * 2.0 * math.pi / k
        costs.append(tx_energy(radio, bits, math.hypot(x - d_ch * math.cos(phi),
                                                       y - d_ch * math.sin(phi))))
    for m in sizes:
        if m:
            costs += [(m - 1) * bits * radio.e_elec, m * bits * radio.e_da,
                      tx_energy(radio, bits, d_ch)]
    return math.fsum(costs)
