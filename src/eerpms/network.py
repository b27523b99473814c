"""Core network data types shared across clustering, selection and simulation."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple


class Protocol(enum.Enum):
    EERPMS = "EERPMS"
    RLEACH = "RLEACH"
    CRPFCM = "CRPFCM"

    def __str__(self) -> str:  # friendly in CLI output and file names
        return self.value


class Node(NamedTuple):
    """One sensor's fixed position (sink at the origin). Its energy, liveness
    and cluster live in the arrays of the `Simulation` that deployed it."""

    id: int
    x: float
    y: float
    distance_to_bs: float
    angle: float                     # radians in [0, 2*pi)


@dataclass
class Cluster:
    member_ids: list[int] = field(default_factory=list)
    head_id: int | None = None


@dataclass
class ClusterAssignment:
    """Partition of the alive nodes into clusters, one optional head each."""

    clusters: list[Cluster]
    round_created: int = 0
