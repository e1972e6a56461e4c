"""Shared domain types: dataset container, map graph, training schedules."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class Dataset:
    """An n x p matrix of observations with optional ground-truth labels.

    Count data (multinomial family) is stored as floats but validated to be
    non-negative integers via :meth:`validate_counts`.
    """

    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DataError("dataset must be a 2-d matrix")
        if not np.all(np.isfinite(values)):
            raise DataError("dataset contains non-finite entries")
        n, p = values.shape
        if n < 2:
            raise DataError(f"need at least 2 samples, got {n}")
        if p < 1:
            raise DataError("need at least 1 dimension")
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (n,):
                raise DataError("labels length does not match sample count")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def validate_counts(self):
        """Reject data that is not non-negative integral (multinomial mode)."""
        v = self.values
        if np.any(v < 0) or np.any(v != np.floor(v)):
            raise DataError("multinomial family requires non-negative integer counts")


class MapGraph:
    """Undirected graph of live node ids.

    Node ids are stable: once a node is deleted its id is never reused, so
    assignments and traces stay unambiguous across structure updates.
    """

    def __init__(self, nodes=(), edges=()):
        self._nodes: dict[int, set[int]] = {}
        for m in nodes:
            self.add_node(int(m))
        for m, l in edges:
            self.add_edge(int(m), int(l))

    # -- construction / mutation ------------------------------------------

    def add_node(self, m: int):
        if m in self._nodes:
            raise ValueError(f"duplicate node id {m}")
        self._nodes[m] = set()

    def add_edge(self, m: int, l: int):
        if m == l:
            raise ValueError("self-loops are not allowed")
        if m not in self._nodes or l not in self._nodes:
            raise ValueError("edge endpoint is not a live node")
        self._nodes[m].add(l)
        self._nodes[l].add(m)

    def remove_edge(self, m: int, l: int):
        self._nodes[m].discard(l)
        self._nodes[l].discard(m)

    def remove_node(self, m: int) -> list[int]:
        """Delete a node and its incident edges; returns its former neighbors."""
        former = sorted(self._nodes.pop(m))
        for l in former:
            self._nodes[l].discard(m)
        return former

    def copy(self) -> "MapGraph":
        g = MapGraph()
        g._nodes = {m: set(nb) for m, nb in self._nodes.items()}
        return g

    # -- queries -----------------------------------------------------------

    @property
    def nodes(self) -> list[int]:
        return sorted(self._nodes)

    @property
    def edges(self) -> set[tuple[int, int]]:
        return {
            (m, l) if m < l else (l, m)
            for m, nbrs in self._nodes.items()
            for l in nbrs
        }

    def has_node(self, m: int) -> bool:
        return m in self._nodes

    def has_edge(self, m: int, l: int) -> bool:
        return l in self._nodes.get(m, ())

    def neighbors(self, m: int) -> list[int]:
        return sorted(self._nodes[m])

    def degree(self, m: int) -> int:
        return len(self._nodes[m])

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MapGraph):
            return NotImplemented
        return self._nodes == other._nodes

    def hops_from(self, c: int) -> dict[int, int]:
        """BFS hop distances from node c; unreachable nodes are absent."""
        dist = {c: 0}
        queue = deque([c])
        while queue:
            u = queue.popleft()
            for v in self._nodes[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def all_pairs_hops(self) -> dict[int, dict[int, int]]:
        return {c: self.hops_from(c) for c in self._nodes}


def lattice_graph(rows: int, cols: int, kind: str = "rectangular") -> MapGraph:
    """Build a rows x cols lattice with 4- (rectangular) or 6- (hexagonal)
    neighborhood wiring.

    Hexagonal wiring uses even-row offset coordinates: even-index rows are
    shifted right, giving interior nodes six neighbors.
    """
    if rows < 1 or cols < 1:
        raise ValueError("lattice dimensions must be >= 1")
    if rows * cols < 2:
        raise ValueError("lattice needs at least 2 nodes")
    if kind not in ("rectangular", "hexagonal"):
        raise ValueError(f"unknown lattice kind {kind!r}")

    def nid(r, c):
        return r * cols + c

    g = MapGraph(nodes=range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                g.add_edge(nid(r, c), nid(r, c + 1))
            if r + 1 < rows:
                g.add_edge(nid(r, c), nid(r + 1, c))
                if kind == "hexagonal":
                    # even rows shifted right: diagonal partner is c+1 going
                    # down from an even row, c-1 going down from an odd row
                    cc = c + 1 if r % 2 == 0 else c - 1
                    if 0 <= cc < cols:
                        g.add_edge(nid(r, c), nid(r + 1, cc))
    return g


def hop_distance(g: MapGraph, c: int, m: int) -> float:
    """Shortest-path length in edges; math.inf when unreachable."""
    if not (g.has_node(c) and g.has_node(m)):
        raise ValueError("hop_distance endpoints must be live nodes")
    return g.hops_from(c).get(m, math.inf)


def neighborhood_indicator(d: float, r: float) -> int:
    """1 when within radius (boundary inclusive), else 0; unreachable -> 0."""
    return 1 if d <= r else 0


@dataclass(frozen=True)
class Schedule:
    """Linear decay schedules for the learning rate and neighborhood radius."""

    alpha0: float = 0.05
    alpha1: float = 0.01
    r1: float = 1.0
    tau_max: int = 1

    def __post_init__(self):
        if not (0 < self.alpha1 <= self.alpha0 < 1):
            raise ValueError("need 0 < alpha1 <= alpha0 < 1")
        if self.r1 <= 0:
            raise ValueError("r1 must be positive")
        if self.tau_max < 1:
            raise ValueError("tau_max must be >= 1")

    def _check_tau(self, tau: int):
        if not 1 <= tau <= self.tau_max:
            raise ValueError(f"tau={tau} outside [1, {self.tau_max}]")


def schedule_alpha(s: Schedule, tau: int) -> float:
    """Learning rate linearly decaying from alpha0 (tau=1) to alpha1."""
    s._check_tau(tau)
    if s.tau_max == 1:
        return s.alpha0
    return s.alpha0 - (s.alpha0 - s.alpha1) * (tau - 1) / (s.tau_max - 1)


def schedule_radius(s: Schedule, tau: int) -> float:
    """Neighborhood radius r1 - 2*r1*tau/tau_max, clamped to 0.5 below 1
    (the winner alone updates in the hard phase)."""
    s._check_tau(tau)
    r2 = -s.r1
    r = s.r1 - (s.r1 - r2) * tau / s.tau_max
    return r if r >= 1 else 0.5


@dataclass(frozen=True)
class Assignment:
    """Per-sample winning node id."""

    m: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    def __post_init__(self):
        object.__setattr__(self, "m", np.asarray(self.m, dtype=int))

    def members(self, node: int) -> np.ndarray:
        """Sample indices currently assigned to a node."""
        return np.flatnonzero(self.m == node)
