"""Shared domain types: dataset container, map graph, schedules, node tables."""

from __future__ import annotations

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
        """Reject data that is not non-negative integral, or that holds no
        count at all (multinomial mode)."""
        v = self.values
        if np.any(v < 0) or np.any(v != np.floor(v)):
            raise DataError("multinomial family requires non-negative integer counts")
        if not np.any(v):
            raise DataError("multinomial family needs some counts; every row is all zero")


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

    def has_edge(self, m: int, l: int) -> bool:
        return l in self._nodes.get(m, ())

    def __len__(self) -> int:
        return len(self._nodes)

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


def schedule_alphas(s: Schedule) -> np.ndarray:
    """Learning rate at every step tau = 1..tau_max: linear decay from
    alpha0 (tau=1) to alpha1."""
    if s.tau_max == 1:
        return np.full(1, s.alpha0)
    tau = np.arange(1, s.tau_max + 1)
    return s.alpha0 - (s.alpha0 - s.alpha1) * (tau - 1) / (s.tau_max - 1)


def schedule_radii(s: Schedule) -> np.ndarray:
    """Neighborhood radius at every step tau = 1..tau_max: r1 - 2*r1*tau/tau_max,
    clamped to 0.5 below 1 (the winner alone updates in the hard phase)."""
    r = s.r1 - 2.0 * s.r1 * np.arange(1, s.tau_max + 1) / s.tau_max
    return np.where(r >= 1, r, 0.5)


class NodeTable:
    """A map's nodes: the live ids in ascending order and, per parameter
    named in ``FIELDS``, one array stacking every node's value, row k for
    ``ids[k]``. Each family's subclass maps a single-node value
    (``GaussParams``, ``MultinomParams``) to a row (``row``) and back
    (``node``); a fit holds single-node values only at its edges."""

    FIELDS: tuple[str, ...] = ()

    def __init__(self, ids, *arrays):
        self.ids = list(ids)
        for name, a in zip(self.FIELDS, arrays, strict=True):
            setattr(self, name, a)

    @classmethod
    def of(cls, params: dict):
        """The table of single-node values keyed by id."""
        if not params:
            raise ValueError("empty node table")
        ids = sorted(params)
        columns = zip(*(cls.row(params[m]) for m in ids))
        return cls(ids, *(np.array(c) for c in columns))

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows: list, fits=()):
        """A table of this one's ``rows``, in order, where the j-th is
        replaced by the one row of ``fits[j]`` if that is a table (not None)."""
        out = type(self)([self.ids[k] for k in rows], *(getattr(self, f)[rows] for f in self.FIELDS))
        for j, fit in enumerate(fits):
            if fit is not None:
                for f in self.FIELDS:
                    getattr(out, f)[j] = getattr(fit, f)[0]
        return out

    def nodes(self) -> dict:
        """Single-node values keyed by id."""
        return {m: self.node(k) for k, m in enumerate(self.ids)}


@dataclass(frozen=True)
class Assignment:
    """Per-sample winning node id."""

    m: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    def __post_init__(self):
        object.__setattr__(self, "m", np.asarray(self.m, dtype=int))

    def groups(self, ids) -> list[np.ndarray]:
        """For each node id in ``ids``, the ascending indices of the samples
        assigned to it, from one stable sort of the assignment."""
        m = self.m
        # numpy radix-sorts 8- and 16-bit keys, several times faster here
        keys = m.astype(np.min_scalar_type(m.max())) if m.size and m.min() >= 0 else m
        order = np.argsort(keys, kind="stable")
        ranked = m[order]
        lo = np.searchsorted(ranked, ids, side="left")
        hi = np.searchsorted(ranked, ids, side="right")
        return [order[a:b] for a, b in zip(lo.tolist(), hi.tolist())]
