"""The complete shrinking fit loop plus map initialization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Assignment, Dataset, MapGraph, Schedule, lattice_graph
from .errors import DataError
from .gaussian import GaussianFamily, GaussParams
from .mlsom import classify, loglik_matrix, ml_winners, mlsom_train
from .multinomial import MultinomialFamily, MultinomParams
from .structure import MdlScore, cut_weak_links, mdl_score, try_delete_node

FAMILIES = {"gaussian": GaussianFamily, "multinomial": MultinomialFamily}


def default_radius(rows: int, cols: int) -> float:
    """Initial neighborhood radius: 2/3 of the larger map side."""
    return max(rows, cols) * 2.0 / 3.0


@dataclass(frozen=True)
class FitConfig:
    family: str = "gaussian"
    rows: int = 3
    cols: int = 3
    lattice: str = "hexagonal"
    beta: float = 15.0
    alpha0: float = 0.05
    alpha1: float = 0.01
    r1: float | None = None  # None -> default_radius(rows, cols)
    tau_max: int | None = None  # None -> data size n
    init: str = "pca"
    seed: int = 0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1 or self.rows * self.cols < 2:
            raise ValueError("map needs at least 1 row, 1 column and 2 nodes")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.init not in ("pca", "random"):
            raise ValueError(f"unknown init {self.init!r}")

    def schedule(self, n: int) -> Schedule:
        return Schedule(
            alpha0=self.alpha0,
            alpha1=self.alpha1,
            r1=self.r1 if self.r1 is not None else default_radius(self.rows, self.cols),
            tau_max=self.tau_max if self.tau_max is not None else n,
        )


@dataclass(frozen=True)
class CycleRecord:
    cycle: int
    n_nodes: int
    n_edges: int
    mdl: float  # MDL of the map adopted at the end of the cycle
    mdl_before_delete: float
    edges_cut: int
    node_deleted: int | None


@dataclass
class FitResult:
    graph: MapGraph
    params: dict
    assignment: Assignment
    mdl: MdlScore
    trace: list[CycleRecord]
    config: FitConfig

    @property
    def n_clusters(self) -> int:
        return len(self.graph)


def pca_init(data: Dataset, rows: int, cols: int) -> list[np.ndarray]:
    """Spread initial mean vectors on a grid along the two leading principal
    axes of the data, from -2 to +2 standard deviations each way.

    A single-row or single-column map collapses the corresponding axis; for
    1-d data only the first axis is used.
    """
    X = data.values
    xbar = X.mean(axis=0)
    centered = X - xbar
    cov = centered.T @ centered / data.n
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]

    def coefs(k, steps):
        if steps == 1:
            return 0.0
        return -2.0 + k * 4.0 / (steps - 1)

    axis1 = math.sqrt(eigvals[0]) * eigvecs[:, 0]
    axis2 = (
        math.sqrt(eigvals[1]) * eigvecs[:, 1] if data.p >= 2 else np.zeros(data.p)
    )
    mus = []
    for r in range(rows):
        for c in range(cols):
            mus.append(xbar + coefs(r, rows) * axis1 + coefs(c, cols) * axis2)
    return mus


def init_params(data: Dataset, config: FitConfig, rng: np.random.Generator) -> dict:
    """Initial node parameter table.

    Gaussian: means from the PCA grid (or random data rows), identity
    covariances. Multinomial: uniform random draws on the simplex.
    """
    M = config.rows * config.cols
    if config.family == "gaussian":
        if config.init == "pca":
            mus = pca_init(data, config.rows, config.cols)
        else:
            if data.n < M:
                raise DataError(f"random init draws one sample per node: n={data.n} is fewer than the {M} nodes")
            idx = rng.choice(data.n, size=M, replace=False)
            mus = [data.values[i] for i in idx]
        eye = np.eye(data.p)
        return {m: GaussParams(mus[m], eye) for m in range(M)}
    if data.p < 2:
        raise DataError("multinomial family needs at least 2 categories")
    return {m: MultinomParams(rng.dirichlet(np.ones(data.p))) for m in range(M)}


def smlsom_fit(data: Dataset, config: FitConfig, family=None) -> FitResult:
    """Alternate training, link cutting and node deletion until an outer
    cycle leaves the map structure unchanged."""
    if family is None:
        family = FAMILIES[config.family]()
    family.validate(data)

    rng = np.random.default_rng(config.seed)
    graph = lattice_graph(config.rows, config.cols, config.lattice)
    params = init_params(data, config, rng)
    sched = config.schedule(data.n)

    trace: list[CycleRecord] = []
    max_cycles = (config.rows * config.cols) ** 2
    for cycle in range(1, max_cycles + 1):
        params = mlsom_train(data, graph, params, sched, rng, family)
        ll = loglik_matrix(data, params, family)
        assignment = Assignment(ml_winners(ll, sorted(params)))
        removed = cut_weak_links(graph, data, assignment, params, config.beta, family, ll)
        result = try_delete_node(data, graph, assignment, params, family, ll)
        graph, params, assignment, score = (
            result.graph,
            result.params,
            result.assignment,
            result.score,
        )
        trace.append(
            CycleRecord(
                cycle=cycle,
                n_nodes=len(graph),
                n_edges=len(graph.edges),
                mdl=score.total,
                mdl_before_delete=result.previous.total,
                edges_cut=len(removed),
                node_deleted=result.deleted,
            )
        )
        if not removed and result.deleted is None:
            break  # converged: this cycle's assignment and score describe the final map
    else:
        assignment = classify(data, params, family)
        score = mdl_score(data, assignment, params, family)
    return FitResult(graph, params, assignment, score, trace, config)


def smlsom_fit_restarts(
    data: Dataset, config: FitConfig, restarts: int = 1, jobs: int = 1
) -> FitResult:
    """Run independent seeded fits (seed, seed+1, ...) and keep the best
    final MDL total; ties resolve in seed order."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    configs = [
        FitConfig(**{**config.__dict__, "seed": config.seed + k}) for k in range(restarts)
    ]
    if jobs > 1 and restarts > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the fork start method launches every worker up front
        with ProcessPoolExecutor(max_workers=min(jobs, restarts)) as pool:
            results = list(pool.map(smlsom_fit, [data] * restarts, configs))
    else:
        results = [smlsom_fit(data, c) for c in configs]
    best = results[0]
    for r in results[1:]:
        if r.mdl.total < best.mdl.total:
            best = r
    return best
