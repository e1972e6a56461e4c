"""Maximum-likelihood SOM training: winner search, neighborhood co-update,
and maximum-likelihood classification.

Node parameters live in a plain dict keyed by live node id (the
NodeParamsTable); all functions here are generic over the model family.
"""

from __future__ import annotations

import numpy as np

from ._kernel import NeighborTable
from .core import Assignment, Dataset, MapGraph, Schedule, schedule_alphas, schedule_radii


def loglik_matrix(data: Dataset, params: dict, family) -> np.ndarray:
    """M x n matrix of every sample's log-likelihood under every live node.

    Row k belongs to the k-th smallest live id (``sorted(params)[k]``). The
    matrix describes ``params`` as given: it is valid until the parameters
    change, that is for one cycle's classification, link cutting and
    deletion scoring, all of which read it instead of rescoring. The family
    builds it (``loglik_matrix``), each row bitwise its node's
    ``gauss_loglik_rows`` or ``multinom_loglik_rows``, sharing what the rows
    have in common.
    """
    if not params:
        raise ValueError("empty node table")
    return family.loglik_matrix(data.values, [params[m] for m in sorted(params)])


def ml_winners(ll: np.ndarray, ids) -> np.ndarray:
    """Per column of ``ll`` (rows in ``ids`` order), the id of the row with
    the highest log-likelihood; ties go to the earlier row."""
    return np.asarray(ids)[np.argmax(ll, axis=0)]


def classify(data: Dataset, params: dict, family) -> Assignment:
    """Assign every sample to its maximum-likelihood node (deterministic)."""
    return Assignment(ml_winners(loglik_matrix(data, params, family), sorted(params)))


def neighbor_table(graph: MapGraph, ids: list) -> NeighborTable:
    index_of = {m: k for k, m in enumerate(ids)}
    hops = graph.all_pairs_hops()
    rows = [sorted((d, index_of[l]) for l, d in hops[m].items()) for m in ids]
    links = np.array([link for row in rows for link in row], dtype=np.int64).reshape(-1, 2)
    ptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=ptr[1:])
    return NeighborTable(ptr, np.ascontiguousarray(links[:, 1]), np.ascontiguousarray(links[:, 0]))


def mlsom_train(
    data: Dataset,
    graph: MapGraph,
    params: dict,
    sched: Schedule,
    rng: np.random.Generator,
    family,
) -> dict:
    """Run tau_max stochastic steps and return the updated parameter table.

    Each step draws one sample uniformly with replacement, picks the
    maximum-likelihood winner (ties go to the smallest id), and co-updates
    every node within the current neighborhood radius (hop distance on the
    graph) at the current rate. The draws, rates, radii and neighbor table
    are built once here; the family's training state (``make_state``) runs
    all the steps in one ``run`` call into the compiled kernel, which needs
    a C compiler on first use (see ``smlsom._kernel``).
    """
    ids = sorted(params)
    if set(ids) != set(graph.nodes):
        raise ValueError("params and graph disagree on live nodes")

    state = family.make_state([params[m] for m in ids])
    # one vector draw gives the same stream as tau_max scalar draws
    draws = rng.integers(data.n, size=sched.tau_max)
    state.run(data.values, draws, schedule_alphas(sched), schedule_radii(sched), neighbor_table(graph, ids))
    return dict(zip(ids, state.export()))
