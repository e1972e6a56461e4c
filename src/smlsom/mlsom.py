"""Maximum-likelihood SOM training: winner search, neighborhood co-update,
and maximum-likelihood classification.

Node parameters live in the family's node table (``core.NodeTable``): the
live ids in ascending order and stacked arrays, row k for the k-th smallest
id. All functions here are generic over the model family.
"""

from __future__ import annotations

import numpy as np

from ._kernel import NeighborTable
from .core import Assignment, Dataset, MapGraph, Schedule, schedule_alphas, schedule_radii


def node_table(params, family):
    """``params`` as a node table: a table as it is, or single-node values
    keyed by id stacked into the family's table."""
    return family.table.of(params) if isinstance(params, dict) else params


def loglik_matrix(data: Dataset, params, family) -> np.ndarray:
    """M x n matrix of every sample's log-likelihood under every node of
    ``params`` (see ``node_table``), row k for the k-th smallest live id.

    The matrix is valid until the parameters change, that is for one cycle's
    classification, link cutting and deletion scoring, all of which read it
    instead of rescoring."""
    return family.loglik_matrix(data.values, node_table(params, family))


def ml_winners(ll: np.ndarray, ids) -> np.ndarray:
    """Per column of ``ll`` (rows in ``ids`` order), the id of the row with
    the highest log-likelihood; ties go to the earlier row."""
    return np.asarray(ids)[np.argmax(ll, axis=0)]


def classify(data: Dataset, params, family) -> Assignment:
    """Assign every sample to its maximum-likelihood node of ``params`` (see
    ``node_table``), deterministically."""
    table = node_table(params, family)
    return Assignment(ml_winners(family.loglik_matrix(data.values, table), table.ids))


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
    table,
    sched: Schedule,
    rng: np.random.Generator,
    family,
):
    """Run tau_max stochastic steps on the node table in place and return it.

    Each step draws one sample uniformly with replacement, picks the
    maximum-likelihood winner (ties go to the smallest id), and co-updates
    every node within the current neighborhood radius (hop distance on the
    graph) at the current rate. The draws, rates, radii and neighbor table
    are built once here; the family runs all the steps in one ``train`` call
    into the compiled kernel, which needs a C compiler on first use (see
    ``smlsom._kernel``), and the table then ``refresh``es.
    """
    if set(table.ids) != set(graph.nodes):
        raise ValueError("params and graph disagree on live nodes")

    # one vector draw gives the same stream as tau_max scalar draws
    draws = rng.integers(data.n, size=sched.tau_max)
    family.train(table, data.values, draws, schedule_alphas(sched), schedule_radii(sched), neighbor_table(graph, table.ids))
    table.refresh()
    return table
