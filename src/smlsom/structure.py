"""Map-structure updates: KL-based link cutting, the classification MDL
score, and the node-deletion procedure with clique edge restoration.

Link cutting and node deletion read the cycle's log-likelihood matrix
(``mlsom.loglik_matrix``: row k holds the k-th smallest live id) rather
than rescoring every sample. Node deletion scores each candidate by
refitting only the survivors that receive the deleted node's samples; every
other survivor keeps the same members for every candidate, so its batch fit
and its share of the negative log-likelihood are computed once per call and
reused. The reused values are the very floats a full refit would give, and
they are summed in the same order, so each candidate's MDL is bitwise the
one ``mdl_score`` would report for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Assignment, Dataset, MapGraph
from .mlsom import ml_winners

_H_FLOOR = 1e-12


@dataclass(frozen=True)
class MdlScore:
    """Classification MDL split into its three code-length components."""

    neg_loglik: float
    complexity: float
    indexing: float

    @property
    def total(self) -> float:
        return self.neg_loglik + self.complexity + self.indexing


def kl_estimate(ll_own: np.ndarray, ll_other: np.ndarray) -> float:
    """Plug-in estimate of the KL divergence D(f_m || f_l): the mean, over
    node m's member samples, of their log-likelihood under m (``ll_own``)
    minus that under l (``ll_other``)."""
    return float(np.mean(ll_own - ll_other))


def cut_weak_links(
    graph: MapGraph,
    data: Dataset,
    assignment: Assignment,
    params: dict,
    beta: float,
    family,
    ll: np.ndarray,
) -> set[tuple[int, int]]:
    """Remove every edge whose weakness exceeds beta times the worst per-node
    average log-likelihood; returns the removed edges.

    ``ll`` is ``loglik_matrix(data, params, family)``. beta = inf is a
    never-cut sentinel. Edges incident to an empty node are always cut: an
    unsupported node carries no neighborhood evidence.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")

    ids = sorted(params)
    members = {m: assignment.members(m) for m in ids}

    removed = set()
    for m, l in sorted(graph.edges):
        if members[m].size == 0 or members[l].size == 0:
            removed.add((m, l))
    if math.isinf(beta):
        for m, l in removed:
            graph.remove_edge(m, l)
        return removed

    row = dict(zip(ids, ll))
    avg_ll = {m: float(row[m][members[m]].mean()) for m in ids if members[m].size > 0}
    if avg_ll:
        h = max(max(-v for v in avg_ll.values()), _H_FLOOR)
        for m, l in sorted(graph.edges):
            if (m, l) in removed:
                continue
            d_ml = kl_estimate(row[m][members[m]], row[l][members[m]])
            d_lm = kl_estimate(row[l][members[l]], row[m][members[l]])
            if 0.5 * d_ml + 0.5 * d_lm > beta * h:
                removed.add((m, l))
    for m, l in removed:
        graph.remove_edge(m, l)
    return removed


def _mdl(neg_loglik: float, M: int, data: Dataset, family) -> MdlScore:
    """Add the parameter and index code lengths of an M-node map."""
    complexity = 0.5 * M * family.df(data.p) * math.log(data.n)
    indexing = data.n * math.log(M)
    return MdlScore(neg_loglik, complexity, indexing)


def mdl_score(data: Dataset, assignment: Assignment, params: dict, family) -> MdlScore:
    """Classification MDL: data code length + parameter code length +
    assignment index code length, natural log throughout."""
    ids = sorted(params)
    neg = 0.0
    for m in ids:
        idx = assignment.members(m)
        if idx.size:
            neg -= float(family.loglik_rows(data.values[idx], params[m]).sum())
    return _mdl(neg, len(ids), data, family)


@dataclass
class DeletionResult:
    graph: MapGraph
    params: dict
    assignment: Assignment
    score: MdlScore  # MDL of the adopted map
    previous: MdlScore  # MDL of the map before the deletion attempt
    deleted: int | None


def try_delete_node(
    data: Dataset,
    graph: MapGraph,
    assignment: Assignment,
    params: dict,
    family,
    ll: np.ndarray,
) -> DeletionResult:
    """Evaluate removing each node in turn and adopt the best candidate iff it
    strictly improves the MDL total; the first strict minimum wins a tie.

    ``ll`` is ``loglik_matrix(data, params, family)``. For a candidate
    deletion, the deleted node's samples are reclassified by maximum
    likelihood among the survivors, every survivor is re-estimated by the
    batch method-of-moments fit on its updated sample set (a survivor left
    with no samples, or none a batch fit can learn from, keeps its previous
    parameters), and the resulting map is scored. On adoption the deleted
    node's former neighbors are wired into a clique so no node is left
    isolated.

    Only the *receivers*, the survivors that win some of the deleted node's
    samples, change from one candidate to the next. They are refitted and
    rescored on their new member set in ascending sample order, the order
    ``mdl_score`` uses. Every other survivor reuses a per-call cache of its
    batch fit and negative log-likelihood on its current members. The parts
    are summed in ascending id order, as ``mdl_score`` sums them, so each
    candidate's score is bitwise the one a full refit and ``mdl_score``
    would give.
    """
    current = mdl_score(data, assignment, params, family)
    ids = sorted(params)
    if len(ids) < 2:
        return DeletionResult(graph, params, assignment, current, current, None)

    X = data.values
    usable = family.usable_rows(X)

    def fit(l, idx):
        """Batch fit of node l on rows idx and their neg-loglik part (with
        no rows the node keeps its parameters and adds 0.0, which leaves the
        running total bitwise unchanged, as skipping it does). Rows a batch
        fit cannot learn from, such as all-zero counts, also leave the
        parameters as they are; their part is still scored under them."""
        if not idx.size:
            return params[l], 0.0
        rows = X[idx]
        theta = family.batch(rows) if usable[idx].any() else params[l]
        return theta, float(family.loglik_rows(rows, theta).sum())

    members = {l: assignment.members(l) for l in ids}
    # survivor id -> fit on its current members; filled on first use, so a
    # node that receives samples under every candidate is never fitted alone
    cached = {}
    best = None  # (total, candidate id, params, assignment ids, score)
    for pos, m in enumerate(ids):
        moved = members[m]
        new_m = assignment.m.copy()
        new_m[moved] = ml_winners(np.delete(ll[:, moved], pos, axis=0), np.delete(ids, pos))
        receivers = set(new_m[moved].tolist())
        cand_params = {}
        neg = 0.0
        for l in ids:
            if l == m:
                continue
            if l in receivers:
                theta, part = fit(l, np.flatnonzero(new_m == l))
            else:
                if l not in cached:
                    cached[l] = fit(l, members[l])
                theta, part = cached[l]
            cand_params[l] = theta
            neg -= part
        score = _mdl(neg, len(cand_params), data, family)
        if best is None or score.total < best[0]:
            best = (score.total, m, cand_params, new_m, score)

    if best[0] >= current.total:
        return DeletionResult(graph, params, assignment, current, current, None)

    _, m, cand_params, new_m, score = best
    new_graph = graph.copy()
    former = new_graph.remove_node(m)
    for i, a in enumerate(former):
        for b in former[i + 1 :]:
            if not new_graph.has_edge(a, b):
                new_graph.add_edge(a, b)
    return DeletionResult(new_graph, cand_params, Assignment(new_m), score, current, m)
