"""Map-structure updates: KL-based link cutting, the classification MDL
score, and the node-deletion procedure with clique edge restoration.

Link cutting and node deletion read the cycle's log-likelihood matrix
(``mlsom.loglik_matrix``: row k holds the k-th smallest live id) rather
than rescoring every sample.

Node deletion scores its candidates in two stages. The first estimates the
MDL of deleting every node at once: each sample's destination if its node
goes is one argmax over the matrix, and from each node's and each
(candidate, receiver) pair's sufficient statistics the family gives the
neg-loglik of their batch fits in closed form, in one call
(``batch_parts``). Parts the closed form cannot be trusted with, such as a
Gaussian node with at most p+1 members, are fitted exactly, all in one
grouped refit. The second stage rescores exactly only the candidates whose
estimate is within ``SHORTLIST_RTOL`` (relative) of the best estimate or of
the current MDL, from one more grouped refit of every survivor they need,
and adopts among them by the same rule as a full search. A grouped refit
(``family.refit``) takes a list of (table row, ascending sample rows) groups
and returns their batch refits as one table, with each group's
log-likelihood. The exact scores are bitwise the ones ``mdl_score`` would
report for the candidate maps, so the adopted map, its score and ties
resolve as with an exact score for every candidate, provided each estimate
is within the tolerance of its exact score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernel import column_winners
from .core import Assignment, Dataset, MapGraph, NodeTable
from .mlsom import node_table

_H_FLOOR = 1e-12
# A deletion candidate is scored exactly when its estimate is within this
# share of the reference (the best estimate or the current MDL) above it.
SHORTLIST_RTOL = 1e-9


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
    table: NodeTable,
    beta: float,
    family,
    ll: np.ndarray,
) -> set[tuple[int, int]]:
    """Remove every edge whose weakness exceeds beta times the worst per-node
    average log-likelihood; returns the removed edges.

    ``ll`` is ``loglik_matrix(data, table, family)``. beta = inf is a
    never-cut sentinel. Edges incident to an empty node are always cut: an
    unsupported node carries no neighborhood evidence.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")

    ids = table.ids
    members = dict(zip(ids, assignment.groups(ids)))

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


def mdl_score(data: Dataset, assignment: Assignment, params, family, ll: np.ndarray | None = None) -> MdlScore:
    """Classification MDL of ``params`` (see ``mlsom.node_table``): data code
    length + parameter code length + assignment index code length, natural
    log throughout.

    ``ll``, when given, is ``loglik_matrix(data, params, family)``; a family
    whose matrix slices are bitwise its members' rows reads them from it."""
    table = node_table(params, family)
    neg = 0.0
    for k, idx in enumerate(assignment.groups(table.ids)):
        if idx.size:
            row = None if ll is None else ll[k]
            neg -= float(family.loglik_members(data.values, idx, table, k, row).sum())
    return _mdl(neg, len(table), data, family)


@dataclass
class DeletionResult:
    graph: MapGraph
    params: NodeTable
    assignment: Assignment
    score: MdlScore  # MDL of the adopted map
    previous: MdlScore  # MDL of the map before the deletion attempt
    deleted: int | None


def _destinations(ll: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Per sample, the row it moves to when its own row ``own`` is deleted:
    the first maximum of its column of ``ll`` over the other rows, as
    ``np.argmax`` over the column with that row removed gives it."""
    return column_winners(ll, own)


class _DeletionSearch:
    """Both scoring stages of one ``try_delete_node`` call.

    Candidates are addressed by row (position in ascending id order). Each
    sample has its own row and its destination row if its own node goes;
    the (candidate, receiver) pairs that occur group the moved samples.
    Every batch refit is keyed (c, r): survivor r refitted on its members
    once candidate c is deleted, and (r, r) on its current members.
    """

    def __init__(self, data: Dataset, assignment: Assignment, table: NodeTable, family, ll: np.ndarray):
        self.ids = table.ids
        self.M = M = len(self.ids)
        self.id_of = np.asarray(self.ids)
        self.X = data.values
        self.data, self.assignment, self.table, self.family = data, assignment, table, family
        self.groups = assignment.groups(self.ids)  # row -> its ascending sample rows
        sizes = [len(idx) for idx in self.groups]
        if sum(sizes) != len(assignment.m):
            raise ValueError("assignment names a node that has no parameters")
        own = np.empty(len(assignment.m), dtype=np.int64)
        own[np.concatenate(self.groups)] = np.repeat(np.arange(M), sizes)
        self.own, self.to = own, _destinations(ll, own)
        key = own * M + self.to
        pair_keys = np.flatnonzero(np.bincount(key, minlength=M * M))
        self.cand, self.recv = np.divmod(pair_keys, M)  # pair j moves rows of cand[j] to recv[j]
        lookup = np.empty(M * M, dtype=np.int64)
        lookup[pair_keys] = np.arange(len(pair_keys))
        self.pair_of = lookup[key]
        self.refits = None  # every refit so far, one row each
        self.fits = {}  # (c, r) -> (its row in refits, its part)

    def members(self, c: int, r: int) -> np.ndarray:
        """Ascending sample rows of survivor r once candidate c is deleted;
        c == r gives r's current members."""
        if c == r:
            return self.groups[r]
        return np.flatnonzero((self.own == r) | ((self.own == c) & (self.to == r)))

    def refit(self, keys: list):
        """Batch-refit every (c, r) of ``keys`` not yet fitted in one grouped
        ``family.refit`` call. A survivor left with no samples, or none a
        batch fit can learn from (all-zero counts), keeps its row and is
        scored under it; with no samples its part is 0.0, which leaves a
        running total bitwise unchanged."""
        keys = [key for key in dict.fromkeys(keys) if key not in self.fits]
        if not keys:
            return
        table, parts = self.family.refit(self.X, self.table, [(r, self.members(c, r)) for c, r in keys])
        first = 0 if self.refits is None else len(self.refits)
        self.refits = table if self.refits is None else self.refits.concat(table)
        for j, key in enumerate(keys):
            self.fits[key] = (first + j, float(parts[j]))

    def estimates(self) -> np.ndarray:
        """Estimated MDL total of deleting each candidate, by row.

        Parts come from the family's closed form (``batch_parts``), and
        from exact refits, all in one grouped call, where it returns NaN. A
        node's own part is refitted only if some candidate leaves the node
        unchanged, so every refit is one a full search would make too, and
        is kept for the exact stage.
        """
        M, family = self.M, self.family
        node_neg, pair_neg = family.batch_parts(self.X, self.pair_of, self.cand, self.recv, M)

        unchanged = (M - 1) - np.bincount(self.recv, minlength=M)  # candidates that leave each node as it is
        nodes = np.flatnonzero(np.isnan(node_neg)).tolist()
        pairs = [(j, (int(self.cand[j]), int(self.recv[j]))) for j in np.flatnonzero(np.isnan(pair_neg)).tolist()]
        self.refit([(k, k) for k in nodes if unchanged[k]] + [key for _, key in pairs])
        for k in nodes:
            # a node that receives rows under every other candidate cancels out of every sum
            node_neg[k] = -self.fits[k, k][1] if unchanged[k] else 0.0
        for j, key in pairs:
            pair_neg[j] = -self.fits[key][1]

        # candidate c: every node's part less its own, each receiver's part
        # swapped for its part on its new members
        change = np.bincount(self.cand, pair_neg - node_neg[self.recv], M)
        rest = _mdl(0.0, M - 1, self.data, family)
        return node_neg.sum() - node_neg + change + (rest.complexity + rest.indexing)

    def survivors(self, c: int) -> list:
        """The refit of each survivor of deleting candidate row c, in
        ascending row order: receivers on their new members, every other
        survivor on its current members."""
        receivers = set(self.to[self.groups[c]].tolist())
        return [(c, k) if k in receivers else (k, k) for k in range(self.M) if k != c]

    def exact(self, candidates: list) -> list:
        """The MDL of deleting each candidate row, bitwise as ``mdl_score``
        gives it for the refitted map, from one grouped refit of whatever
        the candidates need that the estimates have not fitted."""
        keys = [self.survivors(c) for c in candidates]
        self.refit([key for survivors in keys for key in survivors])
        scores = []
        for survivors in keys:
            neg = 0.0
            for key in survivors:
                neg -= self.fits[key][1]
            scores.append(_mdl(neg, self.M - 1, self.data, self.family))
        return scores

    def deleted(self, c: int):
        """The node table and assignment ids of the map with candidate row c
        deleted; needs ``exact`` to have scored c."""
        moved = self.groups[c]
        new_m = self.assignment.m.copy()
        new_m[moved] = self.id_of[self.to[moved]]
        return self.refits.take([self.fits[key][0] for key in self.survivors(c)]), new_m


def try_delete_node(
    data: Dataset,
    graph: MapGraph,
    assignment: Assignment,
    table: NodeTable,
    family,
    ll: np.ndarray,
) -> DeletionResult:
    """Evaluate removing each node in turn and adopt the best candidate iff it
    strictly improves the MDL total; the first strict minimum wins a tie.

    ``ll`` is ``loglik_matrix(data, table, family)``. For a candidate
    deletion, the deleted node's samples are reclassified by maximum
    likelihood among the survivors, every survivor is re-estimated by the
    batch method-of-moments fit on its updated sample set (a survivor left
    with no samples, or none a batch fit can learn from, keeps its previous
    parameters), and the resulting map is scored. On adoption the deleted
    node's former neighbors are wired into a clique so no node is left
    isolated.

    Scoring runs in two stages (see the module docstring). Every candidate's
    total is first estimated from sufficient statistics. Only candidates
    whose estimate is at most ``ref + SHORTLIST_RTOL * |ref|``, where ref is
    the smaller of the best estimate and the current MDL, are then scored
    exactly, in id order: the *receivers*, the survivors that win some of
    the deleted node's samples, are refitted and rescored on their new
    member set in ascending sample order, every other survivor reuses a
    per-call fit on its current members, and the parts are summed in
    ascending id order, as ``mdl_score`` sums them. An empty shortlist means
    no candidate can beat the current map, and nothing is refitted.
    """
    current = mdl_score(data, assignment, table, family, ll)
    if len(table) < 2:
        return DeletionResult(graph, table, assignment, current, current, None)

    search = _DeletionSearch(data, assignment, table, family, ll)
    est = search.estimates()
    ref = min(float(est.min()), current.total)
    shortlist = np.flatnonzero(est <= ref + SHORTLIST_RTOL * abs(ref)).tolist()
    best = None  # (score, candidate row)
    for c, score in zip(shortlist, search.exact(shortlist)):
        if best is None or score.total < best[0].total:
            best = (score, c)

    if best is None or best[0].total >= current.total:
        return DeletionResult(graph, table, assignment, current, current, None)

    score, c = best
    cand_table, new_m = search.deleted(c)
    m = search.ids[c]
    new_graph = graph.copy()
    former = new_graph.remove_node(m)
    for i, a in enumerate(former):
        for b in former[i + 1 :]:
            if not new_graph.has_edge(a, b):
                new_graph.add_edge(a, b)
    return DeletionResult(new_graph, cand_table, Assignment(new_m), score, current, m)
