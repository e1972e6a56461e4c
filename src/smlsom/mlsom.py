"""Maximum-likelihood SOM training: winner search, neighborhood co-update,
and maximum-likelihood classification.

Node parameters live in a plain dict keyed by live node id (the
NodeParamsTable); all functions here are generic over the model family.
"""

from __future__ import annotations

import numpy as np

from .core import Assignment, Dataset, MapGraph, Schedule, schedule_alpha, schedule_radius


def find_winner(x: np.ndarray, params: dict, family) -> int:
    """Live node with the highest log-likelihood; ties go to the smallest id."""
    if not params:
        raise ValueError("empty node table")
    ids = sorted(params)
    ll = [family.loglik(x, params[m]) for m in ids]
    return ids[int(np.argmax(ll))]


def classify(data: Dataset, params: dict, family) -> Assignment:
    """Assign every sample to its maximum-likelihood node (deterministic)."""
    if not params:
        raise ValueError("empty node table")
    ids = sorted(params)
    ll = np.stack([family.loglik_rows(data.values, params[m]) for m in ids])
    winners = np.argmax(ll, axis=0)  # first max = smallest id
    return Assignment(np.asarray(ids)[winners])


def mlsom_train(
    data: Dataset,
    graph: MapGraph,
    params: dict,
    sched: Schedule,
    rng: np.random.Generator,
    family,
    winner_log: list | None = None,
) -> dict:
    """Run tau_max stochastic steps and return the updated parameter table.

    Each step draws one sample uniformly with replacement, picks the
    maximum-likelihood winner, and co-updates every node within the current
    neighborhood radius (hop distance on the graph) at the current rate.
    """
    ids = sorted(params)
    if set(ids) != set(graph.nodes):
        raise ValueError("params and graph disagree on live nodes")
    X = data.values

    state = family.make_state([params[m] for m in ids])
    index_of = {m: k for k, m in enumerate(ids)}
    hops = graph.all_pairs_hops()
    # per winner, neighbor indices sorted by hop distance for radius lookup
    neigh = {
        m: sorted(((d, index_of[l]) for l, d in hops[m].items()))
        for m in ids
    }

    # one vector draw gives the same stream as tau_max scalar draws
    draws = rng.integers(data.n, size=sched.tau_max)
    taus = range(1, sched.tau_max + 1)
    alphas = [schedule_alpha(sched, tau) for tau in taus]
    radii = [schedule_radius(sched, tau) for tau in taus]
    for i, alpha, radius in zip(draws, alphas, radii):
        x = X[i]
        c = ids[int(state.loglik_all(x).argmax())]
        if winner_log is not None:
            winner_log.append(c)
        for d, k in neigh[c]:
            if d > radius:
                break
            state.update(k, x, alpha)

    out = state.export()
    return {m: out[index_of[m]] for m in ids}
