"""Golden models: five seeded fits pinned across commits.

The acceptance gate's determinism criterion compares two runs of the same
code. This test compares a fresh fit against fixtures stored under
``tests/golden/``, so a change that moves a fit's result shows up even when
the new code is deterministic. Integers (node ids, edges, the assignment
and each cycle's node count, edge count, cut count and deleted node) must
match exactly; floats (parameters and MDL values) must match to 1e-12
relative, so a rebuilt BLAS that reorders a sum does not fail the test.

A change that alters floating-point results on purpose regenerates the
fixtures and says so in its change log::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from smlsom import Dataset, FitConfig, load_faithful, smlsom_fit

GOLDEN = Path(__file__).parent / "golden"
REL = 1e-12


def _gauss_mixture() -> Dataset:
    """Four well-separated p=2 blobs: a 5x5 map shrinks to a few nodes."""
    rng = np.random.default_rng(20)
    centers = [(-6.0, 0.0), (6.0, 0.0), (0.0, 6.0), (0.0, -6.0)]
    X = np.vstack([rng.normal(loc=c, scale=(1.0, 0.6), size=(100, 2)) for c in centers])
    return Dataset(X)


def _gauss_p5_mixture() -> Dataset:
    """Four p=5 blobs with random full covariances: p = 5 scores rows in a
    triangular-solve block of 4 and one of 1, and sums an odd count of
    squares."""
    rng = np.random.default_rng(22)
    p = 5
    blocks = []
    for _ in range(4):
        A = rng.normal(size=(p, p))
        cov = A @ A.T / p + 0.2 * np.eye(p)
        center = 8.0 * rng.normal(size=p)
        blocks.append(rng.multivariate_normal(center, cov, size=120))
    return Dataset(np.vstack(blocks))


def _multinom_mixture() -> Dataset:
    """Three count profiles over six categories, 30 draws per row."""
    rng = np.random.default_rng(21)
    probs = rng.dirichlet(np.ones(6), size=3)
    labels = rng.integers(3, size=300)
    return Dataset(rng.multinomial(30, probs[labels]).astype(float))


CASES = {
    "faithful-3x3": lambda: (load_faithful(), FitConfig(rows=3, cols=3, seed=0)),
    # 25 nodes on 272 rows: many nodes hold at most p + 1 = 3 members, so
    # deletion scoring takes its exact fallback
    "faithful-5x5": lambda: (load_faithful(), FitConfig(rows=5, cols=5, seed=1)),
    "gauss-p2-5x5": lambda: (_gauss_mixture(), FitConfig(rows=5, cols=5, seed=3)),
    "gauss-p5-3x3": lambda: (_gauss_p5_mixture(), FitConfig(rows=3, cols=3, seed=5)),
    "multinom-3x3": lambda: (_multinom_mixture(), FitConfig(family="multinomial", rows=3, cols=3, seed=4)),
}


def _param_arrays(theta) -> list:
    if hasattr(theta, "theta"):
        return [theta.theta.tolist()]
    return [theta.mu.tolist(), theta.sigma.tolist()]


def snapshot(result) -> dict:
    """Everything the test compares, as plain JSON values."""
    return {
        "nodes": result.graph.nodes,
        "edges": sorted(list(e) for e in result.graph.edges),
        "assignment": result.assignment.m.tolist(),
        "params": {str(m): _param_arrays(result.params[m]) for m in sorted(result.params)},
        "mdl": [result.mdl.neg_loglik, result.mdl.complexity, result.mdl.indexing],
        "trace": [
            {
                "n_nodes": r.n_nodes,
                "n_edges": r.n_edges,
                "edges_cut": r.edges_cut,
                "node_deleted": r.node_deleted,
                "mdl": r.mdl,
                "mdl_before_delete": r.mdl_before_delete,
            }
            for r in result.trace
        ],
    }


def _close(got, want, what):
    """Floats within REL of the largest entry of the stored array."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    scale = max(float(np.abs(want).max(initial=0.0)), np.finfo(float).tiny)
    assert np.abs(got - want).max(initial=0.0) <= REL * scale, what


@pytest.mark.parametrize("name", sorted(CASES))
def test_fit_matches_golden_model(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    data, config = CASES[name]()
    got = snapshot(smlsom_fit(data, config))

    assert got["nodes"] == want["nodes"]
    assert got["edges"] == want["edges"]
    assert got["assignment"] == want["assignment"]
    assert len(got["trace"]) == len(want["trace"])
    for cycle, (g, w) in enumerate(zip(got["trace"], want["trace"]), start=1):
        for key in ("n_nodes", "n_edges", "edges_cut", "node_deleted"):
            assert g[key] == w[key], f"cycle {cycle} {key}"
        _close([g["mdl"], g["mdl_before_delete"]], [w["mdl"], w["mdl_before_delete"]], f"cycle {cycle} mdl")
    _close(got["mdl"], want["mdl"], "final mdl")
    assert sorted(got["params"]) == sorted(want["params"])
    for m, arrays in want["params"].items():
        for k, arr in enumerate(arrays):
            _close(got["params"][m][k], arr, f"node {m} parameter {k}")


def test_golden_cases_shrink_the_map():
    """The fixtures exercise deletion: every case loses nodes, the p=2
    mixture many of them."""
    deleted = {
        name: sum(r["node_deleted"] is not None for r in json.loads((GOLDEN / f"{name}.json").read_text())["trace"])
        for name in CASES
    }
    assert all(d >= 1 for d in deleted.values()), deleted
    assert deleted["gauss-p2-5x5"] >= 15, deleted


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name, make in CASES.items():
        data, config = make()
        out = json.dumps(snapshot(smlsom_fit(data, config)), indent=1) + "\n"
        (GOLDEN / f"{name}.json").write_text(out)
        print(f"wrote {GOLDEN / name}.json")


if __name__ == "__main__":
    sys.exit(regenerate())
