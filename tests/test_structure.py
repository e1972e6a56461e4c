import math

import numpy as np
import pytest

from smlsom import (
    Assignment,
    Dataset,
    FitConfig,
    GaussianFamily,
    GaussParams,
    MapGraph,
    MultinomialFamily,
    MultinomParams,
    classify,
    cut_weak_links,
    kl_estimate,
    lattice_graph,
    load_faithful,
    loglik_matrix,
    mdl_score,
    mlsom_train,
    try_delete_node,
)
from smlsom.driver import init_params
from smlsom.mlsom import ml_winners
from smlsom.structure import SHORTLIST_RTOL, _DeletionSearch, _destinations

from oracles import (
    dense_gauss_loglik,
    loglik_rows,
    members,
    oracle_deletion_candidates,
    oracle_gauss_kl,
    oracle_mdl,
    oracle_try_delete_node,
    random_pd_matrix,
)

GAUSS = GaussianFamily()
MULTINOM = MultinomialFamily()


def two_blob_fixture(rng, sep=20.0, n_per=150):
    """Two tight, far-apart blobs with two map nodes sitting on each blob."""
    a = rng.normal(size=(n_per, 2)) * 0.5 + [-sep / 2, 0.0]
    b = rng.normal(size=(n_per, 2)) * 0.5 + [sep / 2, 0.0]
    data = Dataset(np.vstack([a, b]))
    g = MapGraph(nodes=[0, 1, 2, 3], edges=[(0, 1), (1, 2), (2, 3)])
    params = {
        0: GaussParams([-sep / 2 - 0.3, 0.0], 0.25 * np.eye(2)),
        1: GaussParams([-sep / 2 + 0.3, 0.0], 0.25 * np.eye(2)),
        2: GaussParams([sep / 2 - 0.3, 0.0], 0.25 * np.eye(2)),
        3: GaussParams([sep / 2 + 0.3, 0.0], 0.25 * np.eye(2)),
    }
    from smlsom import classify

    assignment = classify(data, params, GAUSS)
    return data, g, params, assignment


def kl_between(x, theta_m, theta_l, family):
    """kl_estimate of D(theta_m || theta_l) over the samples x."""
    return kl_estimate(loglik_rows(family, x, theta_m), loglik_rows(family, x, theta_l))


def link_weakness(data, assignment, params, m, l, family):
    """The symmetrized weakness ``cut_weak_links`` compares with its
    threshold: the mean of the two one-sided estimates, each over its own
    node's members, read from the cycle's log-likelihood matrix."""
    row = dict(zip(sorted(params), loglik_matrix(data, params, family)))
    own_m, own_l = members(assignment, m), members(assignment, l)
    d_ml = kl_estimate(row[m][own_m], row[l][own_m])
    d_lm = kl_estimate(row[l][own_l], row[m][own_l])
    return 0.5 * d_ml + 0.5 * d_lm


class TestKlEstimate:
    def test_identical_params_give_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 2))
        theta = GaussParams([0.0, 0.0], np.eye(2))
        assert kl_between(x, theta, theta, GAUSS) == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form_when_sampling_from_m(self):
        # sample-based estimate vs the closed-form Gaussian KL
        rng = np.random.default_rng(1)
        theta_m = GaussParams([0.0, 0.0], np.eye(2))
        theta_l = GaussParams([1.5, -0.5], [[2.0, 0.3], [0.3, 1.0]])
        x = rng.multivariate_normal(theta_m.mu, theta_m.sigma, size=20000)
        est = kl_between(x, theta_m, theta_l, GAUSS)
        exact = oracle_gauss_kl(
            theta_m.mu, theta_m.sigma, theta_l.mu, theta_l.sigma
        )
        assert est == pytest.approx(exact, rel=0.05)

    def test_farther_target_scores_larger(self):
        rng = np.random.default_rng(2)
        theta_m = GaussParams([0.0, 0.0], np.eye(2))
        near = GaussParams([1.0, 0.0], np.eye(2))
        far = GaussParams([8.0, 0.0], np.eye(2))
        x = rng.multivariate_normal(theta_m.mu, theta_m.sigma, size=2000)
        assert kl_between(x, theta_m, far, GAUSS) > kl_between(x, theta_m, near, GAUSS)

    def test_multinomial_case(self):
        theta_m = MultinomParams([0.5, 0.3, 0.2])
        theta_l = MultinomParams([0.2, 0.3, 0.5])
        rng = np.random.default_rng(3)
        x = rng.multinomial(30, theta_m.theta, size=5000).astype(float)
        est = kl_between(x, theta_m, theta_l, MultinomialFamily())
        exact = 30 * np.sum(
            theta_m.theta * (np.log(theta_m.theta) - np.log(theta_l.theta))
        )
        assert est == pytest.approx(exact, rel=0.05)


class TestLinkWeakness:
    def test_symmetric_in_m_and_l(self):
        rng = np.random.default_rng(4)
        data, g, params, assignment = two_blob_fixture(rng)
        w_01 = link_weakness(data, assignment, params, 0, 1, GAUSS)
        w_10 = link_weakness(data, assignment, params, 1, 0, GAUSS)
        assert w_01 == pytest.approx(w_10, rel=1e-12)

    def test_cross_blob_link_is_weakest(self):
        rng = np.random.default_rng(5)
        data, g, params, assignment = two_blob_fixture(rng)
        within = link_weakness(data, assignment, params, 0, 1, GAUSS)
        across = link_weakness(data, assignment, params, 1, 2, GAUSS)
        assert across > 100 * within


class TestCutWeakLinks:
    def test_cuts_only_the_cross_blob_edge(self):
        rng = np.random.default_rng(6)
        data, g, params, assignment = two_blob_fixture(rng)
        removed = cut_weak_links(g, data, assignment, GAUSS.table.of(params), 15.0, GAUSS, loglik_matrix(data, params, GAUSS))
        assert removed == {(1, 2)}
        assert sorted(g.edges) == [(0, 1), (2, 3)]

    def test_infinite_beta_never_cuts(self):
        rng = np.random.default_rng(7)
        data, g, params, assignment = two_blob_fixture(rng, sep=100.0)
        removed = cut_weak_links(g, data, assignment, GAUSS.table.of(params), math.inf, GAUSS, loglik_matrix(data, params, GAUSS))
        assert removed == set()
        assert len(g.edges) == 3

    def test_edges_to_empty_nodes_always_cut(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 2))
        data = Dataset(x)
        g = MapGraph(nodes=[0, 1], edges=[(0, 1)])
        params = {
            0: GaussParams([0.0, 0.0], np.eye(2)),
            1: GaussParams([50.0, 50.0], np.eye(2)),  # wins nothing
        }
        assignment = Assignment(np.zeros(60, dtype=int))
        removed = cut_weak_links(g, data, assignment, GAUSS.table.of(params), math.inf, GAUSS, loglik_matrix(data, params, GAUSS))
        assert removed == {(0, 1)}

    def test_tight_cluster_pair_survives(self):
        # both nodes model the same blob: every link should survive beta=15
        rng = np.random.default_rng(9)
        x = rng.normal(size=(200, 2))
        data = Dataset(x)
        g = MapGraph(nodes=[0, 1], edges=[(0, 1)])
        params = {
            0: GaussParams([-0.2, 0.0], np.eye(2)),
            1: GaussParams([0.2, 0.0], np.eye(2)),
        }
        from smlsom import classify

        assignment = classify(data, params, GAUSS)
        removed = cut_weak_links(g, data, assignment, GAUSS.table.of(params), 15.0, GAUSS, loglik_matrix(data, params, GAUSS))
        assert removed == set()


class TestMdlScore:
    def test_matches_oracle_on_gaussian_fixture(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            n, p, k = rng.integers(10, 80), rng.integers(1, 4), rng.integers(1, 4)
            x = rng.normal(size=(n, p))
            data = Dataset(x)
            params = {
                m: GaussParams(rng.normal(size=p), random_pd_matrix(rng, p))
                for m in range(k)
            }
            from smlsom import classify

            assignment = classify(data, params, GAUSS)
            score = mdl_score(data, assignment, params, GAUSS)
            want = oracle_mdl(
                x,
                assignment.m,
                [(m, lambda row, t=t: dense_gauss_loglik(row, t.mu, t.sigma)) for m, t in params.items()],
                per_node_df=p + p * (p + 1) // 2,
            )
            assert score.total == pytest.approx(want, rel=1e-9)

    def test_complexity_term_value(self):
        # 2 Gaussian nodes in 2-D on n samples: df = 2 * (2 + 3) = 10
        rng = np.random.default_rng(11)
        x = rng.normal(size=(64, 2))
        data = Dataset(x)
        params = {
            0: GaussParams([-1.0, 0.0], np.eye(2)),
            1: GaussParams([1.0, 0.0], np.eye(2)),
        }
        from smlsom import classify

        assignment = classify(data, params, GAUSS)
        score = mdl_score(data, assignment, params, GAUSS)
        assert score.complexity == pytest.approx((10 / 2) * math.log(64), rel=1e-12)
        assert score.indexing == pytest.approx(64 * math.log(2), rel=1e-12)

    def test_penalty_grows_with_node_count(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(100, 2))
        data = Dataset(x)
        theta = GaussParams([0.0, 0.0], np.eye(2))
        one = mdl_score(data, Assignment(np.zeros(100, dtype=int)), {0: theta}, GAUSS)
        half = np.zeros(100, dtype=int)
        half[50:] = 1
        two = mdl_score(data, Assignment(half), {0: theta, 1: theta}, GAUSS)
        assert two.complexity > one.complexity



class TestTryDeleteNode:
    def test_redundant_node_gets_deleted(self):
        # three nodes on two blobs: the duplicate pair should collapse
        rng = np.random.default_rng(13)
        a = rng.normal(size=(200, 2)) * 0.5 + [-5.0, 0.0]
        b = rng.normal(size=(200, 2)) * 0.5 + [5.0, 0.0]
        data = Dataset(np.vstack([a, b]))
        g = MapGraph(nodes=[0, 1, 2], edges=[(0, 1)])
        params = {
            0: GaussParams([-5.2, 0.0], 0.25 * np.eye(2)),
            1: GaussParams([-4.8, 0.0], 0.25 * np.eye(2)),
            2: GaussParams([5.0, 0.0], 0.25 * np.eye(2)),
        }
        from smlsom import classify

        assignment = classify(data, params, GAUSS)
        result = try_delete_node(data, g, assignment, GAUSS.table.of(params), GAUSS, loglik_matrix(data, params, GAUSS))
        assert result.deleted in (0, 1)
        assert result.params.ids == sorted(set(range(3)) - {result.deleted})
        assert result.score.total < result.previous.total

    def test_necessary_node_is_kept(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(300, 2)) * 0.5 + [-8.0, 0.0]
        b = rng.normal(size=(300, 2)) * 0.5 + [8.0, 0.0]
        data = Dataset(np.vstack([a, b]))
        g = MapGraph(nodes=[0, 1])
        params = {
            0: GaussParams([-8.0, 0.0], 0.25 * np.eye(2)),
            1: GaussParams([8.0, 0.0], 0.25 * np.eye(2)),
        }
        from smlsom import classify

        assignment = classify(data, params, GAUSS)
        result = try_delete_node(data, g, assignment, GAUSS.table.of(params), GAUSS, loglik_matrix(data, params, GAUSS))
        assert result.deleted is None
        assert result.params.ids == [0, 1]

    def test_single_node_never_deleted(self):
        rng = np.random.default_rng(15)
        data = Dataset(rng.normal(size=(40, 2)))
        g = MapGraph(nodes=[0])
        params = {0: GaussParams([0.0, 0.0], np.eye(2))}
        result = try_delete_node(
            data, g, Assignment(np.zeros(40, dtype=int)), GAUSS.table.of(params), GAUSS, loglik_matrix(data, params, GAUSS)
        )
        assert result.deleted is None

    def test_assignment_naming_a_missing_node_is_rejected(self):
        rng = np.random.default_rng(18)
        data = Dataset(rng.normal(size=(40, 2)))
        params = {0: GaussParams([0.0, 0.0], np.eye(2)), 2: GaussParams([1.0, 0.0], np.eye(2))}
        for missing in (1, 3, -1):
            m = np.zeros(40, dtype=int)
            m[20:] = 2
            m[5] = missing
            with pytest.raises(ValueError, match="no parameters"):
                try_delete_node(
                    data, MapGraph(nodes=[0, 2]), Assignment(m), GAUSS.table.of(params), GAUSS, loglik_matrix(data, params, GAUSS)
                )

    def test_neighbors_of_deleted_node_become_clique(self):
        # star around node 0; deleting 0 must connect its three neighbors
        rng = np.random.default_rng(16)
        a = rng.normal(size=(300, 2)) * 0.5
        data = Dataset(a)
        g = MapGraph(nodes=[0, 1, 2, 3], edges=[(0, 1), (0, 2), (0, 3)])
        params = {
            0: GaussParams([9.0, 9.0], np.eye(2)),  # models nothing
            1: GaussParams([-0.3, 0.0], np.eye(2)),
            2: GaussParams([0.3, 0.0], np.eye(2)),
            3: GaussParams([0.0, 0.3], np.eye(2)),
        }
        from smlsom import classify

        assignment = classify(data, params, GAUSS)
        result = try_delete_node(data, g, assignment, GAUSS.table.of(params), GAUSS, loglik_matrix(data, params, GAUSS))
        if result.deleted == 0:
            assert sorted(result.graph.edges) == [(1, 2), (1, 3), (2, 3)]

    def test_accepted_deletion_strictly_improves_mdl(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            k = int(rng.integers(2, 6))
            x = rng.normal(size=(150, 2))
            data = Dataset(x)
            g = MapGraph(nodes=list(range(k)))
            params = {
                m: GaussParams(rng.normal(size=2), np.eye(2)) for m in range(k)
            }
            from smlsom import classify

            assignment = classify(data, params, GAUSS)
            result = try_delete_node(data, g, assignment, GAUSS.table.of(params), GAUSS, loglik_matrix(data, params, GAUSS))
            if result.deleted is not None:
                assert result.score.total < result.previous.total
            else:
                assert result.score.total == pytest.approx(result.previous.total)


def _param_bytes(theta) -> list[bytes]:
    arrays = [theta.theta] if hasattr(theta, "theta") else [theta.mu, theta.sigma]
    return [a.tobytes() for a in arrays]


def _row_bytes(table, k) -> list[bytes]:
    arrays = [table.thetas[k]] if hasattr(table, "thetas") else [table.mus[k], table.sigmas[k]]
    return [a.tobytes() for a in arrays]


def _assert_matches_oracle(data, g, assignment, params, family):
    """try_delete_node and the brute-force oracle agree exactly."""
    table = family.table.of(params)
    got = try_delete_node(data, g.copy(), assignment, table, family, loglik_matrix(data, table, family))
    want = oracle_try_delete_node(data, g.copy(), assignment, params, family)
    assert got.deleted == want.deleted
    assert got.assignment.m.tobytes() == want.assignment.m.tobytes()
    assert got.params.ids == sorted(want.params)
    for k, m in enumerate(got.params.ids):
        assert _row_bytes(got.params, k) == _param_bytes(want.params[m]), m
    assert got.score == want.score
    assert got.previous == want.previous
    assert (got.graph.nodes, got.graph.edges) == (want.graph.nodes, want.graph.edges)
    return got


def _receivers(assignment, result) -> set:
    moved = assignment.m == result.deleted
    return set(result.assignment.m[moved].tolist())


def _gauss_case(rng, p, split):
    """Three blobs and one far outlier. Nodes 0-2 sit on the blobs, node 3
    on the outlier (a single member), node 4 far from everything (no
    members). With ``split``, node 5 takes every other row of blobs 0 and
    1, so deleting it hands its rows to two receivers."""
    centers = 6.0 * np.eye(max(p, 3))[:3, :p] if p > 1 else np.array([[-6.0], [0.0], [6.0]])
    blobs = [c + rng.normal(size=(40, p)) * 0.7 for c in centers]
    outlier = np.full((1, p), 40.0)
    data = Dataset(np.vstack(blobs + [outlier]))
    params = {m: GaussParams(centers[m] + 0.2 * rng.normal(size=p), random_pd_matrix(rng, p, 0.3)) for m in range(3)}
    params[3] = GaussParams(outlier[0], 0.01 * np.eye(p))
    params[4] = GaussParams(np.full(p, -80.0), np.eye(p))
    if split:
        params[5] = GaussParams(0.5 * (centers[0] + centers[1]), random_pd_matrix(rng, p, 4.0))
    assignment = classify(data, {m: params[m] for m in range(5)}, GAUSS)
    if split:
        m = assignment.m.copy()
        m[1:80:2] = 5
        assignment = Assignment(m)
    g = MapGraph(nodes=sorted(params), edges=[(a, a + 1) for a in range(len(params) - 1)])
    return data, g, assignment, params


def _multinom_case(rng, split):
    """The multinomial counterpart of ``_gauss_case``, over 4 categories."""
    profiles = np.array([[0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1], [0.1, 0.1, 0.1, 0.7]])
    blobs = [rng.multinomial(20, q, size=40).astype(float) for q in profiles]
    outlier = np.array([[0.0, 0.0, 20.0, 0.0]])
    data = Dataset(np.vstack(blobs + [outlier]))
    params = {m: MultinomParams(profiles[m] + 0.05 * rng.random(4)) for m in range(3)}
    params[3] = MultinomParams([0.01, 0.01, 0.97, 0.01])
    params[4] = MultinomParams([0.02, 0.02, 0.94, 0.02])  # loses the outlier to node 3
    if split:
        params[5] = MultinomParams([0.4, 0.4, 0.1, 0.1])
    assignment = classify(data, {m: params[m] for m in range(4)}, MULTINOM)
    if split:
        m = assignment.m.copy()
        m[1:80:2] = 5
        assignment = Assignment(m)
    g = MapGraph(nodes=sorted(params), edges=[(a, a + 1) for a in range(len(params) - 1)])
    return data, g, assignment, params


class TestTryDeleteNodeMatchesOracle:
    """The receiver-only rescoring gives exactly the brute-force result."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_gaussian_split_deletion(self, p):
        rng = np.random.default_rng(30 + p)
        data, g, assignment, params = _gauss_case(rng, p, split=True)
        assert [members(assignment, m).size for m in (3, 4)] == [1, 0]
        result = _assert_matches_oracle(data, g, assignment, params, GAUSS)
        assert result.deleted == 5
        assert len(_receivers(assignment, result)) >= 2

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_gaussian_deletes_empty_node(self, p):
        rng = np.random.default_rng(40 + p)
        data, g, assignment, params = _gauss_case(rng, p, split=False)
        assert [members(assignment, m).size for m in (3, 4)] == [1, 0]
        result = _assert_matches_oracle(data, g, assignment, params, GAUSS)
        assert result.deleted == 4

    # Without the split node, deleting node 3 hands the outlier to the empty
    # node 4, which refits on it alone: the same partition and fits as
    # deleting node 4, an exact tie that the smaller id wins.
    @pytest.mark.parametrize("split, deleted", [(True, 5), (False, 3)])
    def test_multinomial(self, split, deleted):
        rng = np.random.default_rng(50 + split)
        data, g, assignment, params = _multinom_case(rng, split)
        assert [members(assignment, m).size for m in (3, 4)] == [1, 0]
        result = _assert_matches_oracle(data, g, assignment, params, MULTINOM)
        assert result.deleted == deleted
        if split:
            assert len(_receivers(assignment, result)) >= 2

    # Node 2 holds only all-zero count rows, which no batch fit can use:
    # every candidate that keeps node 2 scores it with its own parameters.
    # Deleting it hands those rows to node 0 at no cost in likelihood, an
    # exact tie with deleting the empty node 4 that the smaller id wins.
    def test_multinomial_survivor_with_only_zero_rows(self):
        rng = np.random.default_rng(55)
        data, g, assignment, params = _multinom_case(rng, split=False)
        X = np.vstack([data.values, np.zeros((3, 4))])
        data = Dataset(X)
        m = np.concatenate([assignment.m, [2, 2, 2]])
        m[m == 2] = 0  # node 2's count rows go to node 0, leaving it the zero rows
        m[-3:] = 2
        assignment = Assignment(m)
        result = _assert_matches_oracle(data, g, assignment, params, MULTINOM)
        assert result.deleted == 2

    def test_gaussian_node_of_three_identical_rows(self):
        # node 4, empty in _gauss_case, holds three copies of one row, whose
        # covariance is round-off alone; every candidate but node 4's own
        # deletion refits it
        rng = np.random.default_rng(45)
        data, g, assignment, params = _gauss_case(rng, 5, split=False)
        x = [1.73394296, 1.58814453, 1.17188627, 0.31245556, 3.08392841]
        data = Dataset(np.vstack([data.values, [x, x, x]]))
        assignment = Assignment(np.r_[assignment.m, 4, 4, 4])
        _assert_matches_oracle(data, g, assignment, params, GAUSS)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_random_gaussian_maps(self, p):
        rng = np.random.default_rng(60 + p)
        for trial in range(15):
            k = int(rng.integers(2, 8))
            data = Dataset(rng.normal(size=(int(rng.integers(20, 120)), p)) * rng.uniform(0.5, 3.0))
            params = {m: GaussParams(rng.normal(size=p), random_pd_matrix(rng, p)) for m in range(k)}
            g = MapGraph(nodes=range(k), edges=[(a, a + 1) for a in range(k - 1)])
            _assert_matches_oracle(data, g, classify(data, params, GAUSS), params, GAUSS)

    def test_random_multinomial_maps(self):
        rng = np.random.default_rng(70)
        for trial in range(15):
            k, cats = int(rng.integers(2, 8)), int(rng.integers(2, 6))
            X = rng.multinomial(int(rng.integers(1, 30)), rng.dirichlet(np.ones(cats)), size=int(rng.integers(20, 120)))
            data = Dataset(X.astype(float))
            params = {m: MultinomParams(rng.dirichlet(np.ones(cats))) for m in range(k)}
            g = MapGraph(nodes=range(k), edges=[(a, a + 1) for a in range(k - 1)])
            _assert_matches_oracle(data, g, classify(data, params, MULTINOM), params, MULTINOM)

    def test_random_multinomial_maps_with_zero_rows(self):
        rng = np.random.default_rng(71)
        for trial in range(15):
            k, cats, n = int(rng.integers(2, 8)), int(rng.integers(2, 6)), int(rng.integers(20, 120))
            X = rng.multinomial(int(rng.integers(1, 30)), rng.dirichlet(np.ones(cats)), size=n).astype(float)
            X[rng.random(n) < rng.uniform(0.05, 0.9)] = 0.0
            X[0, 0] = 1.0
            data = Dataset(X)
            params = {m: MultinomParams(rng.dirichlet(np.ones(cats))) for m in range(k)}
            g = MapGraph(nodes=range(k), edges=[(a, a + 1) for a in range(k - 1)])
            assignment = Assignment(rng.integers(k, size=n))  # zero rows land anywhere
            _assert_matches_oracle(data, g, assignment, params, MULTINOM)


def _awkward_gauss_case(rng, p, kind):
    """Three blobs of 30 rows, then one small group of s rows for every s in
    1..p+1, each with its own node, and one node with no members: node ids
    0-2 are the blobs, 3..p+3 the small groups, p+4 the empty node.

    ``kind`` adds one awkward feature: ``duplicates`` (blob 0 is ten rows
    three times over, and the largest small group one row repeated),
    ``constant`` (the last column is one value throughout) or ``thin`` (blob
    1 has variance ratio 1e-8 between its first column and the rest).
    """
    centers = 8.0 * rng.normal(size=(3 + p + 1, p))
    centers[3:] += 40.0  # the small groups sit away from the blobs
    groups = [centers[b] + rng.normal(size=(30, p)) for b in range(3)]
    groups += [centers[3 + s] + 0.5 * rng.normal(size=(s + 1, p)) for s in range(p + 1)]
    if kind == "duplicates":
        groups[0] = np.repeat(groups[0][:10], 3, axis=0)
        groups[-1][:] = groups[-1][0]
    if kind == "thin":
        groups[1][:, 0] = centers[1, 0] + 1e-4 * rng.normal(size=30)
    X = np.vstack(groups)
    if kind == "constant":
        X[:, -1] = 2.5
    labels = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    params = {m: GaussParams(X[labels == m].mean(axis=0), random_pd_matrix(rng, p, 0.5)) for m in range(len(groups))}
    params[len(groups)] = GaussParams(np.full(p, -90.0), np.eye(p))
    g = MapGraph(nodes=sorted(params), edges=[(a, a + 1) for a in range(len(params) - 1)])
    return Dataset(X), g, Assignment(labels), params


def _tie_case(rng, p):
    """Nodes 0 and 1 split one blob between them, far from the other blobs:
    deleting 0 hands all its rows to 1 and deleting 1 hands all its rows to
    0, the same partition with the same batch fit."""
    centers = np.zeros((3, p))
    centers[1, 0], centers[2, -1] = 30.0, -30.0
    X = np.vstack([c + rng.normal(size=(40, p)) for c in centers])
    params = {
        0: GaussParams(centers[0] - 0.1, np.eye(p)),
        1: GaussParams(centers[0] + 0.1, np.eye(p)),
        2: GaussParams(centers[1], np.eye(p)),
        3: GaussParams(centers[2], np.eye(p)),
    }
    labels = np.repeat([0, 2, 3], 40)
    labels[1:40:2] = 1
    g = MapGraph(nodes=range(4), edges=[(0, 1), (1, 2), (2, 3)])
    return Dataset(X), g, Assignment(labels), params


def _multinom_zero_case(rng, cats):
    """Three count profiles, a fifth of the rows all zero; nodes 3 and 4 own
    one and two rows, node 5 only zero rows and node 6 nothing."""
    profiles = rng.dirichlet(np.ones(cats), size=3)
    labels = np.repeat([0, 1, 2, 3, 4, 4], [40, 40, 40, 1, 1, 1])
    X = rng.multinomial(15, profiles[np.minimum(labels, 2)]).astype(float)
    X[rng.random(len(X)) < 0.2] = 0.0
    X = np.vstack([X, np.zeros((3, cats))])
    labels = np.concatenate([labels, [5, 5, 5]])
    params = {m: MultinomParams(rng.dirichlet(np.ones(cats))) for m in range(7)}
    g = MapGraph(nodes=range(7), edges=[(a, a + 1) for a in range(6)])
    return Dataset(X), g, Assignment(labels), params


AWKWARD = ["plain", "duplicates", "constant", "thin"]


class TestTwoStageScoringMatchesOracle:
    """The estimate-then-shortlist search gives exactly the brute-force
    result on inputs that send parts to the exact fallback."""

    @pytest.mark.parametrize("p", [1, 2, 5, 10])
    @pytest.mark.parametrize("kind", AWKWARD)
    def test_gaussian_awkward_nodes(self, p, kind):
        rng = np.random.default_rng(100 + 10 * p + AWKWARD.index(kind))
        data, g, assignment, params = _awkward_gauss_case(rng, p, kind)
        assert sorted(np.bincount(assignment.m, minlength=len(params))[3:]) == list(range(p + 2))
        _assert_matches_oracle(data, g, assignment, params, GAUSS)

    @pytest.mark.parametrize("p", [1, 2, 5, 10])
    def test_gaussian_exact_tie(self, p):
        rng = np.random.default_rng(120 + p)
        data, g, assignment, params = _tie_case(rng, p)
        candidates = oracle_deletion_candidates(data, assignment, params, GAUSS)
        assert candidates[0][1].total == candidates[1][1].total  # bitwise tie
        result = _assert_matches_oracle(data, g, assignment, params, GAUSS)
        assert result.deleted == 0

    @pytest.mark.parametrize("cats", [2, 4, 9])
    def test_multinomial_zero_rows_and_small_nodes(self, cats):
        rng = np.random.default_rng(130 + cats)
        data, g, assignment, params = _multinom_zero_case(rng, cats)
        _assert_matches_oracle(data, g, assignment, params, MULTINOM)

    @pytest.mark.parametrize("p", [1, 2, 5, 10])
    def test_ml_assignment_of_awkward_data(self, p):
        # the fit's own situation: members by maximum likelihood
        rng = np.random.default_rng(140 + p)
        for kind in AWKWARD:
            data, g, _, params = _awkward_gauss_case(rng, p, kind)
            _assert_matches_oracle(data, g, classify(data, params, GAUSS), params, GAUSS)


def _search_cases():
    rng = np.random.default_rng(150)
    for p in (1, 2, 5, 10):
        for kind in AWKWARD:
            yield f"gauss-p{p}-{kind}", GAUSS, _awkward_gauss_case(rng, p, kind)
        yield f"gauss-p{p}-tie", GAUSS, _tie_case(rng, p)
    for cats in (2, 4, 9):
        yield f"multinom-{cats}-zero-rows", MULTINOM, _multinom_zero_case(rng, cats)
    for trial in range(6):
        p = int(rng.integers(1, 6))
        data = Dataset(rng.normal(size=(200, p)) * rng.uniform(0.1, 5.0) + rng.uniform(-1e3, 1e3, size=p))
        params = {m: GaussParams(data.values[rng.integers(200)], random_pd_matrix(rng, p)) for m in range(6)}
        yield f"gauss-offset-{trial}", GAUSS, (data, None, classify(data, params, GAUSS), params)


class RefitSpy:
    """Delegates to a model family and records the groups of every grouped
    refit call."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = []

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def refit(self, X, table, groups):
        self.calls.append(groups)
        return self._inner.refit(X, table, groups)


class TestEstimates:
    def test_every_estimate_is_within_the_shortlist_tolerance(self):
        """Wherever an estimate decides whether a candidate is rescored, it
        lies within ``SHORTLIST_RTOL`` of the candidate's exact total, and
        the exact stage's totals are bitwise the brute-force ones."""
        fallback = 0
        for name, family, (data, _, assignment, params) in _search_cases():
            spy = RefitSpy(family)
            search = _DeletionSearch(data, assignment, family.table.of(params), spy, loglik_matrix(data, params, family))
            est = search.estimates()
            assert len(spy.calls) <= 1, name  # every fallback in one grouped call
            fallback += bool(spy.calls)
            exact = np.array([score.total for score in search.exact(list(range(len(params))))])
            assert len(spy.calls) <= 2, name
            want = [cand[1].total for cand in oracle_deletion_candidates(data, assignment, params, family)]
            assert exact.tolist() == want, name
            ref = min(float(est.min()), mdl_score(data, assignment, params, family).total)
            worst = float(np.abs(est - exact).max())
            assert worst <= SHORTLIST_RTOL * abs(ref), (name, worst / abs(ref))
        assert fallback >= 10  # the small-node cases reach the exact fallback

    def test_shortlist_prunes_well_conditioned_candidates(self):
        rng = np.random.default_rng(160)
        data, g, params, assignment = two_blob_fixture(rng)
        spy = RefitSpy(GAUSS)
        search = _DeletionSearch(data, assignment, GAUSS.table.of(params), spy, loglik_matrix(data, params, GAUSS))
        est = search.estimates()
        assert not spy.calls  # no part needed an exact fit
        ref = min(float(est.min()), mdl_score(data, assignment, params, GAUSS).total)
        shortlist = np.flatnonzero(est <= ref + SHORTLIST_RTOL * abs(ref))
        assert 1 <= len(shortlist) < len(params)

    def test_one_attempt_makes_at_most_two_grouped_refits(self, monkeypatch):
        """A deletion attempt on a trained 5x5 map refits in at most two
        grouped calls, one per stage, and builds no single-node value."""
        data = load_faithful()
        config = FitConfig(rows=5, cols=5, seed=3)
        table = init_params(data, config, np.random.default_rng(config.seed))
        graph = lattice_graph(5, 5)
        mlsom_train(data, graph, table, config.schedule(data.n), np.random.default_rng(config.seed), GAUSS)
        ll = loglik_matrix(data, table, GAUSS)
        assignment = Assignment(ml_winners(ll, table.ids))
        built = []
        monkeypatch.setattr(GaussParams, "__post_init__", lambda self: built.append(self))
        spy = RefitSpy(GAUSS)
        result = try_delete_node(data, graph, assignment, table, spy, ll)
        assert 1 <= len(spy.calls) <= 2
        assert sum(len(groups) for groups in spy.calls) > len(table) - 2  # the exact stage refits every survivor
        assert built == []
        assert result.deleted is not None


class TestDestinations:
    def test_matches_argmax_with_the_row_removed(self):
        rng = np.random.default_rng(170)
        for trial in range(50):
            M, n = int(rng.integers(2, 6)), 40
            ll = rng.normal(size=(M, n)).round(1)  # rounding makes ties
            ll[rng.random((M, n)) < 0.3] = -np.inf
            ll[rng.random((M, n)) < 0.05] = np.nan
            own = rng.integers(M, size=n)
            want = [
                np.delete(np.arange(M), own[i])[np.argmax(np.delete(ll[:, i], own[i]))] for i in range(n)
            ]
            before = ll.tobytes()
            assert _destinations(ll, own).tolist() == want
            assert ll.tobytes() == before  # the masked entries are restored

    def test_every_other_row_minus_inf(self):
        ll = np.array([[0.0, -np.inf, 1.0], [-np.inf, -np.inf, -np.inf], [-np.inf, 2.0, -np.inf]])
        assert _destinations(ll, np.array([0, 1, 2])).tolist() == [1, 2, 0]
        assert _destinations(ll, np.array([0, 0, 0])).tolist() == [1, 2, 1]
