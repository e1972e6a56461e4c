import numpy as np
import pytest

from smlsom import (
    Dataset,
    GaussianFamily,
    GaussParams,
    MapGraph,
    MultinomialFamily,
    MultinomParams,
    Schedule,
    classify,
    lattice_graph,
    loglik_matrix,
    mlsom_train,
)
from smlsom.mlsom import ml_winners

from oracles import (
    OracleGaussianFamily,
    OracleMultinomialFamily,
    RecordingFamily,
    loglik_rows,
    moment_step,
    oracle_alpha,
    oracle_radius,
    random_pd_matrix,
)

FAMILY = GaussianFamily()


def blob_data(rng, centers, n_per, scale=0.3):
    X = np.vstack(
        [rng.normal(loc=c, scale=scale, size=(n_per, len(c))) for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)), n_per)
    return Dataset(X), labels


def find_winner(x, params, family):
    """The winner of one sample, found as the fit finds winners: the
    argmax over the rows of the log-likelihood matrix."""
    data = Dataset(np.vstack([x, x]))  # a dataset holds at least two rows
    return int(ml_winners(loglik_matrix(data, params, family), sorted(params))[0])


class TestFindWinner:
    def test_singleton(self):
        params = {3: GaussParams([0.0], [[1.0]])}
        assert find_winner(np.array([5.0]), params, FAMILY) == 3

    def test_nearest_mean(self):
        params = {
            1: GaussParams([0.0, 0.0], np.eye(2)),
            2: GaussParams([10.0, 0.0], np.eye(2)),
        }
        assert find_winner(np.array([1.0, 0.0]), params, FAMILY) == 1

    def test_tie_goes_to_smallest_id(self):
        theta = GaussParams([0.0, 0.0], np.eye(2))
        params = {7: theta, 2: theta, 5: theta}
        assert find_winner(np.array([1.0, 1.0]), params, FAMILY) == 2

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            find_winner(np.array([0.0]), {}, FAMILY)


class TestTrain:
    def test_one_step_unrolls_to_single_update(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(20, 2)))
        g = MapGraph(nodes=[0])
        theta0 = GaussParams([0.0, 0.0], np.eye(2))
        sched = Schedule(r1=2.0, tau_max=1)

        drawn = np.random.default_rng(1).integers(20)
        out = mlsom_train(data, g, FAMILY.table.of({0: theta0}), sched, np.random.default_rng(1), FAMILY)
        mu, sigma = moment_step(theta0.mu, theta0.sigma, data.values[drawn] - theta0.mu, oracle_alpha(sched, 1))
        np.testing.assert_allclose(out.mus[0], mu, atol=1e-12)
        np.testing.assert_allclose(out.sigmas[0], sigma, atol=1e-12)

    def test_hard_phase_updates_winner_only(self):
        rng = np.random.default_rng(4)
        data = Dataset(rng.normal(size=(30, 2)) + [5.0, 0.0])
        g = lattice_graph(2, 2, "rectangular")
        params = {
            m: GaussParams(rng.normal(size=2), np.eye(2)) for m in range(4)
        }
        # r1 = 0.5 keeps the raw radius below 1 for every tau -> clamp to 0.5
        sched = Schedule(r1=0.5, tau_max=1)
        family = RecordingFamily(FAMILY)
        out = mlsom_train(data, g, family.table.of(params), sched, np.random.default_rng(2), family)
        (c,) = family.winners  # ids 0-3 are their own indices
        for m in range(4):
            changed = not np.array_equal(out.mus[m], params[m].mu)
            assert changed == (m == c)

    def test_disconnected_nodes_find_their_blobs(self):
        rng = np.random.default_rng(8)
        data, labels = blob_data(rng, [(-5.0, 0.0), (5.0, 0.0)], 100)
        g = MapGraph(nodes=[0, 1])  # no edges: each node learns alone
        params = {
            0: GaussParams([-1.0, 0.0], np.eye(2)),
            1: GaussParams([1.0, 0.0], np.eye(2)),
        }
        sched = Schedule(r1=1.0, tau_max=2000)
        out = mlsom_train(
            data, g, FAMILY.table.of(params), sched, np.random.default_rng(3), GaussianFamily(update_sigma=False)
        )
        # reference: per-blob means after nearest-mean assignment
        for m, mu in zip(out.ids, out.mus):
            d = np.linalg.norm(data.values - mu, axis=1)
            other = np.linalg.norm(data.values - out.mus[1 - m], axis=1)
            mine = data.values[d < other]
            np.testing.assert_allclose(mu, mine.mean(axis=0), atol=0.3)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(12)
        data = Dataset(rng.normal(size=(50, 2)))
        g = lattice_graph(2, 2, "rectangular")
        params = {m: GaussParams(rng.normal(size=2), np.eye(2)) for m in range(4)}
        sched = Schedule(r1=2.0, tau_max=100)
        out1 = mlsom_train(data, g, FAMILY.table.of(params), sched, np.random.default_rng(5), FAMILY)
        out2 = mlsom_train(data, g, FAMILY.table.of(params), sched, np.random.default_rng(5), FAMILY)
        for m in range(4):
            np.testing.assert_array_equal(out1.mus[m], out2.mus[m])
            np.testing.assert_array_equal(out1.sigmas[m], out2.sigmas[m])

    def test_invariants_hold_after_every_step(self):
        rng = np.random.default_rng(13)
        data = Dataset(rng.normal(size=(40, 2)))
        g = lattice_graph(2, 2, "rectangular")
        table = FAMILY.table.of({m: GaussParams(rng.normal(size=2), np.eye(2)) for m in range(4)})
        train_rng = np.random.default_rng(6)
        # step one tau at a time so the table can be inspected mid-run
        for tau in range(1, 31):
            sched = Schedule(r1=0.5, tau_max=1)
            table = mlsom_train(data, g, table, sched, train_rng, FAMILY)
            for sigma in table.sigmas:
                np.testing.assert_array_equal(sigma, sigma.T)
                assert np.linalg.eigvalsh(sigma).min() > -1e-10


    @pytest.mark.parametrize("update_sigma", [True, False])
    def test_matches_the_numpy_training_state(self, update_sigma):
        # ids with gaps, as after deletions
        rng = np.random.default_rng(14)
        data = Dataset(rng.normal(size=(300, 3)) * [1.0, 2.0, 0.5])
        g = lattice_graph(3, 3, "hexagonal")
        for m in (0, 4, 7):
            g.remove_node(m)
        params = {m: GaussParams(rng.normal(size=3), random_pd_matrix(rng, 3)) for m in g.nodes}
        sched = Schedule(r1=2.0, tau_max=600)
        runs = []
        for inner in (GaussianFamily(update_sigma), OracleGaussianFamily(update_sigma)):
            family = RecordingFamily(inner)
            out = mlsom_train(data, g, family.table.of(params), sched, np.random.default_rng(9), family)
            runs.append((family.winners, out))
        (w1, out1), (w2, out2) = runs
        assert w1 == w2 and len(set(w1)) > 1
        assert out1.ids == out2.ids == g.nodes
        np.testing.assert_array_equal(out1.mus, out2.mus)
        np.testing.assert_array_equal(out1.sigmas, out2.sigmas)

    def test_multinomial_matches_the_numpy_training_state(self):
        # ids with gaps, and some all-zero rows, which update nothing
        rng = np.random.default_rng(15)
        profiles = rng.dirichlet(np.full(5, 0.4), size=3)
        X = np.vstack([rng.multinomial(t, profiles[t % 3]) for t in rng.integers(0, 25, size=300)])
        data = Dataset(X.astype(float))
        g = lattice_graph(3, 3, "hexagonal")
        for m in (1, 5):
            g.remove_node(m)
        params = {m: MultinomParams(rng.dirichlet(np.ones(5))) for m in g.nodes}
        sched = Schedule(r1=2.0, tau_max=600)
        runs = []
        for inner in (MultinomialFamily(), OracleMultinomialFamily()):
            family = RecordingFamily(inner)
            out = mlsom_train(data, g, family.table.of(params), sched, np.random.default_rng(9), family)
            runs.append((family.winners, out))
        (w1, out1), (w2, out2) = runs
        assert w1 == w2 and len(set(w1)) > 1
        assert out1.ids == out2.ids == g.nodes
        np.testing.assert_array_equal(out1.thetas, out2.thetas)


class TestLoglikMatrix:
    """The family builds the matrix; every row is bitwise its node's
    ``gauss_loglik_rows`` or the multinomial's log coefficient plus
    ``X @ log(theta)``."""

    @pytest.mark.parametrize("layout", ["c", "fortran"])
    def test_rows_equal_loglik_rows(self, layout):
        rng = np.random.default_rng(16)
        X = rng.multinomial(12, [0.1, 0.2, 0.3, 0.4], size=200).astype(float)
        X[::17] = 0.0
        cases = [
            (MultinomialFamily(), Dataset(X), {m: MultinomParams(rng.dirichlet(np.ones(4))) for m in (0, 3, 8)}),
            (FAMILY, Dataset(rng.normal(size=(200, 3))), {m: GaussParams(rng.normal(size=3), random_pd_matrix(rng, 3)) for m in (2, 5)}),
        ]
        for family, data, params in cases:
            if layout == "fortran":
                data = Dataset(np.asfortranarray(data.values))
            ll = loglik_matrix(data, params, family)
            assert ll.shape == (len(params), data.n)
            for row, m in zip(ll, sorted(params)):
                assert row.tobytes() == loglik_rows(family, data.values, params[m]).tobytes()


class TestKohonenReduction:
    def test_winner_sequence_matches_euclidean_som(self):
        rng = np.random.default_rng(21)
        data = Dataset(rng.normal(size=(200, 3)))
        g = lattice_graph(3, 3, "rectangular")
        mus0 = {m: rng.normal(size=3) for m in range(9)}
        params = {m: GaussParams(mus0[m], np.eye(3)) for m in range(9)}
        sched = Schedule(r1=2.0, tau_max=500)

        family = RecordingFamily(GaussianFamily(update_sigma=False))
        mlsom_train(data, g, family.table.of(params), sched, np.random.default_rng(7), family)
        winners = family.winners  # ids 0-8 are their own indices

        # plain Euclidean SOM replaying the identical sample order
        hops = g.all_pairs_hops()
        mus = {m: mus0[m].copy() for m in range(9)}
        rng2 = np.random.default_rng(7)
        expected = []
        for tau in range(1, 501):
            x = data.values[rng2.integers(200)]
            c = min(range(9), key=lambda m: (np.dot(x - mus[m], x - mus[m]), m))
            expected.append(c)
            radius = oracle_radius(sched, tau)
            alpha = oracle_alpha(sched, tau)
            for m in range(9):
                if hops[c].get(m, np.inf) <= radius:
                    mus[m] = mus[m] + alpha * (x - mus[m])
        assert winners == expected


class TestClassify:
    def test_single_node_takes_all(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.normal(size=(15, 2)))
        params = {4: GaussParams([0.0, 0.0], np.eye(2))}
        out = classify(data, params, FAMILY)
        assert np.all(out.m == 4)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        data = Dataset(rng.normal(size=(50, 2)))
        params = {
            0: GaussParams([-1.0, 0.0], np.eye(2)),
            1: GaussParams([1.0, 0.0], np.eye(2)),
        }
        a1 = classify(data, params, FAMILY)
        a2 = classify(data, params, FAMILY)
        np.testing.assert_array_equal(a1.m, a2.m)

    def test_recovers_well_separated_blobs(self):
        rng = np.random.default_rng(3)
        centers = [(-6, -6), (-6, 6), (6, -6), (6, 6)]
        data, labels = blob_data(rng, centers, 250, scale=0.5)
        params = {
            m: GaussParams(np.array(c, dtype=float), 0.25 * np.eye(2))
            for m, c in enumerate(centers)
        }
        out = classify(data, params, FAMILY)
        assert np.mean(out.m == labels) >= 0.99
