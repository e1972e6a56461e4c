import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smlsom._kernel as _kernel
from smlsom import (
    Dataset,
    FitConfig,
    MapGraph,
    MultinomialFamily,
    MultinomParams,
    Schedule,
    SmlsomError,
    lattice_graph,
    multinom_batch,
    multinom_df,
    schedule_alphas,
    schedule_radii,
    smlsom_fit,
)
from smlsom.mlsom import NeighborTable, neighbor_table

from oracles import OracleMultinomTrainState, exact_multinom_pmf, stack, update

FAMILY = MultinomialFamily()


def assert_matches_oracle(table, oracle):
    """Probabilities bitwise; their logs within one unit in the last place
    (the kernel takes the C library's log, numpy its own)."""
    np.testing.assert_array_equal(table.thetas, oracle.thetas)
    np.testing.assert_array_max_ulp(table.logthetas, oracle.logthetas, maxulp=1)


def count_rows(rng, n, p, zero_share=0.1):
    """Count rows from a few sparse profiles (each puts almost no mass on
    some categories), about ``zero_share`` of them all zero."""
    profiles = rng.dirichlet(np.full(p, 0.3), size=4)
    totals = rng.integers(1, 30, size=n) * (rng.random(n) >= zero_share)
    return np.vstack([rng.multinomial(t, profiles[k]) for t, k in zip(totals, rng.integers(4, size=n))]).astype(float)


def loglik_at(x, theta):
    """Log pmf at one count row, through the family's matrix of a one-row X."""
    return FAMILY.loglik_matrix(np.atleast_2d(np.asarray(x, dtype=float)), FAMILY.table.of({0: theta}))[0, 0]


def stepped(theta, x, a):
    """theta's probabilities after one kernel node step toward x at rate a."""
    table = stack(FAMILY, [theta])
    update(FAMILY, table, 0, np.asarray(x, dtype=float), a)
    return table.thetas[0]


class TestLoglik:
    def test_empty_trial(self):
        theta = MultinomParams([0.25, 0.75])
        assert loglik_at(np.zeros(2), theta) == pytest.approx(0.0, abs=1e-12)

    def test_single_trial(self):
        theta = MultinomParams([0.25, 0.75])
        assert loglik_at([1.0, 0.0], theta) == pytest.approx(math.log(0.25), abs=1e-9)

    def test_hand_evaluated_pmf(self):
        theta = MultinomParams([0.5, 0.25, 0.25])
        got = loglik_at([2.0, 1.0, 1.0], theta)
        assert got == pytest.approx(math.log(12 * 0.5**2 * 0.25 * 0.25), abs=1e-9)

    def test_vs_exact_factorial_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.integers(2, 6)
            theta = rng.dirichlet(np.ones(p))
            total = rng.integers(0, 13)
            x = rng.multinomial(total, theta)
            got = loglik_at(x, MultinomParams(theta))
            want = math.log(exact_multinom_pmf(x, MultinomParams(theta).theta))
            assert got == pytest.approx(want, abs=1e-9)


class TestUpdate:
    """The kernel's node step on a one-node table."""

    def test_zero_row_is_identity(self):
        theta = MultinomParams([0.3, 0.7])
        np.testing.assert_array_equal(stepped(theta, np.zeros(2), 0.5), theta.theta)

    def test_zero_rate_is_identity(self):
        theta = MultinomParams([0.3, 0.7])
        np.testing.assert_allclose(stepped(theta, [4.0, 1.0], 0.0), theta.theta, atol=1e-12)

    def test_hand_evaluated_step(self):
        theta = MultinomParams([0.5, 0.5])
        np.testing.assert_allclose(stepped(theta, [3.0, 1.0], 0.2), [0.55, 0.45], atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10_000), a=st.floats(0.0, 0.999), p=st.integers(2, 6))
    def test_stays_on_simplex(self, seed, a, p):
        rng = np.random.default_rng(seed)
        theta = MultinomParams(rng.dirichlet(np.ones(p)))
        x = rng.integers(0, 20, size=p).astype(float)
        out = stepped(theta, x, a)
        assert np.all(out >= 0)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)


class TestBatch:
    def test_single_relative_frequency(self):
        out = multinom_batch(np.array([[2.0, 2.0]]))
        np.testing.assert_allclose(out.theta, [0.5, 0.5], atol=1e-12)

    def test_symmetric_average(self):
        out = multinom_batch(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(out.theta, [0.5, 0.5], atol=1e-9)

    def test_mean_of_relative_frequencies(self):
        out = multinom_batch(np.array([[3.0, 1.0], [1.0, 3.0], [2.0, 2.0]]))
        np.testing.assert_allclose(out.theta, [0.5, 0.5], atol=1e-12)

    def test_skips_zero_rows(self):
        out = multinom_batch(np.array([[0.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_allclose(out.theta, [1.0, 0.0], atol=1e-9)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            multinom_batch(np.empty((0, 3)))
        with pytest.raises(ValueError):
            multinom_batch(np.zeros((3, 2)))

    def test_is_fixed_point_of_stochastic_replay(self):
        # uniform random replay with decaying rate converges to the batch fit
        rng = np.random.default_rng(9)
        X = rng.integers(0, 10, size=(30, 4)).astype(float)
        X[X.sum(axis=1) == 0, 0] = 1
        batch = multinom_batch(X)
        table = stack(FAMILY, [MultinomParams(np.full(4, 0.25))])
        for t in range(1, 30_000):
            update(FAMILY, table, 0, X[rng.integers(30)], 1.0 / (t + 1.0))
        np.testing.assert_allclose(table.thetas[0], batch.theta, atol=0.02)


class TestDf:
    @pytest.mark.parametrize("p,expected", [(2, 1), (3, 2), (48, 47)])
    def test_values(self, p, expected):
        assert multinom_df(p) == expected

    def test_rejects_p1(self):
        with pytest.raises(ValueError):
            multinom_df(1)


class TestFloor:
    def test_zero_category_has_floor(self):
        theta = MultinomParams([1.0, 0.0])
        assert theta.theta[1] >= 1e-10
        x = np.array([0.0, 3.0])
        assert math.isfinite(loglik_at(x, theta))


class TestTrainState:
    """The node table the training loop updates, in the compiled kernel."""

    def test_update_matches_the_numpy_state(self):
        rng = np.random.default_rng(3)
        p = 7
        params = [MultinomParams(rng.dirichlet(np.ones(p))) for _ in range(3)]
        table = stack(FAMILY, params)
        oracle = OracleMultinomTrainState(stack(FAMILY, params))
        X = count_rows(rng, 200, p)
        X[:100, 4:] = 0.0  # drives the last categories to the floor
        assert (X.sum(axis=1) == 0).any()
        lowest = 1.0
        for x in X:
            a = rng.uniform(0.0, 0.95)
            for k in (0, 2, 0):
                update(FAMILY, table, k, x, a)
                oracle.update(k, x, a)
            assert_matches_oracle(table, oracle)
            lowest = min(lowest, table.thetas.min())
        assert lowest < 1e-9  # some probabilities reached the floor

    def test_zero_row_leaves_the_node_as_it_is(self):
        table = stack(FAMILY, [MultinomParams([0.2, 0.3, 0.5])])
        before = table.thetas.copy(), table.logthetas.copy()
        update(FAMILY, table, 0, np.zeros(3), 0.5)
        np.testing.assert_array_equal(table.thetas, before[0])
        np.testing.assert_array_equal(table.logthetas, before[1])

    def test_rejects_arrays_the_kernel_cannot_read(self):
        rng = np.random.default_rng(0)
        table = stack(FAMILY, [MultinomParams(rng.dirichlet(np.ones(3))) for _ in range(2)])
        X = count_rows(rng, 10, 3)
        neighbors = neighbor_table(lattice_graph(1, 2), [0, 1])
        sched = Schedule(tau_max=4)
        alphas, radii = schedule_alphas(sched), schedule_radii(sched)
        with pytest.raises(ValueError):  # wrong dtype
            FAMILY.train(table, X, np.arange(4, dtype=np.int32), alphas, radii, neighbors)
        with pytest.raises(ValueError):  # a row that is not there
            FAMILY.train(table, X, np.array([0, 1, 2, 10]), alphas, radii, neighbors)
        with pytest.raises(ValueError):  # wrong length
            FAMILY.train(table, X, np.arange(4), alphas[:3], radii, neighbors)
        with pytest.raises(ValueError):  # wrong dimension
            FAMILY.train(table, X[:, :2], np.arange(4), alphas, radii, neighbors)
        with pytest.raises(ValueError):
            update(FAMILY, table, 0, np.zeros(2), 0.1)
        with pytest.raises(IndexError):
            update(FAMILY, table, 2, np.zeros(3), 0.1)
        table.thetas = np.asfortranarray(table.thetas)
        with pytest.raises(ValueError):
            update(FAMILY, table, 0, np.zeros(3), 0.1)


class TestKernelMatchesOracle:
    """A whole training cycle in the kernel against the numpy oracle state:
    identical winners, bitwise probabilities."""

    @staticmethod
    def run_both(X, params, steps, rng, alpha0=0.05, r1=2.0):
        M = len(params)
        graph = MapGraph(nodes=[0]) if M == 1 else lattice_graph(1, M)
        neighbors = neighbor_table(graph, list(range(M)))
        sched = Schedule(alpha0=alpha0, alpha1=min(0.01, alpha0), r1=r1, tau_max=steps)
        args = (X, rng.integers(len(X), size=steps), schedule_alphas(sched), schedule_radii(sched), neighbors)
        table = stack(FAMILY, params)
        oracle = OracleMultinomTrainState(stack(FAMILY, params))
        winners = FAMILY.train(table, *args)
        np.testing.assert_array_equal(winners, oracle.run(*args))
        assert_matches_oracle(table, oracle)
        return winners

    # node counts from one node up to a map of 25
    @pytest.mark.parametrize("M", [*range(1, 10), 25])
    @pytest.mark.parametrize("p", [2, 3, 6, 10, 12])
    def test_random_cycles(self, p, M):
        rng = np.random.default_rng(1000 * p + M)
        X = count_rows(rng, 300, p)
        params = [MultinomParams(rng.dirichlet(np.full(p, 0.5))) for _ in range(M)]
        winners = self.run_both(X, params, 400, rng)
        assert M < 3 or len(set(winners.tolist())) > 2

    @pytest.mark.parametrize("p", [2, 3, 6, 10, 12])
    def test_scores_in_numpys_order(self, p):
        # near-twin nodes, whose scores differ in the last bits, and a
        # neighbor table with no rows, so that no node moves: every winner
        # turns on the order in which the scores were summed, which the
        # oracle writes in numpy as the kernel's ascending running sum
        for M in [*range(1, 10), 25]:
            rng = np.random.default_rng(100 * p + M)
            base = rng.dirichlet(np.ones(p))
            params = [MultinomParams(base * (1.0 + 1e-15 * rng.normal(size=p))) for _ in range(M)]
            X = rng.multinomial(20, base, size=500).astype(float)
            empty = NeighborTable(np.zeros(M + 1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
            sched = Schedule(tau_max=500)
            args = (X, np.arange(500), schedule_alphas(sched), schedule_radii(sched), empty)
            winners = FAMILY.train(stack(FAMILY, params), *args)
            np.testing.assert_array_equal(winners, OracleMultinomTrainState(stack(FAMILY, params)).run(*args))

    def test_probabilities_at_the_floor(self):
        rng = np.random.default_rng(5)
        X = count_rows(rng, 200, 6)
        params = [MultinomParams(np.eye(6)[k % 6]) for k in range(6)]  # floored from the start
        assert stack(FAMILY, params).thetas.min() < 1e-9
        self.run_both(X, params, 300, rng, alpha0=0.9)

    def test_ties_go_to_the_first_node(self):
        rng = np.random.default_rng(9)
        X = count_rows(rng, 100, 4, zero_share=0.0)
        theta = MultinomParams(rng.dirichlet(np.ones(4)))
        # hard phase only: the untrained nodes stay exact twins, so a node
        # can win only after every node before it has won
        winners = self.run_both(X, [theta] * 6, 200, rng, r1=0.5)
        first_wins = [int(k) for k in dict.fromkeys(winners.tolist())]
        assert first_wins == list(range(len(first_wins))) and len(first_wins) > 2


def test_fit_without_a_compiler_raises(tmp_path, monkeypatch):
    monkeypatch.setattr(_kernel, "_lib", None)
    monkeypatch.setattr(_kernel, "_CACHE_DIR", tmp_path / "cache")
    monkeypatch.setenv("PATH", str(tmp_path))  # no cc on it
    data = Dataset(count_rows(np.random.default_rng(0), 40, 3))
    with pytest.raises(SmlsomError, match="C compiler"):
        smlsom_fit(data, FitConfig(family="multinomial", rows=2, cols=2))
    assert not any((tmp_path / "cache").iterdir())
