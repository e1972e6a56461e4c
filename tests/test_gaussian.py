import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smlsom import GaussianFamily, GaussParams, gauss_batch, gauss_df, gauss_loglik, gauss_update
from smlsom.gaussian import _REFRESH_EVERY, gauss_loglik_rows

from oracles import dense_gauss_loglik, random_pd_matrix


class TestLoglik:
    def test_standard_normal_at_mode(self):
        theta = GaussParams([0.0], [[1.0]])
        assert gauss_loglik(np.array([0.0]), theta) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_identity_cov_at_mean(self):
        theta = GaussParams([1.0, -2.0], np.eye(2))
        assert gauss_loglik(np.array([1.0, -2.0]), theta) == pytest.approx(
            -math.log(2 * math.pi), abs=1e-12
        )

    def test_diagonal_case_vs_dense_oracle(self):
        theta = GaussParams([0.0, 0.0], np.diag([4.0, 1.0]))
        x = np.array([1.0, 0.0])
        assert gauss_loglik(x, theta) == pytest.approx(
            dense_gauss_loglik(x, [0, 0], np.diag([4.0, 1.0])), rel=1e-12
        )

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_random_instances_vs_dense_oracle(self, p):
        rng = np.random.default_rng(7 + p)
        for _ in range(25):
            mu = rng.normal(size=p)
            sigma = random_pd_matrix(rng, p)
            x = rng.normal(size=p)
            got = gauss_loglik(x, GaussParams(mu, sigma))
            want = dense_gauss_loglik(x, mu, sigma)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_rows_matches_scalar(self):
        rng = np.random.default_rng(3)
        theta = GaussParams(rng.normal(size=3), random_pd_matrix(rng, 3))
        X = rng.normal(size=(10, 3))
        rows = gauss_loglik_rows(X, theta)
        for i in range(10):
            assert rows[i] == pytest.approx(gauss_loglik(X[i], theta), rel=1e-12)


class TestUpdate:
    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(0)
        theta = GaussParams(rng.normal(size=2), random_pd_matrix(rng, 2))
        out = gauss_update(theta, rng.normal(size=2), 0.0)
        np.testing.assert_array_equal(out.mu, theta.mu)
        np.testing.assert_array_equal(out.sigma, theta.sigma)

    def test_sample_at_mean_shrinks_sigma(self):
        theta = GaussParams([1.0, 2.0], 2.0 * np.eye(2))
        out = gauss_update(theta, np.array([1.0, 2.0]), 0.25)
        np.testing.assert_allclose(out.mu, theta.mu)
        np.testing.assert_allclose(out.sigma, 0.75 * theta.sigma)

    def test_hand_evaluated_1d_step(self):
        theta = GaussParams([0.0], [[1.0]])
        out = gauss_update(theta, np.array([2.0]), 0.5)
        assert out.mu[0] == pytest.approx(1.0)
        assert out.sigma[0, 0] == pytest.approx(1.5)

    def test_rejects_bad_rate(self):
        theta = GaussParams([0.0], [[1.0]])
        with pytest.raises(ValueError):
            gauss_update(theta, np.array([1.0]), 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        a=st.floats(0.0, 0.999),
        p=st.integers(1, 4),
    )
    def test_preserves_symmetry_and_psd(self, seed, a, p):
        rng = np.random.default_rng(seed)
        theta = GaussParams(rng.normal(size=p), random_pd_matrix(rng, p))
        out = gauss_update(theta, rng.normal(size=p, scale=3.0), a)
        np.testing.assert_array_equal(out.sigma, out.sigma.T)
        assert np.linalg.eigvalsh(out.sigma).min() > -1e-10

    def test_converges_to_distribution_moments(self):
        # stochastic-approximation fixed point: decaying-rate replay of
        # i.i.d. draws drives the moments to the generator's moments
        rng = np.random.default_rng(42)
        true_mu = np.array([1.0, -1.0])
        true_sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        theta = GaussParams([0.0, 0.0], np.eye(2))
        n_steps = 20_000
        for t in range(1, n_steps + 1):
            x = rng.multivariate_normal(true_mu, true_sigma)
            theta = gauss_update(theta, x, 1.0 / (t + 1.0))
        np.testing.assert_allclose(theta.mu, true_mu, atol=0.15)
        np.testing.assert_allclose(theta.sigma, true_sigma, atol=0.25)


class TestTrainState:
    """The stacked state the training loop updates: rank-one precision and
    log-det steps with periodic re-factorization."""

    @staticmethod
    def make(rng, p, M=3):
        return GaussianFamily().make_state(
            [GaussParams(rng.normal(size=p), random_pd_matrix(rng, p)) for _ in range(M)]
        )

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_tracks_factorized_values_cached_and_uncached(self, p):
        rng = np.random.default_rng(p)
        cached, uncached = self.make(rng, p), self.make(np.random.default_rng(p), p)
        # node 0 is updated twice per row, so it must be rescored in between,
        # and goes through more than two refreshes
        for _ in range(_REFRESH_EVERY + 1):
            x = rng.normal(size=p, scale=2.0)
            a = rng.uniform(0.0, 0.5)
            cached.loglik_all(x)
            for k in (0, 2, 0):
                cached.update(k, x, a)
                uncached.update(k, x.copy(), a)
            for name in ("mus", "sigmas", "precs", "logdets"):
                np.testing.assert_array_equal(getattr(cached, name), getattr(uncached, name))
            np.testing.assert_array_equal(cached.sigmas, cached.sigmas.transpose(0, 2, 1))
            inv = np.linalg.inv(cached.sigmas)
            scale = np.abs(inv).max(axis=(1, 2))  # relative to each matrix, not entry
            assert np.all(np.abs(cached.precs - inv).max(axis=(1, 2)) <= 1e-9 * scale)
            sign, logdet = np.linalg.slogdet(cached.sigmas)
            assert np.all(sign == 1)
            np.testing.assert_allclose(cached.logdets, logdet, rtol=0, atol=1e-9)

    def test_refresh_on_cholesky_accepted_singular_covariance(self):
        # a covariance captured from a collapsing node: Cholesky accepts it,
        # while an LU inverse reports it singular
        sigma = np.array(
            [
                [0.08937363124512407, -0.0727293143510449],
                [-0.0727293143510449, 0.059184718045812726],
            ]
        )
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(sigma)
        state = GaussianFamily().make_state([GaussParams([0.3, -0.2], sigma)])
        x = np.array([0.5, 0.1])
        for _ in range(_REFRESH_EVERY + 1):  # the last update re-factorizes
            state.update(0, x, 0.0)
        np.testing.assert_array_equal(state.sigmas[0], sigma)
        assert np.all(np.isfinite(state.precs)) and np.all(np.isfinite(state.logdets))


class TestBatch:
    def test_single_sample_jitter_floor(self):
        out = gauss_batch(np.array([[3.0, -1.0]]))
        np.testing.assert_allclose(out.mu, [3.0, -1.0])
        # zero scatter: jitter makes it (numerically) PD
        assert np.linalg.eigvalsh(out.sigma).min() > 0

    def test_two_sample_hand_moments(self):
        out = gauss_batch(np.array([[0.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_allclose(out.mu, [1.0, 0.0])
        assert out.sigma[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert out.sigma[1, 1] == pytest.approx(0.0, abs=1e-6)

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(11)
        X = rng.multivariate_normal([0.0, 0.0], np.eye(2), size=1000)
        out = gauss_batch(X)
        np.testing.assert_allclose(out.mu, 0.0, atol=0.15)
        np.testing.assert_allclose(out.sigma, np.eye(2), atol=0.2)

    def test_biased_denominator(self):
        X = np.array([[0.0], [1.0]])
        out = gauss_batch(X)
        assert out.sigma[0, 0] == pytest.approx(0.25, abs=1e-6)  # 1/k, not 1/(k-1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gauss_batch(np.empty((0, 2)))


class TestDf:
    @pytest.mark.parametrize("p,expected", [(1, 2), (2, 5), (48, 1224)])
    def test_values(self, p, expected):
        assert gauss_df(p) == expected


class TestParamsValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GaussParams([0.0, 0.0], np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_nearest_mean_reduction_with_identity_cov(self):
        rng = np.random.default_rng(5)
        mus = rng.normal(size=(6, 3), scale=2.0)
        thetas = [GaussParams(m, np.eye(3)) for m in mus]
        for _ in range(50):
            x = rng.normal(size=3, scale=2.0)
            by_ll = int(np.argmax([gauss_loglik(x, t) for t in thetas]))
            by_dist = int(np.argmin([np.sum((x - m) ** 2) for m in mus]))
            assert by_ll == by_dist
