import ctypes
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smlsom._kernel as _kernel
from smlsom import (
    FitConfig,
    GaussianFamily,
    GaussParams,
    Schedule,
    SmlsomError,
    gauss_batch,
    gauss_df,
    gauss_loglik_rows,
    lattice_graph,
    load_faithful,
    mdl_score,
    schedule_alphas,
    schedule_radii,
    smlsom_fit,
)
from smlsom._kernel import kernel_path, load_kernel
from smlsom.core import Assignment, Dataset
from smlsom.gaussian import gauss_loglik_matrix
from smlsom.mlsom import neighbor_table

from oracles import (
    OracleGaussTrainState,
    dense_gauss_loglik,
    oracle_gauss_loglik_rows,
    random_pd_matrix,
    scipy_gauss_loglik_rows,
    stack,
    update,
)

# a covariance captured from a collapsing node: Cholesky accepts it, while an
# LU inverse reports it singular
CHOLESKY_ACCEPTED_SINGULAR = np.array(
    [
        [0.08937363124512407, -0.0727293143510449],
        [-0.0727293143510449, 0.059184718045812726],
    ]
)


def assert_matches_oracle(table, oracle):
    """Means, covariances, Cholesky factors and log-determinants bitwise:
    the oracle takes the kernel's steps in its orders."""
    np.testing.assert_array_equal(table.mus, oracle.mus)
    np.testing.assert_array_equal(table.sigmas, oracle.sigmas)
    np.testing.assert_array_equal(table.chols, oracle.chols)
    np.testing.assert_array_equal(table.logdets, oracle.logdets)


def loglik_at(x, theta):
    """Log density at one sample, through the row-wise path on a one-row X."""
    return gauss_loglik_rows(np.atleast_2d(np.asarray(x, dtype=float)), theta)[0]


FAMILY = GaussianFamily()


class TestLoglik:
    def test_standard_normal_at_mode(self):
        theta = GaussParams([0.0], [[1.0]])
        assert loglik_at([0.0], theta) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_identity_cov_at_mean(self):
        theta = GaussParams([1.0, -2.0], np.eye(2))
        assert loglik_at([1.0, -2.0], theta) == pytest.approx(-math.log(2 * math.pi), abs=1e-12)

    def test_diagonal_case_vs_dense_oracle(self):
        theta = GaussParams([0.0, 0.0], np.diag([4.0, 1.0]))
        x = np.array([1.0, 0.0])
        assert loglik_at(x, theta) == pytest.approx(
            dense_gauss_loglik(x, [0, 0], np.diag([4.0, 1.0])), rel=1e-12
        )

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_random_instances_vs_dense_oracle(self, p):
        rng = np.random.default_rng(7 + p)
        for _ in range(25):
            mu = rng.normal(size=p)
            sigma = random_pd_matrix(rng, p)
            x = rng.normal(size=p)
            got = loglik_at(x, GaussParams(mu, sigma))
            want = dense_gauss_loglik(x, mu, sigma)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_rows_matches_scalar(self):
        # many rows at once agree with one row at a time and with the dense oracle
        rng = np.random.default_rng(3)
        theta = GaussParams(rng.normal(size=3), random_pd_matrix(rng, 3))
        X = rng.normal(size=(10, 3))
        rows = gauss_loglik_rows(X, theta)
        for i in range(10):
            assert rows[i] == pytest.approx(loglik_at(X[i], theta), rel=1e-12)
            assert rows[i] == pytest.approx(dense_gauss_loglik(X[i], theta.mu, theta.sigma), rel=1e-9)


class TestUpdate:
    """The kernel's node step on a one-node table."""

    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(0)
        theta = GaussParams(rng.normal(size=2), random_pd_matrix(rng, 2))
        table = stack(FAMILY, [theta])
        update(FAMILY, table, 0, rng.normal(size=2), 0.0)
        np.testing.assert_array_equal(table.mus[0], theta.mu)
        np.testing.assert_array_equal(table.sigmas[0], theta.sigma)

    def test_sample_at_mean_shrinks_sigma(self):
        theta = GaussParams([1.0, 2.0], 2.0 * np.eye(2))
        table = stack(FAMILY, [theta])
        update(FAMILY, table, 0, np.array([1.0, 2.0]), 0.25)
        np.testing.assert_allclose(table.mus[0], theta.mu)
        np.testing.assert_allclose(table.sigmas[0], 0.75 * theta.sigma)

    def test_hand_evaluated_1d_step(self):
        table = stack(FAMILY, [GaussParams([0.0], [[1.0]])])
        update(FAMILY, table, 0, np.array([2.0]), 0.5)
        assert table.mus[0, 0] == pytest.approx(1.0)
        assert table.sigmas[0, 0, 0] == pytest.approx(1.5)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        a=st.floats(0.0, 0.999),
        p=st.integers(1, 4),
    )
    def test_preserves_symmetry_and_psd(self, seed, a, p):
        rng = np.random.default_rng(seed)
        table = stack(FAMILY, [GaussParams(rng.normal(size=p), random_pd_matrix(rng, p))])
        update(FAMILY, table, 0, rng.normal(size=p, scale=3.0), a)
        sigma = table.sigmas[0]
        np.testing.assert_array_equal(sigma, sigma.T)
        assert np.linalg.eigvalsh(sigma).min() > -1e-10

    def test_converges_to_distribution_moments(self):
        # stochastic-approximation fixed point: decaying-rate replay of
        # i.i.d. draws drives the moments to the generator's moments
        rng = np.random.default_rng(42)
        true_mu = np.array([1.0, -1.0])
        true_sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        table = stack(FAMILY, [GaussParams([0.0, 0.0], np.eye(2))])
        n_steps = 20_000
        for t in range(1, n_steps + 1):
            update(FAMILY, table, 0, rng.multivariate_normal(true_mu, true_sigma), 1.0 / (t + 1.0))
        np.testing.assert_allclose(table.mus[0], true_mu, atol=0.15)
        np.testing.assert_allclose(table.sigmas[0], true_sigma, atol=0.25)


def assert_factors_track(table):
    """Each node's factor L reproduces its covariance, L L' within 1e-12 of
    the covariance's largest entry, and its log-determinant is slogdet's
    within 1e-9."""
    LLt = table.chols @ table.chols.transpose(0, 2, 1)
    scale = np.abs(table.sigmas).max(axis=(1, 2))
    assert np.all(np.abs(LLt - table.sigmas).max(axis=(1, 2)) <= 1e-12 * scale)
    sign, logdet = np.linalg.slogdet(table.sigmas)
    assert np.all(sign == 1)
    np.testing.assert_allclose(table.logdets, logdet, rtol=0, atol=1e-9)


class TestTrainState:
    """The node table the training loop updates: rank-one Cholesky and
    log-det steps, in the compiled kernel."""

    @staticmethod
    def params(rng, p, M=3):
        return [GaussParams(rng.normal(size=p), random_pd_matrix(rng, p)) for _ in range(M)]

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_tracks_factorized_values_cached_and_uncached(self, p):
        rng = np.random.default_rng(p)
        params = self.params(rng, p)
        table = stack(FAMILY, params)
        # the numpy oracle both reusing the deviations of its last winner
        # search (cached) and rescoring on every update (uncached)
        cached, uncached = (OracleGaussTrainState(stack(FAMILY, params)) for _ in range(2))
        for _ in range(101):  # node 0 is updated twice per row
            x = rng.normal(size=p, scale=2.0)
            a = rng.uniform(0.0, 0.5)
            cached.loglik_all(x)
            for k in (0, 2, 0):
                update(FAMILY, table, k, x, a)
                cached.update(k, x, a)
                uncached.update(k, x.copy(), a)
            assert_matches_oracle(table, cached)
            assert_matches_oracle(table, uncached)
            np.testing.assert_array_equal(table.sigmas, table.sigmas.transpose(0, 2, 1))
            assert_factors_track(table)

    @pytest.mark.parametrize("p", [2, 5])
    def test_factor_tracks_ill_conditioned_starts(self, p):
        # nodes that start nearly singular: the Cholesky-accepted singular
        # covariance (p = 2) and batch fits of p + 1 rows
        rng = np.random.default_rng(1600 + p)
        params = [gauss_batch(rng.normal(size=(p + 1, p))) for _ in range(3)]
        if p == 2:
            params.append(GaussParams([0.3, -0.2], CHOLESKY_ACCEPTED_SINGULAR))
        table = stack(FAMILY, params)
        for _ in range(200):
            k = rng.integers(len(params))
            update(FAMILY, table, k, table.mus[k] + 0.3 * rng.normal(size=p), rng.uniform(0.0, 0.5))
        assert_factors_track(table)

    @pytest.mark.parametrize("p", [2, 5])
    def test_refresh_refactors_as_gauss_params_does(self, p):
        # covariances as training leaves them, one of them rank one: the
        # batched Cholesky fails, and every node takes the jitter ladder
        rng = np.random.default_rng(1800 + p)
        table = stack(FAMILY, self.params(rng, p, M=4))
        v = rng.normal(size=(p, 1))
        sigmas = [random_pd_matrix(rng, p), v @ v.T, random_pd_matrix(rng, p), random_pd_matrix(rng, p)]
        table.sigmas[:] = sigmas
        table.refresh()
        for k, sigma in enumerate(sigmas):
            want = GaussParams(table.mus[k], sigma)
            assert table.sigmas[k].tobytes() == want.sigma.tobytes()
            assert table.chols[k].tobytes() == want._chol.tobytes()
            assert table.logdets[k] == want.log_det
        assert not np.array_equal(table.sigmas[1], sigmas[1])  # jittered

    def test_rejects_arrays_the_kernel_cannot_read(self):
        rng = np.random.default_rng(0)
        table = stack(FAMILY, self.params(rng, 2, M=2))
        X = rng.normal(size=(10, 2))
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
            FAMILY.train(table, X[:, :1], np.arange(4), alphas, radii, neighbors)
        with pytest.raises(ValueError):
            update(FAMILY, table, 0, np.zeros(3), 0.1)
        table.sigmas = np.asfortranarray(table.sigmas)
        with pytest.raises(ValueError):
            update(FAMILY, table, 0, np.zeros(2), 0.1)


class TestKernelMatchesOracle:
    """A whole training cycle in the kernel against the numpy oracle state:
    identical winners, bitwise parameters."""

    @staticmethod
    def run_both(X, params, steps, rng, update_sigma=True, r1=2.0):
        graph = lattice_graph(2, 3, "hexagonal")
        neighbors = neighbor_table(graph, list(range(len(params))))
        sched = Schedule(r1=r1, tau_max=steps)
        args = (X, rng.integers(len(X), size=steps), schedule_alphas(sched), schedule_radii(sched), neighbors)
        table = stack(FAMILY, params)
        oracle = OracleGaussTrainState(stack(FAMILY, params), update_sigma)
        winners = GaussianFamily(update_sigma).train(table, *args)
        np.testing.assert_array_equal(winners, oracle.run(*args))
        assert_matches_oracle(table, oracle)
        return winners

    @pytest.mark.parametrize("update_sigma", [True, False])
    @pytest.mark.parametrize("p", [1, 2, 5, 12])
    def test_random_cycles(self, p, update_sigma):
        rng = np.random.default_rng(100 + p)
        centers = rng.normal(size=(4, p), scale=3.0)
        X = centers[rng.integers(4, size=600)] + rng.normal(size=(600, p)) * rng.uniform(0.2, 2.0, size=p)
        params = [GaussParams(X[i], random_pd_matrix(rng, p)) for i in rng.choice(600, 6, replace=False)]
        self.run_both(X, params, 1500, rng, update_sigma)

    def test_cholesky_accepted_singular_covariance(self):
        rng = np.random.default_rng(7)
        params = [GaussParams(rng.normal(size=2), CHOLESKY_ACCEPTED_SINGULAR) for _ in range(6)]
        X = rng.normal(size=(200, 2)) * 0.3
        self.run_both(X, params, 400, rng)

    def test_ties_go_to_the_first_node(self):
        rng = np.random.default_rng(9)
        theta = GaussParams(rng.normal(size=3), random_pd_matrix(rng, 3))
        X = rng.normal(size=(100, 3))
        # hard phase only: the untrained nodes stay exact twins, so a node
        # can win only after every node before it has won
        winners = self.run_both(X, [theta] * 6, 200, rng, r1=0.5)
        first_wins = [int(k) for k in dict.fromkeys(winners.tolist())]
        assert first_wins == list(range(len(first_wins))) and len(first_wins) > 2

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_one_step_wins_at_the_matrix_argmax(self, p):
        # a step scores bitwise like the matrix: from a fresh table, every
        # row's winner is the first maximum of its column, among nodes that
        # tie exactly (twins) or differ in a score's last bits (a mean one
        # ulp away)
        rng = np.random.default_rng(1700 + p)
        base = [GaussParams(rng.normal(size=p), random_pd_matrix(rng, p)) for _ in range(3)]
        near = [GaussParams(np.nextafter(t.mu, np.inf), t.sigma) for t in base]
        params = [*base, *near, *base]
        X = rng.normal(size=(300, p))
        ll = gauss_loglik_matrix(X, stack(FAMILY, params))
        neighbors = neighbor_table(lattice_graph(3, 3), list(range(9)))
        for j in range(len(X)):
            table = stack(FAMILY, params)
            (winner,) = FAMILY.train(table, X, np.array([j]), np.array([0.05]), np.array([0.5]), neighbors)
            assert winner == np.argmax(ll[:, j]), j


class TestKernelBuild:
    """Compile on first use into a cache keyed by source and command."""

    def test_second_load_reuses_the_cached_library(self, tmp_path, monkeypatch):
        load_kernel(cache_dir=tmp_path)
        (built,) = tmp_path.iterdir()
        stamp = built.stat().st_mtime_ns

        def no_compiler(*args, **kwargs):
            raise AssertionError("compiled a second time")

        monkeypatch.setattr(_kernel.subprocess, "run", no_compiler)
        lib = load_kernel(cache_dir=tmp_path)
        assert lib.gauss_train_cycle is not None
        assert list(tmp_path.iterdir()) == [built] and built.stat().st_mtime_ns == stamp

    def test_one_library_serves_both_families(self, tmp_path):
        lib = load_kernel(cache_dir=tmp_path)
        (built,) = tmp_path.iterdir()
        assert built.name.startswith("_kernel.")
        for name in ("gauss_train_cycle", "gauss_loglik_matrix", "multinom_train_cycle"):
            assert getattr(lib, name).restype is ctypes.c_int64

    def test_fits_call_every_entry_point_and_no_other(self, monkeypatch):
        # the kernel exports only what a fit calls: one small fit per family,
        # against a spy on the loaded kernel
        lib, called = _kernel.kernel(), set()

        class Spy:
            def __getattr__(self, name):
                fn = getattr(lib, name)

                def call(*args):
                    called.add(name)
                    return fn(*args)

                return call

        monkeypatch.setattr(_kernel, "_lib", Spy())
        smlsom_fit(load_faithful(), FitConfig(rows=2, cols=2, seed=0))
        rng = np.random.default_rng(0)
        counts = rng.multinomial(15, rng.dirichlet(np.ones(4)), size=100).astype(float)
        smlsom_fit(Dataset(counts), FitConfig(family="multinomial", rows=2, cols=2, seed=0))
        assert called == set(_kernel._ENTRY_POINTS)

    def test_name_hashes_source_and_command(self, tmp_path):
        source = _kernel._KERNEL_SOURCE.read_bytes()
        name = kernel_path(source, "cc", tmp_path)
        assert name == kernel_path(source, "cc", tmp_path)
        assert name != kernel_path(source + b"\n", "cc", tmp_path)
        assert name != kernel_path(source, "gcc", tmp_path)
        assert name.parent == tmp_path and name.suffix == ".so"

    def test_two_processes_build_an_empty_cache_at_once(self, tmp_path):
        src = str(Path(_kernel.__file__).parents[1])
        code = (
            "import sys; from smlsom._kernel import load_kernel; "
            "lib = load_kernel(cache_dir=sys.argv[1]); print(lib.gauss_train_cycle is not None)"
        )
        env = {**os.environ, "PYTHONPATH": src}
        procs = [
            subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env, stdout=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        outs = [proc.communicate(timeout=120)[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0]
        assert outs == ["True\n", "True\n"]
        (built,) = tmp_path.iterdir()  # one library, no temporary files left
        assert built.suffix == ".so"

    def test_missing_compiler_raises_a_clear_error(self, tmp_path):
        cc = str(tmp_path / "no-such-cc")
        with pytest.raises(SmlsomError, match="C compiler") as info:
            load_kernel(cc=cc, cache_dir=tmp_path / "cache")
        assert f"{cc} -O2 -ffp-contract=off" in str(info.value)
        assert not any((tmp_path / "cache").iterdir())

    def test_failed_compile_shows_the_command(self, tmp_path):
        with pytest.raises(SmlsomError, match="`false -O2"):
            load_kernel(cc="false", cache_dir=tmp_path)
        assert not any(tmp_path.iterdir())


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
            by_ll = int(np.argmax([loglik_at(x, t) for t in thetas]))
            by_dist = int(np.argmin([np.sum((x - m) ** 2) for m in mus]))
            assert by_ll == by_dist


def _same_bits(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


def assert_matches_scipy(got, X, theta):
    """Within 1e-12 relative of scipy's triangular solve and einsum, which
    sum in the host BLAS's order."""
    np.testing.assert_allclose(got, scipy_gauss_loglik_rows(X, theta), rtol=1e-12, atol=0)


class TestScoringMatchesScipy:
    """The kernel's log-likelihoods are bitwise those of the numpy oracle
    written in the kernel's order (``oracle_gauss_loglik_rows``), on every
    host, and within 1e-12 relative of scipy's triangular solve."""

    @pytest.mark.parametrize("p", [*range(1, 21), 33, 48, 65])
    def test_rows(self, p):
        rng = np.random.default_rng(700 + p)
        for n in (2, 3, 63, 64, 65, 300):
            theta = GaussParams(rng.normal(size=p), random_pd_matrix(rng, p))
            X = theta.mu + 3.0 * rng.normal(size=(n, p))
            got = gauss_loglik_rows(X, theta)
            assert _same_bits(got, oracle_gauss_loglik_rows(X, theta)), n
            assert_matches_scipy(got, X, theta)

    @pytest.mark.parametrize("p", range(1, 17))
    def test_lone_row(self, p):
        # a lone row takes the path of many: bitwise its entry in a larger call
        rng = np.random.default_rng(800 + p)
        for _ in range(20):
            theta = GaussParams(rng.normal(size=p), random_pd_matrix(rng, p))
            X = theta.mu + 3.0 * rng.normal(size=(5, p))
            got = gauss_loglik_rows(X[2:3], theta)
            assert _same_bits(got, oracle_gauss_loglik_rows(X[2:3], theta))
            assert _same_bits(got, gauss_loglik_rows(X, theta)[2:3])
            assert_matches_scipy(got, X[2:3], theta)

    @pytest.mark.parametrize("p", [2, 5, 7])
    def test_data_far_from_the_origin(self, p):
        rng = np.random.default_rng(900 + p)
        theta = GaussParams(1e4 + rng.normal(size=p), random_pd_matrix(rng, p, scale=1e-2))
        for n in (1, 50):
            X = theta.mu + 0.1 * rng.normal(size=(n, p))
            got = gauss_loglik_rows(X, theta)
            assert _same_bits(got, oracle_gauss_loglik_rows(X, theta))
            assert_matches_scipy(got, X, theta)

    @pytest.mark.parametrize("p", [2, 5, 7])
    def test_jittered_near_singular_covariance(self, p):
        rng = np.random.default_rng(1000 + p)
        v = rng.normal(size=(p, 1))
        theta = GaussParams(rng.normal(size=p), v @ v.T)  # rank one: factorized after jitter
        assert not np.array_equal(theta.sigma, v @ v.T)
        for n in (1, 40):
            X = theta.mu + rng.normal(size=(n, p))
            got = gauss_loglik_rows(X, theta)
            assert _same_bits(got, oracle_gauss_loglik_rows(X, theta))
            assert_matches_scipy(got, X, theta)

    @pytest.mark.parametrize("p", [3, 5])
    def test_fortran_ordered_and_strided_rows(self, p):
        rng = np.random.default_rng(1100 + p)
        theta = GaussParams(rng.normal(size=p), random_pd_matrix(rng, p))
        big = rng.normal(size=(200, 2 * p))
        want = gauss_loglik_rows(np.ascontiguousarray(big[::2, ::2]), theta)
        for X in (np.asfortranarray(big[::2, ::2]), big[::2, ::2]):
            assert _same_bits(gauss_loglik_rows(X, theta), want)
            assert _same_bits(gauss_loglik_rows(X, theta), oracle_gauss_loglik_rows(X, theta))

    def test_matrix_rows_are_one_node_rows(self):
        rng = np.random.default_rng(1200)
        thetas = [GaussParams(rng.normal(size=5), random_pd_matrix(rng, 5)) for _ in range(7)]
        X = rng.normal(size=(129, 5))
        ll = gauss_loglik_matrix(X, stack(FAMILY, thetas))
        assert ll.shape == (7, 129)
        for row, theta in zip(ll, thetas):
            assert _same_bits(row, gauss_loglik_rows(X, theta))

    def test_wrong_width_rejected(self):
        theta = GaussParams(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="shape"):
            gauss_loglik_rows(np.zeros((4, 2)), theta)


class TestMembersFromTheMatrix:
    """``loglik_members`` reads any number of members from the cycle's
    matrix row, bitwise the rows scored alone, so ``mdl_score`` with the
    matrix equals ``mdl_score`` without it."""

    @pytest.mark.parametrize("p", range(1, 21))
    def test_member_slices(self, p):
        rng = np.random.default_rng(1300 + p)
        family = GaussianFamily()
        thetas = [GaussParams(rng.normal(size=p), random_pd_matrix(rng, p)) for _ in range(3)]
        table = stack(family, thetas)
        X = rng.normal(size=(150, p))
        ll = family.loglik_matrix(X, table)
        for size in (1, 2, 3, 17, 150):
            idx = np.sort(rng.choice(150, size, replace=False))
            for k, (row, theta) in enumerate(zip(ll, thetas)):
                alone = family.loglik_members(X, idx, table, k)
                assert _same_bits(alone, oracle_gauss_loglik_rows(X[idx], theta))
                assert _same_bits(family.loglik_members(X, idx, table, k, row), alone)
                assert _same_bits(row[idx], alone)

    def test_mdl_score_reads_the_matrix(self):
        rng = np.random.default_rng(1400)
        family = GaussianFamily()
        data = Dataset(rng.normal(size=(120, 3)))
        params = {m: GaussParams(rng.normal(size=3), random_pd_matrix(rng, 3)) for m in (1, 4, 6, 9)}
        labels = rng.choice([1, 4, 6], size=120)
        labels[7] = 9  # a node with one member
        assignment = Assignment(labels)
        ll = family.loglik_matrix(data.values, family.table.of(params))
        assert mdl_score(data, assignment, params, family, ll) == mdl_score(data, assignment, params, family)
