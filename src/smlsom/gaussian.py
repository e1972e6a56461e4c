"""Full-covariance multivariate Gaussian node model.

Log-likelihoods go through a Cholesky factorization; covariances that fail
to factorize get an escalating diagonal jitter before a singular-model
error is raised.

The training state does not factorize on every step. A moment step moves a
covariance by a scaled rank-one term, Sigma' = (1-a)Sigma + a(1-a)dd^T, so
the precision follows by Sherman-Morrison and the log-determinant by the
matrix determinant lemma, both from the quadratic form d^T P d that the
winner search has already computed. To bound round-off drift a node is
re-factorized after every ``_REFRESH_EVERY`` rank-one updates, and at once
when the lemma's factor 1 + a d^T P d is not finite and positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import SingularModelError

_LOG_2PI = np.log(2.0 * np.pi)
_JITTER_STEPS = (1e-10, 1e-8, 1e-6)
_SYM_TOL = 1e-10
_REFRESH_EVERY = 50  # rank-one updates of a training-state node between factorizations


def _factorize(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky with escalating jitter; returns (possibly jittered sigma, L)."""
    try:
        return sigma, np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        pass
    p = sigma.shape[0]
    scale = np.trace(sigma) / p
    if scale <= 0:
        scale = 1.0
    for eps in _JITTER_STEPS:
        jittered = sigma + eps * scale * np.eye(p)
        try:
            return jittered, np.linalg.cholesky(jittered)
        except np.linalg.LinAlgError:
            continue
    raise SingularModelError("covariance not positive definite after maximal jitter")


@dataclass(frozen=True)
class GaussParams:
    """Mean vector and (symmetrized, PD-after-jitter) covariance matrix."""

    mu: np.ndarray
    sigma: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (mu.size, mu.size):
            raise ValueError("sigma shape does not match mu")
        asym = np.abs(sigma - sigma.T).max()
        if asym > _SYM_TOL * max(1.0, np.abs(sigma).max()):
            raise ValueError("sigma is not symmetric")
        sigma = 0.5 * (sigma + sigma.T)
        sigma, L = _factorize(sigma)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_chol", L)

    @property
    def p(self) -> int:
        return self.mu.size

    @property
    def log_det(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self._chol))))

    @property
    def precision(self) -> np.ndarray:
        return cho_solve((self._chol, True), np.eye(self.p), check_finite=False)


def gauss_loglik(x: np.ndarray, theta: GaussParams) -> float:
    """Log density of the p-variate normal at x."""
    d = np.asarray(x, dtype=float) - theta.mu
    w = solve_triangular(theta._chol, d, lower=True, check_finite=False)
    return -0.5 * (theta.p * _LOG_2PI + theta.log_det + float(w @ w))


def gauss_loglik_rows(X: np.ndarray, theta: GaussParams) -> np.ndarray:
    """Vectorized log density for every row of X."""
    D = np.asarray(X, dtype=float) - theta.mu
    W = solve_triangular(theta._chol, D.T, lower=True, check_finite=False)
    quad = np.einsum("ij,ij->j", W, W)
    return -0.5 * (theta.p * _LOG_2PI + theta.log_det + quad)


def _moment_step(mu, sigma, d, a):
    """One stochastic moment step from the deviation d = x - mu of the
    pre-update mean. A symmetric sigma stays bitwise symmetric."""
    return mu + a * d, sigma + a * ((1.0 - a) * (d[:, None] * d) - sigma)


def gauss_update(theta: GaussParams, x: np.ndarray, a: float) -> GaussParams:
    """Stochastic method-of-moments update with effective rate a."""
    if not 0.0 <= a < 1.0:
        raise ValueError("effective rate must be in [0, 1)")
    d = np.asarray(x, dtype=float) - theta.mu
    return GaussParams(*_moment_step(theta.mu, theta.sigma, d, a))


def gauss_batch(samples: np.ndarray) -> GaussParams:
    """Method-of-moments fit: sample mean and biased (1/k) covariance."""
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("need at least one sample")
    mu = X.mean(axis=0)
    sigma = (X.T @ X) / X.shape[0] - np.outer(mu, mu)
    return GaussParams(mu, 0.5 * (sigma + sigma.T))


def gauss_df(p: int) -> int:
    """Free parameters per node: mean plus covariance upper triangle."""
    if p < 1:
        raise ValueError("dimension must be >= 1")
    return p + p * (p + 1) // 2


class _GaussTrainState:
    """Stacked node parameters for the training hot loop.

    Keeps per-node precision matrices and log determinants current so a
    winner search is a single einsum over all live nodes. ``loglik_all``
    keeps the deviations and quadratic forms it computes; ``update`` reuses
    them when handed the row last scored (the same object, unmodified) and
    rescores otherwise. An update applies the moment step to the mean and
    covariance, then moves the precision by Sherman-Morrison and the log
    determinant by the determinant lemma. After ``_REFRESH_EVERY`` such
    rank-one updates of a node, or when the lemma factor is not finite and
    positive, the update re-factorizes that node's covariance instead.
    """

    def __init__(self, params_list: list[GaussParams], update_sigma: bool = True):
        self.update_sigma = update_sigma
        p = params_list[0].p
        M = len(params_list)
        self.mus = np.stack([t.mu for t in params_list])
        self.sigmas = np.stack([t.sigma for t in params_list])
        self.precs = np.empty((M, p, p))
        self.logdets = np.empty(M)
        for k, t in enumerate(params_list):
            self.precs[k] = t.precision
            self.logdets[k] = t.log_det
        self._const = -0.5 * p * _LOG_2PI
        self._eye = np.eye(p)
        self._age = [0] * M  # rank-one updates since each node's last factorization
        self._scored = self._dev = self._quad = None  # last loglik_all row and its terms
        self._moved: set[int] = set()  # nodes updated since that call

    def loglik_all(self, x: np.ndarray) -> np.ndarray:
        D = x - self.mus
        quad = np.einsum("mi,mij,mj->m", D, self.precs, D)
        self._scored, self._dev, self._quad = x, D, quad
        self._moved = set()
        return self._const - 0.5 * (self.logdets + quad)

    def update(self, k: int, x: np.ndarray, a: float):
        if x is not self._scored or k in self._moved:
            self.loglik_all(x)
        self._moved.add(k)
        d = self._dev[k]
        if not self.update_sigma:
            self.mus[k] = self.mus[k] + a * d
            return
        self.mus[k], self.sigmas[k] = _moment_step(self.mus[k], self.sigmas[k], d, a)
        g = 1.0 + a * self._quad[k]
        if self._age[k] < _REFRESH_EVERY and 0.0 < g < math.inf:
            pd = self.precs[k] @ d
            self.precs[k] = (self.precs[k] - (a / g) * (pd[:, None] * pd)) / (1.0 - a)
            self.logdets[k] += self.mus.shape[1] * math.log1p(-a) + math.log(g)
            self._age[k] += 1
        else:
            self._refactor(k)

    def _refactor(self, k: int):
        sigma, L = _factorize(self.sigmas[k])
        self.sigmas[k] = sigma
        self.precs[k] = cho_solve((L, True), self._eye, check_finite=False)
        self.logdets[k] = 2.0 * np.sum(np.log(np.diag(L)))
        self._age[k] = 0

    def export(self) -> list[GaussParams]:
        return [GaussParams(self.mus[k], self.sigmas[k]) for k in range(len(self.mus))]


class GaussianFamily:
    """Family adapter used by the training loop, structure updates and driver."""

    name = "gaussian"

    def __init__(self, update_sigma: bool = True):
        self.update_sigma = update_sigma

    def validate(self, dataset):
        pass  # any finite real matrix is acceptable

    def loglik(self, x, theta: GaussParams) -> float:
        return gauss_loglik(x, theta)

    def loglik_rows(self, X, theta: GaussParams) -> np.ndarray:
        return gauss_loglik_rows(X, theta)

    def update(self, theta: GaussParams, x, a: float) -> GaussParams:
        return gauss_update(theta, x, a)

    def batch(self, samples) -> GaussParams:
        return gauss_batch(samples)

    def df(self, p: int) -> int:
        return gauss_df(p)

    def make_state(self, params_list):
        return _GaussTrainState(params_list, update_sigma=self.update_sigma)
