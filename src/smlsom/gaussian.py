"""Full-covariance multivariate Gaussian node model.

A fit holds its nodes in one ``GaussTable``: means, covariances, Cholesky
factors L and log-determinants, stacked. ``GaussParams`` is a single node;
a covariance that fails to factorize gets an escalating diagonal jitter
before a singular-model error is raised.

Scoring runs in the compiled kernel (``_kernel.c``, built and loaded by
``_kernel``): one call writes the log density of every row of X under
every node, -0.5 (p log 2pi + log|Sigma| + |w|^2) for L w = x - mu. The
forward substitution and the sum of squares follow the kernel's own order
(ascending, one running sum; see ``_kernel.c``), not a BLAS's, so an entry
depends on its row and node alone: a slice of the cycle's matrix, even of
one row, is bitwise the rows of the slice scored alone.

Training runs in the same kernel: one call trains a whole cycle on the
table in place, winner search and neighbor updates included, and scores a
drawn row by the same forward substitution as the matrix, so a step's
score is bitwise the matrix entry for the same parameters. A step moves
mean and covariance element-wise as mu + a d and
Sigma + a((1-a) d d^T - Sigma), for d = x - mu, which keeps a covariance
bitwise symmetric. Since Sigma' = (1-a)(Sigma + a d d^T), the factor
follows by a rank-one Cholesky update and a sqrt(1-a) scale, and the
log-determinant by the matrix determinant lemma from the |w|^2 that the
winner search has already computed; nothing is factorized during a cycle.
Without a C compiler, scoring and training raise ``SmlsomError``.

Some steps of a fit still go through numpy's BLAS and LAPACK, whose
rounding follows the host's CPU: ``gauss_batch``'s ``X.T @ X``, the
Cholesky factors of ``GaussParams`` and ``GaussTable.refresh``
(``np.linalg.cholesky``), and the eigenvalues of
``gauss_batch_neg_loglik`` (``eigvalsh``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernel import buffer, check_status, kernel, train_cycle
from .core import NodeTable
from .errors import SingularModelError

_LOG_2PI = np.log(2.0 * np.pi)
_JITTER_STEPS = (1e-10, 1e-8, 1e-6)
_SYM_TOL = 1e-10
# A closed-form batch neg-loglik is trusted only while the covariance's
# smallest eigenvalue exceeds this share of the rows' largest raw second
# moment, which bounds the relative round-off of the log-determinant.
_CLOSED_FORM_MIN_EIG = 1e-8


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
    log_det: float = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "log_det", 2.0 * float(np.sum(np.log(np.diag(L)))))

    @property
    def p(self) -> int:
        return self.mu.size


class GaussTable(NodeTable):
    """Gaussian nodes: means (M x p), covariances and their lower Cholesky
    factors (M x p x p), and log-determinants (M)."""

    FIELDS = ("mus", "sigmas", "chols", "logdets")

    @staticmethod
    def row(theta: GaussParams) -> tuple:
        return theta.mu, theta.sigma, theta._chol, theta.log_det

    def node(self, k: int) -> GaussParams:
        return GaussParams(self.mus[k].copy(), self.sigmas[k])

    def refresh(self):
        """Refactor every covariance after training, as ``GaussParams``
        would, jitter included."""
        try:
            self.chols = np.linalg.cholesky(self.sigmas)
        except np.linalg.LinAlgError:
            for k, sigma in enumerate(self.sigmas):
                self.sigmas[k], self.chols[k] = _factorize(sigma)
        self.logdets = 2.0 * np.log(np.diagonal(self.chols, axis1=1, axis2=2)).sum(axis=1)


def gauss_loglik_matrix(X: np.ndarray, table: GaussTable, rows: slice = slice(None)) -> np.ndarray:
    """M x n matrix of the log density of every row of X (n x p) under each
    of the M nodes in the table's ``rows``, from one kernel call (see the
    module docstring)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    mus, chols = table.mus[rows], table.chols[rows]
    (M, p), n = mus.shape, X.shape[0]
    consts = p * _LOG_2PI + table.logdets[rows]
    out = np.empty((M, n))
    check_status(
        kernel().gauss_loglik_matrix(
            p,
            M,
            n,
            buffer(X, np.float64, (n, p)),
            buffer(mus, np.float64, (M, p)),
            buffer(chols, np.float64, (M, p, p)),
            buffer(consts, np.float64, (M,)),
            buffer(out, np.float64, (M, n), out=True),
        )
    )
    return out


def gauss_loglik_rows(X: np.ndarray, theta: GaussParams) -> np.ndarray:
    """Log density of every row of X under one node."""
    return gauss_loglik_matrix(X, GaussTable.of({0: theta}))[0]


def gauss_batch(samples: np.ndarray) -> GaussParams:
    """Method-of-moments fit: sample mean and biased (1/k) covariance."""
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("need at least one sample")
    mu = X.mean(axis=0)
    sigma = (X.T @ X) / X.shape[0] - np.outer(mu, mu)
    return GaussParams(mu, sigma)  # GaussParams symmetrizes sigma


def gauss_batch_stats(X: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """Sufficient statistics of ``gauss_batch_neg_loglik``, one row per group
    of rows of X (``groups[i]`` is row i's group): the count, the sums of
    x - xbar and of the upper triangle of (x - xbar)(x - xbar)^T, and the
    sums of x^2. They add up over disjoint groups. Centring at the mean xbar
    of all of X keeps the covariance's precision when the data sit far from
    the origin; the uncentred squares measure how much round-off an exact
    fit on the raw rows suffers."""
    X = np.asarray(X, dtype=float)
    D = X - X.mean(axis=0)
    p = X.shape[1]
    cols = [np.bincount(groups, minlength=n_groups).astype(float)]
    cols += [np.bincount(groups, D[:, j], n_groups) for j in range(p)]
    cols += [np.bincount(groups, D[:, j] * D[:, l], n_groups) for j, l in zip(*np.triu_indices(p))]
    cols += [np.bincount(groups, X[:, j] * X[:, j], n_groups) for j in range(p)]
    return np.column_stack(cols)


def gauss_batch_neg_loglik(stats: np.ndarray, p: int) -> np.ndarray:
    """Negative log-likelihood of each group's rows under its own batch fit,
    from ``gauss_batch_stats`` of p-dimensional rows. With k rows, the fit's
    quadratic forms sum to tr(Sigma^-1 k Sigma) = kp, leaving
    k/2 (p(log 2pi + 1) + log|Sigma|).

    0 for an empty group, and NaN where the closed form is not trusted and
    the group needs an exact ``gauss_batch`` fit: at most p + 1 rows (a
    singular or nearly singular covariance), or a smallest eigenvalue at or
    below ``_CLOSED_FORM_MIN_EIG`` times the largest raw second moment, where
    the exact fit's round-off, or the jitter of ``_factorize``, moves the
    log-determinant.
    """
    k = stats[:, 0]
    kk = np.maximum(k, 1.0)[:, None]
    iu, ju = np.triu_indices(p)
    S2 = np.empty((len(stats), p, p))
    S2[:, iu, ju] = S2[:, ju, iu] = stats[:, 1 + p : 1 + p + len(iu)]
    mu = stats[:, 1 : 1 + p] / kk
    eig = np.linalg.eigvalsh(S2 / kk[:, :, None] - mu[:, :, None] * mu[:, None, :])
    raw = (stats[:, -p:] / kk).max(axis=1)
    trusted = (k > p + 1) & (eig[:, 0] > _CLOSED_FORM_MIN_EIG * raw)
    logdet = np.log(np.where(trusted[:, None], eig, 1.0)).sum(axis=1)
    neg = 0.5 * k * (p * (_LOG_2PI + 1.0) + logdet)
    return np.where(trusted, neg, np.where(k == 0, 0.0, np.nan))


def gauss_df(p: int) -> int:
    """Free parameters per node: mean plus covariance upper triangle."""
    if p < 1:
        raise ValueError("dimension must be >= 1")
    return p + p * (p + 1) // 2


class GaussianFamily:
    """Family adapter used by the training loop, structure updates and driver."""

    name = "gaussian"
    table = GaussTable
    loglik_matrix = staticmethod(gauss_loglik_matrix)
    batch = staticmethod(gauss_batch)
    batch_stats = staticmethod(gauss_batch_stats)
    batch_neg_loglik = staticmethod(gauss_batch_neg_loglik)
    df = staticmethod(gauss_df)

    def __init__(self, update_sigma: bool = True):
        self.update_sigma = update_sigma

    def validate(self, dataset):
        pass  # any finite real matrix is acceptable

    def train(self, table: GaussTable, X, draws, alphas, radii, neighbors) -> np.ndarray:
        """Train one cycle on ``table`` in place: step t draws row
        ``draws[t]`` of X and updates the winner's ``neighbors`` within
        ``radii[t]`` at rate ``alphas[t]``. Returns each step's winner row."""
        M, p = table.mus.shape
        return train_cycle(
            "gauss_train_cycle",
            X, draws, alphas, radii, neighbors, M, p,
            p * _LOG_2PI,
            int(self.update_sigma),
            buffer(table.mus, np.float64, (M, p), out=True),
            buffer(table.sigmas, np.float64, (M, p, p), out=True),
            buffer(table.chols, np.float64, (M, p, p), out=True),
            buffer(table.logdets, np.float64, (M,), out=True),
        )

    def loglik_members(self, X, idx, table: GaussTable, k: int, ll_row=None) -> np.ndarray:
        """Log densities of the rows ``idx`` of X under the table's row k;
        read from ``ll_row``, row k of the cycle's matrix, when given."""
        if ll_row is not None:
            return ll_row[idx]
        return gauss_loglik_matrix(X[idx], table, slice(k, k + 1))[0]

    def usable_rows(self, X) -> np.ndarray:
        """Which rows of X a batch fit learns from: all of them."""
        return np.ones(len(X), dtype=bool)
