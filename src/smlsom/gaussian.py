"""Full-covariance multivariate Gaussian node model.

A fit holds its nodes in one ``GaussTable``: means, covariances, Cholesky
factors L and log-determinants, stacked. ``GaussParams`` is a single node;
a covariance that fails to factorize gets an escalating diagonal jitter,
node by node, before a singular-model error is raised.

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

Batch fits run in the kernel too, in its own order: the moments of groups
of rows (``gauss_batch``, ``GaussianFamily.refit``), the one Cholesky
factorization and its jitter ladder (``GaussParams``, ``GaussTable.refresh``
and the refits), and the deletion search's closed-form estimates
(``GaussianFamily.batch_parts``). Only the initial map's PCA
(``driver.pca_init``: ``centered.T @ centered`` and ``eigh``) still goes
through numpy's BLAS and LAPACK, whose rounding follows the host's CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernel import buffer, check_status, kernel, train_cycle
from .core import NodeTable
from .errors import SingularModelError

_LOG_2PI = np.log(2.0 * np.pi)
# A covariance that does not factorize has its diagonal raised by each step
# in turn times trace / p: 1 when that is not positive, and no less than
# _JITTER_FLOOR times its largest Sigma_ii + mu_i^2, for a trace of round-off.
_JITTER_STEPS = np.array([1e-10, 1e-8, 1e-6])
_JITTER_FLOOR = 1e-8
_SYM_TOL = 1e-10
# A closed-form batch neg-loglik is trusted only while every pivot of the
# covariance's Cholesky factor exceeds this share of the rows' largest raw
# second moment, which bounds the relative round-off of the log-determinant.
_CLOSED_FORM_MIN_EIG = 1e-8


def _rows(X: np.ndarray, idx, ptr, G: int, p: int) -> tuple:
    """Addresses of the n x p matrix X and of G groups of its rows,
    ``idx[ptr[g]:ptr[g + 1]]``, or rows 0 .. ptr[g + 1] - ptr[g] with idx
    None, for a kernel call while the caller holds them."""
    if idx is not None and idx.size and not 0 <= idx.min() <= idx.max() < len(X):
        raise ValueError("a group names a row that is not there")
    at = None if idx is None else buffer(idx, np.int64, (int(ptr[-1]),))
    return buffer(X, np.float64, (len(X), p)), at, buffer(ptr, np.int64, (G + 1,))


def _fit_nodes(table: "GaussTable", X=None, idx=None, ptr=None):
    """The kernel's ``gauss_fit_nodes`` on the table in place: each row's
    factor and log-determinant, its covariance jittered where it needs it;
    with X, row g is first refitted to the rows ``idx[ptr[g]:ptr[g + 1]]``
    of X, unless there are none."""
    (G, p), steps = table.mus.shape, _JITTER_STEPS
    status = kernel().gauss_fit_nodes(
        p, G, *((None,) * 3 if X is None else _rows(X, idx, ptr, G, p)),
        len(steps), buffer(steps, np.float64, steps.shape), _JITTER_FLOOR,
        buffer(table.mus, np.float64, (G, p), out=True), buffer(table.sigmas, np.float64, (G, p, p), out=True),
        buffer(table.chols, np.float64, (G, p, p), out=True), buffer(table.logdets, np.float64, (G,), out=True),
    )
    if status >= 0:
        raise SingularModelError("covariance not positive definite after maximal jitter")
    check_status(status)


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
        node = GaussTable.blank(1, mu.size)
        node.mus[0], node.sigmas[0] = mu, 0.5 * (sigma + sigma.T)
        _fit_nodes(node)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", node.sigmas[0])
        object.__setattr__(self, "_chol", node.chols[0])
        object.__setattr__(self, "log_det", float(node.logdets[0]))

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

    @classmethod
    def blank(cls, M: int, p: int) -> "GaussTable":
        return cls(list(range(M)), np.zeros((M, p)), np.zeros((M, p, p)), np.zeros((M, p, p)), np.zeros(M))

    def node(self, k: int) -> GaussParams:
        return GaussParams(self.mus[k].copy(), self.sigmas[k])

    def refresh(self):
        """Refactor every covariance after training, as ``GaussParams``
        would, jitter included."""
        _fit_nodes(self)


def _loglik_groups(X, table: GaussTable, ptr, idx=None, parts=None) -> np.ndarray:
    """The kernel's ``gauss_loglik_groups``: the log density of rows
    ``idx[ptr[g]:ptr[g + 1]]`` of X, or of rows 0 .. ptr[g + 1] - ptr[g]
    when idx is None, under the table's row g; each group's sum goes to
    ``parts`` when given."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    (G, p), m = table.mus.shape, int(ptr[-1])
    consts, out = p * _LOG_2PI + table.logdets, np.empty(m)
    check_status(  # the arrays stay referenced here while the kernel reads their addresses
        kernel().gauss_loglik_groups(
            p, G, *_rows(X, idx, ptr, G, p),
            buffer(table.mus, np.float64, (G, p)), buffer(table.chols, np.float64, (G, p, p)),
            buffer(consts, np.float64, (G,)), buffer(out, np.float64, (m,), out=True),
            None if parts is None else buffer(parts, np.float64, (G,), out=True),
        )
    )
    return out


def gauss_loglik_matrix(X: np.ndarray, table: GaussTable) -> np.ndarray:
    """M x n matrix of the log density of every row of X (n x p) under each
    of the table's M nodes, from one kernel call (see the module
    docstring)."""
    M, n = len(table.mus), len(X)
    return _loglik_groups(X, table, np.arange(M + 1) * n).reshape(M, n)


def gauss_loglik_rows(X: np.ndarray, theta: GaussParams) -> np.ndarray:
    """Log density of every row of X under one node."""
    return gauss_loglik_matrix(X, GaussTable.of({0: theta}))[0]


def gauss_batch(samples: np.ndarray) -> GaussParams:
    """Method-of-moments fit: sample mean and biased (1/k) covariance, the
    kernel's moments (see ``_kernel.c``)."""
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(samples, dtype=float)))
    k, p = X.shape
    if k < 1:
        raise ValueError("need at least one sample")
    fit = GaussTable.blank(1, p)
    _fit_nodes(fit, X, np.arange(k), np.array([0, k]))
    return fit.node(0)


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
    df = staticmethod(gauss_df)

    def __init__(self, update_sigma: bool = True):
        self.update_sigma = update_sigma

    def batch_parts(self, X, pair_of, cand, recv, M: int) -> tuple[np.ndarray, np.ndarray]:
        """Negative log-likelihoods under their own batch fits, in closed form,
        of each of the M nodes' rows and of each pair's: row i of X moves in
        pair ``pair_of[i]``, which hands rows of node ``cand[j]`` to node
        ``recv[j]``, and pair j's part covers those and node ``recv[j]``'s
        rows. With k rows a fit's quadratic forms sum to kp, leaving
        k/2 (p(log 2pi + 1) + log|Sigma|), from statistics centred at the
        mean of X, which keeps their precision far from the origin.

        0 for an empty group, and NaN where the closed form is not trusted
        and the group needs an exact fit: at most p + 1 rows (a singular or
        nearly singular covariance), or a Cholesky pivot at or below
        ``_CLOSED_FORM_MIN_EIG`` times the largest raw second moment, where
        the exact fit's round-off or jitter moves the log-determinant."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        (n, p), P = X.shape, len(cand)
        nodes = np.concatenate([cand, recv])
        if n and not 0 <= pair_of.min() <= pair_of.max() < P or P and not 0 <= nodes.min() <= nodes.max() < M:
            raise ValueError("a pair names a node that is not there")
        node_neg, pair_neg, xbar = np.empty(M), np.empty(P), X.mean(axis=0)
        check_status(
            kernel().gauss_closed_form(
                p, n, M, P, buffer(X, np.float64, (n, p)), buffer(xbar, np.float64, (p,)), buffer(pair_of, np.int64, (n,)),
                buffer(cand, np.int64, (P,)), buffer(recv, np.int64, (P,)), p * (_LOG_2PI + 1.0),
                _CLOSED_FORM_MIN_EIG, buffer(node_neg, np.float64, (M,), out=True), buffer(pair_neg, np.float64, (P,), out=True),
            )
        )
        return node_neg, pair_neg

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
        return _loglik_groups(X, table.take([k]), np.array([0, len(idx)]), np.ascontiguousarray(idx, dtype=np.int64))

    def refit(self, X, table: GaussTable, groups: list) -> tuple[GaussTable, np.ndarray]:
        """Batch refits of table rows, group j = (k, idx) refitting row k on
        the ascending rows idx of X. Returns a table whose row j is
        ``gauss_batch`` of X[idx], or row k itself when idx is empty, and
        each group's ``loglik_members(...).sum()`` under it; both bitwise."""
        X, out = np.ascontiguousarray(X, dtype=np.float64), table.take([k for k, _ in groups])
        ptr, parts = np.cumsum([0, *(len(idx) for _, idx in groups)]), np.empty(len(groups))
        idx = np.concatenate([np.empty(0, np.int64), *(idx for _, idx in groups)])
        _fit_nodes(out, X, idx, ptr)
        _loglik_groups(X, out, ptr, idx, parts)
        return out, parts
