"""Multinomial node model for count vectors.

Probabilities carry a small floor (with renormalization) so a count landing
on a zero-probability category can never drive the log-likelihood to -inf.

A row's log multinomial coefficient does not depend on the node, so the
family computes it once for the data matrix of a fit (``log_coef``) and every
later scoring, the cycle's matrix, the training draws, the deletion refits
and ``mdl_score``, slices that one vector. It is element-wise, so a slice is
bitwise the coefficient of the sliced rows.

Training runs in the compiled kernel (``_kernel.c``, built and loaded by
``_kernel``): one call trains a whole cycle, and a single node update
(``update``) is a one-draw cycle. The kernel scores each drawn
row under every node, moves the winner's neighbors toward the
row's relative frequencies, floors and renormalizes them, and keeps their
logs current. A drawn row's score log(theta) . x is one running sum in
ascending order, the kernel's own (see ``_kernel.c``), whatever the host.
Without a C compiler, training raises ``SmlsomError``.

Scoring outside training (the cycle's matrix, ``multinom_loglik_rows``) is
numpy's ``X @ log(theta)``: its summation order follows the host's BLAS, and
an entry's rounding can depend on the other rows in the product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._kernel import TrainState, buffer, check_status, cycle_args, kernel

THETA_FLOOR = 1e-10


def _floor_probabilities(theta: np.ndarray) -> np.ndarray:
    """theta / sum(theta) over the last axis, clipped at 2 * THETA_FLOOR and
    divided by its sum again; clipping above the floor keeps the second
    division from dipping back under it."""
    theta = theta / theta.sum(axis=-1, keepdims=True)
    theta = np.maximum(theta, 2.0 * THETA_FLOOR)
    return theta / theta.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class MultinomParams:
    """Probability vector on the p-simplex, floored at THETA_FLOOR."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float).reshape(-1)
        if theta.size < 2:
            raise ValueError("need at least 2 categories")
        if np.any(theta < 0) or not np.isfinite(theta).all():
            raise ValueError("theta entries must be finite and non-negative")
        if theta.sum() <= 0:
            raise ValueError("theta must have positive mass")
        object.__setattr__(self, "theta", _floor_probabilities(theta))

    @property
    def p(self) -> int:
        return self.theta.size


def _log_coef(X: np.ndarray) -> np.ndarray:
    """Log multinomial coefficient log T! - sum log x_i! of every row."""
    return gammaln(X.sum(axis=1) + 1.0) - gammaln(X + 1.0).sum(axis=1)


def multinom_loglik_rows(X: np.ndarray, theta: MultinomParams, coef: np.ndarray | None = None) -> np.ndarray:
    """Log-likelihood of every row of X; ``coef`` is the rows' ``_log_coef``
    when the caller already has it."""
    X = np.asarray(X, dtype=float)
    return (_log_coef(X) if coef is None else coef) + X @ np.log(theta.theta)


def multinom_loglik_matrix(X: np.ndarray, thetas: list[MultinomParams], coef: np.ndarray) -> np.ndarray:
    """Rows of ``multinom_loglik_rows`` for every node, bitwise, sharing the
    rows' coefficient ``coef``."""
    X = np.asarray(X, dtype=float)
    return np.stack([coef + X @ np.log(t.theta) for t in thetas])


def multinom_batch(samples: np.ndarray) -> MultinomParams:
    """Mean of per-row relative frequencies, skipping all-zero rows.

    This is the fixed point of the stochastic update rule, so node-deletion
    re-estimation stays consistent with online training.
    """
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("need at least one sample")
    totals = X.sum(axis=1)
    keep = totals > 0
    if not keep.any():
        raise ValueError("all rows are zero")
    freqs = X[keep] / totals[keep, None]
    return MultinomParams(freqs.mean(axis=0))


def multinom_batch_stats(X: np.ndarray, coef: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """Sufficient statistics of ``multinom_batch_neg_loglik``, one row per
    group of rows of X (``groups[i]`` is row i's group): the number of rows
    with a count, the sum of their relative frequencies, the sum of the
    counts and the sum of the log coefficients ``coef``. They add up over
    disjoint groups."""
    totals = X.sum(axis=1)
    usable = totals > 0
    scale = np.where(usable, totals, 1.0)
    cols = [np.bincount(groups, usable, n_groups)]
    cols += [np.bincount(groups, X[:, j] / scale, n_groups) for j in range(X.shape[1])]
    cols += [np.bincount(groups, X[:, j], n_groups) for j in range(X.shape[1])]
    cols.append(np.bincount(groups, coef, n_groups))
    return np.column_stack(cols)


def multinom_batch_neg_loglik(stats: np.ndarray, p: int) -> np.ndarray:
    """Negative log-likelihood of each group's rows under its own batch fit,
    from ``multinom_batch_stats`` of p categories: −Σcoef − colsum·log θ,
    with θ the mean relative frequency after ``MultinomParams``' floor and
    renormalisation. A group with no count scores 0 under any parameters,
    so the node's own parameters, which the deletion search keeps for it,
    are not needed."""
    usable, freqs, counts, coef = stats[:, 0], stats[:, 1 : 1 + p], stats[:, 1 + p : 1 + 2 * p], stats[:, -1]
    # the sum of frequencies, not their mean: the renormalisation divides out the count
    theta = _floor_probabilities(np.where(usable[:, None] > 0, freqs, 1.0))
    return -(coef + np.einsum("ij,ij->i", counts, np.log(theta)))


def multinom_df(p: int) -> int:
    """Free parameters per node: simplex dimension."""
    if p < 2:
        raise ValueError("dimension must be >= 2")
    return p - 1


class _MultinomTrainState(TrainState):
    """Stacked probabilities and their logs, updated in place by the kernel.

    ``run`` trains a whole cycle in one kernel call; ``update`` moves one
    node as a one-draw cycle (see ``TrainState``), and an all-zero row
    leaves it as it is.
    """

    def __init__(self, params_list: list[MultinomParams], log_coef):
        self._lib = kernel()
        self._log_coef = log_coef  # the family's coefficient vector of a data matrix
        self.thetas = np.stack([t.theta for t in params_list])
        self.logthetas = np.log(self.thetas)

    def __len__(self) -> int:
        return len(self.thetas)

    def run(self, X, draws, alphas, radii, neighbors) -> np.ndarray:
        """Train one cycle (see ``smlsom.mlsom_train``); returns each step's
        winner index."""
        M, p = self.thetas.shape
        rows, args = cycle_args(X, draws, alphas, radii, neighbors, M, p)  # rows: kept alive for the call
        coef = self._log_coef(X)[draws]
        winners = np.empty(len(draws), dtype=np.int64)
        check_status(
            self._lib.multinom_train_cycle(
                *args,
                buffer(coef, np.float64, winners.shape),
                2.0 * THETA_FLOOR,
                buffer(self.thetas, np.float64, (M, p), out=True),
                buffer(self.logthetas, np.float64, (M, p), out=True),
                buffer(winners, np.int64, winners.shape, out=True),
            )
        )
        return winners

    def export(self) -> list[MultinomParams]:
        return [MultinomParams(t) for t in self.thetas]


class MultinomialFamily:
    """Family adapter used by the training loop, structure updates and driver."""

    name = "multinomial"

    def __init__(self):
        self._coef = (None, None)  # the last data matrix seen and its rows' coefficients

    def validate(self, dataset):
        dataset.validate_counts()

    def log_coef(self, X) -> np.ndarray:
        """``_log_coef`` of every row of X, kept for the next call with the
        same matrix: a fit passes its data matrix, never modified, to every
        call, so the coefficients are computed once per fit."""
        seen, coef = self._coef
        if seen is not X:
            coef = _log_coef(np.asarray(X, dtype=float))
            self._coef = (X, coef)
        return coef

    def loglik_members(self, X, idx, theta: MultinomParams, ll_row=None) -> np.ndarray:
        """``multinom_loglik_rows(X[idx], theta)``, bitwise, with the
        coefficients sliced from ``log_coef(X)``. ``ll_row`` (theta's row of
        the cycle's matrix) is not read: the matrix product over all of X can
        round a row differently from one over the members alone."""
        return multinom_loglik_rows(X[idx], theta, self.log_coef(X)[idx])

    def loglik_matrix(self, X, thetas: list[MultinomParams]) -> np.ndarray:
        return multinom_loglik_matrix(X, thetas, self.log_coef(X))

    def batch(self, samples) -> MultinomParams:
        return multinom_batch(samples)

    def batch_stats(self, X, groups, n_groups) -> np.ndarray:
        return multinom_batch_stats(np.asarray(X, dtype=float), self.log_coef(X), groups, n_groups)

    def batch_neg_loglik(self, stats, p: int) -> np.ndarray:
        return multinom_batch_neg_loglik(stats, p)

    def usable_rows(self, X) -> np.ndarray:
        """Which rows of X a batch fit learns from: those with a count."""
        return np.asarray(X, dtype=float).sum(axis=1) > 0

    def df(self, p: int) -> int:
        return multinom_df(p)

    def make_state(self, params_list):
        return _MultinomTrainState(params_list, self.log_coef)
