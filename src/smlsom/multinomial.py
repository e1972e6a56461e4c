"""Multinomial node model for count vectors.

Probabilities carry a small floor (with renormalization) so a count landing
on a zero-probability category can never drive the log-likelihood to -inf.

Training runs in the compiled kernel (``_kernel.c``, built and loaded by
``_kernel``): one call trains a whole cycle. Numpy computes the
multinomial coefficient of every drawn row once per cycle; the kernel
scores each row under every node, moves the winner's neighbors toward the
row's relative frequencies, floors and renormalizes them, and keeps their
logs current. Probabilities come out bitwise equal to the same steps
written in numpy whenever winners agree. Without a C compiler, training
raises ``SmlsomError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._kernel import buffer, check_status, cycle_args, kernel

THETA_FLOOR = 1e-10


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
        s = theta.sum()
        if s <= 0:
            raise ValueError("theta must have positive mass")
        # clip above the floor so renormalization cannot dip back under it
        theta = np.maximum(theta / s, 2.0 * THETA_FLOOR)
        theta = theta / theta.sum()
        object.__setattr__(self, "theta", theta)

    @property
    def p(self) -> int:
        return self.theta.size


def _log_coef(X: np.ndarray) -> np.ndarray:
    """Log multinomial coefficient log T! - sum log x_i! of every row."""
    return gammaln(X.sum(axis=1) + 1.0) - gammaln(X + 1.0).sum(axis=1)


def multinom_loglik_rows(X: np.ndarray, theta: MultinomParams) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return _log_coef(X) + X @ np.log(theta.theta)


def multinom_loglik_matrix(X: np.ndarray, thetas: list[MultinomParams]) -> np.ndarray:
    """Rows of ``multinom_loglik_rows`` for every node, bitwise, with the
    coefficient computed once."""
    X = np.asarray(X, dtype=float)
    coef = _log_coef(X)
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


def multinom_df(p: int) -> int:
    """Free parameters per node: simplex dimension."""
    if p < 2:
        raise ValueError("dimension must be >= 2")
    return p - 1


class _MultinomTrainState:
    """Stacked probabilities and their logs, updated in place by the kernel.

    ``run`` trains a whole cycle in one kernel call; ``update`` applies one
    node update through the same kernel routine.
    """

    def __init__(self, params_list: list[MultinomParams]):
        self._lib = kernel()
        self.thetas = np.stack([t.theta for t in params_list])
        self.logthetas = np.log(self.thetas)

    def _state_args(self) -> tuple:
        M, p = self.thetas.shape
        return (
            2.0 * THETA_FLOOR,
            buffer(self.thetas, np.float64, (M, p), out=True),
            buffer(self.logthetas, np.float64, (M, p), out=True),
        )

    def update(self, k: int, x: np.ndarray, a: float):
        """Move node k toward the count row x at rate a (an all-zero row
        leaves it as it is)."""
        M, p = self.thetas.shape
        if not 0 <= k < M:
            raise IndexError(f"node index {k} out of range for {M} nodes")
        x = np.ascontiguousarray(x, dtype=np.float64)
        check_status(self._lib.multinom_update_node(p, int(k), buffer(x, np.float64, (p,)), a, *self._state_args()))

    def run(self, X, draws, alphas, radii, neighbors) -> np.ndarray:
        """Train one cycle (see ``smlsom.mlsom_train``); returns each step's
        winner index."""
        M, p = self.thetas.shape
        X, args = cycle_args(X, draws, alphas, radii, neighbors, M, p)
        coef = _log_coef(X[draws])
        winners = np.empty(len(draws), dtype=np.int64)
        check_status(
            self._lib.multinom_train_cycle(
                *args,
                buffer(coef, np.float64, winners.shape),
                *self._state_args(),
                buffer(winners, np.int64, winners.shape, out=True),
            )
        )
        return winners

    def export(self) -> list[MultinomParams]:
        return [MultinomParams(t) for t in self.thetas]


class MultinomialFamily:
    """Family adapter used by the training loop, structure updates and driver."""

    name = "multinomial"

    def validate(self, dataset):
        dataset.validate_counts()

    def loglik_rows(self, X, theta: MultinomParams) -> np.ndarray:
        return multinom_loglik_rows(X, theta)

    def loglik_matrix(self, X, thetas: list[MultinomParams]) -> np.ndarray:
        return multinom_loglik_matrix(X, thetas)

    def batch(self, samples) -> MultinomParams:
        return multinom_batch(samples)

    def usable_rows(self, X) -> np.ndarray:
        """Which rows of X a batch fit learns from: those with a count."""
        return np.asarray(X, dtype=float).sum(axis=1) > 0

    def df(self, p: int) -> int:
        return multinom_df(p)

    def make_state(self, params_list):
        return _MultinomTrainState(params_list)
