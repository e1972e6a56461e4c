"""Multinomial node model for count vectors.

Probabilities carry a small floor (with renormalization) so a count landing
on a zero-probability category can never drive the log-likelihood to -inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

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


def multinom_loglik(x: np.ndarray, theta: MultinomParams) -> float:
    """Log pmf including the multinomial coefficient."""
    x = np.asarray(x, dtype=float)
    total = x.sum()
    coef = gammaln(total + 1.0) - gammaln(x + 1.0).sum()
    return float(coef + x @ np.log(theta.theta))


def multinom_loglik_rows(X: np.ndarray, theta: MultinomParams) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    totals = X.sum(axis=1)
    coef = gammaln(totals + 1.0) - gammaln(X + 1.0).sum(axis=1)
    return coef + X @ np.log(theta.theta)


def multinom_update(theta: MultinomParams, x: np.ndarray, a: float) -> MultinomParams:
    """Move theta toward the sample's relative frequencies at rate a.

    An all-zero count vector leaves theta untouched.
    """
    if not 0.0 <= a < 1.0:
        raise ValueError("effective rate must be in [0, 1)")
    x = np.asarray(x, dtype=float)
    total = x.sum()
    if total == 0:
        return theta
    return MultinomParams(theta.theta + a * (x / total - theta.theta))


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
    """Stacked theta matrix plus cached logs for the training hot loop."""

    def __init__(self, params_list: list[MultinomParams]):
        self.thetas = np.stack([t.theta for t in params_list])
        self.logthetas = np.log(self.thetas)

    def loglik_all(self, x: np.ndarray) -> np.ndarray:
        total = x.sum()
        coef = gammaln(total + 1.0) - gammaln(x + 1.0).sum()
        return coef + self.logthetas @ x

    def update(self, k: int, x: np.ndarray, a: float):
        total = x.sum()
        if total == 0:
            return
        theta = self.thetas[k] + a * (x / total - self.thetas[k])
        theta = np.maximum(theta, 2.0 * THETA_FLOOR)
        theta /= theta.sum()
        self.thetas[k] = theta
        self.logthetas[k] = np.log(theta)

    def run(self, X, draws, alphas, radii, neighbors) -> np.ndarray:
        """Train one cycle step by step (see ``smlsom.mlsom_train``), through
        ``self.update``; returns each step's winner index."""
        ptr, idx, hops = (a.tolist() for a in neighbors)
        neigh = [list(zip(hops[a:b], idx[a:b])) for a, b in zip(ptr, ptr[1:])]
        winners = []
        for i, alpha, radius in zip(draws.tolist(), alphas.tolist(), radii.tolist()):
            x = X[i]
            c = int(self.loglik_all(x).argmax())
            winners.append(c)
            for d, k in neigh[c]:
                if d > radius:
                    break
                self.update(k, x, alpha)
        return np.array(winners, dtype=np.int64)

    def export(self) -> list[MultinomParams]:
        return [MultinomParams(t) for t in self.thetas]


class MultinomialFamily:
    """Family adapter used by the training loop, structure updates and driver."""

    name = "multinomial"

    def validate(self, dataset):
        dataset.validate_counts()

    def loglik(self, x, theta: MultinomParams) -> float:
        return multinom_loglik(x, theta)

    def loglik_rows(self, X, theta: MultinomParams) -> np.ndarray:
        return multinom_loglik_rows(X, theta)

    def update(self, theta: MultinomParams, x, a: float) -> MultinomParams:
        return multinom_update(theta, x, a)

    def batch(self, samples) -> MultinomParams:
        return multinom_batch(samples)

    def df(self, p: int) -> int:
        return multinom_df(p)

    def make_state(self, params_list):
        return _MultinomTrainState(params_list)
