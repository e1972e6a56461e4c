"""Overlap-controlled Gaussian-mixture dataset generator.

Follows the MixSim recipe: draw a random mixture, then rescale every
covariance by a common constant until the Monte Carlo estimate of the
average pairwise misclassification overlap hits the requested target.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CalibrationError
from .gaussian import GaussParams, gauss_loglik_matrix

STRUCTURES = (
    "spherical-homogeneous",
    "spherical-heterogeneous",
    "nonspherical-homogeneous",
    "nonspherical-heterogeneous",
)


@dataclass(frozen=True)
class MixtureSpec:
    pi: np.ndarray
    mus: np.ndarray  # (M, p)
    sigmas: np.ndarray  # (M, p, p)
    structure: str = "nonspherical-heterogeneous"

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-9:
            raise ValueError("mixing probabilities must be a distribution")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "mus", np.asarray(self.mus, dtype=float))
        object.__setattr__(self, "sigmas", np.asarray(self.sigmas, dtype=float))

    @property
    def n_components(self) -> int:
        return self.pi.size

    @property
    def p(self) -> int:
        return self.mus.shape[1]

    def scaled(self, c: float) -> "MixtureSpec":
        return replace(self, sigmas=self.sigmas * c)


def random_mixture(
    p: int,
    n_components: int,
    structure: str,
    rng: np.random.Generator,
    pi: np.ndarray | None = None,
) -> MixtureSpec:
    """Means uniform on the unit cube; covariances from a standard Wishart
    with p+1 degrees of freedom, or sigma*I for the spherical variants."""
    if n_components < 2 or p < 1:
        raise ValueError("need n_components >= 2 and p >= 1")
    if structure not in STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}")
    if pi is None:
        pi = np.full(n_components, 1.0 / n_components)
    mus = rng.uniform(size=(n_components, p))

    spherical, homogeneity = structure.split("-")

    def one_sigma():
        if spherical == "spherical":
            return rng.uniform() * np.eye(p)
        from scipy.stats import wishart  # lazy: scipy.stats dominates the import time of smlsom

        return wishart.rvs(df=p + 1, scale=np.eye(p), random_state=rng).reshape(p, p)

    if homogeneity == "homogeneous":
        shared = one_sigma()
        sigmas = np.stack([shared] * n_components)
    else:
        sigmas = np.stack([one_sigma() for _ in range(n_components)])
    return MixtureSpec(pi, mus, sigmas, structure)


def overlap_mc(
    spec: MixtureSpec, n_mc: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Monte Carlo pairwise misclassification overlaps.

    omega[m, l] (m != l) estimates the probability that a draw from
    component m scores strictly higher under component l, weighting both by
    their mixing probabilities; density comparisons happen in log space.
    Returns the symmetrized pair matrix and its average over all pairs.
    """
    if n_mc < 1000:
        raise ValueError("n_mc must be >= 1000")
    M = spec.n_components
    comps = [GaussParams(spec.mus[m], spec.sigmas[m]) for m in range(M)]
    log_pi = np.log(spec.pi)
    omega_cond = np.zeros((M, M))
    for m in range(M):
        X = rng.multivariate_normal(spec.mus[m], spec.sigmas[m], size=n_mc)
        scores = log_pi[:, None] + gauss_loglik_matrix(X, comps)
        for l in range(M):
            if l != m:
                omega_cond[l, m] = np.mean(scores[l] > scores[m])
    pair = omega_cond + omega_cond.T
    iu = np.triu_indices(M, k=1)
    return pair, float(pair[iu].mean())


def calibrate_overlap(
    spec: MixtureSpec,
    target: float,
    n_mc: int = 10_000,
    rng: np.random.Generator | None = None,
    max_iter: int = 40,
) -> tuple[MixtureSpec, float]:
    """Bisection on the common covariance multiplier c.

    Every Monte Carlo evaluation reuses the same seed, making the objective
    a noise-free, effectively monotone function of c.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target overlap must be in (0, 1)")
    seed = int((rng or np.random.default_rng()).integers(2**31))

    def achieved(c: float) -> float:
        return overlap_mc(spec.scaled(c), n_mc, np.random.default_rng(seed))[1]

    lo, hi = 1e-3, 1e3
    f_lo, f_hi = achieved(lo), achieved(hi)
    while f_lo > target and lo > 1e-6:
        lo /= 10.0
        f_lo = achieved(lo)
    while f_hi < target and hi < 1e6:
        hi *= 10.0
        f_hi = achieved(hi)
    if f_lo > target or f_hi < target:
        raise CalibrationError(
            f"target overlap {target} unreachable within multiplier bracket"
        )

    tol = max(0.002, 0.05 * target)
    c, val = lo, f_lo
    for _ in range(max_iter):
        c = np.sqrt(lo * hi)  # geometric midpoint over a wide bracket
        val = achieved(c)
        if abs(val - target) <= tol:
            break
        if val < target:
            lo = c
        else:
            hi = c
    return spec.scaled(c), val


def sample_mixture(
    spec: MixtureSpec, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n labeled samples; returns the n x p value matrix and 1-based
    component labels. Wrap in a Dataset for fitting (which needs n >= 2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    comps = rng.choice(spec.n_components, size=n, p=spec.pi)
    X = np.empty((n, spec.p))
    for m in range(spec.n_components):
        idx = np.flatnonzero(comps == m)
        if idx.size:
            X[idx] = rng.multivariate_normal(spec.mus[m], spec.sigmas[m], size=idx.size)
    return X, comps + 1
