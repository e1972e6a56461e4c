"""The benchmark's workloads: how each builds its inputs from the workload
seed and which fit call it times.

Each workload loads a different layer most; README.md gives the reasons
and the layer split measured at seed 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

import smlsom.driver as driver
from smlsom import (
    Assignment,
    Dataset,
    FitConfig,
    GaussParams,
    calibrate_overlap,
    gauss_loglik_rows,
    load_faithful,
    mdl_score,
    random_mixture,
    sample_mixture,
)

OMEGA_BAR = 0.01  # average pairwise overlap of the generated Gaussian mixtures


@dataclass
class Input:
    """One fit's data, its reference partition and the fit configuration."""

    data: Dataset
    labels: np.ndarray  # reference partition: generating labels, or Faithful's duration split
    bayes: np.ndarray  # the generating model's own maximum-posterior classification
    config: FitConfig
    mdl_one: float  # MDL of a single node fitted to all the data
    mdl_ref: float  # MDL of the reference partition, each part batch-fitted
    calibrate_s: float = 0.0
    sample_s: float = 0.0

    @property
    def k_true(self) -> int:
        return int(np.unique(self.labels).size)


def _input(data, labels, bayes, config, calibrate_s=0.0, sample_s=0.0) -> Input:
    family = driver.FAMILIES[config.family]()
    X = data.values
    one = mdl_score(data, Assignment(np.zeros(data.n, dtype=int)), {0: family.batch(X)}, family)
    parts = {int(k): family.batch(X[labels == k]) for k in np.unique(labels)}
    ref = mdl_score(data, Assignment(labels), parts, family)
    if not one.total > ref.total:
        raise ValueError("reference partition does not beat a single node")
    return Input(data, labels, bayes, config, one.total, ref.total, calibrate_s, sample_s)


def _fit_seed(seed: int, j: int) -> int:
    return 1000 * seed + 10 * j  # restarts use fit_seed .. fit_seed + 9


@dataclass(frozen=True)
class GaussianMixture:
    """n samples from a K-component Gaussian mixture calibrated to OMEGA_BAR."""

    name: str
    p: int
    k: int
    structure: str
    n: int
    rows: int
    cols: int
    inputs: int  # distinct inputs per pass
    restarts: int = 1
    jobs: int = 1

    def make(self, seed: int, j: int) -> Input:
        rng = np.random.default_rng([seed, j])
        spec = random_mixture(self.p, self.k, self.structure, rng)
        t0 = time.perf_counter()
        spec, _ = calibrate_overlap(spec, OMEGA_BAR, rng=rng)
        t1 = time.perf_counter()
        X, labels = sample_mixture(spec, self.n, rng)
        t2 = time.perf_counter()
        scores = [
            np.log(spec.pi[k]) + gauss_loglik_rows(X, GaussParams(spec.mus[k], spec.sigmas[k]))
            for k in range(self.k)
        ]
        bayes = np.argmax(scores, axis=0) + 1  # sample_mixture labels are 1-based
        config = FitConfig(rows=self.rows, cols=self.cols, seed=_fit_seed(seed, j))
        return _input(Dataset(X), labels, bayes, config, t1 - t0, t2 - t1)


@dataclass(frozen=True)
class MultinomialMixture:
    """n count rows of `total` draws over `categories`, from K components
    whose probabilities are Dirichlet(1)."""

    name: str
    categories: int
    k: int
    total: int
    n: int
    rows: int
    cols: int
    inputs: int
    restarts: int = 1
    jobs: int = 1

    def make(self, seed: int, j: int) -> Input:
        rng = np.random.default_rng([seed, j])
        t0 = time.perf_counter()
        probs = rng.dirichlet(np.ones(self.categories), size=self.k)
        labels = rng.integers(self.k, size=self.n)
        X = rng.multinomial(self.total, probs[labels]).astype(float)
        t1 = time.perf_counter()
        bayes = np.argmax(X @ np.log(probs).T, axis=1)  # equal priors; the coefficient is shared
        config = FitConfig(family="multinomial", rows=self.rows, cols=self.cols, seed=_fit_seed(seed, j))
        return _input(Dataset(X), labels, bayes, config, sample_s=t1 - t0)


@dataclass(frozen=True)
class FaithfulRestarts:
    """The bundled Old Faithful data through smlsom_fit_restarts; the seed
    picks the restart seeds. Reference partition: eruptions longer than
    3 minutes against the rest, the data's two well-known groups; with no
    generating model it also stands in for the Bayes classification."""

    name: str
    restarts: int
    jobs: int
    inputs: int
    rows: int = 3
    cols: int = 3

    def make(self, seed: int, j: int) -> Input:
        data = load_faithful()
        labels = (data.values[:, 0] > 3.0).astype(int)
        return _input(data, labels, labels, FitConfig(rows=self.rows, cols=self.cols, seed=_fit_seed(seed, j)))


WORKLOADS = {
    w.name: w
    for w in (
        GaussianMixture("gauss-p5-n20k", 5, 6, "nonspherical-heterogeneous", 20000, 3, 3, inputs=6),
        GaussianMixture("gauss-map8x8", 2, 6, "spherical-heterogeneous", 3000, 8, 8, inputs=2),
        MultinomialMixture("multinom-5x5", 10, 5, 20, 5000, 5, 5, inputs=5),
        FaithfulRestarts("faithful-restarts", restarts=10, jobs=2, inputs=10),
    )
}

# The same workloads at a size that fits in a second or two, for the self-test.
TINY = {
    name: replace(WORKLOADS[name], inputs=1, **small)
    for name, small in {
        "gauss-p5-n20k": dict(n=600),
        "gauss-map8x8": dict(n=300, rows=4, cols=4),
        "multinom-5x5": dict(n=300, rows=3, cols=3),
        "faithful-restarts": dict(restarts=2),
    }.items()
}


def call(workload, inp: Input, jobs: int | None = None):
    """The timed fit call. Names are looked up on ``smlsom.driver`` at call
    time, so a traced run sees its wrappers."""
    if workload.restarts > 1:
        return driver.smlsom_fit_restarts(
            inp.data, inp.config, restarts=workload.restarts, jobs=workload.jobs if jobs is None else jobs
        )
    return driver.smlsom_fit(inp.data, inp.config)
