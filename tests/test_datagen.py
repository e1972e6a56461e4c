import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from smlsom import (
    MixtureSpec,
    STRUCTURES,
    calibrate_overlap,
    overlap_mc,
    random_mixture,
    sample_mixture,
)
from smlsom.errors import CalibrationError

from oracles import oracle_overlap_mc


def simple_spec(d=2.0, s=1.0):
    """Two unit-weight-split spherical components separated by d along x."""
    return MixtureSpec(
        pi=[0.5, 0.5],
        mus=[[0.0, 0.0], [d, 0.0]],
        sigmas=[s * np.eye(2), s * np.eye(2)],
    )


class TestMixtureSpec:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            MixtureSpec(pi=[0.7, 0.7], mus=np.zeros((2, 1)), sigmas=np.ones((2, 1, 1)))

    def test_scaled_multiplies_covariances_only(self):
        spec = simple_spec()
        big = spec.scaled(4.0)
        np.testing.assert_array_equal(big.mus, spec.mus)
        np.testing.assert_allclose(big.sigmas, 4.0 * spec.sigmas)


class TestRandomMixture:
    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_shapes_and_validity(self, structure):
        rng = np.random.default_rng(0)
        spec = random_mixture(3, 4, structure, rng)
        assert spec.mus.shape == (4, 3)
        assert spec.sigmas.shape == (4, 3, 3)
        assert np.all(spec.mus >= 0) and np.all(spec.mus <= 1)
        for S in spec.sigmas:
            np.testing.assert_allclose(S, S.T, atol=1e-12)
            assert np.linalg.eigvalsh(S).min() > 0

    def test_spherical_means_scaled_identity(self):
        rng = np.random.default_rng(1)
        spec = random_mixture(3, 3, "spherical-heterogeneous", rng)
        for S in spec.sigmas:
            np.testing.assert_allclose(S, S[0, 0] * np.eye(3), atol=1e-12)

    def test_homogeneous_shares_one_covariance(self):
        rng = np.random.default_rng(2)
        spec = random_mixture(2, 4, "nonspherical-homogeneous", rng)
        for S in spec.sigmas[1:]:
            np.testing.assert_array_equal(S, spec.sigmas[0])

    def test_heterogeneous_covariances_differ(self):
        rng = np.random.default_rng(3)
        spec = random_mixture(2, 4, "nonspherical-heterogeneous", rng)
        assert not np.array_equal(spec.sigmas[0], spec.sigmas[1])

    def test_bad_arguments(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            random_mixture(2, 1, "spherical-homogeneous", rng)
        with pytest.raises(ValueError):
            random_mixture(2, 3, "banana", rng)


class TestOverlapMc:
    def test_two_equal_spheres_closed_form(self):
        # equal weights, equal spherical covariances: each one-sided overlap
        # is Phi(-d / (2 sqrt(s))), so the pair total doubles it
        for d, s in [(2.0, 1.0), (4.0, 1.0), (2.0, 4.0)]:
            spec = simple_spec(d, s)
            pair, mean = overlap_mc(spec, 200_000, np.random.default_rng(5))
            want = 2 * norm.cdf(-d / (2 * np.sqrt(s)))
            assert mean == pytest.approx(want, abs=0.004)
            assert pair[0, 1] == pair[1, 0] == pytest.approx(mean)

    @pytest.mark.parametrize("p, k, structure", [(2, 6, "spherical-heterogeneous"), (5, 6, "nonspherical-heterogeneous"), (7, 3, "nonspherical-homogeneous")])
    def test_matches_one_component_at_a_time_scipy_scoring(self, p, k, structure):
        # bitwise against scoring each component alone (``oracle_overlap_mc``),
        # in numpy in the kernel's order; scipy's order is only close to it
        spec = random_mixture(p, k, structure, np.random.default_rng(40 + p))
        pair, mean = overlap_mc(spec, 5_000, np.random.default_rng(41))
        want_pair, want_mean = oracle_overlap_mc(spec, 5_000, np.random.default_rng(41))
        assert pair.tobytes() == want_pair.tobytes() and mean == want_mean

    def test_identical_components_tie_never_strictly_wins(self):
        # strict comparison means exactly tied densities never misclassify
        spec = simple_spec(0.0, 1.0)
        _, mean = overlap_mc(spec, 20_000, np.random.default_rng(6))
        assert mean == 0.0

    def test_far_components_overlap_near_zero(self):
        spec = simple_spec(50.0, 1.0)
        _, mean = overlap_mc(spec, 20_000, np.random.default_rng(7))
        assert mean == pytest.approx(0.0, abs=1e-4)

    def test_rejects_tiny_mc_budget(self):
        with pytest.raises(ValueError):
            overlap_mc(simple_spec(), 10, np.random.default_rng(8))


class TestCalibrateOverlap:
    @pytest.mark.parametrize("target", [0.001, 0.01, 0.05])
    def test_hits_target_within_tolerance(self, target):
        rng = np.random.default_rng(9)
        spec = random_mixture(2, 4, "spherical-heterogeneous", rng)
        scaled, achieved = calibrate_overlap(spec, target, rng=rng)
        assert abs(achieved - target) <= max(0.002, 0.05 * target)
        # independent re-measurement of the returned spec agrees
        _, check = overlap_mc(scaled, 100_000, np.random.default_rng(10))
        assert check == pytest.approx(target, abs=max(0.004, 0.25 * target))

    def test_only_covariances_change(self):
        rng = np.random.default_rng(11)
        spec = random_mixture(2, 3, "nonspherical-heterogeneous", rng)
        scaled, _ = calibrate_overlap(spec, 0.01, rng=rng)
        np.testing.assert_array_equal(scaled.mus, spec.mus)
        ratio = scaled.sigmas / spec.sigmas
        np.testing.assert_allclose(ratio, ratio.flat[0], rtol=1e-9)

    def test_invalid_target_rejected(self):
        spec = simple_spec()
        with pytest.raises(ValueError):
            calibrate_overlap(spec, 0.0)
        with pytest.raises(ValueError):
            calibrate_overlap(spec, 1.0)


class TestSampleMixture:
    def test_shapes_and_label_range(self):
        rng = np.random.default_rng(12)
        spec = simple_spec()
        X, labels = sample_mixture(spec, 500, rng)
        assert X.shape == (500, 2)
        assert labels.min() >= 1 and labels.max() <= 2

    def test_label_frequencies_follow_weights(self):
        rng = np.random.default_rng(13)
        spec = MixtureSpec(
            pi=[0.8, 0.2],
            mus=[[0.0], [5.0]],
            sigmas=[np.eye(1), np.eye(1)],
        )
        _, labels = sample_mixture(spec, 20_000, rng)
        assert np.mean(labels == 1) == pytest.approx(0.8, abs=0.01)

    def test_component_moments(self):
        rng = np.random.default_rng(14)
        spec = simple_spec(10.0, 2.0)
        X, labels = sample_mixture(spec, 40_000, rng)
        one = X[labels == 1]
        np.testing.assert_allclose(one.mean(axis=0), [0.0, 0.0], atol=0.05)
        np.testing.assert_allclose(np.cov(one.T), 2.0 * np.eye(2), atol=0.1)

    def test_deterministic_under_seed(self):
        spec = simple_spec()
        X1, l1 = sample_mixture(spec, 100, np.random.default_rng(15))
        X2, l2 = sample_mixture(spec, 100, np.random.default_rng(15))
        np.testing.assert_array_equal(X1, X2)
        np.testing.assert_array_equal(l1, l2)


def test_import_does_not_load_scipy_stats():
    # scipy.stats and scipy.special dominate import time; only the Wishart
    # draw needs the one, and only the multinomial coefficients the other
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, smlsom; print(sorted({'scipy.stats', 'scipy.special'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
