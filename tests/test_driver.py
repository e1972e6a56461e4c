import math

import numpy as np
import pytest

from smlsom import (
    Dataset,
    FitConfig,
    GaussianFamily,
    classify,
    mdl_score,
    ari,
    default_radius,
    init_params,
    load_faithful,
    pca_init,
    smlsom_fit,
    save_model,
    smlsom_fit_restarts,
)
from smlsom.errors import DataError


def blobs(rng, centers, n_per, scale=0.4):
    X = np.vstack(
        [rng.normal(loc=c, scale=scale, size=(n_per, len(c))) for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)) + 1, n_per)
    return Dataset(X), labels


class TestDefaults:
    def test_default_radius(self):
        assert default_radius(3, 3) == pytest.approx(2.0)
        assert default_radius(2, 6) == pytest.approx(4.0)

    def test_schedule_defaults(self):
        sched = FitConfig().schedule(500)
        assert sched.alpha0 == 0.05
        assert sched.alpha1 == 0.01
        assert sched.r1 == pytest.approx(2.0)
        assert sched.tau_max == 500

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(rows=1, cols=1)
        with pytest.raises(ValueError):
            FitConfig(rows=-1, cols=-3)
        with pytest.raises(ValueError):
            FitConfig(beta=-1.0)
        with pytest.raises(ValueError):
            FitConfig(family="poisson")
        with pytest.raises(ValueError):
            FitConfig(init="kmeans")


class TestPcaInit:
    def test_grid_spans_leading_axes(self):
        rng = np.random.default_rng(0)
        # anisotropic cloud: variance 9 along x, 1 along y
        X = rng.normal(size=(2000, 2)) * [3.0, 1.0]
        data = Dataset(X)
        mus = pca_init(data, 3, 3)
        assert len(mus) == 9
        arr = np.stack(mus)
        # corners sit near +-2 sd on each axis
        assert arr[:, 0].max() == pytest.approx(6.0, rel=0.15)
        assert arr[:, 0].min() == pytest.approx(-6.0, rel=0.15)
        assert arr[:, 1].max() == pytest.approx(2.0, rel=0.2)

    def test_center_node_is_data_mean(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 2)) + [3.0, -1.0]
        data = Dataset(X)
        mus = pca_init(data, 3, 3)
        np.testing.assert_allclose(mus[4], X.mean(axis=0), atol=1e-9)

    def test_one_dimensional_data(self):
        rng = np.random.default_rng(2)
        data = Dataset(rng.normal(size=(100, 1)))
        mus = pca_init(data, 2, 2)
        assert len(mus) == 4
        assert all(m.shape == (1,) for m in mus)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        data = Dataset(rng.normal(size=(50, 3)))
        a = np.stack(pca_init(data, 3, 3))
        b = np.stack(pca_init(data, 3, 3))
        np.testing.assert_array_equal(a, b)


class TestInitParams:
    def test_gaussian_identity_covariances(self):
        rng = np.random.default_rng(4)
        data = Dataset(rng.normal(size=(100, 2)))
        table = init_params(data, FitConfig(), np.random.default_rng(0))
        assert table.ids == list(range(9))
        for sigma in table.sigmas:
            np.testing.assert_array_equal(sigma, np.eye(2))

    def test_random_init_uses_data_rows(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(size=(100, 2)))
        table = init_params(
            data, FitConfig(init="random"), np.random.default_rng(0)
        )
        rows = {tuple(r) for r in data.values}
        assert all(tuple(mu) in rows for mu in table.mus)

    def test_multinomial_simplex(self):
        data = Dataset(np.random.default_rng(6).integers(0, 5, size=(40, 4)).astype(float))
        table = init_params(
            data, FitConfig(family="multinomial"), np.random.default_rng(0)
        )
        for theta in table.thetas:
            assert theta.sum() == pytest.approx(1.0)

    def test_multinomial_single_category_rejected(self):
        data = Dataset(np.ones((10, 1)))
        with pytest.raises(DataError):
            init_params(data, FitConfig(family="multinomial"), np.random.default_rng(0))


class TestFit:
    @pytest.mark.parametrize("case", ["faithful", "mixture"])
    def test_converged_fit_reports_its_last_cycle(self, case):
        # a converged fit returns its last cycle's assignment and MDL, which
        # must equal a fresh classification and scoring of the final map
        if case == "faithful":
            data = load_faithful()
        else:
            data, _ = blobs(np.random.default_rng(12), [(-6, 0), (6, 0), (0, 6)], 150)
        config = FitConfig(seed=2)
        result = smlsom_fit(data, config)
        last = result.trace[-1]
        assert len(result.trace) < (config.rows * config.cols) ** 2
        assert last.edges_cut == 0 and last.node_deleted is None
        family = GaussianFamily()
        assert result.assignment.m.tobytes() == classify(data, result.params, family).m.tobytes()
        assert result.mdl == mdl_score(data, result.assignment, result.params, family)

    def test_two_blobs_collapse_to_two_nodes(self):
        rng = np.random.default_rng(7)
        data, labels = blobs(rng, [(-6.0, 0.0), (6.0, 0.0)], 300)
        result = smlsom_fit(data, FitConfig(seed=0))
        assert result.n_clusters == 2
        assert ari(result.assignment.m, labels) > 0.95

    def test_four_blobs(self):
        rng = np.random.default_rng(8)
        data, labels = blobs(rng, [(-6, -6), (-6, 6), (6, -6), (6, 6)], 250)
        result = smlsom_fit(data, FitConfig(seed=1))
        assert result.n_clusters == 4
        assert ari(result.assignment.m, labels) > 0.95

    def test_faithful_finds_two_modes(self):
        data = load_faithful()
        result = smlsom_fit(data, FitConfig(seed=0))
        assert result.n_clusters == 2

    def test_trace_is_consistent(self):
        rng = np.random.default_rng(9)
        data, _ = blobs(rng, [(-5.0, 0.0), (5.0, 0.0)], 200)
        result = smlsom_fit(data, FitConfig(seed=2))
        assert result.trace[0].cycle == 1
        assert [r.cycle for r in result.trace] == list(range(1, len(result.trace) + 1))
        # last cycle changed nothing
        last = result.trace[-1]
        assert last.edges_cut == 0 and last.node_deleted is None
        # node count never increases and ends at the reported size
        sizes = [r.n_nodes for r in result.trace]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] == result.n_clusters

    def test_deletions_always_lower_mdl(self):
        rng = np.random.default_rng(10)
        data, _ = blobs(rng, [(-5.0, 0.0), (0.0, 4.0), (5.0, 0.0)], 200)
        result = smlsom_fit(data, FitConfig(seed=3))
        deletions = [r for r in result.trace if r.node_deleted is not None]
        assert deletions
        for r in deletions:
            assert r.mdl < r.mdl_before_delete

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(11)
        data, _ = blobs(rng, [(-4.0, 0.0), (4.0, 0.0)], 150)
        r1 = smlsom_fit(data, FitConfig(seed=5))
        r2 = smlsom_fit(data, FitConfig(seed=5))
        np.testing.assert_array_equal(r1.assignment.m, r2.assignment.m)
        assert r1.mdl.total == r2.mdl.total
        assert sorted(r1.params) == sorted(r2.params)
        for m in r1.params:
            np.testing.assert_array_equal(r1.params[m].mu, r2.params[m].mu)

    def test_multinomial_fit(self):
        rng = np.random.default_rng(12)
        thetas = np.array([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
        rows = []
        labels = []
        for m, th in enumerate(thetas):
            rows.append(rng.multinomial(40, th, size=250))
            labels += [m] * 250
        data = Dataset(np.vstack(rows).astype(float))
        result = smlsom_fit(data, FitConfig(family="multinomial", seed=0))
        assert result.n_clusters == 2
        assert ari(result.assignment.m, labels) > 0.95

    @pytest.mark.parametrize("zero_share", [0.02, 0.1])
    def test_multinomial_fit_with_all_zero_rows(self, zero_share):
        rng = np.random.default_rng(0)
        profiles = rng.dirichlet(np.ones(6), size=3)
        X = np.vstack([rng.multinomial(15, profiles[k]) for k in rng.integers(3, size=300)]).astype(float)
        X[rng.random(300) < zero_share] = 0.0
        result = smlsom_fit(Dataset(X), FitConfig(family="multinomial", seed=0))
        assert math.isfinite(result.mdl.total) and 2 <= result.n_clusters <= 4

    def test_multinomial_fit_with_few_counts(self):
        X = np.zeros((50, 4))
        X[[5, 20, 40]] = np.random.default_rng(3).multinomial(10, [0.25] * 4, size=3)
        for seed in range(3):
            result = smlsom_fit(Dataset(X), FitConfig(family="multinomial", seed=seed))
            assert math.isfinite(result.mdl.total) and result.n_clusters <= 3

    def test_multinomial_data_without_counts_rejected(self):
        with pytest.raises(DataError):
            smlsom_fit(Dataset(np.zeros((20, 3))), FitConfig(family="multinomial"))

    def test_survivor_ids_are_original_lattice_ids(self):
        rng = np.random.default_rng(13)
        data, _ = blobs(rng, [(-5.0, 0.0), (5.0, 0.0)], 200)
        result = smlsom_fit(data, FitConfig(seed=6))
        assert set(result.graph.nodes) <= set(range(9))
        assert sorted(result.params) == result.graph.nodes


    def test_memory_layout_does_not_change_the_fit(self, tmp_path):
        # the training kernel reads a C-ordered copy of any other layout
        rng = np.random.default_rng(30)
        X = np.vstack([rng.normal(loc=c, scale=(0.5, 1.0, 0.3), size=(80, 3)) for c in [(-4, 0, 1), (4, 1, 0), (0, 5, -2)]])
        wide = np.zeros((len(X), 6))
        wide[:, ::2] = X
        config = FitConfig(rows=2, cols=3, seed=4)
        layouts = {"c": X, "fortran": np.asfortranarray(X), "strided": wide[:, ::2]}
        assert not layouts["fortran"].flags.c_contiguous and not layouts["strided"].flags.c_contiguous
        files = {}
        for name, values in layouts.items():
            files[name] = tmp_path / f"{name}.json"
            save_model(files[name], smlsom_fit(Dataset(values), config))
        assert files["fortran"].read_bytes() == files["c"].read_bytes()
        assert files["strided"].read_bytes() == files["c"].read_bytes()


    def test_random_init_needs_a_sample_per_node(self):
        data = Dataset(np.random.default_rng(0).normal(size=(5, 2)))
        with pytest.raises(DataError, match=r"n=5 .* 9 nodes"):
            smlsom_fit(data, FitConfig(init="random"))


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the worker count it was
    asked for and runs the fits in this process."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestRestarts:
    @pytest.mark.parametrize("restarts", [0, -2])
    def test_rejects_fewer_than_one_restart(self, restarts):
        data = Dataset(np.random.default_rng(0).normal(size=(20, 2)))
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            smlsom_fit_restarts(data, FitConfig(), restarts=restarts)

    def test_picks_lowest_mdl(self):
        rng = np.random.default_rng(14)
        data, _ = blobs(rng, [(-5.0, 0.0), (5.0, 0.0)], 150)
        cfg = FitConfig(seed=0)
        singles = [
            smlsom_fit(data, FitConfig(**{**cfg.__dict__, "seed": k}))
            for k in range(3)
        ]
        best = smlsom_fit_restarts(data, cfg, restarts=3)
        assert best.mdl.total == min(s.mdl.total for s in singles)

    def test_parallel_matches_serial(self):
        rng = np.random.default_rng(15)
        data, _ = blobs(rng, [(-5.0, 0.0), (5.0, 0.0)], 100)
        cfg = FitConfig(seed=0)
        serial = smlsom_fit_restarts(data, cfg, restarts=2, jobs=1)
        parallel = smlsom_fit_restarts(data, cfg, restarts=2, jobs=2)
        assert serial.mdl.total == parallel.mdl.total
        np.testing.assert_array_equal(serial.assignment.m, parallel.assignment.m)

    @pytest.mark.parametrize("jobs, workers", [(500, 2), (2, 2), (1, None)])
    def test_pool_never_outnumbers_the_restarts(self, monkeypatch, jobs, workers):
        import concurrent.futures

        monkeypatch.setattr(_SerialPool, "max_workers", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
        rng = np.random.default_rng(16)
        data, _ = blobs(rng, [(-5.0, 0.0), (5.0, 0.0)], 60)
        cfg = FitConfig(seed=0)
        best = smlsom_fit_restarts(data, cfg, restarts=2, jobs=jobs)
        assert _SerialPool.max_workers == ([] if workers is None else [workers])
        assert best.mdl.total == min(smlsom_fit(data, FitConfig(seed=k)).mdl.total for k in range(2))
