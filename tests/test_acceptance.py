"""Acceptance gate: one test per criterion, one printed verdict line each.

Verdict lines are collected in VERDICTS and echoed after the run by the
terminal-summary hook in conftest.py, so they survive output capture.
"""

import itertools
import time

import numpy as np
import pytest

from smlsom import (
    Dataset,
    FitConfig,
    GaussParams,
    GaussianFamily,
    MultinomParams,
    ari,
    MultinomialFamily,
    calibrate_overlap,
    classify,
    gauss_loglik_rows,
    kl_estimate,
    lattice_graph,
    load_faithful,
    mdl_score,
    mlsom_train,
    nmi,
    random_mixture,
    sample_mixture,
    smlsom_fit,
)
from smlsom.cli import main as cli_main
from smlsom.core import Schedule
from smlsom.io import write_dataset
from oracles import (
    RecordingFamily,
    dense_gauss_loglik,
    oracle_alpha,
    oracle_ari,
    oracle_gauss_kl,
    oracle_mdl,
    oracle_nmi,
    oracle_radius,
    random_pd_matrix,
)

GAUSS = GaussianFamily()

VERDICTS: list[str] = []


def verdict(criterion: int, name: str, ok: bool, detail: str):
    line = f"[acceptance {criterion}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    VERDICTS.append(line)
    print(line, flush=True)
    assert ok, line


# -- shared fits (criteria 1-3) --------------------------------------------


@pytest.fixture(scope="module")
def faithful_runs():
    data = load_faithful()
    return [smlsom_fit(data, FitConfig(seed=k)) for k in range(100)]


def _artificial_level(target, seed_base):
    runs = []
    for k in range(20):
        rng = np.random.default_rng(seed_base + k)
        spec = random_mixture(2, 6, "spherical-heterogeneous", rng)
        spec, _ = calibrate_overlap(spec, target, rng=rng)
        values, labels = sample_mixture(spec, 3000, rng)
        result = smlsom_fit(Dataset(values), FitConfig(seed=k))
        runs.append((result, labels))
    return runs


@pytest.fixture(scope="module")
def artificial_runs():
    return {0.001: _artificial_level(0.001, 100), 0.05: _artificial_level(0.05, 200)}


def test_criterion_1_old_faithful(faithful_runs):
    hits = sum(r.n_clusters == 2 for r in faithful_runs)
    verdict(1, "Old Faithful selects 2 clusters", hits >= 90, f"{hits}/100 runs")


def test_criterion_2_artificial_selection(faithful_runs, artificial_runs):
    stats = {}
    for level, runs in artificial_runs.items():
        ms = [r.n_clusters for r, _ in runs]
        aris = [ari(r.assignment.m, labels) for r, labels in runs]
        stats[level] = (float(np.mean(ms)), float(np.mean(aris)))
    m_low, ari_low = stats[0.001]
    m_high, ari_high = stats[0.05]
    ok = (
        5.5 <= m_low <= 6.5
        and ari_low >= 0.9
        and m_high <= m_low
        and ari_high < ari_low
    )
    verdict(
        2,
        "artificial-data cluster-count selection",
        ok,
        f"omega 0.001: mean M {m_low:.2f}, mean ARI {ari_low:.3f}; "
        f"omega 0.05: mean M {m_high:.2f}, mean ARI {ari_high:.3f}",
    )


def test_criterion_3_mdl_monotonicity(faithful_runs, artificial_runs):
    traces = [r.trace for r in faithful_runs]
    traces += [r.trace for runs in artificial_runs.values() for r, _ in runs]
    deletions = 0
    violations = 0
    for trace in traces:
        for rec in trace:
            if rec.node_deleted is not None:
                deletions += 1
                if not rec.mdl < rec.mdl_before_delete:
                    violations += 1
    verdict(
        3,
        "accepted deletions strictly lower MDL",
        deletions > 0 and violations == 0,
        f"{deletions} deletions, {violations} violations",
    )


def test_criterion_4_kohonen_reduction():
    rng = np.random.default_rng(40)
    data = Dataset(rng.normal(size=(400, 3)))
    g = lattice_graph(3, 3, "rectangular")
    mus0 = {m: rng.normal(size=3) for m in range(9)}
    params = {m: GaussParams(mus0[m], np.eye(3)) for m in range(9)}
    sched = Schedule(r1=2.0, tau_max=1000)

    family = RecordingFamily(GaussianFamily(update_sigma=False))
    mlsom_train(data, g, params, sched, np.random.default_rng(41), family)
    winners = family.winners  # ids 0-8 are their own indices

    # the reference: a plain Euclidean SOM replaying the same sample order
    hops = g.all_pairs_hops()
    mus = {m: mus0[m].copy() for m in range(9)}
    rng2 = np.random.default_rng(41)
    expected = []
    for tau in range(1, 1001):
        x = data.values[rng2.integers(400)]
        c = min(range(9), key=lambda m: (np.dot(x - mus[m], x - mus[m]), m))
        expected.append(c)
        radius = oracle_radius(sched, tau)
        alpha = oracle_alpha(sched, tau)
        for m in range(9):
            if hops[c].get(m, np.inf) <= radius:
                mus[m] = mus[m] + alpha * (x - mus[m])
    matches = sum(a == b for a, b in zip(winners, expected))
    verdict(
        4,
        "frozen-covariance winners match Euclidean SOM",
        winners == expected,
        f"{matches}/1000 steps identical",
    )


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(50)

    # mdl_score vs the naive per-sample oracle
    worst_mdl = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 101))
        p = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        x = rng.normal(size=(n, p))
        data = Dataset(x)
        params = {
            m: GaussParams(rng.normal(size=p), random_pd_matrix(rng, p))
            for m in range(k)
        }
        assignment = classify(data, params, GAUSS)
        score = mdl_score(data, assignment, params, GAUSS)
        want = oracle_mdl(
            x,
            assignment.m,
            [(m, lambda row, t=t: dense_gauss_loglik(row, t.mu, t.sigma)) for m, t in params.items()],
            per_node_df=p + p * (p + 1) // 2,
        )
        worst_mdl = max(worst_mdl, abs(score.total - want) / abs(want))
    mdl_ok = worst_mdl <= 1e-6

    # ARI/NMI: exhaustive n=3 sweep plus random instances, exact agreement
    metric_ok = True
    labelings = list(itertools.product([1, 2, 3], repeat=3))
    pairs = [(u, v) for u in labelings for v in labelings]
    for _ in range(100):
        n = int(rng.integers(2, 31))
        pairs.append((rng.integers(0, 5, size=n), rng.integers(0, 5, size=n)))
    for u, v in pairs:
        if abs(ari(u, v) - oracle_ari(u, v)) > 1e-10:
            metric_ok = False
        if abs(nmi(u, v) - oracle_nmi(u, v)) > 1e-10:
            metric_ok = False

    # gauss_loglik_rows on one row vs a dense inverse/determinant formula
    worst_ll = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 6))
        theta = GaussParams(rng.normal(size=p), random_pd_matrix(rng, p))
        x = rng.normal(size=p)
        got = gauss_loglik_rows(x[None], theta)[0]
        want = dense_gauss_loglik(x, theta.mu, theta.sigma)
        worst_ll = max(worst_ll, abs(got - want) / abs(want))
    ll_ok = worst_ll <= 1e-9

    verdict(
        5,
        "oracle equivalence",
        mdl_ok and metric_ok and ll_ok,
        f"mdl rel err {worst_mdl:.2e}, metrics exact {metric_ok}, "
        f"loglik rel err {worst_ll:.2e}",
    )


def test_criterion_6_kl_consistency():
    rng = np.random.default_rng(60)
    k = 10_000
    worst_sigmas = 0.0
    for _ in range(20):
        p = int(rng.integers(1, 5))
        theta_m = GaussParams(rng.normal(size=p), random_pd_matrix(rng, p))
        theta_l = GaussParams(rng.normal(size=p), random_pd_matrix(rng, p))
        x = rng.multivariate_normal(theta_m.mu, theta_m.sigma, size=k)
        ll_m, ll_l = gauss_loglik_rows(x, theta_m), gauss_loglik_rows(x, theta_l)
        est = kl_estimate(ll_m, ll_l)
        exact = oracle_gauss_kl(theta_m.mu, theta_m.sigma, theta_l.mu, theta_l.sigma)
        ratios = ll_m - ll_l
        se = float(np.std(ratios, ddof=1)) / np.sqrt(k)
        worst_sigmas = max(worst_sigmas, abs(est - exact) / se)
    verdict(
        6,
        "KL estimator matches closed form",
        worst_sigmas <= 4.0,
        f"worst deviation {worst_sigmas:.2f} standard errors over 20 pairs",
    )


def test_criterion_7_parameter_invariants():
    # every step is the compiled kernel's node step on a one-node training state
    rng = np.random.default_rng(70)
    violations = 0

    state = GAUSS.make_state([GaussParams(rng.normal(size=2), random_pd_matrix(rng, 2))])
    for _ in range(100_000):
        state.update(0, rng.normal(size=2), rng.uniform(0.0, 0.5))
        sigma = state.sigmas[0]
        if not np.array_equal(sigma, sigma.T):
            violations += 1
        elif np.linalg.eigvalsh(sigma).min() < -1e-8:
            violations += 1

    state = MultinomialFamily().make_state([MultinomParams(rng.dirichlet(np.ones(4)))])
    for _ in range(100_000):
        x = rng.multinomial(20, [0.4, 0.3, 0.2, 0.1]).astype(float)
        state.update(0, x, rng.uniform(0.0, 0.5))
        t = state.thetas[0]
        if abs(t.sum() - 1.0) > 1e-9 or np.any(t < 0):
            violations += 1

    verdict(
        7,
        "update invariants (symmetry/PSD, simplex)",
        violations == 0,
        f"{violations} violations in 2x100000 steps",
    )


def test_criterion_8_determinism(tmp_path):
    rng = np.random.default_rng(80)
    a = rng.normal(size=(150, 2)) * 0.5 + [-4.0, 0.0]
    b = rng.normal(size=(150, 2)) * 0.5 + [4.0, 0.0]
    csv = tmp_path / "ab.csv"
    write_dataset(csv, np.vstack([a, b]))
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    base = ["fit", "--input", str(csv), "--seed", "8"]
    assert cli_main(base + ["--out", str(m1)]) == 0
    assert cli_main(base + ["--out", str(m2)]) == 0
    same = m1.read_bytes() == m2.read_bytes()
    verdict(8, "seeded fit is byte-identical", same, f"model files identical: {same}")


def test_criterion_9_linear_scaling():
    rng = np.random.default_rng(90)
    centers = [(-6, -6), (-6, 6), (6, -6), (6, 6)]

    def make(n):
        per = n // len(centers)
        return Dataset(
            np.vstack(
                [rng.normal(loc=c, scale=0.5, size=(per, 2)) for c in centers]
            )
        )

    def fit_time(data):
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            smlsom_fit(data, FitConfig(seed=0))
            best = min(best, time.perf_counter() - start)
        return best

    small, large = make(20000), make(40000)
    fit_time(small)  # warm-up so jit-free numpy caches settle
    t_small, t_large = fit_time(small), fit_time(large)
    ratio = t_large / t_small
    verdict(
        9,
        "fit time scales linearly in n",
        ratio <= 2.5,
        f"n=20000: {t_small:.2f}s, n=40000: {t_large:.2f}s, ratio {ratio:.2f}",
    )
