"""Independent brute-force reference implementations, used only by tests.

Everything here deliberately avoids the production code paths: dense
inverses instead of Cholesky factors, exact integer factorials, explicit
pair enumeration, naive per-sample summation. The exceptions are
references that a production path must match bit for bit: the numpy
Gaussian and multinomial training states and the Gaussian scoring, which
take the compiled kernel's steps in its summation orders (sequential sums
by ``np.cumsum``, no BLAS), so that they agree with it on every host.
``stack`` and ``update`` are conveniences over the production node tables.
"""

import math
from functools import partial
from itertools import combinations

import numpy as np
from scipy.linalg import solve_triangular


def members(assignment, node) -> np.ndarray:
    """Ascending indices of the samples assigned to one node."""
    return np.flatnonzero(assignment.m == node)


def ordered_sum(terms) -> np.ndarray:
    """Sums over the last axis as one running sum, ascending from the
    first term: the kernel's order."""
    return np.cumsum(terms, axis=-1)[..., -1]


def ordered_quad(D, L) -> np.ndarray:
    """|w|^2 for L w = d, d the last axis of D and L lower triangular (or a
    stack of them, one per leading index of D), in the compiled kernel's
    order: w_i = (d_i - L_i0 w_0 - ... - L_i,i-1 w_i-1) * (1 / L_ii),
    subtracting in that order, then |w|^2 summed ascending."""
    W = np.empty_like(D)
    for i in range(D.shape[-1]):
        terms = np.concatenate([D[..., i : i + 1], -(L[..., i, :i] * W[..., :i])], axis=-1)
        W[..., i] = ordered_sum(terms) * (1.0 / L[..., i, i])
    return ordered_sum(W * W)


def oracle_gauss_loglik_rows(X, theta) -> np.ndarray:
    """Gaussian log densities in the compiled kernel's order, which it must
    match bit for bit (``ordered_quad``)."""
    D = np.atleast_2d(np.asarray(X, dtype=float)) - theta.mu
    return -0.5 * (theta.p * np.log(2.0 * np.pi) + theta.log_det + ordered_quad(D, theta._chol))


def scipy_gauss_loglik_rows(X, theta) -> np.ndarray:
    """Gaussian log densities by scipy's triangular solve and an einsum of
    the squares, in the host BLAS's order: a reference to a tolerance."""
    D = np.asarray(X, dtype=float) - theta.mu
    W = solve_triangular(theta._chol, D.T, lower=True, check_finite=False)
    quad = np.einsum("ij,ij->j", W, W)
    return -0.5 * (theta.p * np.log(2.0 * np.pi) + theta.log_det + quad)


def oracle_overlap_mc(spec, n_mc, rng):
    """``overlap_mc`` scored one component at a time through
    ``oracle_gauss_loglik_rows``; the same draws give the same pairs."""
    from smlsom import GaussParams

    M = spec.n_components
    comps = [GaussParams(spec.mus[m], spec.sigmas[m]) for m in range(M)]
    log_pi = np.log(spec.pi)
    omega_cond = np.zeros((M, M))
    for m in range(M):
        X = rng.multivariate_normal(spec.mus[m], spec.sigmas[m], size=n_mc)
        scores = np.stack([log_pi[l] + oracle_gauss_loglik_rows(X, comps[l]) for l in range(M)])
        for l in range(M):
            if l != m:
                omega_cond[l, m] = np.mean(scores[l] > scores[m])
    pair = omega_cond + omega_cond.T
    return pair, float(pair[np.triu_indices(M, k=1)].mean())


def dense_gauss_loglik(x, mu, sigma) -> float:
    """Gaussian log density via a dense inverse and slogdet."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    p = mu.size
    d = x - mu
    _, logdet = np.linalg.slogdet(sigma)
    quad = d @ np.linalg.inv(sigma) @ d
    return -0.5 * (p * math.log(2.0 * math.pi) + logdet + quad)


def exact_multinom_pmf(x, theta) -> float:
    """Multinomial pmf with exact integer factorials."""
    x = [int(v) for v in x]
    coef = math.factorial(sum(x))
    for v in x:
        coef //= math.factorial(v)
    prob = float(coef)
    for v, t in zip(x, theta):
        prob *= t**v
    return prob


def oracle_gauss_kl(mu_m, sigma_m, mu_l, sigma_l) -> float:
    """Closed-form Gaussian KL divergence D(f_m || f_l)."""
    mu_m = np.asarray(mu_m, dtype=float)
    mu_l = np.asarray(mu_l, dtype=float)
    sigma_m = np.asarray(sigma_m, dtype=float)
    sigma_l = np.asarray(sigma_l, dtype=float)
    p = mu_m.size
    inv_l = np.linalg.inv(sigma_l)
    d = mu_l - mu_m
    _, ld_m = np.linalg.slogdet(sigma_m)
    _, ld_l = np.linalg.slogdet(sigma_l)
    return 0.5 * (np.trace(inv_l @ sigma_m) + d @ inv_l @ d - p + ld_l - ld_m)


def oracle_mdl(X, assignment, params_items, per_node_df) -> float:
    """Naive MDL total: per-sample log-likelihood loop, integer counts.

    params_items: list of (node id, loglik function over one sample).
    """
    n = len(X)
    M = len(params_items)
    loglik_of = dict(params_items)
    total = 0.0
    for i in range(n):
        total -= loglik_of[assignment[i]](X[i])
    total += (M * per_node_df / 2.0) * math.log(n)
    total += n * math.log(M)
    return total


def oracle_ari(u, v) -> float:
    """Adjusted Rand index by explicit TP/FP/FN/TN pair enumeration."""
    u = list(u)
    v = list(v)
    n = len(u)
    tp = fp = fn = tn = 0
    for i, j in combinations(range(n), 2):
        same_u = u[i] == u[j]
        same_v = v[i] == v[j]
        if same_u and same_v:
            tp += 1
        elif same_u and not same_v:
            fn += 1
        elif not same_u and same_v:
            fp += 1
        else:
            tn += 1
    pairs = n * (n - 1) // 2
    ri = (tp + tn) / pairs
    sum_u = sum(
        math.comb(list(u).count(g), 2) for g in set(u)
    )
    sum_v = sum(math.comb(list(v).count(g), 2) for g in set(v))
    e_ri = 1.0 + 2.0 * sum_u * sum_v / pairs**2 - (sum_u + sum_v) / pairs
    if 1.0 - e_ri == 0.0:
        return 1.0 if ri == 1.0 else 0.0
    return (ri - e_ri) / (1.0 - e_ri)


def oracle_nmi(u, v) -> float:
    """NMI from explicitly built joint counts."""
    u = list(u)
    v = list(v)
    n = len(u)
    joint = {}
    for a, b in zip(u, v):
        joint[(a, b)] = joint.get((a, b), 0) + 1
    pu = {g: u.count(g) / n for g in set(u)}
    pv = {g: v.count(g) / n for g in set(v)}
    info = 0.0
    for (a, b), c in joint.items():
        pj = c / n
        info += pj * math.log(pj / (pu[a] * pv[b]))
    hu = -sum(p * math.log(p) for p in pu.values())
    hv = -sum(p * math.log(p) for p in pv.values())
    if hu == 0.0 and hv == 0.0:
        return 1.0
    return max(info, 0.0) / max(hu, hv)


def random_pd_matrix(rng, p, scale=1.0) -> np.ndarray:
    """Random symmetric positive-definite matrix."""
    A = rng.normal(size=(p, p))
    return scale * (A @ A.T + p * np.eye(p) * 0.1)


def multinom_loglik_rows(X, theta) -> np.ndarray:
    """Multinomial log-likelihood of every row of X: its log coefficient
    plus X @ log(theta), as the family scores a row."""
    from smlsom.multinomial import _log_coef

    X = np.asarray(X, dtype=float)
    return _log_coef(X) + X @ np.log(theta.theta)


def loglik_rows(family, X, theta) -> np.ndarray:
    """The family's per-row log-likelihoods of the rows of X under theta."""
    from smlsom import gauss_loglik_rows

    rows = {"gaussian": gauss_loglik_rows, "multinomial": multinom_loglik_rows}[family.name]
    return rows(X, theta)


def _oracle_score(data, assign, node_params, family):
    """MDL of a map from the family's per-row log-likelihoods."""
    from smlsom.structure import MdlScore

    X, n = data.values, data.n
    neg = 0.0
    for m in sorted(node_params):
        idx = members(assign, m)
        if idx.size:
            neg -= float(loglik_rows(family, X[idx], node_params[m]).sum())
    M = len(node_params)
    return MdlScore(neg, 0.5 * M * family.df(data.p) * math.log(n), n * math.log(M))


def oracle_deletion_candidates(data, assignment, params, family):
    """Every deletion candidate by brute force, in ascending id order: for
    each, batch-refit every survivor on its new member set and score the
    whole map anew. Returns (id, score, params, assignment) tuples."""
    from smlsom import Assignment

    X = data.values
    ids = sorted(params)
    ll = np.stack([loglik_rows(family, X, params[m]) for m in ids])
    out = []
    for pos, m in enumerate(ids):
        moved = members(assignment, m)
        new_m = assignment.m.copy()
        if moved.size:
            sub = np.delete(ll[:, moved], pos, axis=0)
            survivors = np.delete(np.asarray(ids), pos)
            new_m[moved] = survivors[np.argmax(sub, axis=0)]
        cand_assign = Assignment(new_m)
        cand_params = {}
        for l in ids:
            if l == m:
                continue
            rows = X[members(cand_assign, l)]
            # nothing to learn from: no rows, or for the multinomial only all-zero counts
            barren = not rows.size or family.name == "multinomial" and not rows.any()
            cand_params[l] = params[l] if barren else family.batch(rows)
        out.append((m, _oracle_score(data, cand_assign, cand_params, family), cand_params, cand_assign))
    return out


def oracle_try_delete_node(data, graph, assignment, params, family):
    """Brute-force node deletion: score every candidate by
    ``oracle_deletion_candidates`` and adopt the first strict minimum iff it
    beats the current map.

    Same contract as ``smlsom.try_delete_node`` (whose scoring it must
    reproduce bit for bit), built from the family's per-row log-likelihoods
    and batch fits only.
    """
    from smlsom.structure import DeletionResult

    current = _oracle_score(data, assignment, params, family)
    if len(params) < 2:
        return DeletionResult(graph, params, assignment, current, current, None)

    best = None
    for cand in oracle_deletion_candidates(data, assignment, params, family):
        if best is None or cand[1].total < best[1].total:
            best = cand
    m, cand, cand_params, cand_assign = best
    if cand.total >= current.total:
        return DeletionResult(graph, params, assignment, current, current, None)

    new_graph = graph.copy()
    former = new_graph.remove_node(m)
    for i, a in enumerate(former):
        for b in former[i + 1 :]:
            if not new_graph.has_edge(a, b):
                new_graph.add_edge(a, b)
    return DeletionResult(new_graph, cand_params, cand_assign, cand, current, m)


def oracle_alpha(s, tau) -> float:
    """Learning rate at one step, the per-tau formula."""
    if s.tau_max == 1:
        return s.alpha0
    return s.alpha0 - (s.alpha0 - s.alpha1) * (tau - 1) / (s.tau_max - 1)


def oracle_radius(s, tau) -> float:
    """Neighborhood radius at one step, the per-tau formula."""
    r2 = -s.r1
    r = s.r1 - (s.r1 - r2) * tau / s.tau_max
    return r if r >= 1 else 0.5


def moment_step(mu, sigma, d, a):
    """One stochastic moment step from the deviation d = x - mu of the
    pre-update mean. A symmetric sigma stays bitwise symmetric."""
    return mu + a * d, sigma + a * ((1.0 - a) * (d[:, None] * d) - sigma)


def factor_step(L, d, a):
    """The kernel's factor of (1 - a)(L L' + a d d'): a rank-one Givens
    update of L L' by v = sqrt(a) d, column by column, each new entry
    stored times sqrt(1 - a); a division by L_kk multiplies by 1 / L_kk."""
    L = L.copy()
    v = math.sqrt(a) * d
    so = math.sqrt(1.0 - a)
    for k in range(len(L)):
        rl = 1.0 / L[k, k]
        r = math.sqrt(L[k, k] * L[k, k] + v[k] * v[k])
        c, s, rc = r * rl, v[k] * rl, L[k, k] / r
        L[k, k] = r * so
        col = (L[k + 1 :, k] + s * v[k + 1 :]) * rc
        v[k + 1 :] = c * v[k + 1 :] - s * col
        L[k + 1 :, k] = col * so
    return L


class OracleGaussTrainState:
    """The numpy Gaussian training state, step by step in Python, on a
    ``GaussTable``'s arrays in place.

    Keeps per-node Cholesky factors and log determinants current, so a
    winner search is one forward substitution per node (``ordered_quad``).
    ``loglik_all`` keeps the deviations and |w|^2 it computes; ``update``
    reuses them when handed the row last scored (the same object,
    unmodified) and rescores otherwise. An update applies the moment step to
    the mean and covariance, ``factor_step`` to the factor, and the
    determinant lemma to the log determinant.
    """

    def __init__(self, table, update_sigma=True):
        from smlsom.gaussian import _LOG_2PI

        self.update_sigma = update_sigma
        self.mus, self.sigmas, self.chols, self.logdets = table.mus, table.sigmas, table.chols, table.logdets
        self._plog2pi = self.mus.shape[1] * _LOG_2PI
        self._scored = self._dev = self._quad = None  # last loglik_all row and its terms
        self._moved = set()  # nodes updated since that call

    def loglik_all(self, x):
        D = x - self.mus
        quad = ordered_quad(D, self.chols)
        self._scored, self._dev, self._quad = x, D, quad
        self._moved = set()
        return -0.5 * ((self._plog2pi + self.logdets) + quad)

    def update(self, k, x, a):
        if x is not self._scored or k in self._moved:
            self.loglik_all(x)
        self._moved.add(k)
        d = self._dev[k]
        if not self.update_sigma:
            self.mus[k] = self.mus[k] + a * d
            return
        self.mus[k], self.sigmas[k] = moment_step(self.mus[k], self.sigmas[k], d, a)
        self.chols[k] = factor_step(self.chols[k], d, a)
        self.logdets[k] += self.mus.shape[1] * math.log1p(-a) + math.log(1.0 + a * self._quad[k])

    def run(self, X, draws, alphas, radii, neighbors):
        """The training loop of one cycle, one Python step at a time."""
        ptr, idx, hops = (a.tolist() for a in neighbors)
        winners = []
        for i, alpha, radius in zip(draws.tolist(), alphas.tolist(), radii.tolist()):
            x = X[i]
            c = int(self.loglik_all(x).argmax())
            winners.append(c)
            for j in range(ptr[c], ptr[c + 1]):
                if hops[j] > radius:
                    break
                self.update(idx[j], x, alpha)
        return np.array(winners, dtype=np.int64)


class OracleMultinomTrainState:
    """The numpy multinomial training state, step by step in Python, on a
    ``MultinomTable``'s probabilities and cached logs in place."""

    def __init__(self, table):
        self.thetas, self.logthetas = table.thetas, table.logthetas

    def loglik_all(self, x):
        from scipy.special import gammaln

        total = x.sum()
        coef = gammaln(total + 1.0) - gammaln(x + 1.0).sum()
        return coef + ordered_sum(self.logthetas * x)

    def update(self, k, x, a):
        from smlsom.multinomial import THETA_FLOOR

        total = x.sum()
        if total == 0:
            return
        theta = self.thetas[k] + a * (x / total - self.thetas[k])
        theta = np.maximum(theta, 2.0 * THETA_FLOOR)
        theta /= theta.sum()
        self.thetas[k] = theta
        self.logthetas[k] = np.log(theta)

    def run(self, X, draws, alphas, radii, neighbors):
        """The training loop of one cycle, one Python step at a time."""
        ptr, idx, hops = (a.tolist() for a in neighbors)
        winners = []
        for i, alpha, radius in zip(draws.tolist(), alphas.tolist(), radii.tolist()):
            x = X[i]
            c = int(self.loglik_all(x).argmax())
            winners.append(c)
            for j in range(ptr[c], ptr[c + 1]):
                if hops[j] > radius:
                    break
                self.update(idx[j], x, alpha)
        return np.array(winners, dtype=np.int64)


def stack(family, params_list):
    """The family's node table of single-node values, ids 0, 1, ... in
    list order."""
    return family.table.of(dict(enumerate(params_list)))


def update(family, table, k, x, a):
    """Move row k of the node table toward the sample x at rate a, as the
    fit's training does: a one-draw ``family.train`` at radius 0 whose
    neighbor table sends every winner to row k."""
    from smlsom._kernel import NeighborTable

    M = len(table)
    if not 0 <= k < M:
        raise IndexError(f"node index {k} out of range for {M} nodes")
    to_k = NeighborTable(np.arange(M + 1, dtype=np.int64), np.full(M, k, dtype=np.int64), np.zeros(M, dtype=np.int64))
    family.train(table, np.reshape(x, (1, -1)), np.zeros(1, dtype=np.int64), np.array([a], dtype=float), np.zeros(1), to_k)


class _OracleFamily:
    """A model family that trains with ``state(table).run`` in place of the
    compiled kernel; everything else is the real family's."""

    def __init__(self, inner, state):
        self._inner = inner
        self._state = state
        self.name = inner.name

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def train(self, table, X, draws, alphas, radii, neighbors):
        return self._state(table).run(X, draws, alphas, radii, neighbors)


class OracleGaussianFamily(_OracleFamily):
    """The Gaussian family with the numpy training state."""

    def __init__(self, update_sigma=True):
        from smlsom import GaussianFamily

        super().__init__(GaussianFamily(update_sigma), partial(OracleGaussTrainState, update_sigma=update_sigma))


class OracleMultinomialFamily(_OracleFamily):
    """The multinomial family with the numpy training state."""

    def __init__(self):
        from smlsom import MultinomialFamily

        super().__init__(MultinomialFamily(), OracleMultinomTrainState)


class RecordingFamily(_OracleFamily):
    """A model family that records, in ``winners``, every winner its
    ``train`` returns: rows of the node table, that is indices into the
    sorted live ids of the training call."""

    def __init__(self, inner):
        super().__init__(inner, None)
        self.winners = []

    def train(self, *args):
        winners = self._inner.train(*args)
        self.winners.extend(winners.tolist())
        return winners
