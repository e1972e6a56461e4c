/* Training kernels: one whole stochastic training cycle per call, for the
 * Gaussian and the multinomial node families; Gaussian log densities of
 * groups of rows, each group under its own node, which gives the
 * log-likelihood matrix of a data set under every node in one call, and
 * the deletion search's refits their scores; the first maximum of every
 * column of a log-likelihood matrix; Gaussian batch fits and Cholesky
 * factorizations (gauss_fit_nodes); and the closed-form estimates of the
 * deletion search (gauss_closed_form).
 *
 * Loaded through ctypes by smlsom/_kernel.py, which compiles this file on
 * first use with -O2 -ffp-contract=off (no fused multiply-adds, no
 * fast-math), so every expression rounds as written.
 *
 * Both cycles take the same inputs: the n x p data, the rows drawn for each
 * step, per-step rates and radii, and a CSR table of each node's
 * neighbours sorted by (hops, index). Each step scores the drawn row under
 * every node, takes the first maximum as the winner, and co-updates the
 * winner's neighbours within the radius. Node state is stacked and updated
 * in place.
 *
 * Gaussian nodes hold means (M x p), covariances and lower Cholesky factors
 * (M x p x p) and log-determinants (M). A row scores
 * -0.5 (p log 2pi + logdet + |w|^2) for L w = x - mu, and a step moves
 *
 *   mu'     = mu + a d                        d = x - mu, q = |w|^2
 *   Sigma'  = Sigma + a ((1 - a) d d' - Sigma)
 *   L'      = sqrt(1 - a) chol(L L' + a d d')  (rank-one Givens update)
 *   logdet' = logdet + (p log1p(-a) + log(1 + a q))
 *
 * so the factor is kept current without ever factorizing here. Every
 * Cholesky factorization of a fit is gauss_fit_nodes's, with its jitter
 * ladder: GaussTable.refresh's after each training cycle, the deletion
 * search's batch refits, and GaussParams' for initial and loaded nodes.
 *
 * Multinomial nodes hold probabilities theta (M x p) and their logs. A row
 * x with total T scores coef + log(theta) . x, where the caller passes
 * coef = log T! - sum log x_i! for every step. A row with T > 0 moves each
 * updated node to theta + a (x / T - theta), floored and divided by its
 * sum; a row with T = 0 updates nothing.
 *
 * Every sum follows one order, defined here rather than borrowed from a
 * BLAS, so results do not depend on the host's BLAS or CPU:
 *   - a dot product is one running sum, ascending from its first product;
 *   - a forward substitution starts from its right-hand entry, subtracts
 *     the products one at a time, ascending, and multiplies by the pivot's
 *     reciprocal;
 *   - a sum of squares is one running sum, ascending;
 *   - a batch fit's sums over rows are running sums in row order, and a
 *     Cholesky entry subtracts its products one at a time, ascending;
 *   - the exception follows numpy's own loop, which does not change with the
 *     host either: `pairwise_sum` (numpy's pairwise summation).
 * The numpy references in tests/oracles.py take the same steps in the same
 * orders, so they match this kernel bit for bit.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define KERNEL_OK (-1)
#define KERNEL_NOMEM (-2)

/* numpy's pairwise summation of n doubles, started from 0.0. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* a . x as one running sum, ascending from its first product (p >= 1). */
static double dot(int64_t p, const double *a, const double *x)
{
    double s = a[0] * x[0];
    for (int64_t i = 1; i < p; i++)
        s += a[i] * x[i];
    return s;
}

/* np.argmax over M values: the first maximum, or the first NaN. */
static int64_t first_max(const double *ll, int64_t M)
{
    int64_t c = 0;
    for (int64_t m = 0; m < M && !isnan(ll[c]); m++)
        if (ll[m] > ll[c] || isnan(ll[m]))
            c = m;
    return c;
}

/* The multinomial cycle sits before the Gaussian training code: placed after
   it, gcc 12 -O2 laid it out 9-21% slower on a Xeon host (same source, paired
   calls on the same buffers), from code placement alone. It also starts on a
   64-byte boundary, so that code added before it (the compiler emits the
   scoring entries' clones first) moves neither training cycle's loops
   against the cache lines: unaligned, such an addition cost it 4%. */

/* Move one multinomial node toward the row x with total T > 0 at rate a,
   as numpy does: theta + a (x / T - theta), floored at `floor`
   (np.maximum), divided by its pairwise sum, then the logs. */
static void multinom_step(int64_t p, const double *x, double T, double a, double floor,
                          double *theta, double *logtheta)
{
    for (int64_t i = 0; i < p; i++) {
        double v = theta[i] + a * (x[i] / T - theta[i]);
        theta[i] = v < floor ? floor : v; /* keeps a NaN, as np.maximum does */
    }
    double s = pairwise_sum(theta, p);
    for (int64_t i = 0; i < p; i++) {
        theta[i] = theta[i] / s;
        logtheta[i] = log(theta[i]);
    }
}

/* A whole multinomial training cycle: the arguments up to nb_hops are those
   of gauss_train_cycle below; coef[t] is the multinomial coefficient of step
   t's row and `floor` the probability floor. Returns KERNEL_OK or
   KERNEL_NOMEM. */
__attribute__((aligned(64)))
int64_t multinom_train_cycle(int64_t p, int64_t M, const double *X, int64_t steps,
                             const int64_t *draws, const double *alphas, const double *radii,
                             const int64_t *nb_ptr, const int64_t *nb_idx, const int64_t *nb_hops,
                             const double *coef, double floor, double *thetas, double *logthetas,
                             int64_t *winners)
{
    double *ll = malloc((size_t)M * sizeof(double));
    if (!ll)
        return KERNEL_NOMEM;
    for (int64_t t = 0; t < steps; t++) {
        const double *x = X + draws[t] * p;
        for (int64_t m = 0; m < M; m++)
            ll[m] = coef[t] + dot(p, logthetas + m * p, x);
        int64_t c = first_max(ll, M);
        winners[t] = c;

        double T = pairwise_sum(x, p);
        if (T == 0.0)
            continue;
        for (int64_t j = nb_ptr[c]; j < nb_ptr[c + 1]; j++) {
            if ((double)nb_hops[j] > radii[t])
                break;
            int64_t k = nb_idx[j];
            multinom_step(p, x, T, alphas[t], floor, thetas + k * p, logthetas + k * p);
        }
    }
    free(ll);
    return KERNEL_OK;
}

/* The deviation d = x - mu, and the forward substitution L w = d for a
   lower factor L with reciprocal pivots rdiag[i] = 1 / L_ii, in the order
   of gauss_loglik_groups: w_i starts from d_i, subtracts L_i0 w_0, ...,
   L_i,i-1 w_i-1 in that order and is multiplied by rdiag[i]. Returns |w|^2,
   summed as w is solved, ascending. */
static double deviation_sq(int64_t p, const double *x, const double *mu, const double *L,
                           const double *rdiag, double *d, double *w)
{
    double q = 0.0;
    for (int64_t i = 0; i < p; i++)
        d[i] = x[i] - mu[i];
    for (int64_t i = 0; i < p; i++) {
        double s = d[i];
        for (int64_t k = 0; k < i; k++)
            s -= L[i * p + k] * w[k];
        w[i] = s * rdiag[i];
        q += w[i] * w[i];
    }
    return q;
}

/* rdiag[i] = 1 / L_ii. */
static void pivots(int64_t p, const double *L, double *rdiag)
{
    for (int64_t i = 0; i < p; i++)
        rdiag[i] = 1.0 / L[i * p + i];
}

/* One node's update from its deviation d and q = |w|^2 for L w = d. The
   factor becomes that of (1 - a)(L L' + a d d'): column k of the rank-one
   update of L L' + v v', v = sqrt(a) d, is the Givens rotation
   r = sqrt(L_kk^2 + v_k^2), c = r / L_kk, s = v_k / L_kk (Gill, Golub,
   Murray & Saunders 1974), with L_kk = r and, for i > k,
   l = (L_ik + s v_i) (L_kk / r), v_i = c v_i - s l and L_ik = l; each new
   entry is stored times sqrt(1 - a). Divisions by L_kk multiply by the
   cached rdiag[k] = 1 / L_kk, which is then renewed. `v` holds p doubles of
   scratch. */
static void node_step(int64_t p, const double *d, double q, double a, int update_sigma,
                      double *mu, double *sigma, double *L, double *rdiag, double *logdet,
                      double *v)
{
    for (int64_t i = 0; i < p; i++)
        mu[i] = mu[i] + a * d[i];
    if (!update_sigma)
        return;
    double oma = 1.0 - a;
    for (int64_t i = 0; i < p; i++)
        for (int64_t j = 0; j < p; j++)
            sigma[i * p + j] = sigma[i * p + j] + a * (oma * (d[i] * d[j]) - sigma[i * p + j]);
    double sa = sqrt(a), so = sqrt(oma);
    for (int64_t i = 0; i < p; i++)
        v[i] = sa * d[i];
    for (int64_t k = 0; k < p; k++) {
        double lkk = L[k * p + k];
        double r = sqrt(lkk * lkk + v[k] * v[k]);
        double c = r * rdiag[k], s = v[k] * rdiag[k], rc = lkk / r;
        L[k * p + k] = r * so;
        rdiag[k] = 1.0 / L[k * p + k];
        for (int64_t i = k + 1; i < p; i++) {
            double l = (L[i * p + k] + s * v[i]) * rc;
            v[i] = c * v[i] - s * l;
            L[i * p + k] = l * so;
        }
    }
    *logdet += (double)p * log1p(-a) + log(1.0 + a * q);
}

/* A whole training cycle of `steps` steps. Step t draws row draws[t] of the
   n x p matrix X, trains at rate alphas[t] and radius radii[t], and writes
   its winner's index to winners[t]. Node c's neighbours, itself included,
   are nb_idx[nb_ptr[c] .. nb_ptr[c+1]) at hop counts nb_hops[...], sorted
   by (hops, index). Node m scores -0.5 * ((plog2pi + logdets[m]) + |w|^2),
   plog2pi = p log(2 pi): bitwise its gauss_loglik_groups entry. Returns
   KERNEL_OK or KERNEL_NOMEM. */
int64_t gauss_train_cycle(int64_t p, int64_t M, const double *X, int64_t steps,
                          const int64_t *draws, const double *alphas, const double *radii,
                          const int64_t *nb_ptr, const int64_t *nb_idx, const int64_t *nb_hops,
                          double plog2pi, int update_sigma, double *mus, double *sigmas,
                          double *chols, double *logdets, int64_t *winners)
{
    double *buf = malloc((size_t)(2 * M * p + 2 * M + p) * sizeof(double));
    if (!buf)
        return KERNEL_NOMEM;
    double *dev = buf, *rdiag = buf + M * p, *quad = rdiag + M * p, *ll = quad + M, *w = ll + M;
    for (int64_t m = 0; m < M; m++)
        pivots(p, chols + m * p * p, rdiag + m * p);

    for (int64_t t = 0; t < steps; t++) {
        const double *x = X + draws[t] * p;
        for (int64_t m = 0; m < M; m++) {
            quad[m] = deviation_sq(p, x, mus + m * p, chols + m * p * p, rdiag + m * p,
                                   dev + m * p, w);
            ll[m] = -0.5 * ((plog2pi + logdets[m]) + quad[m]);
        }
        int64_t c = first_max(ll, M);
        winners[t] = c;

        double a = alphas[t];
        for (int64_t j = nb_ptr[c]; j < nb_ptr[c + 1]; j++) {
            if ((double)nb_hops[j] > radii[t])
                break;
            int64_t k = nb_idx[j];
            node_step(p, dev + k * p, quad[k], a, update_sigma, mus + k * p, sigmas + k * p * p,
                      chols + k * p * p, rdiag + k * p, logdets + k, w);
        }
    }
    free(buf);
    return KERNEL_OK;
}

/* The log-likelihood matrix works on tiles of TILE rows of X at a time,
   held entry-major (c[i * TILE + t] is entry i of the tile's row t), so
   every step below is one loop over the tile's rows that the compiler can
   vectorize. Each row's own arithmetic is the same as a row alone, in the
   same order, so the results depend neither on the tiling nor on which
   other rows share the call. */
#define TILE 64
#define TILE_LOOP(t) for (int64_t t = 0; t < TILE; t++)
/* On x86-64 Linux the matrix is built twice, for AVX2 and for the baseline
   instruction set, and the loader picks the one the CPU runs. Vectors only
   change how many rows one instruction handles, and -ffp-contract=off
   keeps products and sums apart, so both builds give the same bits. The
   helpers are always inlined so that each build compiles them for its own
   instruction set. */
#define SCORING static inline __attribute__((always_inline))
#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__)
#define VECTOR_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define VECTOR_CLONES
#endif

/* w = w * inv and q += w^2 over a tile: one entry of the forward
   substitution is solved and its square summed. */
SCORING void tile_solve(double *restrict w, double *restrict q, double inv)
{
    TILE_LOOP(t) {
        w[t] = w[t] * inv;
        q[t] += w[t] * w[t];
    }
}

/* c = c - l * w over a tile: a later entry subtracts a solved one's term. */
SCORING void tile_subtract(double *restrict c, const double *restrict w, double l)
{
    TILE_LOOP(t) c[t] -= l * w[t];
}

/* c[i * TILE + t] = x_i - mu_i for the tile's rows t < rows, row idx[t] of
   the n x p matrix X, or row first + t when idx is NULL; 0 past them. */
SCORING void tile_load(int64_t p, const double *X, const int64_t *idx, int64_t first, int64_t rows,
                       const double *mu, double *c)
{
    for (int64_t i = 0; i < p; i++) {
        for (int64_t t = 0; t < rows; t++)
            c[i * TILE + t] = X[(idx ? idx[t] : first + t) * p + i] - mu[i];
        for (int64_t t = rows; t < TILE; t++)
            c[i * TILE + t] = 0.0;
    }
}

/* Gaussian log densities of rows of the n x p matrix X, group by group:
   for j in ptr[g] .. ptr[g+1], out[j] is row idx[j] of X, or row
   j - ptr[g] when idx is NULL, under node g, with mean mus[g], lower
   Cholesky factor chols[g] (p x p) and constant
   consts[g] = p log(2 pi) + log|Sigma_g|, as -0.5 * (consts[g] + |w|^2)
   where L_g w = x - mu_g. The forward substitution gives
   w_i = (c_i - L_i0 w_0 - ... - L_i,i-1 w_i-1) * (1 / L_ii), subtracting in
   that order, and |w|^2 is summed as w is solved, ascending. With idx NULL
   and ptr[g] = g n, out is the M x n matrix of every row under every node.
   Unless parts is NULL, parts[g] is the group's entries summed as numpy
   sums them (pairwise_sum). Returns KERNEL_OK or KERNEL_NOMEM. */
VECTOR_CLONES
int64_t gauss_loglik_groups(int64_t p, int64_t G, const double *X, const int64_t *idx,
                            const int64_t *ptr, const double *mus, const double *chols,
                            const double *consts, double *out, double *parts)
{
    double *buf = malloc((size_t)((p + 1) * TILE) * sizeof(double));
    if (!buf)
        return KERNEL_NOMEM;
    double *c = buf, *q = buf + p * TILE;
    for (int64_t g = 0; g < G; g++) {
        const double *mu = mus + g * p, *L = chols + g * p * p;
        for (int64_t j0 = ptr[g]; j0 < ptr[g + 1]; j0 += TILE) {
            int64_t rows = ptr[g + 1] - j0 < TILE ? ptr[g + 1] - j0 : TILE;
            if (idx) /* two calls, so that each inlined copy knows its idx */
                tile_load(p, X, idx + j0, 0, rows, mu, c);
            else
                tile_load(p, X, NULL, j0 - ptr[g], rows, mu, c);
            TILE_LOOP(t) q[t] = 0.0;
            for (int64_t i = 0; i < p; i++) {
                tile_solve(c + i * TILE, q, 1.0 / L[i * p + i]);
                for (int64_t k = i + 1; k < p; k++)
                    tile_subtract(c + k * TILE, c + i * TILE, L[k * p + i]);
            }
            for (int64_t t = 0; t < rows; t++)
                out[j0 + t] = -0.5 * (consts[g] + q[t]);
        }
        if (parts)
            parts[g] = pairwise_sum(out + ptr[g], ptr[g + 1] - ptr[g]);
    }
    free(buf);
    return KERNEL_OK;
}

/* winners[j] is the row of the first maximum of column j of the M x n
   matrix ll, or of its first NaN, as np.argmax and first_max give it;
   unless skip is NULL, column j leaves out row skip[j] (M >= 2). The rows
   are scanned in order over tiles of TILE columns, the last one padded.
   Returns KERNEL_OK. */
VECTOR_CLONES
int64_t column_winners(int64_t M, int64_t n, const double *ll, const int64_t *skip, int64_t *winners)
{
    double best[TILE], pad[TILE];
    int64_t arg[TILE], left_out[TILE];
    for (int64_t j0 = 0; j0 < n; j0 += TILE) {
        int64_t cols = n - j0 < TILE ? n - j0 : TILE;
        TILE_LOOP(t) {
            left_out[t] = skip && t < cols ? skip[j0 + t] : -1;
            arg[t] = left_out[t] == 0; /* the first row not left out */
            best[t] = t < cols ? ll[arg[t] * n + j0 + t] : 0.0;
        }
        for (int64_t m = 1; m < M; m++) {
            const double *row = ll + m * n + j0;
            if (cols < TILE) {
                TILE_LOOP(t) pad[t] = t < cols ? row[t] : 0.0;
                row = pad;
            }
            TILE_LOOP(t) { /* unless left out or after a NaN, a NaN or a larger value takes over */
                int64_t take = (m != left_out[t]) & (best[t] == best[t]) & ((row[t] > best[t]) | (row[t] != row[t]));
                best[t] = take ? row[t] : best[t];
                arg[t] = take ? m : arg[t];
            }
        }
        for (int64_t t = 0; t < cols; t++)
            winners[j0 + t] = arg[t];
    }
    return KERNEL_OK;
}

/* The batch fits' helpers are inlined too: compiled on their own, they
   would sit before the scoring clones and shift them (see multinom_step).

   L L' = A for a symmetric A read from its lower triangle: for i >= j,
   s = A_ij - L_i0 L_j0 - ... - L_i,j-1 L_j,j-1 in that order, L_jj = sqrt(s)
   and L_ij = s / L_jj; the upper triangle is 0, and *logdet = 2 (log L_00 +
   ... + log L_p-1,p-1) ascending. Returns 0 at a pivot s not above
   min_pivot, else 1. */
SCORING int cholesky(int64_t p, const double *A, double *L, double min_pivot, double *logdet)
{
    for (int64_t j = 0; j < p; j++) {
        for (int64_t i = 0; i < j; i++)
            L[i * p + j] = 0.0;
        for (int64_t i = j; i < p; i++) {
            double s = A[i * p + j];
            for (int64_t k = 0; k < j; k++)
                s -= L[i * p + k] * L[j * p + k];
            if (i == j && !(s > min_pivot))
                return 0;
            L[i * p + j] = i == j ? sqrt(s) : s / L[j * p + j];
        }
        *logdet = j ? *logdet + log(L[j * p + j]) : log(L[0]);
    }
    *logdet *= 2.0;
    return 1;
}

/* mu = s / k and Sigma = S / k - mu mu', mirrored, from the sums s of k
   rows and the upper triangle of the sums S of their products. */
SCORING void covariance(int64_t p, double k, const double *s, const double *S, double *mu, double *sigma)
{
    for (int64_t i = 0; i < p; i++)
        mu[i] = s[i] / k;
    for (int64_t i = 0; i < p; i++)
        for (int64_t j = i; j < p; j++)
            sigma[j * p + i] = sigma[i * p + j] = S[i * p + j] / k - mu[i] * mu[j];
}

/* The factors chols[g] and log-determinants logdets[g] of G Gaussian nodes.
   With X NULL each node's covariance is factorized as it is; otherwise node
   g is first set to the moments of its group, the rows idx[ptr[g] ..
   ptr[g+1]) of the n x p matrix X added in order, and an empty group leaves
   it as it is. A covariance that does not factorize gets eps * scale added
   to its diagonal, for eps = steps[0], steps[1], ... in turn, until it does;
   scale is trace / p (the trace summed ascending), 1 when that is not
   positive, and floor * max_i (Sigma_ii + mu_i^2) when below it. Returns
   KERNEL_OK, KERNEL_NOMEM, or the first node whose ladder ran out, which
   leaves it and the later nodes unset. */
int64_t gauss_fit_nodes(int64_t p, int64_t G, const double *X, const int64_t *idx, const int64_t *ptr,
                        int64_t n_steps, const double *steps, double floor, double *mus, double *sigmas,
                        double *chols, double *logdets)
{
    double *diag = malloc((size_t)p * sizeof(double));
    if (!diag)
        return KERNEL_NOMEM;
    int64_t g = 0;
    for (; g < G; g++) {
        double *mu = mus + g * p, *sigma = sigmas + g * p * p, *L = chols + g * p * p;
        if (X && ptr[g] == ptr[g + 1])
            continue;
        for (int64_t r = X ? ptr[g] : 0; X && r < ptr[g + 1]; r++) { /* running sums from the first row */
            const double *x = X + idx[r] * p;
            for (int64_t i = 0; i < p; i++) {
                mu[i] = r > ptr[g] ? mu[i] + x[i] : x[i];
                for (int64_t j = i; j < p; j++)
                    sigma[i * p + j] = r > ptr[g] ? sigma[i * p + j] + x[i] * x[j] : x[i] * x[j];
            }
        }
        if (X)
            covariance(p, (double)(ptr[g + 1] - ptr[g]), mu, sigma, mu, sigma);
        int ok = cholesky(p, sigma, L, 0.0, logdets + g);
        double trace = 0.0, bound = 0.0;
        for (int64_t i = 0; i < p && !ok; i++) {
            diag[i] = sigma[i * p + i];
            trace = i ? trace + diag[i] : diag[i];
            bound = i && diag[i] + mu[i] * mu[i] <= bound ? bound : diag[i] + mu[i] * mu[i];
        }
        double scale = trace / (double)p, least = floor * bound;
        scale = scale <= 0.0 ? 1.0 : scale < least ? least : scale;
        for (int64_t s = 0; s < n_steps && !ok; s++) {
            for (int64_t i = 0; i < p; i++)
                sigma[i * p + i] = diag[i] + steps[s] * scale;
            ok = cholesky(p, sigma, L, 0.0, logdets + g);
        }
        if (!ok)
            break;
    }
    free(diag);
    return g < G ? g : KERNEL_OK;
}

/* The neg-loglik k/2 (c + log|Sigma|) of k rows under their batch fit, from
   their statistics st (see gauss_closed_form): 0 when k = 0, NaN unless
   k > p + 1 and every pivot exceeds min_eig times the largest raw second
   moment (S_ii + 2 xbar_i s_i) / k + xbar_i^2. `work`: p + 2 p^2 doubles. */
SCORING double closed_form(int64_t p, const double *st, const double *xbar, double c, double min_eig, double *work)
{
    double k = st[0], raw = 0.0, logdet = 0.0, *sigma = work + p;
    const double *s = st + 1, *S = s + p;
    if (k == 0.0)
        return 0.0;
    for (int64_t i = 0; i < p; i++) {
        double r = (S[i * p + i] + 2.0 * xbar[i] * s[i]) / k + xbar[i] * xbar[i];
        raw = r > raw ? r : raw;
    }
    covariance(p, k, s, S, work, sigma);
    if (!(k > (double)(p + 1)) || !cholesky(p, sigma, sigma + p * p, min_eig * raw, &logdet))
        return NAN;
    return 0.5 * k * (c + logdet);
}

/* The deletion search's estimates. Row r of the n x p matrix X moves in pair
   pair_of[r], and pair j from node cand[j] to node recv[j]. A group's
   statistics are its count k and the sums s of d = x - xbar and S of
   d_i d_j (i <= j), xbar the data mean: a pair's summed over its rows in
   order, a node's over its pairs in order, each from 0. node_neg[m] is the
   closed_form of node m's and pair_neg[j] of node recv[j]'s plus pair j's.
   Returns KERNEL_OK or KERNEL_NOMEM. */
int64_t gauss_closed_form(int64_t p, int64_t n, int64_t M, int64_t P, const double *X, const double *xbar,
                          const int64_t *pair_of, const int64_t *cand, const int64_t *recv, double c,
                          double min_eig, double *node_neg, double *pair_neg)
{
    int64_t W = 1 + p + p * p;
    double *stats = calloc((size_t)((P + M + 1) * W + p + 2 * p * p), sizeof(double));
    if (!stats)
        return KERNEL_NOMEM;
    double *nodes = stats + P * W, *both = nodes + M * W, *work = both + W;
    for (int64_t r = 0; r < n; r++) {
        const double *x = X + r * p;
        double *st = stats + pair_of[r] * W, *s = st + 1, *S = s + p;
        st[0] += 1.0;
        for (int64_t i = 0; i < p; i++) {
            s[i] += x[i] - xbar[i];
            for (int64_t j = i; j < p; j++)
                S[i * p + j] += (x[i] - xbar[i]) * (x[j] - xbar[j]);
        }
    }
    for (int64_t j = 0; j < P; j++)
        for (int64_t t = 0; t < W; t++)
            nodes[cand[j] * W + t] += stats[j * W + t];
    for (int64_t m = 0; m < M; m++)
        node_neg[m] = closed_form(p, nodes + m * W, xbar, c, min_eig, work);
    for (int64_t j = 0; j < P; j++) {
        for (int64_t t = 0; t < W; t++)
            both[t] = nodes[recv[j] * W + t] + stats[j * W + t];
        pair_neg[j] = closed_form(p, both, xbar, c, min_eig, work);
    }
    free(stats);
    return KERNEL_OK;
}
