/* Training kernels: one whole stochastic training cycle per call, for the
 * Gaussian and the multinomial node families; and the Gaussian
 * log-likelihood matrix of a data set under every node, in one call.
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
 * Gaussian nodes hold means (M x p), covariances and precisions
 * (M x p x p), log-determinants (M) and refresh ages (M):
 *
 *   mu'    = mu + a d                         d = x - mu, q = d' P d
 *   Sigma' = Sigma + a ((1 - a) d d' - Sigma)
 *   P'     = (P - (a / g) (P d)(P d)') / (1 - a),   g = 1 + a q
 *   logdet' = logdet + (p log1p(-a) + log g)
 *
 * A node is re-factorized by Cholesky after `refresh_every` rank-one
 * updates, or at once when g is not finite and positive. A covariance that
 * Cholesky rejects gets the jitter ladder eps * trace/p on its diagonal.
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
 *   - a triangular step (Cholesky, forward and back substitution) starts
 *     from its right-hand entry and subtracts the products one at a time,
 *     ascending;
 *   - a sum of squares is one running sum, ascending;
 *   - the exceptions follow numpy's own loops, which do not change with the
 *     host either: `pairwise_sum` (numpy's pairwise summation) and
 *     `quad_form` (einsum's order for d' P d).
 * The numpy references in tests/oracles.py take the same steps in the same
 * orders, so they match this kernel bit for bit.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define KERNEL_OK (-1)
#define KERNEL_NOMEM (-2)

/* numpy's pairwise summation of n strided doubles, started from 0.0. */
static double pairwise_sum(const double *a, int64_t n, int64_t stride)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i * stride];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j * stride];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[(i + j) * stride];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i * stride];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2, stride) + pairwise_sum(a + n2 * stride, n - n2, stride);
}

/* d' P d in the order einsum("mi,mij,mj->m") sums it over two or more
   nodes: one running sum of (d_i P_ij) d_j over i, then j. */
static double quad_form(int64_t p, const double *d, const double *P)
{
    double q = 0.0;
    for (int64_t i = 0; i < p; i++)
        for (int64_t j = 0; j < p; j++)
            q += d[i] * P[i * p + j] * d[j];
    return q;
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

/* Lower Cholesky factor of the symmetric matrix A into L (row-major), column
   by column; each entry starts from A's and subtracts the products of the
   factor's earlier columns, ascending. Returns 0 when a pivot is not
   positive (or NaN). */
static int cholesky(int64_t p, const double *A, double *L)
{
    memset(L, 0, (size_t)(p * p) * sizeof(double));
    for (int64_t j = 0; j < p; j++) {
        double ajj = A[j * p + j];
        for (int64_t k = 0; k < j; k++)
            ajj -= L[j * p + k] * L[j * p + k];
        if (!(ajj > 0.0))
            return 0;
        ajj = sqrt(ajj);
        L[j * p + j] = ajj;
        double inv = 1.0 / ajj;
        for (int64_t i = j + 1; i < p; i++) {
            double s = A[i * p + j];
            for (int64_t k = 0; k < j; k++)
                s -= L[i * p + k] * L[j * p + k];
            L[i * p + j] = s * inv;
        }
    }
    return 1;
}

/* Re-factorize one node: Cholesky of sigma, with the jitter ladder when it
   fails (the accepted jittered matrix replaces sigma), then the precision
   from the factor by two triangular solves per column and the
   log-determinant from its diagonal. `work` holds 2 p^2 + p doubles.
   Returns 0 when the whole ladder fails. */
static int refactor(int64_t p, double *sigma, double *prec, double *logdet,
                    const double *jitter, int64_t n_jitter, double *work)
{
    double *L = work, *J = work + p * p, *y = work + 2 * p * p;
    if (!cholesky(p, sigma, L)) {
        double scale = pairwise_sum(sigma, p, p + 1) / (double)p;
        if (scale <= 0.0)
            scale = 1.0;
        int64_t s;
        for (s = 0; s < n_jitter; s++) {
            double e = jitter[s] * scale;
            for (int64_t i = 0; i < p; i++)
                for (int64_t j = 0; j < p; j++)
                    J[i * p + j] = sigma[i * p + j] + e * (i == j ? 1.0 : 0.0);
            if (cholesky(p, J, L))
                break;
        }
        if (s == n_jitter)
            return 0;
        memcpy(sigma, J, (size_t)(p * p) * sizeof(double));
    }
    for (int64_t c = 0; c < p; c++) {
        for (int64_t i = 0; i < p; i++) { /* L y = e_c */
            double s = (i == c) ? 1.0 : 0.0;
            for (int64_t k = 0; k < i; k++)
                s -= L[i * p + k] * y[k];
            y[i] = s / L[i * p + i];
        }
        for (int64_t i = p - 1; i >= 0; i--) { /* L' x = y */
            double s = y[i];
            for (int64_t k = i + 1; k < p; k++)
                s -= L[k * p + i] * prec[k * p + c];
            prec[i * p + c] = s / L[i * p + i];
        }
    }
    for (int64_t i = 0; i < p; i++)
        y[i] = log(L[i * p + i]);
    *logdet = 2.0 * pairwise_sum(y, p, 1);
    return 1;
}

/* One node's update from its deviation d and quadratic form q. Returns 0
   when a re-factorization exhausts the jitter ladder. */
static int node_step(int64_t p, const double *d, double q, double a, int update_sigma,
                     int64_t refresh_every, const double *jitter, int64_t n_jitter,
                     double *mu, double *sigma, double *prec, double *logdet,
                     int64_t *age, double *work)
{
    for (int64_t i = 0; i < p; i++)
        mu[i] = mu[i] + a * d[i];
    if (!update_sigma)
        return 1;
    double oma = 1.0 - a;
    for (int64_t i = 0; i < p; i++)
        for (int64_t j = 0; j < p; j++)
            sigma[i * p + j] = sigma[i * p + j] + a * (oma * (d[i] * d[j]) - sigma[i * p + j]);
    double g = 1.0 + a * q;
    if (*age < refresh_every && 0.0 < g && g < INFINITY) {
        double *pd = work, ag = a / g;
        for (int64_t i = 0; i < p; i++)
            pd[i] = dot(p, prec + i * p, d);
        for (int64_t i = 0; i < p; i++)
            for (int64_t j = 0; j < p; j++)
                prec[i * p + j] = (prec[i * p + j] - ag * (pd[i] * pd[j])) / oma;
        *logdet += (double)p * log1p(-a) + log(g);
        *age += 1;
        return 1;
    }
    *age = 0;
    return refactor(p, sigma, prec, logdet, jitter, n_jitter, work);
}

/* One update of node k from the sample x. Returns KERNEL_OK, or k when the
   node's covariance stays singular after the whole jitter ladder. */
int64_t gauss_update_node(int64_t p, int64_t k, const double *x, double a,
                          int update_sigma, int64_t refresh_every,
                          const double *jitter, int64_t n_jitter,
                          double *mus, double *sigmas, double *precs,
                          double *logdets, int64_t *ages)
{
    double *buf = malloc((size_t)(2 * p * p + 2 * p) * sizeof(double));
    if (!buf)
        return KERNEL_NOMEM;
    double *d = buf, *work = buf + p;
    const double *mu = mus + k * p, *prec = precs + k * p * p;
    for (int64_t i = 0; i < p; i++)
        d[i] = x[i] - mu[i];
    int ok = node_step(p, d, quad_form(p, d, prec), a, update_sigma, refresh_every,
                       jitter, n_jitter, mus + k * p, sigmas + k * p * p,
                       precs + k * p * p, logdets + k, ages + k, work);
    free(buf);
    return ok ? KERNEL_OK : k;
}

/* A whole training cycle of `steps` steps. Step t draws row draws[t] of the
   n x p matrix X, trains at rate alphas[t] and radius radii[t], and writes
   its winner's index to winners[t]. Node c's neighbours, itself included,
   are nb_idx[nb_ptr[c] .. nb_ptr[c+1]) at hop counts nb_hops[...], sorted
   by (hops, index). `cst` is -p log(2 pi) / 2. Returns KERNEL_OK,
   KERNEL_NOMEM, or the index of a node whose covariance stays singular
   after the whole jitter ladder. */
int64_t gauss_train_cycle(int64_t p, int64_t M, const double *X, int64_t steps,
                          const int64_t *draws, const double *alphas, const double *radii,
                          const int64_t *nb_ptr, const int64_t *nb_idx, const int64_t *nb_hops,
                          double cst, int update_sigma, int64_t refresh_every,
                          const double *jitter, int64_t n_jitter,
                          double *mus, double *sigmas, double *precs, double *logdets,
                          int64_t *ages, int64_t *winners)
{
    double *buf = malloc((size_t)(M * p + 2 * M + 2 * p * p + p) * sizeof(double));
    if (!buf)
        return KERNEL_NOMEM;
    double *dev = buf, *quad = buf + M * p, *ll = quad + M, *work = ll + M;
    int64_t status = KERNEL_OK;

    for (int64_t t = 0; t < steps && status == KERNEL_OK; t++) {
        const double *x = X + draws[t] * p;
        for (int64_t m = 0; m < M; m++) {
            double *d = dev + m * p;
            for (int64_t i = 0; i < p; i++)
                d[i] = x[i] - mus[m * p + i];
            quad[m] = quad_form(p, d, precs + m * p * p);
            ll[m] = cst - 0.5 * (logdets[m] + quad[m]);
        }
        int64_t c = first_max(ll, M);
        winners[t] = c;

        double a = alphas[t];
        for (int64_t j = nb_ptr[c]; j < nb_ptr[c + 1]; j++) {
            if ((double)nb_hops[j] > radii[t])
                break;
            int64_t k = nb_idx[j];
            if (!node_step(p, dev + k * p, quad[k], a, update_sigma, refresh_every,
                           jitter, n_jitter, mus + k * p, sigmas + k * p * p,
                           precs + k * p * p, logdets + k, ages + k, work)) {
                status = k;
                break;
            }
        }
    }
    free(buf);
    return status;
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

/* The M x n matrix of Gaussian log densities: out[m * n + j] is row j of
   the n x p matrix X under node m, with mean mus[m], lower Cholesky factor
   chols[m] (p x p) and constant consts[m] = p log(2 pi) + log|Sigma_m|,
   as -0.5 * (consts[m] + |w|^2) where L_m w = x_j - mu_m. The forward
   substitution gives w_i = (c_i - L_i0 w_0 - ... - L_i,i-1 w_i-1) * (1 / L_ii),
   subtracting in that order, and |w|^2 is summed as w is solved, ascending.
   Returns KERNEL_OK or KERNEL_NOMEM. */
VECTOR_CLONES
int64_t gauss_loglik_matrix(int64_t p, int64_t M, int64_t n, const double *X,
                            const double *mus, const double *chols, const double *consts,
                            double *out)
{
    double *buf = malloc((size_t)((p + 1) * TILE) * sizeof(double));
    if (!buf)
        return KERNEL_NOMEM;
    double *c = buf, *q = buf + p * TILE;
    for (int64_t m = 0; m < M; m++) {
        const double *mu = mus + m * p, *L = chols + m * p * p;
        for (int64_t j0 = 0; j0 < n; j0 += TILE) {
            int64_t rows = n - j0 < TILE ? n - j0 : TILE;
            for (int64_t i = 0; i < p; i++) {
                for (int64_t t = 0; t < rows; t++)
                    c[i * TILE + t] = X[(j0 + t) * p + i] - mu[i];
                for (int64_t t = rows; t < TILE; t++)
                    c[i * TILE + t] = 0.0;
            }
            TILE_LOOP(t) q[t] = 0.0;
            for (int64_t i = 0; i < p; i++) {
                tile_solve(c + i * TILE, q, 1.0 / L[i * p + i]);
                for (int64_t k = i + 1; k < p; k++)
                    tile_subtract(c + k * TILE, c + i * TILE, L[k * p + i]);
            }
            for (int64_t t = 0; t < rows; t++)
                out[m * n + j0 + t] = -0.5 * (consts[m] + q[t]);
        }
    }
    free(buf);
    return KERNEL_OK;
}

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
    double s = pairwise_sum(theta, p, 1);
    for (int64_t i = 0; i < p; i++) {
        theta[i] = theta[i] / s;
        logtheta[i] = log(theta[i]);
    }
}

/* One update of multinomial node k from the count row x. */
int64_t multinom_update_node(int64_t p, int64_t k, const double *x, double a, double floor,
                             double *thetas, double *logthetas)
{
    double T = pairwise_sum(x, p, 1);
    if (T != 0.0)
        multinom_step(p, x, T, a, floor, thetas + k * p, logthetas + k * p);
    return KERNEL_OK;
}

/* A whole multinomial training cycle: the arguments up to nb_hops are those
   of gauss_train_cycle; coef[t] is the multinomial coefficient of step t's
   row and `floor` the probability floor. Returns KERNEL_OK or
   KERNEL_NOMEM. */
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

        double T = pairwise_sum(x, p, 1);
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
