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
 * The element-wise steps and the summation orders follow the numpy
 * expressions they replace (einsum, pairwise sums, OpenBLAS's dgemv), so
 * means, covariances and probabilities come out bitwise equal to numpy's
 * whenever winners agree. The log-likelihood matrix likewise follows
 * scipy's solve_triangular (OpenBLAS dtrsm, or dtrsv for a lone row) and
 * the einsum that summed its squares.
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

/* Dot product of a and x as OpenBLAS's dgemv kernels for an AVX2 or
   AVX-512 x86-64 host sum one output: the first p - p % 4 entries go to
   `lanes` running sums (lane j takes entries j, j + lanes, ...), each
   started from its first product and continued with fused multiply-adds
   when `fused`, reduced as (l0 + l2) + (l1 + l3) for four lanes and
   l0 + l1 for two; the last p % 4 entries are then added as the kernels' C
   tail adds them. */
static inline double lane_dot(int64_t p, const double *a, const double *x, int lanes, int fused)
{
    int64_t m1 = p - p % 4, j;
    double y = 0.0;
    if (m1 > 0) {
        double l[4];
        for (j = 0; j < lanes; j++)
            l[j] = a[j] * x[j];
        for (int64_t b = lanes; b < m1; b += lanes)
            for (j = 0; j < lanes; j++)
                l[j] = fused ? fma(a[b + j], x[b + j], l[j]) : l[j] + a[b + j] * x[b + j];
        y = lanes == 4 ? (l[0] + l[2]) + (l[1] + l[3]) : l[0] + l[1];
    }
    switch (p - m1) {
    case 1:
        return fma(a[m1], x[m1], y);
    case 2:
        return y + fma(a[m1], x[m1], a[m1 + 1] * x[m1 + 1]);
    case 3:
        return y + fma(a[m1 + 2], x[m1 + 2], fma(a[m1], x[m1], a[m1 + 1] * x[m1 + 1]));
    }
    return y;
}

/* Row i of P d in the four fused lanes of OpenBLAS's 4x4 dgemv kernel,
   numpy's order for every row when p <= 8 (for larger p numpy sums the
   last p % 4 rows as `gemv_row` does). The order matters when a
   near-singular precision turns the last bits of P d into visible
   differences of the Sherman-Morrison step. */
static double matvec_row(int64_t p, const double *Pi, const double *d)
{
    return lane_dot(p, Pi, d, 4, 1);
}

/* Row m of the product A x of an M x p row-major matrix and a p-vector, in
   the order numpy's matmul sums it through OpenBLAS (measured bitwise for
   M = 1..25 and p = 2..40 with OpenBLAS 0.3.31 on an AVX-512 host): rows in
   the blocks of four that the 4x4 kernel takes use four fused lanes; of
   the last M % 4 rows, the 4x2 kernel takes two with two plain lanes and
   the 4x1 kernel a last odd one with four plain lanes. With M = 1 numpy
   calls ddot, a sequential fused sum for p < 16 (the winner search does not
   depend on it, as one node always wins). */
static double gemv_row(int64_t M, int64_t m, int64_t p, const double *a, const double *x)
{
    if (M == 1) {
        double y = 0.0;
        for (int64_t i = 0; i < p; i++)
            y = fma(a[i], x[i], y);
        return y;
    }
    int64_t full = M - M % 4;
    if (m < full)
        return lane_dot(p, a, x, 4, 1);
    if (M % 4 >= 2 && m < full + 2)
        return lane_dot(p, a, x, 2, 0);
    return lane_dot(p, a, x, 4, 0);
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

/* Lower Cholesky factor of the symmetric matrix A into L (row-major), in
   the unblocked LAPACK potf2 order: each pivot subtracts a dot product
   accumulated with fused multiply-adds, as numpy's LAPACK does for the
   short rows met here. Returns 0 when a pivot is not positive (or NaN). */
static int cholesky(int64_t p, const double *A, double *L)
{
    memset(L, 0, (size_t)(p * p) * sizeof(double));
    for (int64_t j = 0; j < p; j++) {
        double dot = 0.0;
        for (int64_t k = 0; k < j; k++)
            dot = fma(L[j * p + k], L[j * p + k], dot);
        double ajj = A[j * p + j] - dot;
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
            pd[i] = matvec_row(p, prec + i * p, d);
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
   same order, so the results do not depend on the tiling. */
#define TILE 64
#define TILE_LOOP(t) for (int64_t t = 0; t < TILE; t++)
/* On x86-64 Linux the matrix is built twice, with FMA instructions and
   without (fma() then calls libm), and the loader picks the one the CPU
   runs; fma() rounds once either way, so both give the same bits. The
   helpers are always inlined so that each build compiles them for its own
   instruction set. */
#define SCORING static inline __attribute__((always_inline))
#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__)
#define FMA_CLONES __attribute__((target_clones("fma", "default")))
#else
#define FMA_CLONES
#endif

/* y = fma(-w, l, y) over a tile: one right-looking step of the solve. */
SCORING void tile_update(double *restrict y, const double *restrict w, double l)
{
    TILE_LOOP(t) y[t] = fma(-w[t], l, y[t]);
}

/* Solve L w = c in place for the lower Cholesky factor L (row-major, p x p)
   whose diagonal's reciprocals are `inv`, in the order of the OpenBLAS
   dtrsm that scipy's solve_triangular calls for two or more right-hand
   sides (measured bitwise for p = 1..40 and p = 47, 48, 63, 64, 65, 80,
   scipy 1.17.1 with OpenBLAS 0.3.30 on an AVX-512 host).
   Rows go in blocks: full blocks of 16, then one block of 8, 4, 2 and 1
   for each of those bits set in p % 16. A block first subtracts from each
   of its rows one fused dot product of that row of L with the w already
   solved, ascending from 0.0, then solves its own rows right-looking:
   w_i = c_i * (1 / L_ii), and every later row k of the block takes
   c_k = fma(-w_i, L_ki, c_k). `acc` holds TILE doubles. */
SCORING void forward_solve(int64_t p, const double *L, const double *inv,
                           double *restrict c, double *restrict acc)
{
    for (int64_t s = 0, b; s < p; s += b) {
        int64_t r = p - s;
        b = r >= 16 ? 16 : r >= 8 ? 8 : r >= 4 ? 4 : r >= 2 ? 2 : 1;
        for (int64_t k = s; k < s + b && s > 0; k++) { /* no rows solved before the first block */
            TILE_LOOP(t) acc[t] = 0.0;
            for (int64_t j = 0; j < s; j++) {
                double l = L[k * p + j];
                TILE_LOOP(t) acc[t] = fma(l, c[j * TILE + t], acc[t]);
            }
            TILE_LOOP(t) c[k * TILE + t] -= acc[t];
        }
        for (int64_t i = s; i < s + b; i++) {
            double v = inv[i];
            TILE_LOOP(t) c[i * TILE + t] *= v;
            for (int64_t k = i + 1; k < s + b; k++)
                tile_update(c + k * TILE, c + i * TILE, L[k * p + i]);
        }
    }
}

/* Solve L w = c in place for a lone row (c[i * TILE]), in the order of the
   OpenBLAS dtrsv that scipy's solve_triangular takes for a single
   right-hand side (measured bitwise for p = 1..16): row i subtracts one
   fused dot product of row i of L with the w already solved, ascending
   from 0.0, and is then divided by L_ii. */
SCORING void lone_solve(int64_t p, const double *L, double *c)
{
    for (int64_t i = 0; i < p; i++) {
        double dot = 0.0;
        for (int64_t j = 0; j < i; j++)
            dot = fma(L[i * p + j], c[j * TILE], dot);
        c[i * TILE] = (c[i * TILE] - dot) / L[i * p + i];
    }
}

/* Sums of squares of each tile row's w into q, in the order
   np.einsum("ij,ij->j", W, W) sums a column in numpy's two-lane SSE loop:
   even entries go to one lane and odd entries to the other, as plain
   products added to the lane, and the lanes are added last. Each full
   chunk of 8 entries is added from its last pair down. Measured bitwise
   over the same p as `forward_solve`. `l1` holds TILE doubles. */
SCORING void sum_squares(int64_t p, const double *restrict w, double *restrict q,
                         double *restrict l1)
{
    TILE_LOOP(t) q[t] = 0.0;
    TILE_LOOP(t) l1[t] = 0.0;
    int64_t i = 0;
    for (; i + 8 <= p; i += 8)
        for (int64_t j = 6; j >= 0; j -= 2) {
            const double *e = w + (i + j) * TILE, *o = e + TILE;
            TILE_LOOP(t) q[t] = e[t] * e[t] + q[t];
            TILE_LOOP(t) l1[t] = o[t] * o[t] + l1[t];
        }
    for (; i < p; i += 2) {
        const double *e = w + i * TILE, *o = e + TILE;
        TILE_LOOP(t) q[t] += e[t] * e[t];
        if (i + 1 < p)
            TILE_LOOP(t) l1[t] += o[t] * o[t];
    }
    TILE_LOOP(t) q[t] += l1[t];
}

/* The M x n matrix of Gaussian log densities: out[m * n + j] is row j of
   the n x p matrix X under node m, with mean mus[m], lower Cholesky factor
   chols[m] (p x p) and constant consts[m] = p log(2 pi) + log|Sigma_m|,
   as -0.5 * (consts[m] + |L_m^-1 (x_j - mu_m)|^2). With two or more rows
   each entry depends on its row and node alone, so any rows' entries equal
   those of a call on just those rows, unless that is a lone row, which
   `lone_solve` scores. Returns KERNEL_OK or KERNEL_NOMEM. */
FMA_CLONES
int64_t gauss_loglik_matrix(int64_t p, int64_t M, int64_t n, const double *X,
                            const double *mus, const double *chols, const double *consts,
                            double *out)
{
    double *buf = malloc((size_t)(p + (p + 3) * TILE) * sizeof(double));
    if (!buf)
        return KERNEL_NOMEM;
    double *inv = buf, *c = buf + p, *q = c + p * TILE, *acc = q + TILE, *lane1 = acc + TILE;
    for (int64_t m = 0; m < M; m++) {
        const double *mu = mus + m * p, *L = chols + m * p * p;
        for (int64_t i = 0; i < p; i++)
            inv[i] = 1.0 / L[i * p + i];
        for (int64_t j0 = 0; j0 < n; j0 += TILE) {
            int64_t rows = n - j0 < TILE ? n - j0 : TILE;
            for (int64_t i = 0; i < p; i++) {
                for (int64_t t = 0; t < rows; t++)
                    c[i * TILE + t] = X[(j0 + t) * p + i] - mu[i];
                for (int64_t t = rows; t < TILE; t++)
                    c[i * TILE + t] = 0.0;
            }
            if (n == 1)
                lone_solve(p, L, c);
            else
                forward_solve(p, L, inv, c, acc);
            sum_squares(p, c, q, lane1);
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
            ll[m] = coef[t] + gemv_row(M, m, p, logthetas + m * p, x);
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
