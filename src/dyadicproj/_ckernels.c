/* Pair kernels on raw double arrays: coincidence counts and inverse-power
 * pair sums.  Plain C, no Python headers; dyadicproj._core loads the shared
 * library with ctypes, which releases the GIL for the duration of a call.
 *
 * The counting predicate is the one shared by every backend and by the test
 * oracle: for j > i in sorted order, with d the per-coordinate differences,
 * the pair is close when  d.d <= delta*delta  (squares summed over the
 * coordinates in order, built with -ffp-contract=off so no fused
 * multiply-add changes the rounding).  The ordered total, diagonal included,
 * is 2 * close + n, symmetric by construction.
 */

#include <math.h>

/* Rows of z (length n) sorted ascending.  Since z is sorted, z[j] - z[i] and
 * its square are non-decreasing in j and non-increasing in i, so the first
 * index past the close run only moves right: a two-pointer sweep. */
long long pair_count_sorted_1d(const double *z, long long n, double delta)
{
    double d2max = delta * delta;
    long long i, hi = 0, close = 0;
    double d;
    for (i = 0; i < n; i++) {
        if (hi < i + 1)
            hi = i + 1;
        while (hi < n) {
            d = z[hi] - z[i];
            if (d * d > d2max)
                break;
            hi++;
        }
        close += hi - i - 1;
    }
    return 2 * close + n;
}

/* Row-major (n, m) rows sorted by the first coordinate; the sweep stops once
 * the first coordinate alone is farther than delta, which is safe because
 * adding non-negative squares never lowers the rounded sum. */
long long pair_count_nd(const double *x, long long n, long long m, double delta)
{
    double d2max = delta * delta;
    long long i, j, t, close = 0;
    double acc, d, d0;
    for (i = 0; i < n; i++) {
        for (j = i + 1; j < n; j++) {
            d0 = x[j * m] - x[i * m];
            if (d0 * d0 > d2max)
                break;
            acc = 0.0;
            for (t = 0; t < m; t++) {
                d = x[i * m + t] - x[j * m + t];
                acc = acc + d * d;
            }
            if (acc <= d2max)
                close++;
        }
    }
    return 2 * close + n;
}

/* Sum over ordered distinct pairs of |x - y|^-power, row-major (n, m). */
double riesz_pair_sum(const double *pts, long long n, long long m, int power)
{
    long long i, j, t;
    int p;
    double acc, d, r, term, total = 0.0;
    for (i = 0; i < n; i++) {
        for (j = i + 1; j < n; j++) {
            acc = 0.0;
            for (t = 0; t < m; t++) {
                d = pts[i * m + t] - pts[j * m + t];
                acc = acc + d * d;
            }
            r = sqrt(acc);
            term = 1.0;
            for (p = 0; p < power; p++)
                term = term / r;
            total += 2.0 * term;
        }
    }
    return total;
}
