/* Two pair kernels and the m = 1 bin profile on raw double arrays, and a
 * row codec for the text formats.  Plain C, no Python headers; dyadicproj._core loads the shared
 * library with ctypes, which releases the GIL for the duration of a call.
 * The numpy fallback (_core_py) returns equal results: the same integers,
 * the same row sums bit for bit, the same bin profiles, and the same
 * formatted text.
 *
 * The pair kernels are coincidence counts, a slab sweep that for m = 1
 * first counts a fixed window of neighbours at the vector width, and Riesz
 * row sums (inverse-power distances).  The counting predicate is the one
 * shared by every backend and by the test oracle: for j > i in sorted
 * order, with d the per-coordinate differences, the pair is close when
 * d.d <= delta*delta  (squares summed over the coordinates in order, built
 * with -ffp-contract=off so no fused multiply-add changes the rounding).
 * The ordered total, diagonal included, is 2 * close + n, symmetric by
 * construction.
 *
 * On x86-64 with glibc the functions marked VECTOR_CLONES are built once
 * per vector width (AVX-512F, AVX2 and the baseline SSE2), and the loader's
 * ifunc resolver binds the widest one the CPU runs.  The clones compute the
 * same bits: each lane's operations and their order are those of the
 * source, sqrt, division and floor round correctly at every width, and
 * -ffp-contract=off keeps fused multiply-adds, which the AVX-512F target
 * has, out of the squared sums.  Elsewhere the attribute is empty and the
 * one baseline build remains.
 *
 * The row codec reads and writes lines of space-separated integers.
 * `format_rows` writes what the fallback's "%d" formatter writes.
 * `parse_rows` accepts only a canonical subset of what the general reader
 * (str.split and int, in grid) accepts, and declines everything else; its
 * caller then runs the general reader, which stays the reference.
 */

#include <math.h>
#include <stdlib.h>

#if defined(__x86_64__) && defined(__GLIBC__)
#define VECTOR_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define VECTOR_CLONES
#endif

#define K 16        /* neighbours counted by window_counts */
#define BLOCK 1024  /* rows per window_counts call */

/* cnt[i] for the rows i < rows (at most BLOCK) of x[0 .. avail-1], sorted
 * and m = 1: how many of the rows i+1 .. i+K below avail are close to row
 * i.  K passes, one per offset k, each over contiguous rows with no branch,
 * so the compares run side by side at the vector width.  The counters are
 * long long: with int ones, -fwrapv (in Python's build flags) leaves the
 * address of x[i + k] unknown to the vectoriser and every clone scalar. */
VECTOR_CLONES
static void window_counts(const double *x, long long rows, long long avail, double d2max,
                          unsigned char *cnt)
{
    long long i, k, end;
    double d;
    for (i = 0; i < rows; i++)
        cnt[i] = 0;
    for (k = 1; k <= K; k++) {
        end = avail - k < rows ? avail - k : rows;
        for (i = 0; i < end; i++) {
            d = x[i + k] - x[i];
            cnt[i] += d * d <= d2max;
        }
    }
}

/* Row-major (n, m) rows sorted by the first coordinate.  For each row i the
 * slab is the run j = i+1 .. hi-1 with d0*d0 <= delta*delta, d0 the
 * first-coordinate difference.  Rounding is monotone, so d0 never falls as
 * j grows nor rises as i grows, and hi only moves right: a two-pointer
 * sweep.  The full predicate is tested on the slab alone, which is safe
 * because adding non-negative squares never lowers the rounded sum.
 *
 * For m = 1 the predicate is the slab test, so the count is the sum of slab
 * widths.  window_counts takes them up to K, BLOCK rows at a time; by
 * monotonicity a row whose K-th neighbour is close is the only kind whose
 * slab can be wider, and that row alone continues the sweep, from
 * max(hi, i + K + 1).  hi still only moves right, so the work stays O(n) on
 * any input.  When nearly every slab is wider than K the window is
 * overhead.
 *
 * For m >= 2 the first squared difference starts the sum in place of
 * 0.0 + d*d, which is the same double.  With the whole sum in the inner
 * loop, 2 of 8 placements of this function in the library (8-byte steps)
 * ran 3-D m = 2 counts about 30% slower on an AMD EPYC; the peeled sum ran
 * none so. */
long long pair_count(const double *x, long long n, long long m, double delta)
{
    double d2max = delta * delta;
    unsigned char cnt[BLOCK];
    long long i, i0, j, t, rows, hi = 0, close = 0;
    double acc, d;
    if (m == 1) {
        for (i0 = 0; i0 < n; i0 += BLOCK) {
            rows = n - i0 < BLOCK ? n - i0 : BLOCK;
            window_counts(x + i0, rows, n - i0, d2max, cnt);
            for (i = i0; i < i0 + rows; i++) {
                if (cnt[i - i0] < K) {
                    close += cnt[i - i0];
                    continue;
                }
                if (hi < i + K + 1)
                    hi = i + K + 1;
                while (hi < n) {
                    d = x[hi] - x[i];
                    if (d * d > d2max)
                        break;
                    hi++;
                }
                close += hi - i - 1;
            }
        }
        return 2 * close + n;
    }
    for (i = 0; i < n; i++) {
        if (hi < i + 1)
            hi = i + 1;
        while (hi < n) {
            d = x[hi * m] - x[i * m];
            if (d * d > d2max)
                break;
            hi++;
        }
        for (j = i + 1; j < hi; j++) {
            d = x[i * m] - x[j * m];
            acc = d * d;
            for (t = 1; t < m; t++) {
                d = x[i * m + t] - x[j * m + t];
                acc = acc + d * d;
            }
            if (acc <= d2max)
                close++;
        }
    }
    return 2 * close + n;
}

/* Riesz row sums, row-major (n, m) with m <= MAX_DIM:
 *     out[i] = sum over j = i+1 .. n-1, added in that order, of |x_i - x_j|^-power,
 * each term the squared differences summed over the coordinates in order,
 * then sqrt, then `power` divisions of 1.0.  The numpy fallback forms the
 * same terms in the same order, so the row sums are bit-identical; the
 * caller combines them with one exactly rounded sum.
 *
 * Rows are taken W at a time, one lane each.  A lane first adds its terms
 * inside the block (j < i0 + W) on its own; then all lanes advance together
 * over j >= i0 + W, each with its own accumulator, so the compiler can
 * vectorise the sqrt and the divisions across lanes without reordering any
 * lane's sum.  Returns -1 when m is out of range, else 0.  It is built once
 * per vector width (VECTOR_CLONES). */
#define MAX_DIM 8
#define W 8

VECTOR_CLONES
int riesz_row_sums(const double *pts, long long n, long long m, int power, double *out)
{
    double xi[MAX_DIM][W], acc[W], r2[W], term[W];
    long long i0, i, j, lanes;
    /* int, not long long: under the -fwrapv of Python's build flags, GCC 12
     * leaves the AVX2 clone scalar with long long lane counters */
    int t, l, p;
    double d, r, q;
    if (m < 1 || m > MAX_DIM)
        return -1;
    for (i0 = 0; i0 < n; i0 += W) {
        lanes = n - i0 < W ? n - i0 : W;
        for (l = 0; l < W; l++) {
            acc[l] = 0.0;
            for (t = 0; t < m; t++)
                xi[t][l] = l < lanes ? pts[(i0 + l) * m + t] : 0.0;
        }
        for (l = 0; l < lanes; l++) {
            i = i0 + l;
            for (j = i + 1; j < i0 + lanes; j++) {
                r = 0.0;
                for (t = 0; t < m; t++) {
                    d = xi[t][l] - pts[j * m + t];
                    r = r + d * d;
                }
                r = sqrt(r);
                q = 1.0;
                for (p = 0; p < power; p++)
                    q = q / r;
                acc[l] = acc[l] + q;
            }
        }
        /* empty unless the block is full, so the padding lanes never count */
        for (j = i0 + W; j < n; j++) {
            for (l = 0; l < W; l++)
                r2[l] = 0.0;
            for (t = 0; t < m; t++)
                for (l = 0; l < W; l++) {
                    d = xi[t][l] - pts[j * m + t];
                    r2[l] = r2[l] + d * d;
                }
            for (l = 0; l < W; l++) {
                r2[l] = sqrt(r2[l]);
                term[l] = 1.0;
            }
            for (p = 0; p < power; p++)
                for (l = 0; l < W; l++)
                    term[l] = term[l] / r2[l];
            for (l = 0; l < W; l++)
                acc[l] = acc[l] + term[l];
        }
        for (l = 0; l < lanes; l++)
            out[i0 + l] = acc[l];
    }
    return 0;
}

/* The m = 1 bin profile of n sorted, finite coordinates x, binned into
 * [k / scale, (k + 1) / scale) for a power of two `scale`:
 *     returns the count of x within 1e-9 * delta of a bin face, that is
 *     min(frac, 1 - frac) / scale < 1e-9 * delta with frac the part of
 *     x * scale above its floor, and sets *min_cover to the fewest bins
 *     holding kappa points (1 <= kappa <= n).
 * One pass forms each value with the operations of the numpy fallback in
 * its order, so the near test decides alike on both.  The bins of sorted
 * values never decrease, so occupancy is the lengths of runs of equal
 * bins.  The pass closes a run without a branch, which random projections
 * would mispredict about once a bin: a run's length is added to hist[run]
 * where the next one starts, and the first row's add goes to hist[0],
 * which is never read.  The histogram, walked from the longest run down,
 * takes the fullest bins first, which is exact for this objective, with
 * no sort of the counts.  It is cloned (VECTOR_CLONES) for its floor: the
 * wider targets have SSE4.1's one-instruction rounding, where the baseline
 * truncates and corrects; both give the exact floor.  On 8,482 projected
 * points a call takes 11.5 us with AVX2 and 18 us in the baseline build
 * (2 shared vCPUs, AMD EPYC).  Returns -1 when the histogram cannot be
 * allocated. */
VECTOR_CLONES
long long bin_profile(const double *x, long long n, double scale, double delta,
                      long long kappa, long long *min_cover)
{
    double tol = 1e-9 * delta, scaled, bin, prev = 0.0, frac, rest;
    long long i, len, edge, run = 0, longest = 0, near = 0, held = 0, taken = 0;
    long long *hist = calloc(n + 1, sizeof *hist);
    if (hist == NULL)
        return -1;
    for (i = 0; i < n; i++) {
        scaled = x[i] * scale;
        bin = floor(scaled);
        frac = scaled - bin;
        rest = 1.0 - frac;
        near += (frac < rest ? frac : rest) / scale < tol;
        edge = bin != prev;
        hist[run] += edge;
        run = edge ? 1 : run + 1;
        longest = run > longest ? run : longest;
        prev = bin;
    }
    hist[run]++;
    for (len = longest; len > 0; len--) {
        if (held + hist[len] * len >= kappa) {
            taken += (kappa - held + len - 1) / len;
            break;
        }
        held += hist[len] * len;
        taken += hist[len];
    }
    free(hist);
    *min_cover = taken;
    return near;
}

/* Rows of `width` unsigned decimal tokens in buf[0 .. len-1] into out
 * (row-major, at most `cap` rows).  Only the bytes 0-9, space, tab, CR and
 * LF may occur; CR and LF each end a line, lines of spaces and tabs are
 * skipped, and every other line must hold exactly `width` tokens of at most
 * 18 digits, so each token is an int64 as Python's int() reads it.  Returns
 * the row count, or -1 (decline) on any other input or when more than `cap`
 * rows would be needed. */
long long parse_rows(const char *buf, long long len, long long width, long long *out,
                     long long cap)
{
    const unsigned char *p = (const unsigned char *)buf, *end = p + len;
    long long rows = 0, tok = 0;  /* tokens so far on the current line */
    unsigned long long v;
    unsigned c;
    int digits;
    if (width < 1)
        return -1;
    while (p < end) {
        c = *p;
        if (c - '0' < 10u) {
            if (tok == width || (tok == 0 && rows == cap))
                return -1;
            v = 0;
            digits = 0;
            do {
                v = v * 10 + (c - '0');
                digits++;
                p++;
            } while (p < end && (c = *p) - '0' < 10u);
            if (digits > 18)
                return -1;
            out[rows * width + tok++] = (long long)v;
        } else if (c == ' ' || c == '\t') {
            p++;
        } else if (c == '\n' || c == '\r') {
            if (tok) {
                if (tok != width)
                    return -1;
                rows++;
                tok = 0;
            }
            p++;
        } else {
            return -1;
        }
    }
    if (tok) {
        if (tok != width)
            return -1;
        rows++;
    }
    return rows;
}

/* n rows of w int64 values as text: each value in decimal with a leading
 * '-' when negative (INT64_MIN included), values separated by one space,
 * each row ended by '\n', exactly as "%d" formats them.  out must hold
 * n * (21 * w + 1) bytes; returns the number written. */
long long format_rows(const long long *rows, long long n, long long w, char *out)
{
    char digits[20];
    char *o = out;
    long long i, t;
    unsigned long long u;
    int k;
    for (i = 0; i < n; i++) {
        for (t = 0; t < w; t++) {
            long long x = rows[i * w + t];
            if (t)
                *o++ = ' ';
            if (x < 0) {
                *o++ = '-';
                u = 0ULL - (unsigned long long)x;
            } else {
                u = (unsigned long long)x;
            }
            k = 0;
            do {
                digits[k++] = (char)('0' + u % 10);
                u /= 10;
            } while (u);
            while (k)
                *o++ = digits[--k];
        }
        *o++ = '\n';
    }
    return o - out;
}
