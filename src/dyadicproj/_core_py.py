"""Pure-numpy fallback for the compiled kernels.

The counting predicate matches _ckernels.c exactly (squared differences
summed over the coordinates in the same order, compared with
<= delta*delta) and decides every pair that can be close, so the two
backends agree integer-for-integer.  C finds each row's slab end by a
two-pointer sweep, which for m = 1 only rows with at least 16 close
neighbours reach (the first 16 are counted at the vector width);
pair_count here bounds the slab by two proved searches.  The
Riesz row sums form the same terms and add them in the same order, so they
are equal; they take one vectorised pass per row, O(N^2) work in all: on 2
shared vCPUs about 0.22 s at N = 9,215, against 13 ms for the compiled
kernel at the AVX-512 width.  `bin_profile` is the one numpy bin profile
for every m, and the reference for the compiled m = 1 one: the same float
operations per coordinate, and the run lengths of equal bins sorted where
C walks a histogram of them.

The row codec's fallback is the reference for the compiled one:
`format_rows` is the "%d" formatter, and `parse_rows` declines every
input, so the general reader in grid is the only reader on this backend.
"""

from __future__ import annotations

import numpy as np

_PAIR_CHUNK = 1 << 20  # candidate pairs per block of pair_count


def pair_count(x: np.ndarray, delta: float) -> int:
    """2 * (close pairs j > i) + n for finite rows sorted by the first
    coordinate z, and a finite delta >= 0.  Two searches on z bound each
    row's candidates; the predicate decides the pairs between them, about
    _PAIR_CHUNK at a time.  Let u = 2^-53, M = max|z| and the exact
    slack = 2^-40 * max(M + delta, 2^-460).  In the rounding model (Higham
    2002, 2.2) with underflow, fl(a +- b) = (a +- b)(1 + e) and
    fl(ab) = ab(1 + e) + h, with |e| <= u and |h| <= 2^-1075:
    - end = searchsorted(z, z + (delta + slack), "right") exceeds every close
      j.  A sum of squares is never below its first term, so a close pair
      has fl(fl(z_j - z_i)^2) <= fl(delta^2), hence z_j - z_i <
      delta(1 + 3u) + 2^-535 < delta + slack - u(M + 3 delta + 3 slack),
      and fl(z_i + fl(delta + slack)) - z_i is at least the latter.
    - begin = searchsorted(z, max(z + (delta - slack), z), "right"), for
      m = 1 only and at least i + 1: every j below it is close, as either
      z_j - z_i <= delta - slack + u(M + 3 delta + 3 slack) < delta, or
      z_j = z_i, a difference of 0 that is close at every delta >= 0 (so a
      run of equal rows needs no test even at delta = 0).
    Overflow only raises end to n, unless delta^2 overflows and then every
    pair is close.
    """
    n, m = x.shape
    d2max = delta * delta
    if n == 0 or d2max == np.inf:
        return n * n
    cols = [np.ascontiguousarray(x[:, t]) for t in range(m)]
    z = cols[0]
    slack = 2.0**-40 * max(max(-float(z[0]), float(z[-1])) + delta, 2.0**-460)
    with np.errstate(over="ignore"):  # inf as in C, without a warning
        end = np.searchsorted(z, z + (delta + slack), side="right")
        begin = np.arange(1, n + 1)
        close = 0
        if m == 1:  # the pairs below begin count without a test
            certain = np.searchsorted(z, np.maximum(z + (delta - slack), z), side="right")
            close, begin = int((certain - begin).sum()), certain
        width = end - begin
        start = np.concatenate(([0], np.cumsum(width)))  # candidates before row i
        a = 0
        while a < n:
            b = max(int(np.searchsorted(start, start[a] + _PAIR_CHUNK, side="right")) - 1, a + 1)
            w = width[a:b]
            # rows a..b-1, each paired with j = begin[i] .. begin[i]+w[i-a]-1
            j = np.arange(start[a], start[b]) - np.repeat(start[a:b] - begin[a:b], w)
            acc = np.zeros(j.size)
            for c in cols:
                d = np.repeat(c[a:b], w) - c[j]
                d *= d
                acc += d
            close += int(np.count_nonzero(acc <= d2max))
            a = b
    return 2 * close + n


def riesz_row_sums(pts: np.ndarray, power: int) -> np.ndarray:
    """out[i] = sum of |x_i - x_j|^-power over j = i+1 .. n-1, added in
    that order.

    Each term is formed as in C: squared differences summed over the
    coordinates in order, sqrt, then `power` divisions of 1.0.  Row i is one
    vectorised pass over j > i; np.cumsum adds its terms in sequence.
    """
    n, m = pts.shape
    cols = [np.ascontiguousarray(pts[:, t]) for t in range(m)]
    out = np.zeros(n)
    with np.errstate(over="ignore", divide="ignore"):  # inf as in C, without a warning
        for i in range(n - 1):
            acc = np.zeros(n - 1 - i)
            for c in cols:
                d = c[i + 1 :] - c[i]
                acc += d * d
            r = np.sqrt(acc)
            q = 1.0 / r
            for _ in range(power - 1):
                q /= r
            out[i] = np.cumsum(q)[-1]
    return out


def bin_profile(x: np.ndarray, scale: float, delta: float, kappa: int) -> tuple[int, int]:
    """(points with a coordinate within 1e-9*delta of a bin face, fewest bins
    holding kappa points) for finite rows x (N, m) binned into cubes of side
    1/scale, with 1 <= kappa <= N.  Sorting the floor rows puts each bin's
    points in one run, so bin occupancy is the run lengths; the fullest
    bins are taken first."""
    scaled = x * scale
    bins = np.floor(scaled)
    frac = scaled - bins
    near = (np.minimum(frac, 1.0 - frac) / scale < 1e-9 * delta).any(axis=1)
    bins = bins[np.lexsort(bins.T)]
    edges = np.concatenate(([True], (bins[1:] != bins[:-1]).any(axis=1), [True]))
    counts = np.diff(np.flatnonzero(edges))
    counts[::-1].sort()
    filled = np.cumsum(counts)
    return int(near.sum()), int(np.searchsorted(filled, kappa) + 1)


def parse_rows(buf, width: int) -> None:
    """Decline: this backend has no fast row parser."""
    return None


def format_rows(rows: np.ndarray) -> str:
    """One line of space-separated integers per row of an integer array."""
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    return (line * len(rows)) % tuple(rows.ravel().tolist())
