"""Pure-numpy fallback for the compiled kernels.

The counting predicate matches _ckernels.c exactly (squared differences
summed over the coordinates in the same order, compared with
<= delta*delta) and both count by the same slab sweep, so the two backends
agree integer-for-integer; the Riesz row sums form the same terms and add
them in the same order, so they are equal.  The Riesz sums take one
vectorised pass per row, O(N^2) work in all: on 2 shared vCPUs about 0.5 s
at N = 9,215, against 0.09 s for the compiled kernel.

The row codec's fallback is the reference for the compiled one:
`format_rows` is the "%d" formatter, and `parse_rows` declines every
input, so the general reader in grid is the only reader on this backend.
"""

from __future__ import annotations

import numpy as np

_PAIR_CHUNK = 1 << 20  # candidate pairs per block of pair_count


def _slab_ends(z: np.ndarray, delta: float) -> np.ndarray:
    """end[i]: the first j > i with (z[j]-z[i])^2 > delta^2, for z sorted
    ascending, so the slab of row i is j = i+1 .. end[i]-1.

    searchsorted on z + delta -/+ slack guesses that end within [lo, hi);
    the guess is kept only where the predicate confirms it at lo - 1 and
    hi, and a bisection on the predicate finishes every row whose bracket
    is not yet a single point.  The slack (far above the rounding of
    z + delta) only keeps the brackets narrow; correctness rests on the
    confirmation and on monotonicity in j.
    """
    n = z.shape[0]
    d2max = delta * delta
    rows = np.arange(n)
    first = rows + 1

    def close(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        d = z[j] - z[i]
        return d * d <= d2max

    slack = 2.0**-40 * (float(np.abs(z).max()) + delta)
    lo = np.maximum(np.searchsorted(z, z + (delta - slack), side="left"), first)
    hi = np.maximum(np.searchsorted(z, z + (delta + slack), side="right"), first)
    wrong = (lo > first) & ~close(rows, lo - 1)
    wrong |= (hi < n) & close(rows, np.minimum(hi, n - 1))
    lo[wrong] = first[wrong]
    hi[wrong] = n
    while True:
        act = np.flatnonzero(lo < hi)
        if act.size == 0:
            return lo
        mid = (lo[act] + hi[act]) >> 1
        ok = close(act, mid)
        lo[act[ok]] = mid[ok] + 1
        hi[act[~ok]] = mid[~ok]


def pair_count(x: np.ndarray, delta: float) -> int:
    """2 * (close pairs j > i) + n for rows sorted by the first coordinate.

    Only a row's slab (_slab_ends of the first coordinate) can hold close
    pairs: adding non-negative squares never lowers the rounded sum.  For
    m = 1 the predicate is the slab test, so the count is the sum of slab
    widths; otherwise the slab pairs are tested in full, about _PAIR_CHUNK
    at a time.
    """
    n, m = x.shape
    if n == 0:
        return 0
    cols = [np.ascontiguousarray(x[:, t]) for t in range(m)]
    width = _slab_ends(cols[0], delta) - np.arange(1, n + 1)
    if m == 1:
        return int(2 * width.sum() + n)
    d2max = delta * delta
    start = np.concatenate(([0], np.cumsum(width)))  # candidates before row i
    close = 0
    a = 0
    while a < n:
        b = max(int(np.searchsorted(start, start[a] + _PAIR_CHUNK, side="right")) - 1, a + 1)
        w = width[a:b]
        # rows a..b-1, each paired with j = i+1 .. i+w[i-a]
        j = np.arange(start[a], start[b]) - np.repeat(start[a:b] - np.arange(a + 1, b + 1), w)
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


def parse_rows(buf, width: int) -> None:
    """Decline: this backend has no fast row parser."""
    return None


def format_rows(rows: np.ndarray) -> str:
    """One line of space-separated integers per row of an integer array."""
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    return (line * len(rows)) % tuple(rows.ravel().tolist())
