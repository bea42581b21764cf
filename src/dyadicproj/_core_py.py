"""Pure-numpy fallback for the compiled pair kernels.

Counting predicates match _ckernels.c exactly (squared differences summed
over the coordinates in the same order, compared with <= delta*delta), so
the two backends agree integer-for-integer; the Riesz row sums form the
same terms and add them in the same order, so they are equal.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 2048


def pair_count_sorted_1d(z: np.ndarray, delta: float) -> int:
    """Ordered pairs (i, j), diagonal included, with (z[j]-z[i])^2 <= delta^2.

    z must be sorted ascending, so the predicate holds on a run j = i+1 ..
    end[i]-1.  searchsorted on z + delta -/+ slack guesses that end within
    [lo, hi); the guess is kept only where the predicate confirms it at
    lo - 1 and hi, and a bisection on the predicate finishes every row whose
    bracket is not yet a single point.  The slack (far above the rounding of
    z + delta) only keeps the brackets narrow; correctness rests on the
    confirmation and on monotonicity in j.
    """
    n = z.shape[0]
    if n == 0:
        return 0
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
            break
        mid = (lo[act] + hi[act]) >> 1
        ok = close(act, mid)
        lo[act[ok]] = mid[ok] + 1
        hi[act[~ok]] = mid[~ok]
    return int(2 * (lo - first).sum() + n)


def pair_count_nd(x: np.ndarray, delta: float) -> int:
    """Ordered pairs (diagonal included) whose squared differences, summed
    over the coordinates, are <= delta^2: 2 * (close pairs j > i) + n."""
    n, m = x.shape
    if n == 0:
        return 0
    d2max = delta * delta
    close = 0
    for a in range(0, n, _CHUNK):
        xa = x[a : a + _CHUNK]
        for b in range(a, n, _CHUNK):
            xb = x[b : b + _CHUNK]
            acc = np.zeros((xa.shape[0], xb.shape[0]))
            for t in range(m):
                d = xa[:, t, None] - xb[None, :, t]
                acc += d * d
            hits = int((acc <= d2max).sum())
            # a diagonal block is symmetric and holds the n_a self-pairs
            close += (hits - xa.shape[0]) // 2 if a == b else hits
    return 2 * close + n


def riesz_row_sums(pts: np.ndarray, power: int) -> np.ndarray:
    """out[i] = sum of |x_i - x_j|^-power over j = i+1 .. n-1, added in
    that order.

    Each term is formed as in C: squared differences summed over the
    coordinates in order, sqrt, then `power` divisions of 1.0.  Only blocks
    on or above the diagonal are computed; a term with j <= i gets an
    infinite distance and so is 0.0, and adding +0.0 is exact.  Each
    column chunk is summed along its rows by np.cumsum (sequential), with
    the row's sum over the earlier chunks in front.
    """
    n, m = pts.shape
    out = np.zeros(n)
    for a in range(0, n, _CHUNK):
        xa = pts[a : a + _CHUNK]
        for b in range(a, n, _CHUNK):
            xb = pts[b : b + _CHUNK]
            run = np.zeros((xa.shape[0], xb.shape[0] + 1))
            run[:, 0] = out[a : a + _CHUNK]
            acc = run[:, 1:]
            for t in range(m):
                d = xa[:, t, None] - xb[None, :, t]
                acc += np.square(d, out=d)
            if a == b:
                acc[np.tri(xa.shape[0], dtype=bool)] = np.inf
            r = np.sqrt(acc)
            np.divide(1.0, r, out=acc)
            for _ in range(power - 1):
                acc /= r
            np.cumsum(run, axis=1, out=run)
            out[a : a + _CHUNK] = run[:, -1]
    return out
