"""Backend selection for the hot pair kernels and the row codec.

The compiled kernels (_ckernels.c, built by setup.py and loaded with ctypes
by _core) are used when the shared library is present and current;
otherwise the numpy fallback (_core_py) takes over, with a RuntimeWarning
at import.  Setting the environment variable DYADICPROJ_PURE_PYTHON=1
before import forces the fallback without a warning.  Both backends
implement the same five functions: `pair_count`, which tests every pair
that can be close with the same counting predicate for every m, so they
return equal integers (C sweeps each row's slab with two pointers, for
m = 1 after counting each row's next 16 rows at the vector width; the
fallback bounds the slab by two proved searches);
`riesz_row_sums`, the same Riesz terms added in the same order, so
`riesz_pair_sum` is equal on both; `bin_profile`, which bins rows at a
dyadic side and returns the points near a bin face and the fewest bins
holding kappa points, from the same float operations (C for m = 1 only,
in one pass with a histogram of run lengths; the fallback for every m, by
sorting the floor rows and then their run lengths); and the row codec of
the text formats, `format_rows`, which writes the same text, and
`parse_rows`, which either reads canonical rows or declines.  The
fallback's parser declines every input; a declined read runs grid's
general reader, the reference.  `bin_profile` here works out the side from
delta, and runs m >= 2 on the fallback whatever the backend.

`coincidence_count` and `bin_profile` take their rows through one helper,
`_sorted_rows`: contiguous float64 (N, m) rows, m >= 1, ordered by the
first coordinate, finite.  An ordered array passes through as itself, so
`projection.classify_direction` sorts a projection once and each kernel
only checks it.

At import time this module loads no other dyadicproj module but the two
backends (`riesz_pair_sum` reads grid.MAX_DIM when called), so grid can
import it to read and write its text formats.
"""

from __future__ import annotations

import math
import os
import warnings

import numpy as np

from . import _core, _core_py

_compiled = _core.load()

if os.environ.get("DYADICPROJ_PURE_PYTHON"):
    _active = _core_py
elif _compiled is None:
    warnings.warn(
        "dyadicproj: compiled pair kernels not built, or built from an older "
        "_ckernels.c (run `python setup.py build_ext --inplace` or install with "
        "a C compiler); using the slower numpy fallback",
        RuntimeWarning,
    )
    _active = _core_py
else:
    _active = _compiled

__all__ = [
    "backend_name",
    "coincidence_count",
    "riesz_pair_sum",
    "bin_profile",
    "parse_rows",
    "format_rows",
]


def backend_name() -> str:
    return "python" if _active is _core_py else "compiled"


def _sorted_rows(coords) -> np.ndarray:
    """coords as contiguous float64 (N, m) rows, m >= 1, ordered by the
    first coordinate: the array itself if already so, else sorted (np.sort
    for m = 1, an argsort gather otherwise).  Non-finite rows are refused:
    the sort puts NaN last and infinities at the ends, so the first
    column's two end entries speak for the whole column."""
    x = np.ascontiguousarray(coords, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("coords must be a 2-D array with at least one column")
    first = x[:, 0]
    if not (first[1:] >= first[:-1]).all():
        x = np.sort(x, axis=0) if x.shape[1] == 1 else x[np.argsort(first)]
    if len(x) and not (
        math.isfinite(x[0, 0])
        and math.isfinite(x[-1, 0])
        and (x.shape[1] == 1 or np.isfinite(x[:, 1:]).all())
    ):
        raise ValueError("coords must be finite")
    return x


def coincidence_count(coords: np.ndarray, delta: float) -> int:
    """Ordered pairs (diagonal included) of rows within Euclidean distance delta.

    A pair is close when its squared differences, summed over the
    coordinates, are <= delta*delta; each unordered pair is tested once, so
    the count is 2 * (close pairs) + len(coords).  The sort need not be
    stable: the predicate is symmetric bit for bit and its sum is never below
    the first coordinate's square, so tied rows may come in any order.
    delta must be finite and >= 0, and the rows finite.
    """
    x = _sorted_rows(coords)
    delta = float(delta)
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    return int(_active.pair_count(x, delta))


def riesz_pair_sum(points: np.ndarray, power: int) -> float:
    """Sum of |x - y|^-power over ordered pairs of distinct rows.

    Twice the exactly rounded sum (math.fsum) of the backend's in-order row
    sums over j > i, so every backend returns the same float.
    """
    from .grid import MAX_DIM  # at call time: grid imports this module

    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("need a 2-D array with at least two rows")
    if not 1 <= points.shape[1] <= MAX_DIM:
        raise ValueError(f"points must have 1 to {MAX_DIM} coordinates")
    if power < 1:
        raise ValueError("power must be a positive integer")
    return 2.0 * math.fsum(_active.riesz_row_sums(points, int(power)))


def bin_profile(coords: np.ndarray, delta: float, kappa: int) -> tuple[int, int]:
    """(near, fewest) for (N, m) finite rows binned into the cubes of side
    1/scale, scale = 2^level for the least level >= 0 whose bin diameter
    sqrt(m) / scale is at most delta.  near counts the points with a
    coordinate x where min(frac, 1 - frac) / scale < 1e-9*delta, frac the
    part of x * scale above its floor: within 1e-9*delta of a bin face, the
    bin is a coin flip at double precision.  fewest is the least number of
    bins holding kappa points, kappa an integer in [1, N].  delta must be
    finite and at least sqrt(m) * 2^-1023, so that scale is a finite float,
    and max|x| * scale finite, so that every bin is.
    The same integers on every backend: the active one runs m = 1, and the
    numpy fallback m >= 2, which the compiled library lacks."""
    x = _sorted_rows(coords)
    n, m = x.shape
    root, delta = math.sqrt(m), float(delta)
    if not root * 2.0**-1023 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= sqrt(m) * 2^-1023, got {delta}")
    if kappa % 1 or not 1 <= kappa <= n:
        raise ValueError(f"kappa must be an integer in [1, {n}], got {kappa}")
    level = max(0, math.ceil(math.log2(root / delta) - 1e-12))
    while 2.0**-level * root > delta:
        level += 1
    # sorted by the first column, whose largest |x| is at an end
    top = float(max(-x[0, 0], x[-1, 0], np.abs(x[:, 1:]).max(initial=0.0)))
    if top * 2.0**level == math.inf:
        raise ValueError(f"coords times the bin scale 2^{level} overflow float64 (max |x| = {top})")
    impl = _active if m == 1 else _core_py
    return impl.bin_profile(x, 2.0**level, delta, int(kappa))


def parse_rows(buf, width: int) -> np.ndarray | None:
    """The (N, width) int64 rows of a bytes-like buffer, or None where the
    backend declines it.  The compiled parser accepts only canonical rows:
    the bytes 0-9, space, tab, CR and LF, blank lines skipped, and exactly
    `width` tokens of at most 18 digits on every other line.  Where it
    accepts, the rows equal what str.split and int read."""
    return _active.parse_rows(buf, int(width))


def format_rows(rows: np.ndarray) -> str:
    """One line of space-separated integers per row of an integer array, as
    "%d" formats each; the same text on every backend."""
    return _active.format_rows(rows)
