"""ctypes loader for the compiled kernels in _ckernels.c.

`setup.py build_ext --inplace` (or an install) builds the C file into a
shared library next to this module.  `load` opens it and wraps its two
pair kernels, `pair_count` and `riesz_row_sums`, the bin profile
`bin_profile` (m = 1 only: it takes (N, 1) rows where the fallback's takes
any m), and its row codec, `parse_rows` and `format_rows`, under the names
and signatures of the numpy fallback in _core_py.  A library
that lacks any of the five (one built from an older _ckernels.c) counts
as not built.  ctypes releases the GIL during each foreign call, so
threads can run the kernels side by side.
"""

from __future__ import annotations

import ctypes
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_LL = ctypes.c_longlong
_LL_P = ctypes.POINTER(ctypes.c_longlong)
_SYMBOLS = ("pair_count", "riesz_row_sums", "bin_profile", "parse_rows", "format_rows")


def _rows(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] == 0:
        raise ValueError(f"expected a 2-D array of points, got shape {a.shape}")
    return a


class CompiledKernels:
    """The pair kernels and the row codec of one loaded shared library."""

    def __init__(self, lib: ctypes.CDLL):
        lib.pair_count.argtypes = [_DOUBLE_P, _LL, _LL, ctypes.c_double]
        lib.pair_count.restype = _LL
        lib.riesz_row_sums.argtypes = [_DOUBLE_P, _LL, _LL, ctypes.c_int, _DOUBLE_P]
        lib.riesz_row_sums.restype = ctypes.c_int
        lib.bin_profile.argtypes = [_DOUBLE_P, _LL, ctypes.c_double, ctypes.c_double, _LL, _LL_P]
        lib.bin_profile.restype = _LL
        lib.parse_rows.argtypes = [ctypes.c_char_p, _LL, _LL, _LL_P, _LL]
        lib.parse_rows.restype = _LL
        lib.format_rows.argtypes = [_LL_P, _LL, _LL, ctypes.c_char_p]
        lib.format_rows.restype = _LL
        self._lib = lib

    def pair_count(self, x: np.ndarray, delta: float) -> int:
        """Ordered pairs (diagonal included) whose summed squared differences
        are <= delta^2.  Rows must be sorted by the first coordinate."""
        x = _rows(x)
        n, m = x.shape
        return self._lib.pair_count(x.ctypes.data_as(_DOUBLE_P), n, m, delta)

    def riesz_row_sums(self, pts: np.ndarray, power: int) -> np.ndarray:
        """out[i] = sum of |x_i - x_j|^-power over j = i+1 .. n-1, added in
        that order.  At most MAX_DIM = 8 coordinates."""
        pts = _rows(pts)
        n, m = pts.shape
        out = np.empty(n)
        status = self._lib.riesz_row_sums(
            pts.ctypes.data_as(_DOUBLE_P), n, m, power, out.ctypes.data_as(_DOUBLE_P)
        )
        if status:
            raise ValueError(f"riesz row sums take 1 to 8 coordinates, got {m}")
        return out

    def bin_profile(self, z: np.ndarray, scale: float, delta: float, kappa: int) -> tuple[int, int]:
        """(points within 1e-9*delta of a bin face, fewest bins holding kappa
        points) for sorted finite coordinates z binned at 1/scale, with
        1 <= kappa <= len(z)."""
        z = np.ascontiguousarray(z, dtype=np.float64)
        cover = _LL()
        near = self._lib.bin_profile(
            z.ctypes.data_as(_DOUBLE_P), len(z), scale, delta, kappa, ctypes.byref(cover)
        )
        if near < 0:
            raise MemoryError("bin_profile could not allocate its run histogram")
        return near, cover.value

    def parse_rows(self, buf, width: int) -> np.ndarray | None:
        """The (N, width) int64 rows of a bytes-like buffer in the canonical
        form (see parse_rows in _ckernels.c), or None where the C parser
        declines.  The output is sized from the buffer's length: a row takes
        at least 2 * width bytes, its last line break aside."""
        if width < 1:
            return None
        data = np.frombuffer(buf, dtype=np.uint8)
        cap = len(data) // (2 * width) + 1
        out = np.empty((cap, width), dtype=np.int64)
        n = self._lib.parse_rows(
            data.ctypes.data_as(ctypes.c_char_p), len(data), width, out.ctypes.data_as(_LL_P), cap
        )
        return None if n < 0 else out[:n]

    def format_rows(self, rows: np.ndarray) -> str:
        """One line of space-separated integers per row of an int64 array,
        the text of _core_py.format_rows."""
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        n, w = rows.shape
        out = np.empty(n * (21 * w + 1), dtype=np.uint8)
        size = self._lib.format_rows(
            rows.ctypes.data_as(_LL_P), n, w, out.ctypes.data_as(ctypes.c_char_p)
        )
        return str(out[:size].data, "ascii")


def load(path=None) -> CompiledKernels | None:
    """Open the library at `path`, by default the build beside this module;
    None when there is no such build, or when the library lacks one of the
    wrapped functions (it was built from an older _ckernels.c)."""
    if path is None:
        here = Path(__file__).resolve().parent
        built = [here / f"_ckernels{suffix}" for suffix in EXTENSION_SUFFIXES]
        path = next((p for p in built if p.is_file()), None)
        if path is None:
            return None
    lib = ctypes.CDLL(str(path))
    if not all(hasattr(lib, name) for name in _SYMBOLS):
        return None
    return CompiledKernels(lib)
