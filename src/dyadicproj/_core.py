"""ctypes loader for the compiled pair kernels in _ckernels.c.

`setup.py build_ext --inplace` (or an install) builds the C file into a
shared library next to this module.  `load` opens it and wraps its two
functions, `pair_count` and `riesz_row_sums`, under the names and
signatures of the numpy fallback in _core_py.  ctypes releases the GIL
during each foreign call, so threads can run the kernels side by side.
"""

from __future__ import annotations

import ctypes
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_LL = ctypes.c_longlong


def _rows(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] == 0:
        raise ValueError(f"expected a 2-D array of points, got shape {a.shape}")
    return a


class CompiledKernels:
    """The two pair kernels of one loaded shared library."""

    def __init__(self, path):
        lib = ctypes.CDLL(str(path))
        lib.pair_count.argtypes = [_DOUBLE_P, _LL, _LL, ctypes.c_double]
        lib.pair_count.restype = _LL
        lib.riesz_row_sums.argtypes = [_DOUBLE_P, _LL, _LL, ctypes.c_int, _DOUBLE_P]
        lib.riesz_row_sums.restype = ctypes.c_int
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


def load(path=None) -> CompiledKernels | None:
    """Open the library at `path`, by default the build beside this module;
    None when there is no such build."""
    if path is None:
        here = Path(__file__).resolve().parent
        built = [here / f"_ckernels{suffix}" for suffix in EXTENSION_SUFFIXES]
        path = next((p for p in built if p.is_file()), None)
        if path is None:
            return None
    return CompiledKernels(path)
