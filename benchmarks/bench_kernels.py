"""Time the pair kernels on both backends: the plain-C library loaded
with ctypes (compiled) and the numpy fallback (python).

Run from the repository root after building the C kernels in place (needs
only a C compiler):

    python setup.py build_ext --inplace
    python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import time

import numpy as np

from dyadicproj import gen_random_tree_set
from dyadicproj.kernels import available_backends


def _time(fn, *args, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    backends = available_backends()
    cases = [
        ("tree n=2 s=1.0 level=9", gen_random_tree_set(2, 1.0, 9, seed=7)),
        ("tree n=2 s=1.5 level=9", gen_random_tree_set(2, 1.5, 9, seed=7)),
    ]
    rng = np.random.default_rng(11)
    print(f"{'case':34s} {'kernel':22s} " + " ".join(f"{k:>12s}" for k in backends))
    for name, P in cases:
        pts = P.centers()
        z = np.sort(pts @ rng.standard_normal(2) / np.sqrt(2))
        delta = P.delta
        rows = {
            "pair_count_sorted_1d": lambda impl: impl.pair_count_sorted_1d(z, delta),
            "pair_count_nd": lambda impl: impl.pair_count_nd(
                np.ascontiguousarray(pts[np.argsort(pts[:, 0])]), delta
            ),
            "riesz_pair_sum(m=1)": lambda impl: impl.riesz_pair_sum(pts, 1),
        }
        for kernel, call in rows.items():
            times = [_time(call, impl) for impl in backends.values()]
            cells = " ".join(f"{t * 1e3:10.2f}ms" for t in times)
            print(f"{name:34s} {kernel:22s} {cells}")
        print(f"{'':34s} {'(N = %d points)' % len(P):22s}")


if __name__ == "__main__":
    main()
