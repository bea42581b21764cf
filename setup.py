from setuptools import Extension, setup

# The pair kernels are plain C loaded with ctypes (dyadicproj._core), not a
# Python extension module: the build needs only a C compiler.
# -ffp-contract=off keeps the pair predicates and the Riesz row sums
# bit-identical to the numpy fallback: no FMA contraction of d*d sums, also
# in the AVX-512F clone of riesz_row_sums, whose target has FMA.  The other
# cloned function, window_counts (the m = 1 window of pair_count), squares
# one difference and adds no products, so no clone of it can fuse one.
# -fno-math-errno lets sqrt compile to the vector instruction in every
# clone, which the Riesz row sums need to run their lanes side by side; it
# changes no value, because the argument, a sum of squares, is never
# negative, so sqrt never sets errno.
setup(
    ext_modules=[
        Extension(
            "dyadicproj._ckernels",
            ["src/dyadicproj/_ckernels.c"],
            extra_compile_args=["-O3", "-ffp-contract=off", "-fno-math-errno"],
        )
    ]
)
