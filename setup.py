from setuptools import Extension, setup

# The pair kernels are plain C loaded with ctypes (dyadicproj._core), not a
# Python extension module: the build needs only a C compiler.
# -ffp-contract=off keeps the pair predicates bit-identical to the numpy
# fallback (no FMA contraction of d*d sums).
setup(
    ext_modules=[
        Extension(
            "dyadicproj._ckernels",
            ["src/dyadicproj/_ckernels.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
        )
    ]
)
