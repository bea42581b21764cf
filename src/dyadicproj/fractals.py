"""Seeded and deterministic generators of test point sets.

Cantor-type products with a power-of-two subdivision base are dyadic-exact:
their minimal cover value at the matching exponent is exactly 1 at every
iteration depth, which pins down the content machinery.  The random tree
generator produces sets of prescribed branching dimension for scan inputs,
and the degenerate generators (line, cluster, point) are the adversarial
cases for energies and heavy-cube pruning.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import MAX_DIM, MAX_LEVEL, GridPointSet

__all__ = [
    "CantorPattern",
    "QUARTER_CANTOR",
    "gen_cantor_product",
    "gen_random_tree_set",
    "gen_degenerate",
    "parse_generator_spec",
]


@dataclass(frozen=True)
class CantorPattern:
    """Product substitution rule: per axis, keep a subset of {0..base-1}."""

    base: int
    keep: tuple[tuple[int, ...], ...]  # one sorted tuple per axis

    def __post_init__(self):
        if self.base < 2 or self.base & (self.base - 1):
            raise ValueError(f"base {self.base} must be a power of two >= 2")
        if not 1 <= len(self.keep) <= MAX_DIM:
            raise ValueError(f"pattern needs between 1 and {MAX_DIM} axes")
        norm = []
        for axis in self.keep:
            vals = tuple(sorted(set(int(v) for v in axis)))
            if not vals:
                raise ValueError("every axis must keep at least one digit")
            if vals[0] < 0 or vals[-1] >= self.base:
                raise ValueError(f"digits {vals} out of range for base {self.base}")
            norm.append(vals)
        object.__setattr__(self, "keep", tuple(norm))

    @property
    def dims(self) -> int:
        return len(self.keep)

    @property
    def levels_per_step(self) -> int:
        return self.base.bit_length() - 1

    @property
    def dimension(self) -> float:
        """Similarity dimension of the limit set (sum over axes)."""
        return sum(math.log2(len(a)) for a in self.keep) / self.levels_per_step


QUARTER_CANTOR = CantorPattern(4, ((0, 3),))


def gen_cantor_product(pattern: CantorPattern, iterations: int) -> GridPointSet:
    """Iterate the substitution from the unit cube; level = k * log2(base)."""
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    level = iterations * pattern.levels_per_step
    if level > MAX_LEVEL:
        raise ValueError(f"{iterations} iterations reach level {level} > {MAX_LEVEL}")
    offsets = np.array(list(itertools.product(*pattern.keep)), dtype=np.int64)
    cells = np.zeros((1, pattern.dims), dtype=np.int64)
    for _ in range(iterations):
        cells = (cells[:, None, :] * pattern.base + offsets[None, :, :]).reshape(
            -1, pattern.dims
        )
    return GridPointSet(pattern.dims, level, cells)


def gen_random_tree_set(n: int, s: float, level: int, seed: int) -> GridPointSet:
    """Branching-process set: each occupied cube keeps each of its 2^n
    children independently with probability 2^(s-n), re-drawn until at
    least one child survives.  Deterministic given the seed; the expected
    cell count is about 2^(level*s) up to the survival conditioning bias.
    """
    if not 0.0 < s <= n:
        raise ValueError(f"exponent s={s} outside (0, {n}]")
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level {level} outside [0, {MAX_LEVEL}]")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    p = 2.0 ** (s - n)
    offsets = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
    cells = np.zeros((1, n), dtype=np.int64)
    for _ in range(level):
        keep = rng.random((cells.shape[0], offsets.shape[0])) < p
        dead = ~keep.any(axis=1)
        while dead.any():
            keep[dead] = rng.random((int(dead.sum()), offsets.shape[0])) < p
            dead = ~keep.any(axis=1)
        children = (cells[:, None, :] << 1) + offsets[None, :, :]
        cells = children[keep]
    return GridPointSet(n, level, cells)


def gen_degenerate(kind: str, **params) -> GridPointSet:
    """Adversarial sets: an axis line, a packed cluster, or a single point.

    line:    all cells along the first axis, other coordinates fixed
             (n, level, fixed: tuple of n-1 coords, default zeros)
    cluster: the full sub-grid inside one coarse cube
             (n, level, cube_level, cube_coords: tuple, default zeros)
    point:   a singleton (n, level, coords: tuple, default zeros)
    """
    if kind == "line":
        n = int(params["n"])
        level = int(params["level"])
        fixed = tuple(params.get("fixed", (0,) * (n - 1)))
        if len(fixed) != n - 1:
            raise ValueError(f"line needs {n - 1} fixed coordinates")
        cells = np.zeros((1 << level, n), dtype=np.int64)
        cells[:, 0] = np.arange(1 << level)
        cells[:, 1:] = np.asarray(fixed, dtype=np.int64)
        return GridPointSet(n, level, cells)
    if kind == "cluster":
        n = int(params["n"])
        level = int(params["level"])
        cube_level = int(params["cube_level"])
        if not 0 <= cube_level <= level:
            raise ValueError(f"cube_level {cube_level} outside [0, {level}]")
        coords = tuple(params.get("cube_coords", (0,) * n))
        span = 1 << (level - cube_level)
        axes = [np.arange(c * span, (c + 1) * span, dtype=np.int64) for c in coords]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        return GridPointSet(n, level, grid)
    if kind == "point":
        n = int(params["n"])
        level = int(params["level"])
        coords = tuple(params.get("coords", (0,) * n))
        return GridPointSet.from_cells(n, level, [coords])
    raise ValueError(f"unknown degenerate kind {kind!r}")


def parse_generator_spec(spec: str, seed: int | None = None) -> GridPointSet:
    """Build a point set from a compact spec string.

    Grammar: `kind:key=value,...` with kinds
      cantor  keep=0|3 (per-axis digits joined by |), base, dims, iters
      random  n, s, level (requires a seed)
      line    n, level
      cluster n, level, cube_level
      point   n, level
    Example: `cantor:keep=0|3,base=4,dims=2,iters=5`.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    kv: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValueError(f"malformed generator option {item!r}")
            kv[key.strip()] = val.strip()
    if kind == "cantor":
        base = int(kv.get("base", "4"))
        dims = int(kv.get("dims", "1"))
        iters = int(kv.get("iters", "1"))
        digits = tuple(int(d) for d in kv.get("keep", "0|3").split("|"))
        pattern = CantorPattern(base, (digits,) * dims)
        return gen_cantor_product(pattern, iters)
    if kind == "random":
        if seed is None:
            raise ValueError("the random generator requires a seed")
        return gen_random_tree_set(
            int(kv["n"]), float(kv["s"]), int(kv["level"]), seed
        )
    if kind in ("line", "cluster", "point"):
        params = {k: int(v) for k, v in kv.items()}
        return gen_degenerate(kind, **params)
    raise ValueError(f"unknown generator kind {kind!r}")
