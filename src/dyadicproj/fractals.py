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

    line:    all cells along the first axis, other coordinates zero
             (n, level)
    cluster: the full sub-grid inside the coarse cube at the origin
             (n, level, cube_level)
    point:   the origin cell alone (n, level)

    An unknown or missing keyword is a ValueError, as in a spec string.
    """
    if kind not in ("line", "cluster", "point"):
        raise ValueError(f"unknown degenerate kind {kind!r}")
    for key in params:
        if key not in _SPEC_KEYS[kind]:
            raise _key_error("unknown", key, kind)
    for key in _SPEC_KEYS[kind]:
        if key not in params:
            raise _key_error("missing", key, kind)
    n = int(params["n"])
    level = int(params["level"])
    if kind == "line":
        cells = np.zeros((1 << level, n), dtype=np.int64)
        cells[:, 0] = np.arange(1 << level)
        return GridPointSet(n, level, cells)
    if kind == "cluster":
        cube_level = int(params["cube_level"])
        if not 0 <= cube_level <= level:
            raise ValueError(f"cube_level {cube_level} outside [0, {level}]")
        axes = [np.arange(1 << (level - cube_level), dtype=np.int64)] * n
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        return GridPointSet(n, level, grid)
    return GridPointSet.from_cells(n, level, [(0,) * n])


# each spec kind's keys, with the defaults of those that may be left out
_SPEC_KEYS: dict[str, dict[str, str | None]] = {
    "cantor": {"keep": "0|3", "base": "4", "dims": "1", "iters": "1"},
    "random": {"n": None, "s": None, "level": None},
    "line": {"n": None, "level": None},
    "cluster": {"n": None, "level": None, "cube_level": None},
    "point": {"n": None, "level": None},
}


def _key_error(word: str, key: str, kind: str) -> ValueError:
    return ValueError(f"{word} generator key {key!r}: {kind} takes {', '.join(_SPEC_KEYS[kind])}")


def parse_generator_spec(spec: str, seed: int | None = None) -> GridPointSet:
    """Build a point set from a compact spec string.

    Grammar: `kind:key=value,...` with kinds
      cantor  keep=0|3 (per-axis digits joined by |), base=4, dims=1, iters=1
      random  n, s, level (requires a seed)
      line    n, level
      cluster n, level, cube_level
      point   n, level
    Keys with a default may be left out; an unknown, repeated or missing key
    is a ValueError.  Example: `cantor:keep=0|3,base=4,dims=2,iters=5`.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind not in _SPEC_KEYS:
        raise ValueError(f"unknown generator kind {kind!r}")
    keys = _SPEC_KEYS[kind]
    kv: dict[str, str] = {}
    for item in rest.split(",") if rest else []:
        key, _, val = item.partition("=")
        key = key.strip()
        if not val:
            raise ValueError(f"malformed generator option {item!r}")
        if key not in keys or key in kv:
            raise _key_error("repeated" if key in kv else "unknown", key, kind)
        kv[key] = val.strip()
    kv = {k: kv.get(k, default) for k, default in keys.items()}
    missing = [k for k, v in kv.items() if v is None]
    if missing:
        raise _key_error("missing", missing[0], kind)
    if kind == "cantor":
        digits = tuple(int(d) for d in kv["keep"].split("|"))
        pattern = CantorPattern(int(kv["base"]), (digits,) * int(kv["dims"]))
        return gen_cantor_product(pattern, int(kv["iters"]))
    if kind == "random":
        if seed is None:
            raise ValueError("the random generator requires a seed")
        return gen_random_tree_set(int(kv["n"]), float(kv["s"]), int(kv["level"]), seed)
    return gen_degenerate(kind, **{k: int(v) for k, v in kv.items()})
