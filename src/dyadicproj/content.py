"""Dyadic Hausdorff content at scale via dynamic programming on the cube tree.

The central object is the minimizing disjoint dyadic cover of a point set
for the weight sum(side^s): its value is the dyadic s-content of the set at
scale 2^-level.  Minimizing covers are subadditive: the weight of the
member cubes under any occupied dyadic cube strictly above the cover is
below that cube's own weight, since ties go to the coarser cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._exact import ExponentContext
from .grid import MAX_DIM, MAX_LEVEL, DyadicCube, GridPointSet, build_cover_tree
from .grid import _format_rows, _parse_rows, _row_index, _unique_rows

__all__ = [
    "DyadicCover",
    "optimal_cover",
    "write_cover",
    "read_cover",
]


@dataclass(frozen=True)
class DyadicCover:
    """Disjoint antichain of dyadic cubes covering a point set.

    `rows` is an (N, 1 + dim) int64 array of `level c_1 ... c_n` rows, one
    per cube, kept read-only in (level, coords) order: the lines of the
    cover's file.  `value` is the sum over cubes of side^s.
    `level_multiplicity` (cubes per level, the representation the value is
    recomputed from) and `cubes` (as DyadicCube objects) are views of it.
    """

    rows: np.ndarray
    s: float
    value: float

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 2 or not 2 <= rows.shape[1] <= MAX_DIM + 1:
            raise ValueError(
                f"cover rows of shape {rows.shape}, not (N, 1 + dim) with dim in [1, {MAX_DIM}]"
            )
        n = len(rows)
        rows = _unique_rows(rows)[0]
        if len(rows) != n:
            raise ValueError("duplicate cube in cover")
        levels, coords = rows[:, 0], rows[:, 1:]
        if n and not 0 <= levels[0] <= levels[-1] <= MAX_LEVEL:
            raise ValueError(f"cube level outside [0, {MAX_LEVEL}]")
        if n and (coords.min() < 0 or (coords >> levels[:, None]).any()):
            raise ValueError("cube coordinate outside [0, 2^level)")
        # every cube finer than level a, shifted to its level-a ancestor,
        # must miss the level-a cubes
        for a in np.unique(levels)[:-1].tolist():
            finer = levels > a
            ancestors = coords[finer] >> (levels[finer] - a)[:, None]
            if (_row_index(ancestors, coords[levels == a]) >= 0).any():
                raise ValueError("cover cubes are not an antichain")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other) -> bool:
        """By value; the generated `==` cannot compare the rows array."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.s, self.value) == (other.s, other.value) and np.array_equal(
            self.rows, other.rows
        )

    @property
    def level_multiplicity(self) -> dict[int, int]:
        levels, counts = np.unique(self.rows[:, 0], return_counts=True)
        return dict(zip(levels.tolist(), counts.tolist()))

    @property
    def cubes(self) -> tuple[DyadicCube, ...]:
        return tuple(DyadicCube(r[0], tuple(r[1:])) for r in self.rows.tolist())


def _validate_exponent(P: GridPointSet, s: float) -> None:
    if not 0.0 < s <= P.dim:
        raise ValueError(f"exponent s={s} outside (0, {P.dim}]")


def optimal_cover(P: GridPointSet, s: float, j_min: int = 0) -> DyadicCover:
    """Minimize sum(side^s) over disjoint dyadic covers with levels in [j_min, P.level].

    Bottom-up recursion: cost(Q) = min(side(Q)^s, sum over occupied children),
    ties resolved toward the coarser cube, so minimizers cannot be coarsened
    further without changing their value.  Level j's costs are an
    (N_j, P.level + 1 - j) matrix of cover-cube counts per level, weighed at
    once by `compare_rows`: exact for rational s with small denominator (see
    _exact), which pins down self-similar ties.
    """
    if len(P) == 0:
        raise ValueError("cannot cover an empty point set")
    _validate_exponent(P, s)
    if not 0 <= j_min <= P.level:
        raise ValueError(f"j_min={j_min} outside [0, {P.level}]")
    tree = build_cover_tree(P)
    ctx = ExponentContext.create(s)
    L = P.level

    take: list[np.ndarray] = [None] * (L + 1)  # type: ignore[list-item]
    rows = np.ones((tree.levels[L].shape[0], 1), dtype=np.int64)
    take[L] = np.ones(tree.levels[L].shape[0], dtype=bool)
    for j in range(L - 1, -1, -1):
        # column 0 counts cover cubes at level j itself, none yet
        rows = np.pad(tree.child_sums(j, rows), ((0, 0), (1, 0)))
        take[j] = ctx.compare_rows(rows, j) >= 0 if j >= j_min else np.zeros(len(rows), bool)
        rows[take[j]] = 0
        rows[take[j], 0] = 1

    cubes, _ = tree.antichain(take)
    if (np.bincount(cubes[:, 0], minlength=L + 1) != rows[0]).any():
        raise AssertionError("reconstructed cover does not match DP value")
    mult = {j: n for j, n in enumerate(rows[0].tolist()) if n}
    return DyadicCover(cubes, float(s), ctx.to_float(mult))


# --- cover text format ------------------------------------------------------
#
# One line `level c_1 ... c_n` per cube, the cover's rows in (level, coords)
# order, then a footer `value <decimal>`.  A decomposition's heavy-cube
# list has it too.


def _write_cubes(rows: np.ndarray, value: float, path) -> None:
    """Write `level c_1 ... c_n` rows and a footer value in the cover text format."""
    Path(path).write_text(_format_rows(rows) + f"value {value:.17g}\n")


def write_cover(cover: DyadicCover, path) -> None:
    _write_cubes(cover.rows, cover.value, path)


def read_cover(path, s: float) -> DyadicCover:
    lines = list(filter(str.strip, Path(path).read_text().splitlines()))
    if not lines or not lines[-1].startswith("value "):
        raise ValueError(f"{path}: missing value footer")
    value = float(lines[-1].split()[1])
    width = len(lines[0].split())
    rows = _parse_rows(path, lines[:-1], width, f"a level and {width - 1} coordinates")
    return DyadicCover(rows, s, value)
