"""Dyadic Hausdorff content at scale via dynamic programming on the cube tree.

The central object is the minimizing disjoint dyadic cover of a point set
for the weight sum(side^s): its value is the dyadic s-content of the set at
scale 2^-level.  Minimizing covers satisfy a subadditivity property (the sum
of member weights under any dyadic cube never exceeds that cube's weight),
which is what makes their per-level center sets regular; the finite
multi-scale construction in `finite_strong_cover` builds on that.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._exact import ExponentContext
from .grid import MAX_DIM, MAX_LEVEL, DyadicCube, GridPointSet, build_cover_tree, dilate
from .grid import _format_rows, _parse_rows, _row_index, _unique_rows

__all__ = [
    "DyadicCover",
    "CoverMinimalityError",
    "optimal_cover",
    "delta_s_sets_from_cover",
    "finite_strong_cover",
    "strong_cover_misses",
    "write_cover",
    "read_cover",
]


class CoverMinimalityError(ValueError):
    """A cover failed the subadditivity check required of a minimizer."""

    def __init__(self, cube: DyadicCube, total: float, budget: float):
        self.cube = cube
        self.total = total
        self.budget = budget
        super().__init__(
            f"cover weight {total:.17g} under cube level={cube.level} "
            f"coords={cube.coords} exceeds {budget:.17g}"
        )


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


def delta_s_sets_from_cover(cover: DyadicCover) -> dict[int, GridPointSet]:
    """Split a minimizing cover by level into center-cell sets.

    Validates the minimizer subadditivity first: for every dyadic cube Q0
    the sum of side^s over cover cubes nested in Q0 must not exceed
    side(Q0)^s.  Raises CoverMinimalityError naming the offending cube.
    """
    if not len(cover.rows):
        raise ValueError("empty cover")
    ctx = ExponentContext.create(cover.s)
    levels, coords = cover.rows[:, 0], cover.rows[:, 1:]
    dim, L = coords.shape[1], int(levels[-1])
    # a cube enters the tree through its first level-L cell, which carries
    # the cube's level; the other tree nodes under a cube hold no weight
    firsts = coords << (L - levels)[:, None]
    home = levels[np.lexsort(firsts.T[::-1])]
    tree = build_cover_tree(GridPointSet(dim, L, firsts))
    anc = np.arange(home.size)  # each first cell's level-a ancestor
    rows = np.zeros((home.size, 1), dtype=np.int64)
    offending = None
    for a in range(L, -1, -1):
        if a < L:
            anc = tree.parents[a + 1][anc]
            rows = np.pad(tree.child_sums(a, rows), ((0, 0), (1, 0)))
        # a cover cube's own row (weight equal to budget) is left out of the
        # check, so no exact tie goes to the fallback
        bad = np.flatnonzero(ctx.compare_rows(rows, a) > 0)
        if bad.size:
            offending = (DyadicCube(a, tuple(int(q) for q in tree.levels[a][bad[0]])), rows[bad[0]])
        rows[anc[home == a], 0] = 1
    if offending is not None:
        cube, row = offending
        terms = {cube.level + int(c): int(row[c]) for c in np.flatnonzero(row)}
        raise CoverMinimalityError(cube, ctx.to_float(terms), ctx.to_float({cube.level: 1}))
    return _split_by_level(cover.rows)


def _split_by_level(rows: np.ndarray) -> dict[int, GridPointSet]:
    """The cubes of each level of `level c_1 ... c_n` rows as a point set."""
    dim = rows.shape[1] - 1
    levels = rows[:, 0]
    return {j: GridPointSet(dim, j, rows[levels == j, 1:]) for j in np.unique(levels).tolist()}


def finite_strong_cover(
    P: GridPointSet, s: float, eps: float, k_range: tuple[int, int]
) -> dict[int, GridPointSet]:
    """Finite multi-scale family of center sets whose dilations cover P.

    For each base scale i in k_range: build the minimizing (s - eps)-cover of
    P restricted to levels >= i, split it into per-level unions of cubes,
    re-cover each union minimally for the exponent s with its coarsest level
    clamped to floor(eps*j/s) (warning where the clamp raises the value),
    and pool the resulting center cells by level.  Every cell of P lies
    under a center cell of at least one returned set, and each returned set
    is regular with a constant growing at most like (level * s / eps)^2.
    """
    if len(P) == 0:
        raise ValueError("cannot cover an empty point set")
    if not 0.0 < eps < s:
        raise ValueError(f"need 0 < eps < s, got eps={eps} s={s}")
    _validate_exponent(P, s)
    k_lo, k_hi = k_range
    if not (1 <= k_lo <= k_hi <= P.level):
        raise ValueError(f"scale range [{k_lo}, {k_hi}] invalid for level {P.level}")

    pooled = []
    for i in range(k_lo, k_hi + 1):
        base = optimal_cover(P, s - eps, j_min=i)
        for j, X in _split_by_level(base.rows).items():
            clamp = int(np.floor(eps * j / s))
            refined = optimal_cover(X, s, j_min=clamp)
            if clamp > 0:
                unclamped = optimal_cover(X, s, j_min=0)
                if unclamped.value < refined.value * (1 - 1e-12):
                    warnings.warn(
                        f"scale window clamp at level {clamp} raised the cover "
                        f"value for block scale i={i}, j={j}",
                        stacklevel=2,
                    )
            pooled.append(refined.rows)
    return _split_by_level(np.concatenate(pooled))


def strong_cover_misses(
    P: GridPointSet, family: dict[int, GridPointSet], radius: int = 0
) -> int:
    """Number of cells of P not hit by the radius-dilated family at any level."""
    covered = np.zeros(len(P), dtype=bool)
    for k, Pk in family.items():
        target = dilate(Pk, radius)
        covered |= _row_index(P.cells >> (P.level - k), target.cells) >= 0
    return int((~covered).sum())


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
