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
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._exact import ExponentContext
from .grid import DyadicCube, GridPointSet, _row_index, _unique_rows, build_cover_tree, dilate

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

    `value` is sum over cubes of side^s; `level_multiplicity` counts cubes
    per level (the representation the value is recomputed from).
    """

    cubes: tuple[DyadicCube, ...]
    s: float
    value: float
    level_multiplicity: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        dims = {c.dim for c in self.cubes}
        if len(dims) > 1:
            raise ValueError("cover cubes differ in dimension")
        levels = np.array([c.level for c in self.cubes], dtype=np.int64)
        coords = np.array([c.coords for c in self.cubes], dtype=np.int64)
        coords = coords.reshape(len(levels), max(dims, default=0))
        if len(_unique_rows(np.column_stack([levels, coords]))[0]) != len(levels):
            raise ValueError("duplicate cube in cover")
        # every cube finer than level a, shifted to its level-a ancestor,
        # must miss the level-a cubes
        for a in np.unique(levels)[:-1].tolist():
            finer = levels > a
            ancestors = coords[finer] >> (levels[finer] - a)[:, None]
            if (_row_index(ancestors, coords[levels == a]) >= 0).any():
                raise ValueError("cover cubes are not an antichain")
        mult: dict[int, int] = {}
        for c in self.cubes:
            mult[c.level] = mult.get(c.level, 0) + 1
        object.__setattr__(self, "level_multiplicity", mult)


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
    mult = {j: n for j, n in enumerate(rows[0].tolist()) if n}
    if Counter(c.level for c in cubes) != mult:
        raise AssertionError("reconstructed cover does not match DP value")
    return DyadicCover(tuple(cubes), float(s), ctx.to_float(mult))


def delta_s_sets_from_cover(cover: DyadicCover) -> dict[int, GridPointSet]:
    """Split a minimizing cover by level into center-cell sets.

    Validates the minimizer subadditivity first: for every dyadic cube Q0
    the sum of side^s over cover cubes nested in Q0 must not exceed
    side(Q0)^s.  Raises CoverMinimalityError naming the offending cube.
    """
    if not cover.cubes:
        raise ValueError("empty cover")
    ctx = ExponentContext.create(cover.s)
    dim = len(cover.cubes[0].coords)
    L = max(c.level for c in cover.cubes)
    by_level: dict[int, list] = {}
    for c in cover.cubes:
        by_level.setdefault(c.level, []).append(c.coords)
    # a cube enters the tree through its first level-L cell, which carries
    # the cube's level; the other tree nodes under a cube hold no weight
    firsts = np.array([[q << (L - c.level) for q in c.coords] for c in cover.cubes])
    home = np.array([c.level for c in cover.cubes])[np.lexsort(firsts.T[::-1])]
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
    return {k: GridPointSet.from_cells(dim, k, cells) for k, cells in sorted(by_level.items())}


def finite_strong_cover(
    P: GridPointSet,
    s: float,
    eps: float,
    k_range: tuple[int, int],
    enforce_window: bool = True,
) -> dict[int, GridPointSet]:
    """Finite multi-scale family of center sets whose dilations cover P.

    For each base scale i in k_range: build the minimizing (s - eps)-cover of
    P restricted to levels >= i, split it into per-level unions of cubes,
    re-cover each union minimally for the exponent s (coarsest level clamped
    to floor(eps*j/s) when enforce_window is set), and pool the resulting
    center cells by level.  Every cell of P lies under a center cell of at
    least one returned set, and each returned set is regular with a constant
    growing at most like (level * s / eps)^2.
    """
    if len(P) == 0:
        raise ValueError("cannot cover an empty point set")
    if not 0.0 < eps < s:
        raise ValueError(f"need 0 < eps < s, got eps={eps} s={s}")
    _validate_exponent(P, s)
    k_lo, k_hi = k_range
    if not (1 <= k_lo <= k_hi <= P.level):
        raise ValueError(f"scale range [{k_lo}, {k_hi}] invalid for level {P.level}")

    pooled: dict[int, list] = {}
    for i in range(k_lo, k_hi + 1):
        base = optimal_cover(P, s - eps, j_min=i)
        by_level: dict[int, list] = {}
        for c in base.cubes:
            by_level.setdefault(c.level, []).append(c.coords)
        for j, coords in sorted(by_level.items()):
            X = GridPointSet.from_cells(P.dim, j, coords)
            clamp = int(np.floor(eps * j / s)) if enforce_window else 0
            refined = optimal_cover(X, s, j_min=clamp)
            if enforce_window and clamp > 0:
                unclamped = optimal_cover(X, s, j_min=0)
                if unclamped.value < refined.value * (1 - 1e-12):
                    warnings.warn(
                        f"scale window clamp at level {clamp} raised the cover "
                        f"value for block scale i={i}, j={j}",
                        stacklevel=2,
                    )
            for q in refined.cubes:
                pooled.setdefault(q.level, []).append(q.coords)
    return {k: GridPointSet.from_cells(P.dim, k, cells) for k, cells in sorted(pooled.items())}


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
# One line `level c_1 ... c_n` per cube (level-major, lexicographic), then a
# footer `value <decimal>`.  A decomposition's heavy-cube list has it too.


def _write_cubes(cubes: tuple[DyadicCube, ...], value: float, path) -> None:
    """Write cubes and a footer value in the cover text format."""
    lines = [
        f"{c.level} " + " ".join(str(q) for q in c.coords)
        for c in sorted(cubes, key=lambda c: (c.level, c.coords))
    ]
    lines.append(f"value {value:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_cover(cover: DyadicCover, path) -> None:
    _write_cubes(cover.cubes, cover.value, path)


def read_cover(path, s: float) -> DyadicCover:
    rows = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not rows or not rows[-1].startswith("value "):
        raise ValueError(f"{path}: missing value footer")
    value = float(rows[-1].split()[1])
    cubes = []
    for ln in rows[:-1]:
        parts = [int(x) for x in ln.split()]
        cubes.append(DyadicCube(parts[0], tuple(parts[1:])))
    return DyadicCover(tuple(cubes), s, value)
