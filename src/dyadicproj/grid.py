"""Exact dyadic-grid primitives: cubes, integer point sets, cover trees, covering numbers.

Everything lives on the unit cube [0,1]^n discretized at a resolution level
k, so a cell is an n-vector of integers in [0, 2^k) and represents the point
at its center.  All coordinates are 64-bit integers and levels are capped at
20, which keeps squared pairwise distances (in cell units) well inside int64.

Cell rows are kept in lexicographic order.  One primitive, `_unique_rows`
(a `np.lexsort`, skipped when the rows are already in order, and a
comparison of adjacent rows), does every dedup, grouping, membership test
and row lookup on them (`_row_index` groups the rows sought together with
the rows searched), at any width: one fused int64 key would not fit
dim * level.  A list of dyadic cubes is the same kind of array, one
`level c_1 ... c_n` row per cube (`CoverTree.antichain` returns one), and
every such array is written by one row formatter, `_format_rows`, and read
by one row parser, `_parse_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

# _exact._FILTER_RTOL is derived for MAX_LEVEL * MAX_DIM <= 160
MAX_LEVEL = 20
MAX_DIM = 8

__all__ = [
    "MAX_LEVEL",
    "MAX_DIM",
    "DyadicCube",
    "GridPointSet",
    "CoverTree",
    "build_cover_tree",
    "covering_number",
    "coarsen",
    "read_pointset",
    "write_pointset",
]


@dataclass(frozen=True)
class DyadicCube:
    """Dyadic cube of side 2^-level with corner coords * 2^-level."""

    level: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.level <= MAX_LEVEL:
            raise ValueError(f"cube level {self.level} outside [0, {MAX_LEVEL}]")
        if not 1 <= len(self.coords) <= MAX_DIM:
            raise ValueError(f"dimension {len(self.coords)} outside [1, {MAX_DIM}]")
        hi = 1 << self.level
        for c in self.coords:
            if not 0 <= c < hi:
                raise ValueError(f"coordinate {c} outside [0, {hi}) at level {self.level}")


def _rows_sorted(rows: np.ndarray) -> bool:
    """True when no row of an (N, d) integer array is lexicographically below
    the row before it; one pass per column, O(N * d)."""
    tied = np.ones(max(len(rows) - 1, 0), dtype=bool)  # equal so far to the row before
    for c in range(rows.shape[1]):
        col = rows[:, c]
        if (tied & (col[1:] < col[:-1])).any():
            return False
        tied &= col[1:] == col[:-1]
        if not tied.any():
            break
    return True


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an (N, d) integer array in lexicographic order, and
    the index among them of every input row.  Rows already in order are not
    sorted again."""
    order = slice(None) if _rows_sorted(rows) else np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _row_index(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Position in `b` of each row of `a` (one of them when `b` repeats the
    row), or -1 where the row is absent from `b`: the rows of `b` and `a`
    are grouped together, and a row of `a` reads its group's row of `b`."""
    _, group = _unique_rows(np.concatenate([b, a]))
    at = np.full(len(group), -1, dtype=np.intp)
    at[group[: len(b)]] = np.arange(len(b))
    return at[group[len(b) :]]


def _as_cell_array(dim: int, cells) -> np.ndarray:
    arr = np.asarray(cells, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, dim), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"cells must have shape (N, {dim}), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class GridPointSet:
    """Deduplicated set of level-`level` grid cells in dimension `dim`.

    `cells` is a lexicographically sorted (N, dim) int64 array; the set it
    represents is the collection of cell centers, all inside [0,1)^dim.
    """

    dim: int
    level: int
    cells: np.ndarray

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension {self.dim} outside [1, {MAX_DIM}]")
        if not 0 <= self.level <= MAX_LEVEL:
            raise ValueError(f"level {self.level} outside [0, {MAX_LEVEL}]")
        arr = _as_cell_array(self.dim, self.cells)
        if arr.size:
            if arr.min() < 0 or arr.max() >= (1 << self.level):
                raise ValueError("cell coordinates out of range for level")
            arr = _unique_rows(arr)[0]
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)

    @classmethod
    def from_cells(cls, dim: int, level: int, cells: Iterable) -> "GridPointSet":
        return cls(dim, level, list(cells))

    @classmethod
    def empty(cls, dim: int, level: int) -> "GridPointSet":
        return cls(dim, level, np.empty((0, dim), dtype=np.int64))

    def __len__(self) -> int:
        return self.cells.shape[0]

    def __eq__(self, other) -> bool:
        """By value; the generated `==` cannot compare the cells array."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.level) == (other.dim, other.level) and np.array_equal(
            self.cells, other.cells
        )

    @property
    def delta(self) -> float:
        """Cell side 2^-level."""
        return 2.0 ** -self.level

    def __contains__(self, cell) -> bool:
        row = np.asarray(cell)
        return row.shape == (self.dim,) and bool((self.cells == row).all(axis=1).any())

    def centers(self) -> np.ndarray:
        """(N, dim) float64 array of cell centers in [0,1)^dim.

        Computed on the first call and kept, read-only, in the instance
        dict (not a field, so equality and repr ignore it).
        """
        c = self.__dict__.get("_centers")
        if c is None:
            c = (2.0 * self.cells.astype(np.float64) + 1.0) / float(1 << (self.level + 1))
            c.setflags(write=False)
            self.__dict__["_centers"] = c
        return c

    def union(self, other: "GridPointSet") -> "GridPointSet":
        if (other.dim, other.level) != (self.dim, self.level):
            raise ValueError("union requires matching dim and level")
        return GridPointSet(self.dim, self.level, np.concatenate([self.cells, other.cells]))

    def issubset(self, other: "GridPointSet") -> bool:
        return (self.dim, self.level) == (other.dim, other.level) and bool(
            (_row_index(self.cells, other.cells) >= 0).all()
        )


@dataclass(frozen=True)
class CoverTree:
    """Sparse occupied dyadic tree over a point set with per-node cell counts.

    `levels[j]` holds the lex-sorted (N_j, dim) array of occupied level-j
    cubes, `parents[j]` (j >= 1) the row in `levels[j - 1]` of each one's
    parent, and `counts[j]` the number of leaves under each level-j cube;
    the last level is the leaves.  A set has one tree (`build_cover_tree`),
    kept with it, and every array of it is read-only; the tree of
    `coarsen(P, j)` is the level-0..j prefix of P's, sharing its arrays.
    """

    levels: tuple[np.ndarray, ...]
    parents: tuple[np.ndarray, ...]
    counts: tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self):
        counts = [np.ones(self.levels[-1].shape[0], dtype=np.int64)]
        for j in range(len(self.levels) - 2, -1, -1):
            counts.insert(0, self.child_sums(j, counts[0]))
        object.__setattr__(self, "counts", tuple(counts))
        for arr in (*self.levels, *self.parents, *counts):
            arr.setflags(write=False)

    def max_count(self, j: int) -> int:
        return int(self.counts[j].max())

    def child_sums(self, j: int, values: np.ndarray) -> np.ndarray:
        """Sum per-node values, or rows, of level j + 1 into their level-j parents."""
        sums = np.zeros((self.levels[j].shape[0], *values.shape[1:]), dtype=values.dtype)
        np.add.at(sums, self.parents[j + 1], values)
        return sums

    def antichain(self, marks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The marked nodes with no marked strict ancestor, as read-only
        `level c_1 ... c_n` rows in (level, coords) order, and the mask of
        the leaves under them; `marks[j]` is a bool mask over `levels[j]`,
        one per level."""
        tops = []
        under = np.zeros(self.levels[0].shape[0], dtype=bool)
        for j, mark in enumerate(marks):
            if j:
                under = under[self.parents[j]]
            top = mark & ~under
            tops.append(self.levels[j][top])
            under |= top
        level = np.repeat(np.arange(len(tops), dtype=np.int64), [len(t) for t in tops])
        rows = np.column_stack([level, np.concatenate(tops)])
        rows.setflags(write=False)
        return rows, under


def _build_tree(P: GridPointSet) -> CoverTree:
    """P's occupied cubes and their parent rows, levels P.level down to 0."""
    levels = [P.cells]
    parents = [np.empty(0, dtype=np.intp)] * (P.level + 1)
    for j in range(P.level - 1, -1, -1):
        uniq, parents[j + 1] = _unique_rows(levels[0] >> 1)
        levels.insert(0, uniq)
    return CoverTree(tuple(levels), tuple(parents))


def build_cover_tree(P: GridPointSet) -> CoverTree:
    """P's cover tree: built on the first call and kept in the instance
    dict (not a field, so equality and repr ignore it), as `centers` is."""
    if len(P) == 0:
        raise ValueError("cannot build a cover tree over an empty point set")
    if "_tree" not in P.__dict__:
        P.__dict__["_tree"] = _build_tree(P)
    return P.__dict__["_tree"]


def covering_number(P: GridPointSet, j: int) -> int:
    """Number of level-j dyadic cubes containing at least one cell of P.

    Monotone non-increasing as j decreases (coarser cubes).
    """
    if not 0 <= j <= P.level:
        raise ValueError(f"level {j} outside [0, {P.level}]")
    return len(build_cover_tree(P).levels[j]) if len(P) else 0


def coarsen(P: GridPointSet, level: int) -> GridPointSet:
    """Project P to a coarser grid: the occupied level-`level` cells.

    They are read from P's cover tree, and the result keeps the tree's
    level-0..`level` prefix as its own, so neither set's tree is built
    again; the empty set builds no tree.
    """
    if not 0 <= level <= P.level:
        raise ValueError(f"level {level} outside [0, {P.level}]")
    if len(P) == 0:
        return GridPointSet.empty(P.dim, level)
    tree = build_cover_tree(P)
    Q = GridPointSet(P.dim, level, tree.levels[level])
    Q.__dict__["_tree"] = CoverTree(tree.levels[: level + 1], tree.parents[: level + 1])
    return Q


# --- row text format -------------------------------------------------------
#
# A point-set file is a header `n k count`, then `count` lines of n
# space-separated integers in lexicographic order; duplicate rows are
# rejected on read.  A cube list (content.py) is one `level c_1 ... c_n`
# line per cube, the same kind of row.  Both are written by `_format_rows`
# and read by `_parse_rows`.


def _format_rows(rows: np.ndarray) -> str:
    """One line of space-separated integers per row of an integer array."""
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    return (line * len(rows)) % tuple(rows.ravel().tolist())


def _parse_rows(path, lines: list[str], width: int, what: str) -> np.ndarray:
    """The (len(lines), width) int64 array of lines of `width` integer tokens
    each (whatever str.split and int accept); a line with another token
    count is named in a ValueError saying that it does not have `what`."""
    tokens: list[str] = []
    for ln in lines:
        row = ln.split()
        if len(row) != width:
            raise ValueError(f"{path}: row {ln!r} does not have {what}")
        tokens += row
    return np.array(tokens, dtype=np.int64).reshape(len(lines), width)


def write_pointset(P: GridPointSet, path) -> None:
    Path(path).write_text(f"{P.dim} {P.level} {len(P)}\n" + _format_rows(P.cells))


def read_pointset(path) -> GridPointSet:
    lines = list(filter(str.strip, Path(path).read_text().splitlines()))
    if not lines:
        raise ValueError(f"{path}: empty point-set file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    dim, level, count = (int(x) for x in head)
    if len(lines) - 1 != count:
        raise ValueError(f"{path}: header promises {count} rows, found {len(lines) - 1}")
    rows = _parse_rows(path, lines[1:], dim, f"{dim} coordinates")
    P = GridPointSet(dim, level, rows)
    if len(P) < count:
        _, first = np.unique(_unique_rows(rows)[1], return_index=True)
        repeat = np.setdiff1d(np.arange(count), first)[0]
        raise ValueError(f"{path}: duplicate row {lines[1 + repeat]!r}")
    return P
