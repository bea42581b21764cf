"""Exact dyadic-grid primitives: cubes, integer point sets and their cover trees.

Everything lives on the unit cube [0,1]^n discretized at a resolution level
k, so a cell is an n-vector of integers in [0, 2^k) and represents the point
at its center.  All coordinates are 64-bit integers and levels are capped at
20, which keeps squared pairwise distances (in cell units) well inside int64.

Cell rows are kept in lexicographic order.  One primitive, `_unique_rows`,
does every dedup, grouping, membership test and row lookup on them
(`_row_index` groups the rows sought together with the rows searched), at
any width.  It packs each row into uint64 words that compare as the rows
do (`_row_words`: a column takes the bits of its range, so a set of cells
up to 64 bits wide is one word, and the widest, MAX_DIM * MAX_LEVEL = 160
bits, three), sorts the words with one `np.lexsort` unless they are
already in order, compares adjacent ones and reads the distinct rows back
out of them.  A list of dyadic cubes is the same kind of array, one
`level c_1 ... c_n` row per cube (`CoverTree.antichain` returns one).

Every such array is written as text by one row formatter,
`kernels.format_rows`, and read by one reader per format: the active
backend's `kernels.parse_rows` reads canonical rows (ASCII digits, spaces,
tabs and line breaks) or declines, and only where it declines does
`_parse_rows` read the decoded lines, taking whatever str.split and int
accept.  Every check after that runs once, on either array.  The numpy
fallback's parser declines every input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from . import kernels

# _exact._FILTER_RTOL is derived for MAX_LEVEL * MAX_DIM <= 160
MAX_LEVEL = 20
MAX_DIM = 8
_INT64 = np.iinfo(np.int64)

__all__ = [
    "MAX_LEVEL",
    "MAX_DIM",
    "DyadicCube",
    "GridPointSet",
    "CoverTree",
    "build_cover_tree",
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


def _row_words(rows: np.ndarray) -> tuple[list[np.ndarray], list[tuple]]:
    """An (N, d) int64 array as uint64 words that compare as its rows do.

    Each column, less its minimum, takes the bits of its range (none for a
    constant column, 64 for one that spans int64).  The columns fill the
    words in order from the top bit, and a column that would cross a word
    boundary starts the next word: one word for rows up to 64 bits wide,
    and at most d.  Returns the words and, per column, the (word, shift,
    mask, minimum) that read it back, all but the word index as uint64."""
    words = [np.zeros(len(rows), dtype=np.uint64)]
    fields, used = [], 0
    for c in range(rows.shape[1]):
        col = rows[:, c]
        # the initial values only matter for N = 0, where every width is 0
        lo = int(col.min(initial=_INT64.max))
        width = max(int(col.max(initial=_INT64.min)) - lo, 0).bit_length()
        lo = np.uint64(lo % (1 << 64))  # two's complement: offsets wrap mod 2^64
        if used + width > 64:
            words.append(np.zeros(len(rows), dtype=np.uint64))
            used = 0
        shift = np.uint64(64 - used - width if width else 0)
        if width:
            words[-1] |= (col.view(np.uint64) - lo) << shift
        fields.append((len(words) - 1, shift, np.uint64((1 << width) - 1), lo))
        used += width
    return words, fields


def _neighbours(words: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Whether each row after the first is below, and whether it equals,
    the row before it, for rows packed as `_row_words` words."""
    below = np.zeros(max(len(words[0]) - 1, 0), dtype=bool)
    tied = ~below
    for w in words:
        below |= tied & (w[1:] < w[:-1])
        tied &= w[1:] == w[:-1]
    return below, tied


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an (N, d) integer array in lexicographic order, as
    int64, and the index among them of every input row.  The rows are
    compared as `_row_words` packs them.  Rows already in order are not
    sorted again, and int64 rows already distinct and in order are
    returned as they are, not copied."""
    rows = np.asarray(rows, dtype=np.int64)
    words, fields = _row_words(rows)
    below, tied = _neighbours(words)
    order = None
    if below.any():
        order = np.lexsort(words[::-1])
        words = [w[order] for w in words]
        tied = _neighbours(words)[1]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = ~tied
    rank = np.cumsum(new, dtype=np.intp) - 1
    if order is None:
        if new.all():
            return rows, rank
        inverse = rank
    else:
        inverse = np.empty_like(rank)
        inverse[order] = rank
    distinct = [w[new] for w in words]
    uniq = np.empty((len(distinct[0]), rows.shape[1]), dtype=np.int64)
    for c, (w, shift, mask, lo) in enumerate(fields):
        uniq.view(np.uint64)[:, c] = ((distinct[w] >> shift) & mask) + lo
    return uniq, inverse


def _kept(rows: np.ndarray, given) -> np.ndarray:
    """`rows`, or a copy of them where they are the caller's array `given`
    and it, or an array it views, can still be written: memory that
    someone else can write is never shared."""
    if rows is not given:
        return rows
    base = rows
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    return rows if base is None else rows.copy()


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


def _eq_by_value(self, other) -> bool:
    """`==` of a frozen record that holds arrays: field by field, arrays by
    np.array_equal, where the generated `==` raises on an array's truth."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    )


@dataclass(frozen=True)
class GridPointSet:
    """Deduplicated set of level-`level` grid cells in dimension `dim`.

    `cells` is a lexicographically sorted (N, dim) int64 array; the set it
    represents is the collection of cell centers, all inside [0,1)^dim.
    It is read-only: an input array that is already sorted, distinct and
    read-only down to the memory it views (such as a cover-tree level) is
    kept as it is, and any other is copied.  The flag guards against
    accidental writes only: numpy lets the owner of an array make it
    writable again, be it the set's own copy (`P.cells.setflags(write=True)`)
    or a kept input, so a kept input must stay read-only.  Sets compare by
    value.
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
            arr = _kept(_unique_rows(arr)[0], self.cells)
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

    __eq__ = _eq_by_value

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


def _validate_exponent(P: GridPointSet, s: float) -> None:
    if not 0.0 < s <= P.dim:
        raise ValueError(f"exponent s={s} outside (0, {P.dim}]")


@dataclass(frozen=True, eq=False)
class CoverTree:
    """Sparse occupied dyadic tree over a point set with per-node cell counts.

    `levels[j]` holds the lex-sorted (N_j, dim) array of occupied level-j
    cubes, `parents[j]` (j >= 1) the row in `levels[j - 1]` of each one's
    parent, and `counts[j]` the number of leaves under each level-j cube;
    the last level is the leaves.  A set has one tree (`build_cover_tree`),
    kept with it, and every array of it is read-only; the tree of
    `coarsen(P, j)` is the level-0..j prefix of P's, sharing its arrays.
    Trees compare by identity; their sets compare by value.
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


def coarsen(P: GridPointSet, level: int) -> GridPointSet:
    """Project P to a coarser grid: the occupied level-`level` cells.

    They are the level-`level` array of P's cover tree, kept without a
    copy, and the result keeps the tree's level-0..`level` prefix as its
    own, so neither set's tree is built again; the empty set builds no
    tree.
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
# line per cube, the same kind of row.  Both are written by
# `kernels.format_rows`.  A read takes the file's bytes once and tries
# `kernels.parse_rows` on them; where it declines, `_parse_rows` reads the
# non-blank lines.  The checks that follow are the same for both, so every
# error keeps its type and message, and the lines are decoded only where
# the parser declines or an error names a line.

# the first non-blank line of a file in the canonical form, and where it ends
_FIRST_LINE = re.compile(rb"[ \t\r\n]*([^\r\n]*)")


def _lines(data: bytes) -> list[str]:
    """The non-blank lines of a file's bytes, decoded as UTF-8."""
    return list(filter(str.strip, data.decode().splitlines()))


def _parse_rows(path, lines: list[str], width: int, what: str) -> np.ndarray:
    """The (len(lines), width) int64 array of lines of `width` integer tokens
    each (whatever str.split and int accept); a ValueError names the first
    line with another token count (it does not have `what`), or else the
    first with an integer outside int64."""
    tokens: list[str] = []
    for ln in lines:
        row = ln.split()
        if len(row) != width:
            raise ValueError(f"{path}: row {ln!r} does not have {what}")
        tokens += row
    try:
        return np.array(tokens, dtype=np.int64).reshape(len(lines), width)
    except OverflowError:
        # every token before the first one outside int64 is an int
        ln = next(ln for ln in lines if any(int(x) >> 63 not in (0, -1) for x in ln.split()))
        raise ValueError(f"{path}: row {ln!r} has an integer outside int64") from None


def write_pointset(P: GridPointSet, path) -> None:
    Path(path).write_text(f"{P.dim} {P.level} {len(P)}\n" + kernels.format_rows(P.cells))


def read_pointset(path) -> GridPointSet:
    data = Path(path).read_bytes()
    first = _FIRST_LINE.match(data)
    header = kernels.parse_rows(first.group(1), 3)
    lines = rows = None
    # a header dim outside [1, MAX_DIM] must not size the parser's buffer
    if header is not None and len(header) == 1 and 1 <= header[0, 0] <= MAX_DIM:
        dim, level, count = header[0].tolist()
        rows = kernels.parse_rows(memoryview(data)[first.end() :], dim)
    if rows is None:
        lines = _lines(data)
        if not lines:
            raise ValueError(f"{path}: empty point-set file")
        head = lines[0].split()
        if len(head) != 3:
            raise ValueError(f"{path}: malformed header {lines[0]!r}")
        dim, level, count = (int(x) for x in head)
    found = len(lines) - 1 if rows is None else len(rows)
    if found != count:
        raise ValueError(f"{path}: header promises {count} rows, found {found}")
    if rows is None:
        rows = _parse_rows(path, lines[1:], dim, f"{dim} coordinates")
    P = GridPointSet(dim, level, rows)
    if len(P) < count:
        _, first_seen = np.unique(_unique_rows(rows)[1], return_index=True)
        repeat = np.setdiff1d(np.arange(count), first_seen)[0]
        raise ValueError(f"{path}: duplicate row {(lines or _lines(data))[1 + repeat]!r}")
    return P
