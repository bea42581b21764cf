"""Regularity checks and the heavy-cube decomposition.

A finite set at resolution delta = 2^-level is called (C, delta, s)-regular
here when every dyadic window Q of side 2^-j holds at most
C * (side(Q)/delta)^s of its cells.  `minimal_spread_constant` computes the
least such C; `heavy_decompose` splits a set into a regular good part and a
bad part of small content by pruning cubes that hold too many cells; and
`frostman_subset` extracts a regular subset whose cardinality is controlled
from below by the set's dyadic content.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from ._exact import _ceil_pow2, snap_exponent
from .content import DyadicCover, optimal_cover, write_cover
from .grid import GridPointSet, _row_index, _validate_exponent, build_cover_tree, write_pointset

__all__ = [
    "Decomposition",
    "ExtractionFailedError",
    "minimal_spread_constant",
    "heavy_decompose",
    "frostman_subset",
    "write_decomposition",
]


class ExtractionFailedError(RuntimeError):
    """Regular-subset extraction missed its cardinality guarantee."""


_MIN_FRACTION = 0.5  # of content * delta^-s that frostman_subset must reach


def minimal_spread_constant(P: GridPointSet, s: float) -> float:
    """Least C such that every dyadic window obeys the (C, delta, s) bound.

    Maximizes count(Q) / (side(Q)/delta)^s over all dyadic cubes Q with
    levels in [0, P.level]; 0.0 for the empty set, and >= 1.0 otherwise
    (witnessed by any single occupied cell).
    """
    _validate_exponent(P, s)
    if len(P) == 0:
        return 0.0
    tree = build_cover_tree(P)
    return max(tree.max_count(j) / 2.0 ** ((P.level - j) * s) for j in range(P.level + 1))


@dataclass(frozen=True)
class Decomposition:
    """Good/bad split of a point set by maximal heavy cubes.

    Every bad cell lies under a cube of `heavy` (an antichain of heavy
    cubes with no heavy strict ancestor); no good cell does.  `heavy` is
    the disjoint dyadic cover of the bad part that those cubes make, its
    value the sum of side^s over them: the heavy-cube file.
    """

    good: GridPointSet
    bad: GridPointSet
    heavy: DyadicCover
    params: tuple[float, float, float, float]  # (s, C, L, tau)

    @property
    def net(self) -> GridPointSet:
        """The greedy subset of the good part, pairwise at least two cells
        apart, used for regularity claims.  Built on the first read and kept
        in the instance dict (not a field, so equality and repr ignore it),
        as `GridPointSet.centers` is."""
        if "_net" not in self.__dict__:
            self.__dict__["_net"] = _greedy_net(self.good)
        return self.__dict__["_net"]

    @property
    def weight_budget(self) -> float:
        """Guaranteed ceiling 1/(tau*L) for heavy.value (when the
        cell-count precondition holds)."""
        _, _, L, tau = self.params
        return 1.0 / (tau * L)


def heavy_decompose(
    P: GridPointSet,
    s: float,
    C: float | None = None,
    L: float | None = None,
    tau: float | None = None,
) -> Decomposition:
    """Split P into a bad part under heavy cubes and a regular good part.

    A cube Q at level j is heavy when it holds at least
    tau*C*L * 2^((P.level-j)*s) cells of P.  The bad part is everything
    under a maximal heavy cube; the remaining good part has spread constant
    strictly below tau*C*L in every dyadic window, and the sum of side^s
    over maximal heavy cubes is at most |P| * delta^s / (tau*C*L), hence at
    most 1/(tau*L) whenever |P| <= C * delta^-s.

    C defaults to the normalization |P| * delta^s, the float
    `len(P) * 2.0 ** (-P.level * s)`.  With that default and s snapping to
    p/q (see _exact), Q at level j is heavy iff its count reaches
    ceil(tau*L*|P| * 2^(-j*p/q)), computed exactly from tau and L as the
    rationals they are; otherwise the float threshold decides.  tau defaults
    to 4^-dim and L to max(1, 2/tau).  tau*L > 1 keeps the root from being
    heavy under the default normalization, where its threshold is tau*L*|P|.

    The net, built on its first read, keeps a greedy maximal subset of the
    good cells pairwise at least two cells apart (one full cell of gap), so
    every good cell lies within one cell of the net.
    """
    _validate_exponent(P, s)
    frac = snap_exponent(s) if C is None else None
    if C is None:
        C = len(P) * 2.0 ** (-P.level * s)
    if tau is None:
        tau = 4.0 ** -P.dim
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau={tau} outside (0, 1]")
    if L is None:
        L = max(1.0, 2.0 / tau)
    if not 1.0 <= L < math.inf:
        raise ValueError(f"L={L} must be finite and >= 1")
    if len(P) == 0:
        empty = GridPointSet.empty(P.dim, P.level)
        no_cubes = DyadicCover(np.empty((0, 1 + P.dim), dtype=np.int64), s, 0.0)
        return Decomposition(empty, empty, no_cubes, (s, C, L, tau))
    if len(P) > C * 2.0 ** (P.level * s) * (1 + 1e-9):
        warnings.warn(
            f"cell count {len(P)} exceeds C*delta^-s = {C * 2.0 ** (P.level * s):.6g}; "
            "the heavy-weight budget 1/(tau*L) is not guaranteed",
            stacklevel=2,
        )

    tree = build_cover_tree(P)
    if frac is not None:
        # counts never exceed |P|, so a threshold capped at |P| + 1 is exact
        factor = Fraction(tau) * Fraction(L) * len(P)
        need = [_ceil_pow2(frac, -j, len(P) + 1, factor) for j in range(P.level + 1)]
    else:
        need = [tau * C * L * 2.0 ** ((P.level - j) * s) for j in range(P.level + 1)]
    heavy = [tree.counts[j] >= need[j] for j in range(P.level + 1)]
    maximal, under = tree.antichain(heavy)
    weight = float(sum(2.0 ** (-j * s) for j in maximal[:, 0].tolist()))
    # the leaf level is P.cells in order
    bad = GridPointSet(P.dim, P.level, P.cells[under])
    good = GridPointSet(P.dim, P.level, P.cells[~under])
    params = (s, float(C), float(L), float(tau))
    return Decomposition(good, bad, DyadicCover(maximal, s, weight), params)


def _greedy_net(P: GridPointSet) -> GridPointSet:
    """Greedy maximal subset with pairwise Chebyshev distance >= 2 cells,
    taken in lexicographic order: a cell is taken iff none of its earlier
    neighbours (Chebyshev distance 1) was."""
    cells = P.cells
    n = len(cells)
    # the earlier neighbours of c are c + o over the lexicographically
    # negative o in {-1,0,1}^dim: the first half of the product
    offsets = list(itertools.product((-1, 0, 1), repeat=P.dim))[: (3**P.dim - 1) // 2]
    later, earlier = [], []
    for o in offsets:
        at = _row_index(cells + o, cells)
        hit = np.flatnonzero(at >= 0)
        later.append(hit)
        earlier.append(at[hit])
    later = np.concatenate(later)
    order = np.argsort(later)
    neighbours = np.concatenate(earlier)[order].tolist()
    bounds = np.searchsorted(later[order], np.arange(n + 1)).tolist()
    taken = [False] * n
    for i in range(n):
        for j in neighbours[bounds[i] : bounds[i + 1]]:
            if taken[j]:
                break
        else:
            taken[i] = True
    return GridPointSet(P.dim, P.level, cells[np.array(taken, dtype=bool)])


def frostman_subset(P: GridPointSet, s: float) -> GridPointSet:
    """Extract a regular subset witnessing the dyadic content of P.

    Walks the cube tree bottom-up computing per-node budgets
    B(Q) = min(ceil((side(Q)/delta)^s), sum of child budgets), then selects
    that many cells top-down in lexicographic order.  The selection S
    satisfies count_S(Q) <= 2 * (side(Q)/delta)^s in every dyadic window and
    |S| >= content * delta^-s, where content is the minimal cover value;
    ExtractionFailedError is raised if |S| falls below _MIN_FRACTION of that.
    """
    if len(P) == 0:
        raise ValueError("cannot extract from an empty point set")
    _validate_exponent(P, s)
    tree = build_cover_tree(P)
    L = P.level
    frac = snap_exponent(s)

    def cap(j: int) -> int:
        """ceil((side/delta)^s) at level j, capped at len(P): sums never
        exceed len(P), so a cap above it never binds."""
        if frac is not None:
            return _ceil_pow2(frac, L - j, len(P))
        return min(len(P), int(np.ceil(2.0 ** ((L - j) * s) - 1e-12)))

    budget: list[np.ndarray] = [None] * (L + 1)  # type: ignore[list-item]
    budget[L] = np.ones(tree.levels[L].shape[0], dtype=np.int64)
    for j in range(L - 1, -1, -1):
        budget[j] = np.minimum(tree.child_sums(j, budget[j + 1]), cap(j))

    # each child takes what its parent's quota leaves after the budgets of
    # its earlier siblings in lexicographic order, up to its own budget
    quota = budget[0]
    for j in range(1, L + 1):
        parents = tree.parents[j]
        order = np.argsort(parents, kind="stable")
        grouped = parents[order]
        b = budget[j][order]
        before = np.cumsum(b) - b
        before -= before[np.searchsorted(grouped, grouped)]
        child_quota = np.empty_like(b)
        child_quota[order] = np.clip(quota[grouped] - before, 0, b)
        quota = child_quota

    S = GridPointSet(P.dim, P.level, tree.levels[L][quota > 0])
    content = optimal_cover(P, s).value
    need = _MIN_FRACTION * content * 2.0 ** (L * s)
    if len(S) < need - 1e-9:
        raise ExtractionFailedError(
            f"extracted {len(S)} cells, below the guaranteed "
            f"{need:.6g} = {_MIN_FRACTION} * content * delta^-s"
        )
    return S


def write_decomposition(dec: Decomposition, out_dir, prefix: str = "") -> None:
    """Write good/bad point-set files plus the heavy-cube list."""
    out = Path(out_dir)
    write_pointset(dec.good, out / f"{prefix}good.txt")
    write_pointset(dec.bad, out / f"{prefix}bad.txt")
    write_cover(dec.heavy, out / f"{prefix}heavy.txt")
