"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own algorithms: covers are found by
exhaustive enumeration of antichains, energies by direct pair loops,
window constants by scanning every dyadic cube, and two-point coincidence
probabilities by sampling directions.  Expected values asserted in
the tests were computed with these oracles.  The `impls` fixture gives
both pair-kernel backends, for tests that compare them.
"""

from __future__ import annotations

import functools
import itertools
import math
import shutil
import subprocess
import sys
import sysconfig
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dyadicproj import _core, _core_py
from dyadicproj._exact import ExponentContext
from dyadicproj.grid import GridPointSet

ROOT = Path(__file__).resolve().parent.parent


def build_kernels(root: Path, out: Path) -> _core.CompiledKernels:
    """The compiled kernels, built from root/src/dyadicproj/_ckernels.c by
    root/setup.py (same compiler and flags as an install) into out.  Skips
    the calling test when there is no C compiler."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build the compiled kernels")
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=root, check=True, capture_output=True, timeout=300,
    )
    (lib,) = (out / "lib" / "dyadicproj").glob("_ckernels*")
    return _core.load(lib)


@pytest.fixture(scope="session")
def impls(tmp_path_factory):
    """Both backends, the compiled one built from this checkout."""
    return {"python": _core_py, "compiled": build_kernels(ROOT, tmp_path_factory.mktemp("ckernels"))}


def all_dyadic_covers(P: GridPointSet):
    """Yield every disjoint dyadic antichain cover of P as a list of
    (level, coords) pairs."""
    by_parent: dict[tuple[int, tuple[int, ...]], list] = {}
    nodes = set()
    for cell in map(tuple, P.cells.tolist()):
        key = (P.level, cell)
        nodes.add(key)
        for j in range(P.level - 1, -1, -1):
            cell = tuple(c >> 1 for c in cell)
            parent = (j, cell)
            if parent in nodes:
                break
            nodes.add(parent)
    for level, cell in nodes:
        if level > 0:
            by_parent.setdefault((level - 1, tuple(c >> 1 for c in cell)), []).append(
                (level, cell)
            )

    def covers(node):
        level, _ = node
        options = [[node]]
        if level < P.level:
            kids = by_parent.get(node, [])
            for combo in itertools.product(*(covers(k) for k in kids)):
                options.append([c for part in combo for c in part])
        return options

    root = (0, (0,) * P.dim)
    yield from covers(root)


def min_cover_value_oracle(P: GridPointSet, s: float):
    """Exhaustive minimum of sum(side^s): returns (float value, level dict)."""
    ctx = ExponentContext.create(s)
    best = None
    for cover in all_dyadic_covers(P):
        terms: dict[int, int] = {}
        for level, _ in cover:
            terms[level] = terms.get(level, 0) + 1
        if best is None or ctx.compare(terms, best) < 0:
            best = terms
    assert best is not None
    return ctx.to_float(best), best


def pair_energy_oracle(coords: np.ndarray, delta: float) -> int:
    """Ordered pairs, diagonal included, in plain Python floats.

    The shared pair predicate: for j > i, squared coordinate differences
    summed in coordinate order are <= delta*delta; the count is
    2 * (close pairs) + n.
    """
    rows = np.asarray(coords, dtype=np.float64).tolist()
    d2max = delta * delta
    close = 0
    for i, a in enumerate(rows):
        for b in rows[i + 1 :]:
            acc = 0.0
            for s, t in zip(a, b):
                acc += (s - t) * (s - t)
            close += acc <= d2max
    return 2 * close + len(rows)


def pair_energy_blocks(coords: np.ndarray, delta: float) -> int:
    """pair_energy_oracle with every pair j > i tested in numpy blocks of
    256 rows: the same predicate and additions, fast enough for 4,096 rows."""
    coords = np.asarray(coords, dtype=np.float64)
    close = 0
    for a in range(0, len(coords), 256):
        diff = coords[a : a + 256, None, :] - coords[None, a:, :]
        acc = np.zeros(diff.shape[:2])
        for t in range(coords.shape[1]):
            acc += diff[..., t] * diff[..., t]
        close += int(np.count_nonzero(np.triu(acc <= delta * delta, 1)))
    return 2 * close + len(coords)


def spread_constant_oracle(P: GridPointSet, s: float) -> float:
    """Scan every dyadic cube of every level by explicit membership."""
    if len(P) == 0:
        return 0.0
    best = 0.0
    cells = P.cells
    for j in range(P.level + 1):
        anc = cells >> (P.level - j)
        uniq, counts = np.unique(anc, axis=0, return_counts=True)
        for c in counts:
            best = max(best, c / 2.0 ** ((P.level - j) * s))
    return best


def heavy_cubes_oracle(P: GridPointSet, frac: Fraction, tau: float, L: float):
    """(maximal heavy cubes, exact ties) of heavy_decompose's default
    normalisation.  A level-j cube holding c cells is heavy when
    c >= tau*L*|P| * 2^(-j*p/q), s = p/q, decided as
    c^q * 2^(j*p) >= (tau*L*|P|)^q in integers and Fractions; it is maximal
    when no cube above it is heavy.  The cubes come as sorted
    `level c_1 ... c_n` rows; ties counts the cubes where c is equal to the
    threshold."""
    p, q = frac.numerator, frac.denominator
    need = (Fraction(tau) * Fraction(L) * len(P)) ** q
    heavy, ties = set(), 0
    for j in range(P.level + 1):
        under = Counter(tuple(c >> (P.level - j) for c in cell) for cell in P.cells.tolist())
        heavy |= {(j, cube) for cube, c in under.items() if c**q * 2 ** (j * p) >= need}
        ties += sum(c**q * 2 ** (j * p) == need for c in under.values())
    maximal = sorted(
        [j, *cube]
        for j, cube in heavy
        if not any((i, tuple(x >> (j - i) for x in cube)) in heavy for i in range(j))
    )
    return maximal, ties


def cell_tuples(rows) -> list[tuple[int, ...]]:
    """Distinct rows as tuples, in Python's own tuple order."""
    return sorted(set(map(tuple, np.asarray(rows).tolist())))


def cover_tree_oracle(P: GridPointSet):
    """Per level: the occupied cubes as sorted tuples, the cells of P under
    each, and each cube's row in the level above, from tuple dicts."""
    levels, counts, parents = [], [], []
    for j in range(P.level + 1):
        under = Counter(tuple(c >> (P.level - j) for c in cell) for cell in P.cells.tolist())
        levels.append(sorted(under))
        counts.append([under[q] for q in levels[j]])
        row = {q: i for i, q in enumerate(levels[j - 1])} if j else {}
        parents.append([row[tuple(c >> 1 for c in q)] for q in levels[j]] if j else [])
    return levels, counts, parents


def greedy_net_oracle(P: GridPointSet) -> list[tuple[int, ...]]:
    """All-pairs greedy in lexicographic order: a cell is taken iff no
    taken cell is within Chebyshev distance < 2 of it."""
    taken: list[tuple[int, ...]] = []
    for cell in cell_tuples(P.cells):
        if all(max(abs(a - b) for a, b in zip(cell, t)) >= 2 for t in taken):
            taken.append(cell)
    return taken


def frostman_oracle(P: GridPointSet, s: float) -> list[tuple[int, ...]]:
    """Recursive top-down selection: budget(Q) = min(ceil(2^((L-j)s)), sum of
    child budgets), and each cube hands its quota to its children in
    lexicographic order, each taking at most its own budget."""
    L = P.level
    kids: dict[tuple, set] = {}
    for cell in map(tuple, P.cells.tolist()):
        for j in range(L, 0, -1):
            parent = tuple(c >> 1 for c in cell)
            kids.setdefault((j - 1, parent), set()).add(cell)
            cell = parent

    @functools.cache
    def budget(j: int, q: tuple) -> int:
        if j == L:
            return 1
        below = sum(budget(j + 1, c) for c in kids[(j, q)])
        return min(math.ceil(2.0 ** ((L - j) * s) - 1e-12), below)

    def select(j: int, q: tuple, quota: int) -> list:
        if j == L:
            return [q] if quota > 0 else []
        chosen = []
        for c in sorted(kids[(j, q)]):
            take = min(budget(j + 1, c), quota)
            quota -= take
            chosen += select(j + 1, c, take)
        return chosen

    root = (0,) * P.dim
    return select(0, root, budget(0, root))


def min_bins_oracle(counts: list[int], kappa: int) -> int:
    """Exhaustive subset search: fewest bins whose counts reach kappa."""
    n = len(counts)
    best = n + 1
    for mask in range(1, 1 << n):
        chosen = [counts[i] for i in range(n) if mask >> i & 1]
        if sum(chosen) >= kappa:
            best = min(best, len(chosen))
    return best


def bin_side_oracle(m: int, delta: float) -> float:
    """Largest dyadic side whose m-cube has diameter sqrt(m) * side <= delta."""
    side = 1.0
    while side * math.sqrt(m) > delta:
        side /= 2.0
    return side


def bin_counts_oracle(coords: np.ndarray, delta: float) -> list[int]:
    """Points per occupied projection bin, from a dict of bin tuples."""
    rows = np.asarray(coords, dtype=np.float64).tolist()
    side = bin_side_oracle(len(rows[0]), delta)
    return list(Counter(tuple(math.floor(c / side) for c in row) for row in rows).values())


def near_boundary_oracle(coords: np.ndarray, delta: float) -> int:
    """Points with a coordinate within 1e-9*delta of a multiple of the bin
    side, in plain Python floats."""
    rows = np.asarray(coords, dtype=np.float64).tolist()
    side = bin_side_oracle(len(rows[0]), delta)
    return sum(
        any(abs(c - round(c / side) * side) < 1e-9 * delta for c in row) for row in rows
    )


def coincidence_probability_mc(
    x: np.ndarray, y: np.ndarray, delta: float, num_samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte-Carlo estimate and its standard error of
    P(|proj_e x - proj_e y| <= delta), over Haar directions e in R^2."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (2,) or y.shape != (2,):
        raise ValueError("x and y must be 2-vectors")
    gauss = rng.standard_normal((num_samples, 2))
    norms = np.linalg.norm(gauss, axis=1)
    ok = norms > 1e-12
    dirs = gauss[ok] / norms[ok, None]
    hits = np.abs(dirs @ (x - y)) <= delta
    p = float(hits.mean())
    se = math.sqrt(max(p * (1 - p), 1e-12) / hits.size)
    return p, se


def random_subset(
    rng: np.random.Generator, dim: int, level: int, max_cells: int | None = None
) -> GridPointSet:
    """Non-empty uniform random subset of the full level grid, of at most
    max_cells cells when given."""
    total = (1 << level) ** dim
    k = int(rng.integers(1, min(total, max_cells or total) + 1))
    picks = rng.choice(total, size=k, replace=False)
    cells = np.stack(
        [(picks >> (level * (dim - 1 - d))) & ((1 << level) - 1) for d in range(dim)],
        axis=1,
    )
    return GridPointSet(dim, level, cells)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
