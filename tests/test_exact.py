import math
from fractions import Fraction

import numpy as np
import pytest

from dyadicproj import _exact
from dyadicproj._exact import ExponentContext, snap_exponent


def test_snap_recognizes_small_denominators():
    assert snap_exponent(0.5) == Fraction(1, 2)
    assert snap_exponent(0.6) == Fraction(3, 5)
    assert snap_exponent(1.0) == Fraction(1)
    assert snap_exponent(1 / 3) == Fraction(1, 3)
    assert snap_exponent(0.6180339887) is None  # golden-ratio-ish, no q <= 64


def test_exact_tie_detection():
    ctx = ExponentContext.create(0.5)
    # 2 * 2^(-(j+2)/2) == 2^(-j/2): the self-similar tie
    for j in range(0, 15):
        assert ctx.compare({j + 2: 2}, {j: 1}) == 0


def test_exact_strict_orders():
    ctx = ExponentContext.create(0.5)
    assert ctx.compare({4: 2}, {2: 1}) == 0  # 2*2^-2 == 2^-1
    assert ctx.compare({4: 3}, {2: 1}) == 1
    assert ctx.compare({4: 1}, {2: 1}) == -1
    assert ctx.compare({3: 2}, {2: 1}) == 1  # 2*2^-1.5 = 2^-0.5 > 2^-1


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 0.6, 2 / 3, 0.21875])
def test_compare_matches_floats_when_separated(s):
    ctx = ExponentContext.create(s)
    cases = [({1: 1, 4: 2}, {2: 3}), ({5: 7}, {3: 1, 6: 2}), ({0: 1}, {1: 2, 2: 1})]
    for a, b in cases:
        va = sum(m * 2.0 ** (-j * s) for j, m in a.items())
        vb = sum(m * 2.0 ** (-j * s) for j, m in b.items())
        if not math.isclose(va, vb, rel_tol=1e-9):
            assert ctx.compare(a, b) == (1 if va > vb else -1)


def test_exact_compare_refines_past_64_bits(monkeypatch):
    # a Pell pair x^2 - 2y^2 = +-1 with y > 2^70 puts y and x * 2^(-1/2)
    # closer than 64-bit bounds on 2^(-1/2) can separate
    x, y = 1, 1
    while y <= 1 << 70:
        x, y = x + 2 * y, x + y
    roots, iroot = [], _exact._iroot
    monkeypatch.setattr(_exact, "_iroot", lambda v, q: roots.append(v) or iroot(v, q))
    ctx = ExponentContext.create(0.5)
    assert ctx.compare({0: y}, {1: x}) == (1 if 2 * y * y > x * x else -1)
    assert len(roots) > 2  # one root per residue per pass: the 64-bit pass did not decide
    assert ctx.compare({1: x}, {0: y}) == (1 if x * x > 2 * y * y else -1)


def test_float_fallback_for_unsnappable_exponent():
    ctx = ExponentContext.create(0.6180339887)
    assert ctx.frac is None
    assert ctx.compare({2: 1}, {2: 1}) == 0
    assert ctx.compare({1: 1}, {2: 1}) == 1


def test_to_float_matches_direct_sum():
    ctx = ExponentContext.create(0.5)
    terms = {0: 1, 3: 2, 7: 5}
    expected = 1 + 2 * 2.0**-1.5 + 5 * 2.0**-3.5
    assert ctx.to_float(terms) == pytest.approx(expected, rel=1e-15)


def _rows(j, terms_list):
    """Multiplicity matrix whose column c counts cubes of level j + c."""
    width = 1 + max((k - j for terms in terms_list for k in terms), default=0)
    rows = np.zeros((len(terms_list), width), dtype=np.int64)
    for i, terms in enumerate(terms_list):
        for k, m in terms.items():
            rows[i, k - j] = m
    return rows


def _terms(j, row):
    return {j + c: int(m) for c, m in enumerate(row) if m}


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 0.6, 2 / 3, 0.21875])
def test_filter_decisions_agree_with_exact(s):
    rng = np.random.default_rng(2002)
    ctx = ExponentContext.create(s)
    for _ in range(20):
        j = int(rng.integers(0, 8))
        width = int(rng.integers(1, 22 - j))  # levels up to MAX_LEVEL = 20
        # counts around the level-j weight, so some rows land near it
        caps = [int(2 ** (c * s)) + 2 for c in range(width)]
        rows = np.stack([rng.integers(0, cap, size=50) for cap in caps], axis=1)
        rows[:, 0] = 0
        rows[rng.integers(0, 50, size=10)] = 0
        rows[:2] = 0
        rows[0, 0] = 1  # the weight itself
        rows[1, -1] = int(round(2 ** ((width - 1) * s)))  # at or near a tie
        signs = ctx._filter(rows, j)
        full = ctx.compare_rows(rows, j)
        for row, sign, final in zip(rows, signs, full):
            exact = ctx.compare(_terms(j, row), {j: 1})
            assert final == exact
            assert sign == 0 or sign == exact


@pytest.mark.parametrize(
    "s, tie",
    [
        (0.5, {2: 2}),
        (1.0, {1: 2}),
        (1.0, {1: 1, 2: 2}),
        (1.0, {3: 8}),
        (1.5, {2: 8}),
        (1.5, {4: 64}),
        (1.5, {2: 4, 4: 32}),
        (1.5, {2: 6, 4: 8, 6: 64}),
    ],
)
def test_filter_leaves_exact_ties_undecided(s, tie):
    ctx = ExponentContext.create(s)
    for j in range(0, 12):
        terms = {j + k: m for k, m in tie.items()}
        rows = _rows(j, [terms])
        assert ctx.compare(terms, {j: 1}) == 0
        assert ctx._filter(rows, j).tolist() == [0]
        assert ctx.compare_rows(rows, j).tolist() == [0]


def test_undecided_rows_fall_back_to_exact(monkeypatch):
    # a filter too wide to decide anything sends every row to compare
    monkeypatch.setattr(_exact, "_FILTER_RTOL", 4.0)
    ctx = ExponentContext.create(0.6)
    rows = np.random.default_rng(3).integers(0, 3, size=(100, 6))
    assert ctx._filter(rows, 2).tolist() == [0] * 100
    got = ctx.compare_rows(rows, 2)
    assert got.tolist() == [ctx.compare(_terms(2, row), {2: 1}) for row in rows]
    assert set(got.tolist()) == {-1, 1}


def test_unsnapped_rows_follow_the_float_rule():
    s = 0.6180339887
    ctx = ExponentContext.create(s)
    rng = np.random.default_rng(7)
    j = 3
    rows = rng.integers(0, 4, size=(200, 8))
    rows[:3] = _rows(j, [{j: 1}, {j + 1: 1, j + 2: 1}, {j + 7: 3}])
    got = ctx.compare_rows(rows, j)
    for row, sign in zip(rows, got):
        assert sign == ctx.compare(_terms(j, row), {j: 1})
