import numpy as np
import pytest

from dyadicproj._exact import ExponentContext
from dyadicproj.content import (
    DyadicCover,
    build_cover_tree,
    optimal_cover,
    read_cover,
    write_cover,
)
from dyadicproj.fractals import QUARTER_CANTOR, CantorPattern, gen_cantor_product
from dyadicproj.grid import GridPointSet

from conftest import min_cover_value_oracle, random_subset

TIE_CANTOR2 = CantorPattern(4, ((0, 2), (0, 3)))


class TestCoverTree:
    def test_single_cell_chain(self):
        P = GridPointSet.from_cells(1, 3, [(5,)])
        tree = build_cover_tree(P)
        for j in range(4):
            assert tree.levels[j].shape[0] == 1
            assert tree.counts[j].tolist() == [1]

    def test_full_level1_grid(self):
        P = GridPointSet.from_cells(1, 1, [(0,), (1,)])
        tree = build_cover_tree(P)
        assert tree.counts[0].tolist() == [2]
        assert tree.counts[1].tolist() == [1, 1]

    def test_counts_sum_to_children(self, rng):
        P = random_subset(rng, 2, 4)
        tree = build_cover_tree(P)
        for j in range(4):
            assert tree.counts[j].sum() == len(P)

    def test_cantor_counts_by_recursion_oracle(self):
        # oracle: cells follow c -> 4c + {0, 3}; counts halve every 2 levels
        P = gen_cantor_product(QUARTER_CANTOR, 2)
        tree = build_cover_tree(P)
        assert tree.counts[0].tolist() == [4]
        assert sorted(tree.counts[2].tolist()) == [2, 2]
        assert sorted(tree.counts[4].tolist()) == [1, 1, 1, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_cover_tree(GridPointSet.empty(1, 2))


class TestOptimalCover:
    def test_single_cell_takes_leaf(self):
        P = GridPointSet.from_cells(1, 4, [(7,)])
        cover = optimal_cover(P, 0.5)
        assert [(c.level, c.coords) for c in cover.cubes] == [(4, (7,))]
        assert cover.value == pytest.approx(2.0**-2, rel=1e-15)

    def test_adjacent_pair_merges(self):
        # {0,1} at level 3: common level-2 parent costs 0.5 < 2 * 2^-1.5
        P = GridPointSet.from_cells(1, 3, [(0,), (1,)])
        cover = optimal_cover(P, 0.5)
        assert [(c.level, c.coords) for c in cover.cubes] == [(2, (0,))]
        assert cover.value == 0.5

    def test_quarter_cantor_exact_tie(self):
        for k in (1, 2, 3):
            P = gen_cantor_product(QUARTER_CANTOR, k)
            cover = optimal_cover(P, 0.5)
            assert cover.value == 1.0
            assert [(c.level, c.coords) for c in cover.cubes] == [(0, (0,))]

    def test_oracle_equivalence_n1(self, rng):
        inputs = [random_subset(rng, 1, int(rng.integers(1, 5))) for _ in range(40)]
        # tie-heavy: every quarter-Cantor node ties its children at s = 1/2
        inputs.append(gen_cantor_product(QUARTER_CANTOR, 2))
        for P in inputs:
            for s in (0.5, 1.0):
                got = optimal_cover(P, s)
                want, _ = min_cover_value_oracle(P, s)
                assert got.value == want
                keys = [(c.level, c.coords) for c in got.cubes]
                assert keys == sorted(keys)

    def test_oracle_equivalence_n2(self, rng):
        inputs = [random_subset(rng, 2, 2) for _ in range(15)]
        inputs.append(gen_cantor_product(TIE_CANTOR2, 1))  # ties at s = 1
        for P in inputs:
            got = optimal_cover(P, 1.0)
            want, _ = min_cover_value_oracle(P, 1.0)
            assert got.value == want
            keys = [(c.level, c.coords) for c in got.cubes]
            assert keys == sorted(keys)

    def test_oracle_equivalence_unsnappable_exponent(self, rng):
        # an exponent with no small-denominator rational nearby exercises
        # the tolerance-based float comparison path
        s = 0.6180339887
        for _ in range(10):
            P = random_subset(rng, 1, 4)
            got = optimal_cover(P, s).value
            want, _ = min_cover_value_oracle(P, s)
            assert got == want

    def test_near_rational_exponent_snaps(self):
        # s within 1e-9 of 3/2 is compared as 3/2, whose self-similar ties
        # the float filter must hand to the exact comparison
        P = gen_cantor_product(CantorPattern(4, ((0, 2), (0, 3), (1, 2))), 3)
        cover = optimal_cover(P, 1.5)
        assert [(c.level, c.coords) for c in cover.cubes] == [(0, (0, 0, 0))]
        assert optimal_cover(P, 1.5 + 5e-10).cubes == cover.cubes

    def test_each_exact_tie_decided_once(self, monkeypatch):
        # at s = 3/2 every cube of this set ties with its 8 children two
        # levels down: each DP level hands many copies of one row to compare
        P = gen_cantor_product(CantorPattern(4, ((0, 2), (0, 3), (1, 2))), 3)
        calls = []
        compare = ExponentContext.compare

        def counted(self, a, b):
            calls.append((tuple(sorted(a.items())), tuple(sorted(b.items()))))
            return compare(self, a, b)

        monkeypatch.setattr(ExponentContext, "compare", counted)
        cover = optimal_cover(P, 1.5)
        assert [(c.level, c.coords) for c in cover.cubes] == [(0, (0, 0, 0))]
        assert sorted(calls) == [(((j + 2, 8),), ((j, 1),)) for j in (0, 2, 4)]

    def test_j_min_restricts_levels(self, rng):
        P = random_subset(rng, 1, 4)
        cover = optimal_cover(P, 0.5, j_min=3)
        assert all(c.level >= 3 for c in cover.cubes)
        want, _ = min_cover_value_oracle(P, 0.5, j_min=3)
        assert cover.value == want

    def test_feasible_cover_bounds(self, rng):
        for _ in range(10):
            P = random_subset(rng, 1, 5)
            v = optimal_cover(P, 0.5).value
            assert v <= min(1.0, len(P) * 2.0 ** (-5 * 0.5)) + 1e-12

    def test_monotone_in_set_and_exponent(self, rng):
        for _ in range(10):
            P = random_subset(rng, 1, 5)
            Q = P.union(random_subset(rng, 1, 5))
            assert optimal_cover(P, 0.5).value <= optimal_cover(Q, 0.5).value + 1e-12
            assert optimal_cover(P, 0.8).value <= optimal_cover(P, 0.4).value + 1e-12

    def test_equal_sets_give_equal_covers(self):
        a = GridPointSet.from_cells(2, 3, [(6, 6), (0, 1), (6, 6)])
        b = GridPointSet.from_cells(2, 3, [(0, 1), (6, 6)])
        assert optimal_cover(a, 0.5) == optimal_cover(b, 0.5)
        assert optimal_cover(a, 0.5) != optimal_cover(b, 0.75)
        c = GridPointSet.from_cells(2, 3, [(0, 1), (6, 7)])
        assert optimal_cover(a, 0.5) != optimal_cover(c, 0.5)

    def test_invalid_arguments(self):
        P = GridPointSet.from_cells(1, 2, [(0,)])
        with pytest.raises(ValueError):
            optimal_cover(P, 0.0)
        with pytest.raises(ValueError):
            optimal_cover(P, 1.5)
        with pytest.raises(ValueError):
            optimal_cover(GridPointSet.empty(1, 2), 0.5)


def _cover(*cubes):
    return DyadicCover([(j, *c) for j, c in cubes] or np.empty((0, 3)), 1.0, 0.0)


class TestDyadicCoverAntichain:
    def test_valid_antichain(self):
        # siblings, cousins and cubes whose coords would collide after a
        # shift of the wrong length, across four levels
        cover = _cover((1, (1, 1)), (2, (0, 1)), (2, (1, 0)), (3, (1, 0)), (4, (0, 8)), (4, (2, 2)))
        assert cover.level_multiplicity == {1: 1, 2: 2, 3: 1, 4: 2}
        assert _cover().level_multiplicity == {}

    def test_duplicate_cube(self):
        with pytest.raises(ValueError, match="duplicate cube"):
            _cover((2, (1, 3)), (3, (0, 0)), (2, (1, 3)))

    @pytest.mark.parametrize(
        "coarse,fine",
        [((0, (0, 0)), (3, (5, 2))), ((2, (1, 3)), (3, (3, 7))), ((1, (1, 0)), (4, (15, 0)))],
    )
    def test_nested_pair_across_levels(self, coarse, fine):
        with pytest.raises(ValueError, match="not an antichain"):
            _cover((4, (0, 0)), fine, (2, (0, 2)), coarse)

    def test_mixed_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            _cover((1, (0,)), (1, (0, 1)))


def cover_weight_above(P: GridPointSet, cover: DyadicCover):
    """Yield (level, cover level counts under the cube) for every occupied
    cube of P strictly above the cover, by tuple membership."""
    cubes = [(r[0], tuple(r[1:])) for r in cover.rows.tolist()]
    for a in range(P.level + 1):
        for q in sorted({tuple(c >> (P.level - a) for c in cell) for cell in P.cells.tolist()}):
            under: dict[int, int] = {}
            for j, c in cubes:
                if j <= a:
                    if tuple(x >> (a - j) for x in q) == c:
                        break  # q is a cover cube or lies in one
                elif tuple(x >> (j - a) for x in c) == q:
                    under[j] = under.get(j, 0) + 1
            else:
                yield a, under


class TestSubadditivity:
    """A minimal cover weighs strictly less than any occupied cube strictly
    above it: otherwise that cube would cover its part at no greater cost,
    and ties go to the coarser cube."""

    @pytest.mark.parametrize("dim,level,max_cells", [(1, 5, None), (2, 3, None), (3, 2, 40)])
    def test_random_subsets(self, rng, dim, level, max_cells):
        checked = 0
        for _ in range(8):
            P = random_subset(rng, dim, level, max_cells)
            for s in (0.5, 1.0, 1.5):
                if s > dim:
                    continue
                ctx = ExponentContext.create(s)
                for a, under in cover_weight_above(P, optimal_cover(P, s)):
                    assert ctx.compare(under, {a: 1}) < 0, (P.cells.tolist(), s, a, under)
                    checked += 1
        assert checked

    def test_quarter_cantor_ties(self, rng):
        # every quarter-Cantor cube ties its four grandchildren at s = 1/2:
        # on the set alone the cover is the root; a copy in a level-2 cube,
        # with a few random cells beside it, has its tied cube under the root
        cantor = gen_cantor_product(QUARTER_CANTOR, 3)
        ctx = ExponentContext.create(0.5)
        assert list(cover_weight_above(cantor, optimal_cover(cantor, 0.5))) == []
        small = gen_cantor_product(QUARTER_CANTOR, 2)
        checked = 0
        for offset in range(4):
            copy = GridPointSet(1, 6, small.cells + (offset << 4))
            P = copy.union(random_subset(rng, 1, 6, 3))
            for a, under in cover_weight_above(P, optimal_cover(P, 0.5)):
                assert ctx.compare(under, {a: 1}) < 0, (P.cells.tolist(), a, under)
                checked += 1
        assert checked


class TestCoverFormat:
    def test_round_trip(self, rng, tmp_path):
        P = random_subset(rng, 2, 3)
        cover = optimal_cover(P, 1.0)
        path = tmp_path / "cover.txt"
        write_cover(cover, path)
        back = read_cover(path, 1.0)
        assert back.cubes == cover.cubes
        assert back.value == cover.value
