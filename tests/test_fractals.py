import re

import numpy as np
import pytest

from dyadicproj.content import optimal_cover
from dyadicproj.fractals import (
    QUARTER_CANTOR,
    CantorPattern,
    gen_cantor_product,
    gen_degenerate,
    gen_random_tree_set,
    parse_generator_spec,
)
from dyadicproj.regularity import minimal_spread_constant


def cantor_cells_oracle(keep, iterations):
    """Direct recursion: c -> base*c + keep."""
    cells = [0]
    for _ in range(iterations):
        cells = [4 * c + d for c in cells for d in keep]
    return sorted(cells)


class TestCantorProduct:
    def test_full_pattern_gives_full_grid(self):
        P = gen_cantor_product(CantorPattern(4, ((0, 1, 2, 3),)), 2)
        assert len(P) == 16 and P.level == 4

    def test_recursion_oracle(self):
        P = gen_cantor_product(QUARTER_CANTOR, 3)
        assert P.cells.ravel().tolist() == cantor_cells_oracle((0, 3), 3)
        assert P.cells.ravel().tolist() == [0, 3, 12, 15, 48, 51, 60, 63]

    def test_zero_iterations(self):
        P = gen_cantor_product(QUARTER_CANTOR, 0)
        assert len(P) == 1 and P.level == 0

    def test_cardinality_power_law(self):
        pat = CantorPattern(4, ((0, 3), (0, 2, 3)))
        for k in range(4):
            assert len(gen_cantor_product(pat, k)) == 6**k

    def test_self_similar_content_is_one(self):
        s = QUARTER_CANTOR.dimension
        assert s == 0.5
        for k in (1, 2, 3):
            P = gen_cantor_product(QUARTER_CANTOR, k)
            assert optimal_cover(P, s).value == 1.0

    def test_level_overflow(self):
        with pytest.raises(ValueError):
            gen_cantor_product(QUARTER_CANTOR, 11)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            CantorPattern(3, ((0,),))
        with pytest.raises(ValueError):
            CantorPattern(4, ((),))
        with pytest.raises(ValueError):
            CantorPattern(4, ((4,),))


class TestRandomTreeSet:
    def test_s_equals_n_gives_full_grid(self):
        P = gen_random_tree_set(2, 2.0, 3, seed=0)
        assert len(P) == 4**3

    def test_survival_conditioning(self):
        P = gen_random_tree_set(2, 0.05, 8, seed=1)
        assert len(P) >= 1

    def test_reproducible(self):
        a = gen_random_tree_set(2, 1.0, 9, seed=7)
        b = gen_random_tree_set(2, 1.0, 9, seed=7)
        assert np.array_equal(a.cells, b.cells)
        c = gen_random_tree_set(2, 1.0, 9, seed=8)
        assert not np.array_equal(a.cells, c.cells)

    def test_frozen_regression_seed42(self):
        P = gen_random_tree_set(2, 1.0, 10, seed=42)
        assert len(P) == 498  # frozen after the first recorded run
        assert 2**8 <= len(P) <= 2**12
        assert minimal_spread_constant(P, 1.0) <= 40

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_random_tree_set(2, 0.0, 3, seed=0)
        with pytest.raises(ValueError):
            gen_random_tree_set(2, 1.0, 21, seed=0)


class TestDegenerate:
    def test_line(self):
        P = gen_degenerate("line", n=2, level=6)
        assert len(P) == 64
        assert np.unique(P.cells[:, 1]).tolist() == [0]

    def test_cluster(self):
        P = gen_degenerate("cluster", n=1, level=10, cube_level=5)
        assert len(P) == 32

    def test_point(self):
        P = gen_degenerate("point", n=2, level=4)
        assert P.cells.tolist() == [[0, 0]]

    def test_invalid(self):
        with pytest.raises(ValueError):
            gen_degenerate("blob", n=1, level=2)

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            # unchecked, this returned the zero line and ignored `fixed`
            ("line", dict(n=3, level=2, fixed=(1, 2)), "unknown generator key 'fixed'"),
            ("point", dict(n=2, level=4, coords=(1, 1)), "unknown generator key 'coords'"),
            ("cluster", dict(n=2, level=4), "missing generator key 'cube_level'"),
        ],
    )
    def test_keys_checked_as_in_a_spec(self, kind, params, message):
        takes = {"line": "n, level", "point": "n, level", "cluster": "n, level, cube_level"}
        with pytest.raises(ValueError) as raised:
            gen_degenerate(kind, **params)
        assert str(raised.value) == f"{message}: {kind} takes {takes[kind]}"


class TestGeneratorSpec:
    def test_cantor_spec(self):
        P = parse_generator_spec("cantor:keep=0|3,base=4,dims=2,iters=3")
        assert len(P) == 64 and P.level == 6

    def test_random_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            parse_generator_spec("random:n=2,s=1.0,level=5")
        P = parse_generator_spec("random:n=2,s=1.0,level=5", seed=3)
        assert P.level == 5

    def test_line_cluster_point(self):
        assert len(parse_generator_spec("line:n=2,level=4")) == 16
        assert len(parse_generator_spec("cluster:n=1,level=6,cube_level=3")) == 8
        assert len(parse_generator_spec("point:n=2,level=3")) == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_generator_spec("wiggle:n=1")

    @pytest.mark.parametrize(
        "spec, message",
        [
            # built 1 iteration, 4 cells at level 2
            ("cantor:keep=0|3,dims=2,iter=5",
             "unknown generator key 'iter': cantor takes keep, base, dims, iters"),
            # built dimension 3: the last key won
            ("line:n=2,level=5,n=3", "repeated generator key 'n': line takes n, level"),
            ("random:n=2,level=5", "missing generator key 's': random takes n, s, level"),
            ("line:n=2", "missing generator key 'level': line takes n, level"),
            ("line:n=2,level=5,fixed=3", "unknown generator key 'fixed': line takes n, level"),
        ],
    )
    def test_bad_keys_rejected(self, spec, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_generator_spec(spec, seed=1)

    def test_defaults_fill_left_out_keys(self):
        assert parse_generator_spec("cantor") == gen_cantor_product(QUARTER_CANTOR, 1)
