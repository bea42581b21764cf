import math
from fractions import Fraction

import numpy as np
import pytest

from dyadicproj.fractals import (
    QUARTER_CANTOR,
    CantorPattern,
    gen_cantor_product,
    gen_degenerate,
    gen_random_tree_set,
)
from dyadicproj import cli, grid, regularity
from dyadicproj._exact import snap_exponent
from dyadicproj.grid import GridPointSet
from dyadicproj.content import optimal_cover, read_cover
from dyadicproj.regularity import (
    _greedy_net,
    frostman_subset,
    heavy_decompose,
    minimal_spread_constant,
    write_decomposition,
)

from conftest import (
    frostman_oracle,
    greedy_net_oracle,
    heavy_cubes_oracle,
    random_subset,
    spread_constant_oracle,
)


class TestMinimalSpreadConstant:
    def test_singleton(self):
        P = GridPointSet.from_cells(2, 5, [(3, 9)])
        assert minimal_spread_constant(P, 1.0) == 1.0

    def test_empty(self):
        assert minimal_spread_constant(GridPointSet.empty(1, 3), 0.5) == 0.0

    def test_full_grid_saturates_at_s_equals_n(self):
        P = gen_cantor_product(CantorPattern(2, ((0, 1),)), 5)
        assert minimal_spread_constant(P, 1.0) == 1.0

    def test_four_cells_level4(self):
        P = GridPointSet.from_cells(1, 4, [(0,), (1,), (2,), (3,)])
        assert minimal_spread_constant(P, 0.5) == 2.0  # level-2 window: 4 / sqrt(4)

    def test_matches_window_scan_oracle(self, rng):
        for _ in range(10):
            P = random_subset(rng, 2, 3)
            for s in (0.5, 1.0, 1.7):
                assert minimal_spread_constant(P, s) == pytest.approx(
                    spread_constant_oracle(P, s), rel=1e-12
                )


class TestHeavyDecompose:
    def test_regular_set_stays_good(self):
        P = gen_cantor_product(QUARTER_CANTOR, 3)
        spread = minimal_spread_constant(P, 0.5)
        dec = heavy_decompose(P, 0.5, C=spread, L=4.0, tau=0.5)  # tau*C*L > spread
        assert len(dec.bad) == 0
        assert np.array_equal(dec.good.cells, P.cells)

    def test_cluster_goes_bad(self):
        P = gen_degenerate("cluster", n=1, level=10, cube_level=5)
        dec = heavy_decompose(P, 1.0, C=1.0, L=4.0, tau=0.25)
        assert len(dec.good) == 0
        assert len(dec.bad) == len(P)
        assert dec.heavy.value <= dec.weight_budget + 1e-12

    def test_cluster_plus_spread_split(self):
        # dense cluster in one level-5 cube plus a sparse arithmetic spread:
        # at s = 1/2 the cluster is heavy, the spread is not
        cluster = gen_degenerate("cluster", n=1, level=10, cube_level=5)
        spread = GridPointSet.from_cells(1, 10, [(32 * k,) for k in range(32)])
        P = cluster.union(spread)
        C = len(P) * 2.0 ** (-10 * 0.5)
        dec = heavy_decompose(P, 0.5, C=C, L=8.0, tau=0.25)
        assert cluster.issubset(dec.bad)
        assert len(dec.good) > 0
        assert all(c[0] >= 64 for c in dec.good.cells.tolist())
        assert dec.heavy.value <= 1.0 / (0.25 * 8.0) + 1e-12

    def test_default_c_is_the_cell_count_normalisation(self):
        # C = len(P) * 2.0 ** (-9 * s) = 512 exactly; the 4096 cells of the
        # level-3 cube reach its threshold tau*C*L * 2^(6s) = 2 * 512 * 4
        P = gen_degenerate("cluster", n=2, level=9, cube_level=3)
        dec = heavy_decompose(P, 1 / 3)
        assert dec.params[1] == 512.0
        assert dec.heavy.rows.tolist() == [[3, 0, 0]]

    def test_exact_tie_at_the_default_normalisation(self):
        # {0, 1} at level 3, s = 1/2: the level-2 cube holds 2 cells, and its
        # threshold tau*L*|P| * 2^(-2s) is exactly 2, where the float
        # tau*C*L * 2.0 ** ((3 - 2) * s) reads 2.0000000000000004
        P = GridPointSet.from_cells(1, 3, [(0,), (1,)])
        dec = heavy_decompose(P, 0.5)
        assert dec.heavy.rows.tolist() == [[2, 0]]
        assert len(dec.good) == 0 and len(dec.bad) == 2
        assert dec.heavy.value == dec.weight_budget == 0.5

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_default_normalisation_matches_fraction_oracle(self, dim):
        # 2^k cells inside one random cube, so that tau*L*|P| * 2^(-j*s) is
        # often an integer and some cubes hold exactly that many cells
        rng = np.random.default_rng(70 + dim)
        snapped = sorted({Fraction(p, q) for q in (1, 2, 3, 4) for p in range(1, q * dim + 1)})
        ties = 0
        for _ in range(100):
            level = int(rng.integers(1, 13))
            k = int(rng.integers(0, min(8, level * dim) + 1))
            top = int(rng.integers(0, level - (k - 1) // dim))  # 2^k cells fit below
            width = level - top
            picks = rng.choice(1 << (width * dim), size=1 << k, replace=False)
            offsets = [(picks >> (width * d)) & ((1 << width) - 1) for d in range(dim)]
            corner = rng.integers(0, 1 << top, size=dim) << width
            P = GridPointSet(dim, level, np.stack(offsets, axis=1) + corner)
            frac = snapped[int(rng.integers(len(snapped)))]
            tau, L = [(4.0**-dim, 2.0 * 4**dim), (0.5, 3.0), (0.3, 7.0)][int(rng.integers(3))]
            want, tied = heavy_cubes_oracle(P, frac, tau, L)
            assert heavy_decompose(P, float(frac), L=L, tau=tau).heavy.rows.tolist() == want
            ties += tied
        assert ties >= 10

    def test_weight_bound_and_net_regularity(self, rng):
        for seed in range(8):
            n = 1 + seed % 2
            level = 8 + seed % 3
            cluster = gen_degenerate("cluster", n=n, level=level, cube_level=3)
            spread = gen_random_tree_set(n, 0.6 * n, level, seed=seed)
            P = cluster.union(spread)
            s = 0.7 * n
            C = len(P) * 2.0 ** (-level * s)
            tau = 4.0**-n
            L = 2.0 / tau
            dec = heavy_decompose(P, s, C, L, tau)
            assert dec.heavy.value <= 1.0 / (tau * L) + 1e-9
            if len(dec.net):
                assert minimal_spread_constant(dec.net, s) <= 4**n * tau * C * L + 1e-9

    def test_idempotent_on_good_part(self, rng):
        for seed in range(5):
            P = gen_random_tree_set(2, 1.2, 8, seed=seed)
            C = len(P) * 2.0 ** (-8 * 1.2)
            dec = heavy_decompose(P, 1.2, C, L=32.0, tau=1 / 16)
            keys = dec.heavy.rows.tolist()
            assert keys == sorted(keys)
            if len(dec.good) == 0:
                continue
            again = heavy_decompose(dec.good, 1.2, C, L=32.0, tau=1 / 16)
            assert len(again.bad) == 0

    def test_net_separation_and_coverage(self):
        P = gen_degenerate("line", n=2, level=5)
        dec = heavy_decompose(P, 1.0, C=1.0, L=64.0, tau=1 / 16)
        net = dec.net
        # pairwise Chebyshev separation >= 2 cells, greedy from the lex start
        cells = net.cells
        for i in range(len(net)):
            d = np.abs(cells - cells[i]).max(axis=1)
            d[i] = 99
            assert d.min() >= 2
        # every good cell within one cell of the net
        for row in dec.good.cells:
            assert (np.abs(net.cells - row).max(axis=1) <= 1).any()

    def test_parameter_validation(self):
        P = GridPointSet.from_cells(1, 2, [(0,)])
        with pytest.raises(ValueError):
            heavy_decompose(P, 1.0, 1.0, L=0.5)
        with pytest.raises(ValueError):
            heavy_decompose(P, 1.0, 1.0, L=2.0, tau=0.0)

    @pytest.mark.parametrize("L", [math.nan, math.inf])
    def test_big_l_not_finite_rejected(self, L):
        # a NaN L would pass an `L < 1` test and switch heavy pruning off
        P = gen_degenerate("cluster", n=2, level=6, cube_level=3)
        with pytest.raises(ValueError, match="finite"):
            heavy_decompose(P, 1.0, len(P) * 2.0**-6, L=L)

    def test_precondition_warning(self):
        P = gen_degenerate("line", n=1, level=6)
        with pytest.warns(UserWarning, match="exceeds"):
            heavy_decompose(P, 0.5, C=0.5, L=2.0, tau=0.5)

    def test_export(self, tmp_path):
        P = gen_degenerate("cluster", n=1, level=8, cube_level=4)
        dec = heavy_decompose(P, 1.0, C=1.0, L=4.0, tau=0.25)
        write_decomposition(dec, tmp_path)
        assert (tmp_path / "good.txt").exists()
        assert (tmp_path / "bad.txt").exists()
        heavy = (tmp_path / "heavy.txt").read_text().splitlines()
        assert heavy[-1].startswith("value ")

    def test_heavy_file_reads_back_as_the_cover(self, tmp_path):
        P = gen_random_tree_set(2, 1.5, 7, seed=3)
        dec = heavy_decompose(P, 1.5, L=2.0, tau=0.05)
        assert len(dec.heavy.rows) == 1
        write_decomposition(dec, tmp_path)
        assert read_cover(tmp_path / "heavy.txt", 1.5) == dec.heavy
        # a footer-only file does not state the dimension: it reads back
        # as (0, 2) rows, whatever the set's
        dec = heavy_decompose(P, 1.5)
        assert dec.heavy.rows.shape == (0, 3)
        write_decomposition(dec, tmp_path, prefix="none_")
        empty = read_cover(tmp_path / "none_heavy.txt", 1.5)
        assert (empty.value, len(empty.rows)) == (dec.heavy.value, 0) == (0.0, 0)

    def test_decompositions_compare_by_value(self):
        P = gen_random_tree_set(2, 1.5, 7, seed=3)
        dec = heavy_decompose(P, 1.5, L=2.0, tau=0.05)
        again = heavy_decompose(GridPointSet(2, 7, P.cells.copy()), 1.5, L=2.0, tau=0.05)
        assert dec == again and not dec != again
        assert dec != heavy_decompose(P, 1.5)
        empty = heavy_decompose(GridPointSet.empty(2, 7), 1.5)
        assert empty == heavy_decompose(GridPointSet.empty(2, 7), 1.5)


class TestGreedyNet:
    """The net against the all-pairs lexicographic greedy."""

    @staticmethod
    def assert_oracle(P: GridPointSet):
        assert _greedy_net(P).cells.tolist() == [list(c) for c in greedy_net_oracle(P)]

    @pytest.mark.parametrize("dim, level", [(1, 5), (2, 3), (3, 2), (4, 2)])
    def test_random_subsets(self, rng, dim, level):
        for _ in range(6):
            self.assert_oracle(random_subset(rng, dim, level))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_full_block_gives_even_lattice(self, dim):
        P = gen_cantor_product(CantorPattern(2, ((0, 1),) * dim), 3)
        assert len(P) == 8**dim
        even = P.cells[(P.cells % 2 == 0).all(axis=1)]
        assert np.array_equal(_greedy_net(P).cells, even)
        self.assert_oracle(P)

    def test_diagonal_line(self):
        P = GridPointSet(2, 5, np.repeat(np.arange(32)[:, None], 2, axis=1))
        assert _greedy_net(P).cells.tolist() == [[k, k] for k in range(0, 32, 2)]
        self.assert_oracle(P)

    def test_cantor_product(self):
        self.assert_oracle(gen_cantor_product(CantorPattern(4, ((0, 2), (0, 3), (1, 2))), 2))

    def test_empty_and_single_cell(self):
        assert len(_greedy_net(GridPointSet.empty(3, 4))) == 0
        P = GridPointSet.from_cells(3, 4, [(15, 0, 7)])
        assert _greedy_net(P).cells.tolist() == [[15, 0, 7]]

    def test_decomposition_net(self, rng):
        for dim, level in [(1, 6), (2, 4), (3, 3)]:
            P = random_subset(rng, dim, level)
            dec = heavy_decompose(P, dim, C=1.0, L=4.0, tau=0.5)
            assert len(dec.good) == len(P)
            assert dec.net.cells.tolist() == [list(c) for c in greedy_net_oracle(P)]

    def test_net_built_once_on_first_read(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(
            regularity, "_greedy_net", lambda P: built.append(P) or _greedy_net(P)
        )
        gen = "cantor:keep=0|3,dims=2,iters=4"
        assert cli.main(["decompose", "--gen", gen, "--s", "1.0", "--out", str(tmp_path)]) == 0
        assert built == []  # decompose writes no net, so it builds none
        dec = heavy_decompose(gen_cantor_product(QUARTER_CANTOR, 4), 1.0, C=1.0)
        assert dec.net is dec.net
        assert len(built) == 1 and built[0] is dec.good
        empty = heavy_decompose(GridPointSet.empty(3, 4), 1.0, C=1.0).net
        assert (len(empty), empty.dim, empty.level) == (0, 3, 4)


class TestFrostmanSubset:
    def test_already_regular_is_identity(self):
        P = gen_cantor_product(QUARTER_CANTOR, 3)
        S = frostman_subset(P, 0.5)
        assert np.array_equal(S.cells, P.cells)

    def test_full_grid_n2(self):
        P = gen_cantor_product(CantorPattern(2, ((0, 1), (0, 1))), 5)
        S = frostman_subset(P, 1.0)
        content = optimal_cover(P, 1.0).value
        assert len(S) >= 0.5 * content * 2.0**5
        assert minimal_spread_constant(S, 1.0) <= 4**2

    def test_quarter_cantor_counts(self):
        P = gen_cantor_product(QUARTER_CANTOR, 3)
        S = frostman_subset(P, 0.5)
        assert len(S) >= 0.5 * 1.0 * 2.0**3  # content is exactly 1
        assert minimal_spread_constant(S, 0.5) <= 4.0

    def test_random_inputs_meet_guarantee(self, rng):
        for seed in range(6):
            P = gen_random_tree_set(2, 1.3, 7, seed=seed)
            for s in (0.8, 1.3):
                S = frostman_subset(P, s)
                content = optimal_cover(P, s).value
                assert len(S) >= 0.5 * content * 2.0 ** (7 * s) - 1e-9
                assert minimal_spread_constant(S, s) <= 4**2
                assert S.issubset(P)

    def test_builds_one_cover_tree(self, monkeypatch):
        calls = []
        build = grid._build_tree

        def counted(P):
            calls.append(len(P))
            return build(P)

        # build_cover_tree returns a kept tree, so count the builds behind it
        monkeypatch.setattr(grid, "_build_tree", counted)
        P = gen_random_tree_set(2, 1.3, 7, seed=1)
        frostman_subset(P, 1.3)
        assert calls == [len(P)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            frostman_subset(GridPointSet.empty(1, 3), 0.5)

    def test_unsnapped_exponent_matches_oracle(self):
        # no p/q with q <= 64 is within the snap tolerance of log2(3), so
        # the caps are float ceilings
        s = math.log2(3)
        assert snap_exponent(s) is None
        binding = 0
        for seed in range(5):
            P = gen_random_tree_set(2, 1.5, 7, seed=seed)
            S = frostman_subset(P, s)
            assert S.cells.tolist() == [list(c) for c in sorted(frostman_oracle(P, s))]
            binding += len(S) < len(P)
        assert binding

    def test_cap_beyond_int64(self, rng):
        # ceil(2^(20 * 3.5)) at the root does not fit in int64
        P = GridPointSet(4, 20, rng.integers(0, 1 << 20, size=(50, 4)))
        S = frostman_subset(P, 3.5)
        assert np.array_equal(S.cells, P.cells)

    def test_matches_recursive_oracle(self, rng):
        binding = 0
        for _ in range(40):
            dim = int(rng.integers(1, 3))
            P = random_subset(rng, dim, int(rng.integers(2, 7 if dim == 1 else 5)))
            for s in (0.5, 0.75, 1.0):
                S = frostman_subset(P, min(s, dim))
                want = frostman_oracle(P, min(s, dim))
                assert S.cells.tolist() == [list(c) for c in sorted(want)]
                binding += len(S) < len(P)
        assert binding > 40
