import numpy as np
import pytest

from dyadicproj import grid
from dyadicproj.grid import (
    DyadicCube,
    GridPointSet,
    _row_index,
    _unique_rows,
    build_cover_tree,
    coarsen,
    covering_number,
    read_pointset,
    write_pointset,
)

from conftest import cell_tuples, cover_tree_oracle, random_subset


class TestDyadicCube:
    def test_coordinate_range_enforced(self):
        with pytest.raises(ValueError):
            DyadicCube(2, (4,))
        with pytest.raises(ValueError):
            DyadicCube(-1, (0,))


class TestGridPointSet:
    def test_dedup_and_sort(self):
        P = GridPointSet.from_cells(2, 2, [(3, 1), (0, 0), (3, 1)])
        assert len(P) == 2
        assert P.cells.tolist() == [[0, 0], [3, 1]]

    def test_sorted_input_not_shared(self):
        a = np.array([[0, 1], [2, 0], [3, 3]], dtype=np.int64)
        P = GridPointSet(2, 2, a)
        assert a.flags.writeable and not np.shares_memory(a, P.cells)
        a[0] = 3
        assert P.cells.tolist() == [[0, 1], [2, 0], [3, 3]]

    def test_range_check(self):
        with pytest.raises(ValueError):
            GridPointSet.from_cells(1, 2, [(4,)])
        with pytest.raises(ValueError):
            GridPointSet.from_cells(1, 2, [(-1,)])

    def test_centers(self):
        P = GridPointSet.from_cells(1, 2, [(0,), (3,)])
        np.testing.assert_allclose(P.centers().ravel(), [0.125, 0.875])

    def test_centers_computed_once_read_only(self):
        P = GridPointSet.from_cells(2, 3, [(0, 1), (5, 2)])
        c = P.centers()
        assert P.centers() is c
        with pytest.raises(ValueError):
            c[0, 0] = 0.5
        assert c.tolist() == [[1 / 16, 3 / 16], [11 / 16, 5 / 16]]

    def test_set_ops(self):
        a = GridPointSet.from_cells(1, 3, [(0,), (1,)])
        b = GridPointSet.from_cells(1, 3, [(1,), (5,)])
        assert len(a.union(b)) == 3
        assert a.issubset(a.union(b))

    def test_equality_by_value(self):
        P = GridPointSet.from_cells(2, 3, [(5, 1), (0, 7), (5, 1), (2, 2)])
        Q = GridPointSet.from_cells(2, 3, [(0, 7), (2, 2), (5, 1)])
        assert P == Q and not P != Q
        assert P != GridPointSet.from_cells(2, 4, [(0, 7), (2, 2), (5, 1)])
        assert P != GridPointSet.from_cells(2, 3, [(0, 7), (2, 3), (5, 1)])
        assert P != GridPointSet.from_cells(2, 3, [(0, 7), (2, 2)])
        assert GridPointSet.empty(2, 3) == GridPointSet.empty(2, 3)
        assert GridPointSet.empty(2, 3) != GridPointSet.empty(3, 3)


def _shared_prefix_rows(rng, dim: int, level: int, n: int = 300) -> np.ndarray:
    """Rows whose coordinates each take one of three values per column, so
    rows share long prefixes and repeat, with the repeats shuffled in."""
    pool = rng.integers(0, 1 << level, size=(3, dim))
    rows = pool[rng.integers(0, 3, size=(n, dim)), np.arange(dim)]
    return rng.permutation(np.concatenate([rows, rows[::7]]))


class TestWideRows:
    """Row primitives where dim * level exceeds the 63 bits of one int64 key,
    against tuple oracles."""

    CASES = [(4, 20), (8, 20), (1, 20), (1, 3), (3, 1)]

    @pytest.mark.parametrize("dim, level", CASES)
    def test_set_ops(self, rng, dim, level):
        a = _shared_prefix_rows(rng, dim, level)
        b = np.concatenate([a[::2], _shared_prefix_rows(rng, dim, level)])
        P, Q = GridPointSet(dim, level, a), GridPointSet(dim, level, b)
        A, B = cell_tuples(a), cell_tuples(b)
        assert P.cells.tolist() == [list(c) for c in A]
        assert Q.cells.tolist() == [list(c) for c in B]
        for j in range(level + 1):
            assert covering_number(P, j) == len(cell_tuples(a >> (level - j)))
        assert P.issubset(Q) == (set(A) <= set(B))
        assert GridPointSet(dim, level, a[::2]).issubset(P)
        assert P.issubset(P.union(Q))
        assert [c in Q for c in A] == [c in set(B) for c in A]
        assert np.array(A[0]) in P
        assert (0,) * (dim + 1) not in P
        assert (1 << level,) * dim not in P
        assert (-1,) * dim not in P

    @pytest.mark.parametrize("dim", [1, 4, 8])
    def test_empty(self, dim, monkeypatch):
        monkeypatch.setattr(grid, "_build_tree", None)  # no tree is built
        E = GridPointSet(dim, 20, np.empty((0, dim), dtype=np.int64))
        for j in (0, 3, 20):
            assert coarsen(E, j).cells.shape == (0, dim) and coarsen(E, j).level == j
            with pytest.raises(ValueError):
                build_cover_tree(coarsen(E, j))
        P = GridPointSet.from_cells(dim, 20, [(5,) * dim])
        assert E.cells.shape == (0, dim)
        assert covering_number(E, 3) == 0
        assert E.issubset(P) and not P.issubset(E)
        assert (5,) * dim not in E

    @staticmethod
    def _assert_tree_matches_oracle(P):
        tree = build_cover_tree(P)
        levels, counts, parents = cover_tree_oracle(P)
        assert len(tree.levels) == len(tree.parents) == P.level + 1
        for j in range(P.level + 1):
            assert tree.levels[j].tolist() == [list(q) for q in levels[j]]
            assert tree.counts[j].tolist() == counts[j]
            assert tree.parents[j].tolist() == parents[j]

    @pytest.mark.parametrize("dim, level", CASES)
    def test_cover_tree(self, rng, dim, level):
        P = GridPointSet(dim, level, _shared_prefix_rows(rng, dim, level))
        self._assert_tree_matches_oracle(P)
        tree = build_cover_tree(P)
        assert build_cover_tree(P) is tree
        for arr in (*tree.levels, *tree.parents, *tree.counts):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("dim, level", CASES)
    def test_coarsen_keeps_prefix_tree(self, rng, dim, level, monkeypatch):
        P = GridPointSet(dim, level, _shared_prefix_rows(rng, dim, level))
        built, build = [], grid._build_tree
        monkeypatch.setattr(grid, "_build_tree", lambda Q: built.append(Q) or build(Q))
        for j in range(level + 1):
            Q = coarsen(P, j)
            assert Q.cells.tolist() == [list(c) for c in cell_tuples(P.cells >> (level - j))]
            self._assert_tree_matches_oracle(Q)
        # P's tree was built once, and no coarsening built its own
        assert len(built) == 1 and built[0] is P

    @pytest.mark.parametrize("dim, level", CASES)
    def test_row_index(self, rng, dim, level):
        cells = GridPointSet(dim, level, _shared_prefix_rows(rng, dim, level)).cells
        a = np.concatenate(
            [
                cells[::-1],
                _shared_prefix_rows(rng, dim, level),
                cells - 1,  # negative coordinates where a cell has a 0
                cells + 1,  # 2^level where a cell has 2^level - 1
                np.full((1, dim), -1),
                np.full((1, dim), 1 << level),
            ]
        )
        # rows in order, repeated and shuffled
        for b in (cells, np.repeat(cells, 2, axis=0), rng.permutation(cells)):
            present = set(map(tuple, b.tolist()))
            got = _row_index(a, b)
            assert (got >= 0).tolist() == [row in present for row in map(tuple, a.tolist())]
            assert np.array_equal(b[got[got >= 0]], a[got >= 0])
            assert (got >= 0).any() and (got < 0).any()
            assert _row_index(a, b[:0]).tolist() == [-1] * len(a)
            assert _row_index(a[:0], b).shape == (0,)

    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    def test_unique_rows_matches_numpy(self, rng, dim):
        repeats = rng.integers(-3, 3, size=(200, dim))
        for rows in (
            _shared_prefix_rows(rng, dim, 20),
            repeats,
            np.unique(repeats, axis=0),  # strictly increasing
            repeats[np.lexsort(repeats.T[::-1])],  # increasing with repeats
            np.empty((0, dim), dtype=np.int64),
        ):
            uniq, inverse = _unique_rows(rows)
            want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
            assert np.array_equal(uniq, want)
            assert np.array_equal(inverse, want_inverse.ravel())


class TestCoveringNumber:
    def test_single_cell_any_level(self):
        P = GridPointSet.from_cells(2, 3, [(6, 1)])
        for j in range(4):
            assert covering_number(P, j) == 1

    def test_empty(self):
        P = GridPointSet.empty(2, 3)
        assert covering_number(P, 2) == 0

    def test_full_level2_grid(self):
        cells = [(i, j) for i in range(4) for j in range(4)]
        P = GridPointSet.from_cells(2, 2, cells)
        assert covering_number(P, 1) == 4  # brute-force: all 4 level-1 cubes hit
        assert covering_number(P, 2) == len(P)

    def test_argument_validation(self):
        P = GridPointSet.from_cells(1, 2, [(0,)])
        with pytest.raises(ValueError):
            covering_number(P, 3)
        with pytest.raises(ValueError):
            covering_number(P, -1)

    def test_sandwich_property(self, rng):
        for _ in range(25):
            dim = int(rng.integers(1, 3))
            level = int(rng.integers(1, 5 if dim == 2 else 7))
            P = random_subset(rng, dim, level)
            for j in range(level):
                lo = covering_number(P, j)
                hi = covering_number(P, j + 1)
                assert lo <= hi <= (2**dim) * lo
            assert covering_number(P, level) == len(P)


class TestCoarsen:
    def test_matches_tuple_oracle(self, rng):
        P = random_subset(rng, 2, 4)
        for j in range(5):
            want = cell_tuples(P.cells >> (4 - j))
            assert coarsen(P, j).cells.tolist() == [list(c) for c in want]


class TestPointsetFormat:
    def test_round_trip(self, tmp_path, rng):
        P = random_subset(rng, 2, 4)
        path = tmp_path / "points.txt"
        write_pointset(P, path)
        Q = read_pointset(path)
        assert (Q.dim, Q.level) == (P.dim, P.level)
        assert np.array_equal(Q.cells, P.cells)

    def test_rows_lexicographic(self, tmp_path):
        P = GridPointSet.from_cells(2, 2, [(3, 0), (0, 2), (0, 1)])
        path = tmp_path / "points.txt"
        write_pointset(P, path)
        body = path.read_text().splitlines()
        assert body[0] == "2 2 3"
        assert body[1:] == ["0 1", "0 2", "3 0"]

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 2\n1\n1\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_pointset(path)

    def test_row_width_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 2\n0 1\n3\n")
        with pytest.raises(ValueError, match="'3' does not have 2 coordinates"):
            read_pointset(path)

    def test_duplicate_named(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 4\n0 1\n3 2\n1 1\n3  2\n")
        with pytest.raises(ValueError, match="duplicate row '3  2'"):
            read_pointset(path)

    def test_empty_set_round_trip(self, tmp_path):
        path = tmp_path / "points.txt"
        write_pointset(GridPointSet.empty(3, 4), path)
        assert path.read_text() == "3 4 0\n"
        Q = read_pointset(path)
        assert (Q.dim, Q.level, len(Q)) == (3, 4, 0)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\n1\n2\n")
        with pytest.raises(ValueError, match="promises"):
            read_pointset(path)

    def test_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "points.txt"
        for data in (b"\n2 2 2\n\n0 1\n \t\n3 2\n\n", b"2 2 2\r\n0 1\r\n3 2\r\n"):
            path.write_bytes(data)
            Q = read_pointset(path)
            assert (Q.dim, Q.level, Q.cells.tolist()) == (2, 2, [[0, 1], [3, 2]])

    def test_unsorted_rows_accepted(self, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text("2 2 3\n3 2\n0 1\n1 1\n")
        assert read_pointset(path).cells.tolist() == [[0, 1], [1, 1], [3, 2]]

    @pytest.mark.parametrize("text, row", [("2 2 2\n0 1 2\n3\n", "0 1 2"), ("2 2 2\n0\n1 2 3\n", "0")])
    def test_ragged_rows_with_right_token_count(self, tmp_path, text, row):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"row '{row}' does not have 2 coordinates"):
            read_pointset(path)

    def test_any_whitespace_and_int_syntax(self, tmp_path):
        # what str.split() and int() accept, as the per-line reader did
        path = tmp_path / "points.txt"
        path.write_text("2 2 3\n0\xa01\n+3\u30002\n\x1f1 0001\n")
        assert read_pointset(path).cells.tolist() == [[0, 1], [1, 1], [3, 2]]

    def test_long_tokens(self, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text("1 3 2\n" + "0" * 30 + "5\n7\n")
        assert read_pointset(path).cells.tolist() == [[5], [7]]
        path.write_text("1 3 1\n" + "9" * 19 + "\n")
        with pytest.raises(OverflowError):
            read_pointset(path)

    def test_non_integer_token_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 2\n0 1\n3 x\n")
        with pytest.raises(ValueError, match="invalid literal for int"):
            read_pointset(path)
