"""The row codec against the general reader and the "%d" formatter.

A seeded corpus of point-set and cover files, canonical ones and ones only
the general reader takes or none does, is read on both backends: every
file gives the same array, or the same exception type and message, whether
the compiled parser reads its rows or declines them.
"""

from pathlib import Path

import numpy as np
import pytest

from dyadicproj import content, grid, kernels
from dyadicproj.content import optimal_cover, read_cover
from dyadicproj.grid import read_pointset

from conftest import random_subset

# separators and line ends: canonical ones first, then what only str.split
# and str.splitlines take
SEPS = [" ", "  ", "\t", " \t", "\xa0", "\u3000", "\x1f"]
ENDS = ["\n", "\r\n", "\r"]


def _mutate_token(rng, tok: str, level: int) -> str:
    kind = rng.integers(12)
    if kind == 0:
        return tok.zfill(18)  # 18 digits: canonical
    if kind == 1:
        return tok.zfill(19)  # 19 digits: general reader only
    if kind == 2:
        return "+" + tok
    if kind == 3:
        return "0_" + tok
    if kind == 4:
        return "-" + tok
    if kind == 5:
        return "x"
    if kind == 6:
        return "9" * 19  # overflows int64
    if kind == 7:
        return str(1 << level)  # out of range
    return tok


def _render(rng, lines: list[list[str]], odd: float) -> str:
    """Lines of tokens, each joined by one separator and ended by one line
    end, with blank lines before and between; a share `odd` of separators
    are not canonical."""
    out = []
    for tokens in lines:
        if rng.random() < 0.1:
            out.append(str(rng.choice([" ", "\t", ""])) + str(rng.choice(ENDS)))
        sep = str(rng.choice(SEPS[4:] if rng.random() < odd else SEPS[:4]))
        out.append(sep.join(tokens) + str(rng.choice(ENDS)))
    text = "".join(out)
    return text.rstrip("\r\n") if rng.random() < 0.2 else text


def _rows_corpus(rng, lines: list[list[str]], level: int) -> tuple[list[list[str]], float]:
    """`lines` after random row and token mutations, and the share of
    non-canonical separators to render them with."""
    lines = [list(t) for t in lines]
    if rng.random() < 0.3:
        for tokens in lines:
            for k in range(len(tokens)):
                if rng.random() < 0.05:
                    tokens[k] = _mutate_token(rng, tokens[k], level)
    if len(lines) > 1 and rng.random() < 0.15:  # ragged, the right token count
        i = int(rng.integers(len(lines) - 1))
        lines[i + 1].insert(0, lines[i].pop())
        if not lines[i]:
            del lines[i]
    if rng.random() < 0.1:  # a row too wide
        i = int(rng.integers(len(lines)))
        lines[i].append("0")
    return lines, (0.2 if rng.random() < 0.3 else 0.0)


def pointset_corpus(seed: int, n: int):
    rng = np.random.default_rng(seed)
    yield "1 3 1000000000000\n1\n2\n"  # a count no file of this size holds
    yield ""
    yield " \n\t\r\n"
    for _ in range(n):
        dim, level = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        cells = random_subset(rng, dim, level, 12).cells.tolist()
        if rng.random() < 0.15 and cells:  # a duplicate
            cells.insert(int(rng.integers(len(cells))), cells[-1])
        count = len(cells)
        if rng.random() < 0.1:
            count += int(rng.choice([-1, 1, 10**12]))
        head = [str(dim), str(level), str(count)]
        if rng.random() < 0.05:
            head = head[:2] if rng.random() < 0.5 else head + ["0"]
        rows, odd = _rows_corpus(rng, [[str(c) for c in row] for row in cells], level)
        yield _render(rng, [head] + rows, odd)


def cover_corpus(seed: int, n: int):
    rng = np.random.default_rng(seed)
    yield "value 1.5\n"
    yield "0 0\nvalue \n"
    footers = ["value 1", "value", "value ", "value\t1.5", "value 1.5 extra",
               "value x", "value 1e", "value  2.5", "value +0.25", "value 1_5", "1.5"]
    for _ in range(n):
        dim, level = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        s = float(rng.choice([0.5, 1.0, 1.5][: 2 * dim - 1]))
        cover = optimal_cover(random_subset(rng, dim, level, 10), s)
        rows = cover.rows.tolist()
        if rng.random() < 0.1:  # a duplicate cube
            rows.append(rows[0])
        if rng.random() < 0.05:  # a cube under another
            rows.append([level, *([0] * dim)])
            rows.append([0, *([0] * dim)])
        lines, odd = _rows_corpus(rng, [[str(c) for c in row] for row in rows], level)
        footer = f"value {cover.value:.17g}"
        if rng.random() < 0.2:
            footer = str(rng.choice(footers))
        yield _render(rng, lines + [footer.split(" ")], odd)


def _outcome(read, path):
    try:
        return read(path)
    except Exception as exc:
        return type(exc), str(exc)


class _Spy:
    """A backend whose parse_rows records what each call returned."""

    def __init__(self, impl):
        self.impl = impl
        self.results = []

    def parse_rows(self, buf, width):
        self.results.append(self.impl.parse_rows(buf, width))
        return self.results[-1]


def _check_parity(impls, monkeypatch, corpus, path, read):
    """Every file reads the same on both backends.  Returns the counts of
    (rows read by the compiled parser, rows it declined, errors)."""
    stats = [0, 0, 0]
    for i, text in enumerate(corpus):
        # a fresh name per file: truncating and rewriting one path can cost
        # tens of milliseconds on ext4
        file = path.with_name(f"{i}_{path.name}")
        file.write_bytes(text.encode())
        monkeypatch.setattr(kernels, "_active", impls["python"])
        want = _outcome(read, file)
        spy = _Spy(impls["compiled"])
        monkeypatch.setattr(kernels, "_active", spy)
        assert _outcome(read, file) == want, text
        # a read that succeeds ends on its rows
        accepted = bool(spy.results) and spy.results[-1] is not None
        stats[2 if isinstance(want, tuple) else 0 if accepted else 1] += 1
    return stats


def test_read_pointset_parity(impls, monkeypatch, tmp_path):
    accepted, declined, errors = _check_parity(
        impls, monkeypatch, pointset_corpus(19, 600), tmp_path / "points.txt", read_pointset
    )
    assert min(accepted, declined, errors) >= 40, (accepted, declined, errors)


def test_read_cover_parity(impls, monkeypatch, tmp_path):
    accepted, declined, errors = _check_parity(
        impls, monkeypatch, cover_corpus(23, 400), tmp_path / "cover.txt",
        lambda p: read_cover(p, 1.0),
    )
    assert min(accepted, declined, errors) >= 30, (accepted, declined, errors)


def test_header_count_beyond_file_is_the_general_error(impls, monkeypatch, tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("1 3 1000000000000\n1\n2\n")
    monkeypatch.setattr(kernels, "_active", impls["compiled"])
    with pytest.raises(ValueError, match="header promises 1000000000000 rows, found 2"):
        read_pointset(path)


@pytest.mark.parametrize(
    "name, text, message",
    [
        # the header dim must not size the compiled parser's buffer
        ("points.txt", "100000000000000000 3 0\n", "dimension 100000000000000000 outside"),
        ("points.txt", "1 3 1\n99999999999999999999\n", "row '9+' has an integer outside int64"),
        ("cover.txt", "0 0\nvalue 1e\n", "could not convert string to float: '1e'"),
    ],
)
def test_errors_are_the_same_on_both_backends(impls, monkeypatch, tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    read = read_pointset if name == "points.txt" else lambda p: read_cover(p, 1.0)
    for impl in impls.values():
        monkeypatch.setattr(kernels, "_active", impl)
        with pytest.raises(ValueError, match=message):
            read(path)


def test_canonical_files_take_the_compiled_parser(impls, monkeypatch, tmp_path, rng):
    P = random_subset(rng, 3, 5)
    grid.write_pointset(P, tmp_path / "points.txt")
    cover = optimal_cover(P, 1.5)
    content.write_cover(cover, tmp_path / "cover.txt")
    spy = _Spy(impls["compiled"])
    monkeypatch.setattr(kernels, "_active", spy)
    assert read_pointset(tmp_path / "points.txt") == P
    assert read_cover(tmp_path / "cover.txt", 1.5) == cover
    # the point set's header and cells, then the cover's cubes
    assert [r is not None for r in spy.results] == [True, True, True]


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_declined_file_is_opened_once(impls, monkeypatch, tmp_path, backend):
    monkeypatch.setattr(kernels, "_active", impls[backend])
    opened = []
    path_open = Path.open

    def spy_open(self, *args, **kwargs):
        opened.append(self.name)
        return path_open(self, *args, **kwargs)

    (tmp_path / "points.txt").write_text("2 2 3\n0\xa01\n+3\u30002\n1 1\n")
    (tmp_path / "dup.txt").write_text("1 2 2\n1\n1\n")
    (tmp_path / "cover.txt").write_text("0\t0\nvalue +1.5\n")
    monkeypatch.setattr(Path, "open", spy_open)
    assert read_pointset(tmp_path / "points.txt").cells.tolist() == [[0, 1], [1, 1], [3, 2]]
    with pytest.raises(ValueError, match="duplicate row '1'"):
        read_pointset(tmp_path / "dup.txt")
    assert read_cover(tmp_path / "cover.txt", 1.0).value == 1.5
    assert opened == ["points.txt", "dup.txt", "cover.txt"]


@pytest.mark.parametrize(
    "buf, rows",
    [
        (b"1 2\r\n\n \t\r3 4", [[1, 2], [3, 4]]),
        (b"000000000000000007 0", [[7, 0]]),
        (b"", []),
        (b"1\n2 3\n", None),  # ragged, right token count
        (b"0000000000000000007 0", None),  # 19 digits
        (b"+1 2", None),
        (b"1 2\x0b", None),
        (b"1 -2", None),
    ],
)
def test_parse_rows_accepts_only_canonical_rows(impls, buf, rows):
    got = impls["compiled"].parse_rows(buf, 2)
    assert (got if got is None else got.tolist()) == rows
    assert impls["python"].parse_rows(buf, 2) is None


def test_format_rows_matches_percent_formatter(impls):
    rng = np.random.default_rng(11)
    info = np.iinfo(np.int64)
    edges = [info.min, info.max, info.min + 1, 0, -1, 1, 9, 10, -10, 10**18, -(10**18)]
    for w in range(1, 10):
        for n in (0, 1, 5, 200):
            rows = rng.integers(info.min, info.max, size=(n, w), endpoint=True, dtype=np.int64)
            rows >>= rng.integers(0, 64, size=rows.shape)  # every magnitude, both signs
            rows.ravel()[: len(edges)] = edges[: rows.size]
            want = "".join(" ".join(map(str, row)) + "\n" for row in rows.tolist())
            for impl in impls.values():
                assert impl.format_rows(rows) == want
    assert impls["compiled"].format_rows(np.array([[info.min]])) == (
        "-9223372036854775808\n"
    )
