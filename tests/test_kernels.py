import math
import platform
import shutil
import subprocess
import sys
import sysconfig
import time
from collections import Counter
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest

from dyadicproj import _core, _core_py, kernels
from dyadicproj.grid import GridPointSet
from dyadicproj.kernels import backend_name, coincidence_count, riesz_pair_sum
from dyadicproj.projection import Plane, project_points

from conftest import ROOT, bin_side_oracle, build_kernels, pair_energy_oracle


@pytest.mark.parametrize("pure,warns", [("", True), ("1", False)])
def test_missing_library_warns_at_import(tmp_path, pure, warns):
    src = Path(_core.__file__).parent
    shutil.copytree(src, tmp_path / "dyadicproj", ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    env = {"PATH": "", "PYTHONPATH": str(tmp_path), "DYADICPROJ_PURE_PYTHON": pure}
    code = "from dyadicproj import kernels; print(kernels.backend_name())"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["python"]
    assert ("RuntimeWarning" in proc.stderr) == warns


def test_library_without_row_codec_counts_as_not_built(tmp_path):
    # a library built from an older _ckernels.c: only the two pair kernels
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build the stub library")
    (tmp_path / "stub.c").write_text(
        "long long pair_count(const double *x, long long n, long long m, double d)"
        " { return 0; }\n"
        "int riesz_row_sums(const double *p, long long n, long long m, int k, double *o)"
        " { return 0; }\n"
    )
    stub = tmp_path / "stub.so"
    subprocess.run([cc, "-shared", "-fPIC", "-o", str(stub), str(tmp_path / "stub.c")],
                   check=True, capture_output=True, timeout=60)
    assert _core.load(stub) is None
    src = Path(_core.__file__).parent
    shutil.copytree(src, tmp_path / "dyadicproj", ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    shutil.copy(stub, tmp_path / "dyadicproj" / f"_ckernels{EXTENSION_SUFFIXES[0]}")
    env = {"PATH": "", "PYTHONPATH": str(tmp_path), "DYADICPROJ_PURE_PYTHON": ""}
    code = "from dyadicproj import kernels; print(kernels.backend_name())"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["python"]
    assert "RuntimeWarning: dyadicproj: compiled pair kernels not built" in proc.stderr


def test_library_without_bin_profile_counts_as_not_built(tmp_path):
    # a library built before the m = 1 bin profile was compiled
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build the stub library")
    (tmp_path / "stub.c").write_text(
        "".join(f"int {name}(void) {{ return 0; }}\n"
                for name in _core._SYMBOLS if name != "bin_profile")
    )
    stub = tmp_path / "stub.so"
    subprocess.run([cc, "-shared", "-fPIC", "-o", str(stub), str(tmp_path / "stub.c")],
                   check=True, capture_output=True, timeout=60)
    assert _core.load(stub) is None


def test_backend_reports_a_name():
    assert backend_name() in ("compiled", "python")


def _lattice_centers(rng, dim: int, n: int) -> np.ndarray:
    """Centres of n distinct cells of the coarsest grid with room for 2n, so
    that distances repeat heavily."""
    level = max(1, math.ceil(math.log2(2 * n) / dim))
    flat = rng.choice(1 << (level * dim), size=n, replace=False)
    cells = np.stack(np.unravel_index(flat, (1 << level,) * dim), axis=1)
    return GridPointSet(dim, level, cells).centers()


RIESZ_DIMS = [1, 2, 3, 4, 8]


def _riesz_cases(dim: int):
    """(points, power) for every power up to dim: lattice centres of sizes
    around the C lane width (8) and rows about 2048 long; uniform points,
    whose squares round, so a fused multiply-add would change the sums; and
    a repeated point, whose zero distance makes the first row inf."""
    rng = np.random.default_rng(70 + dim)
    sets = [_lattice_centers(rng, dim, n) for n in (2, 7, 8, 9, 2047, 2048, 2049)]
    sets += [rng.random((n, dim)) for n in (9, 2049)]
    sets.append(np.array([[0.0] * dim, [0.0] * dim, [1.0] * dim]))
    for pts in sets:
        for power in range(1, dim + 1):
            yield pts, power


@pytest.mark.parametrize("dim", RIESZ_DIMS)
def test_backends_agree_on_riesz_exactly(impls, dim, monkeypatch):
    for pts, power in _riesz_cases(dim):
        rows = [impl.riesz_row_sums(pts, power) for impl in impls.values()]
        assert np.array_equal(rows[0], rows[1])
        assert rows[0][-1] == 0.0
        if len(pts) < 100:
            for impl in impls.values():
                monkeypatch.setattr(kernels, "_active", impl)
                assert riesz_pair_sum(pts, power) == 2.0 * math.fsum(rows[0])


_CLONES = 'target_clones("avx512f", "avx2", "default")'


def _cpu_flags() -> set[str]:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return {f for line in lines if line.startswith("flags") for f in line.split(":", 1)[1].split()}


@pytest.fixture(scope="module")
def riesz_reference():
    """The fallback's rows on every input of _riesz_cases."""
    return [(pts, power, _core_py.riesz_row_sums(pts, power))
            for dim in RIESZ_DIMS for pts, power in _riesz_cases(dim)]


@pytest.fixture(scope="module")
def count_reference():
    """The fallback's counts on every input of _count_cases, m = 1, 2, 3."""
    return [(x, delta, _core_py.pair_count(x, delta))
            for m in (1, 2, 3) for x, delta in _count_cases(m)]


@pytest.mark.skipif(platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc",
                    reason="the clones are built on x86-64 with glibc only")
@pytest.mark.parametrize("target", ["avx512f", "avx2", "default"])
def test_every_riesz_clone_matches_the_fallback(tmp_path, target, riesz_reference, count_reference):
    # a library runs only the clone its CPU dispatches to, so build a copy of
    # _ckernels.c with the one target in place of the clone list, through
    # setup.py and its flags, for each target this CPU runs; the copy's
    # Riesz rows, pair counts (the m = 1 window is cloned too) and m = 1
    # bin profiles must be the fallback's
    if target != "default" and target not in _cpu_flags():
        pytest.skip(f"this CPU does not run {target}")
    text = (ROOT / "src" / "dyadicproj" / "_ckernels.c").read_text()
    assert text.count(_CLONES) == 1
    (tmp_path / "src" / "dyadicproj").mkdir(parents=True)
    (tmp_path / "src" / "dyadicproj" / "_ckernels.c").write_text(text.replace(_CLONES, f'target("{target}")'))
    shutil.copy(ROOT / "setup.py", tmp_path)
    clone = build_kernels(tmp_path, tmp_path)
    for pts, power, want in riesz_reference:
        assert np.array_equal(clone.riesz_row_sums(pts, power), want)
    for x, delta, want in count_reference:
        assert clone.pair_count(x, delta) == want
    for z, scale, delta in _profile_cases():
        for kappa in range(1, len(z) + 1):
            want = _core_py.bin_profile(z[:, None], scale, delta, kappa)
            assert clone.bin_profile(z[:, None], scale, delta, kappa) == want


def riesz_oracle(pts: np.ndarray, power: int) -> float:
    """Each row i summed in order over j > i, term by term in plain Python
    floats, then twice the exactly rounded sum of the rows."""
    rows = []
    pts = pts.tolist()
    for i, x in enumerate(pts):
        row = 0.0
        for y in pts[i + 1 :]:
            acc = 0.0
            for a, b in zip(x, y):
                d = a - b
                acc += d * d
            r = math.sqrt(acc)
            term = 1.0
            for _ in range(power):
                term /= r
            row += term
        rows.append(row)
    return 2.0 * math.fsum(rows)


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_riesz_matches_in_order_oracle(impls, dim, monkeypatch):
    rng = np.random.default_rng(90 + dim)
    for n in (2, 9, 40):
        for pts in (rng.random((n, dim)), _lattice_centers(rng, dim, n)):
            for power in sorted({1, 2, dim}):
                want = riesz_oracle(pts, power)
                for impl in impls.values():
                    monkeypatch.setattr(kernels, "_active", impl)
                    assert riesz_pair_sum(pts, power) == want


def test_riesz_dimension_limit(impls, monkeypatch):
    pts = np.random.default_rng(3).random((5, 9))
    for impl in impls.values():
        monkeypatch.setattr(kernels, "_active", impl)
        with pytest.raises(ValueError, match="coordinates"):
            riesz_pair_sum(pts, 1)
    with pytest.raises(ValueError, match="coordinates"):
        impls["compiled"].riesz_row_sums(pts, 1)


def test_coincidence_count_refuses_arrays_without_columns():
    for coords in (np.zeros((3, 0)), np.zeros((0, 0)), np.zeros(3)):
        with pytest.raises(ValueError, match="2-D array"):
            coincidence_count(coords, 0.1)


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_coincidence_count_refuses_delta_outside_its_range(impls, backend, monkeypatch):
    # unchecked, a NaN delta counts every pair compiled and only the diagonal
    # on the fallback; the fallback's slab bounds need a finite delta >= 0
    monkeypatch.setattr(kernels, "_active", impls[backend])
    pts = np.random.default_rng(3).random((50, 2))
    for delta in (-0.1, -math.inf, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta must be finite and >= 0"):
            coincidence_count(pts, delta)
    assert coincidence_count(pts, 0.0) == coincidence_count(pts, -0.0) == 50


@pytest.mark.parametrize("m", [1, 2])
def test_sort_by_first_coordinate_once(rng, m):
    x = rng.random((50, m))
    given = x.copy()
    ordered = kernels._sorted_rows(x)
    assert ordered is not x and (np.diff(ordered[:, 0]) >= 0).all()
    assert sorted(map(tuple, ordered)) == sorted(map(tuple, x))
    # an ordered array comes back as itself, so it is not sorted again
    assert kernels._sorted_rows(ordered) is ordered
    # the input itself is never reordered
    assert np.array_equal(x, given)


def test_dispatcher_counts_match_brute_force():
    rng = np.random.default_rng(8)
    for m in (1, 2):
        pts = rng.random((60, m))
        delta = 0.1
        brute = sum(
            1
            for i in range(60)
            for j in range(60)
            if np.linalg.norm(pts[i] - pts[j]) <= delta
        )
        assert coincidence_count(pts, delta) == brute


def test_dispatcher_riesz_matches_brute_force():
    rng = np.random.default_rng(9)
    pts = rng.random((40, 2))
    brute = sum(
        1.0 / np.linalg.norm(pts[i] - pts[j])
        for i in range(40)
        for j in range(40)
        if i != j
    )
    assert riesz_pair_sum(pts, 1) == pytest.approx(brute, rel=1e-10)


_R2 = np.sqrt(0.5)
_R3 = np.sqrt(1.0 / 3.0)
# axis-aligned, diagonal and 3-4-5 frames: grid centres project onto
# lattices whose spacings tie exactly with multiples of the grid scale
TIE_FRAMES = {
    (2, 1): [[[1, 0]], [[0, 1]], [[_R2, _R2]], [[_R2, -_R2]], [[0.6, 0.8]], [[0.8, -0.6]]],
    (3, 1): [[[1, 0, 0]], [[_R2, 0, _R2]], [[_R3, _R3, _R3]], [[0, 0.6, 0.8]]],
    (3, 2): [
        [[1, 0, 0], [0, 1, 0]],
        [[_R2, _R2, 0], [0, 0, 1]],
        [[_R2, -_R2, 0], [_R3, _R3, _R3]],
        [[0.6, 0.8, 0], [0, 0, 1]],
        [[0.6, 0.8, 0], [-0.8, 0.6, 0]],
    ],
}
TIE_SCALES = (0.5, 1.0, np.sqrt(2.0), 1.2, 2.0, 2.5)


def _by_first(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x[np.argsort(x[:, 0], kind="stable")])


def _cell_side(centers: np.ndarray) -> float:
    return float(np.diff(np.unique(centers[:, 0])).min())


# K and BLOCK of _ckernels.c: for m = 1 the compiled count first takes each
# row's next K rows, BLOCK rows at a time
WINDOW, BLOCK = 16, 1024


def _first_axis(z: np.ndarray, m: int) -> np.ndarray:
    """Rows with first coordinates z and every other coordinate 0."""
    x = np.zeros((len(z), m))
    x[:, 0] = z
    return x


def _count_cases(m: int):
    """(rows sorted by the first coordinate, delta): random sets, one of them
    with slabs wider than _core_py._PAIR_CHUNK pairs in all, a knife edge,
    the ends of the float range, the edges of the compiled m = 1 window, and
    lattice centres of 2,000-4,000 cells on the tie frames (for m = 3, the
    centres themselves)."""
    rng = np.random.default_rng(5 + m)
    for _ in range(10):
        pts = rng.random((int(rng.integers(1, 400)), m))
        yield _by_first(pts), float(rng.uniform(0.001, 0.4))
    # more candidate pairs than one chunk of the numpy sweep
    yield _by_first(rng.random((1600, m))), 0.9
    # exact duplicates and points exactly delta apart; for m > 1 the last
    # point is in its neighbour's slab but too far off the first axis
    edge = np.zeros((5, m))
    edge[:, 0] = [0.25, 0.25, 0.25, 0.5, 0.75]
    edge[4, -1] += 0.25 * (m > 1)
    yield edge, 0.25
    # squares that underflow to 0, so pairs 2^-560 apart are close at
    # delta = 0; and a delta whose square overflows, so every pair is close
    tiny = _by_first(rng.integers(-3, 4, size=(40, m)) * 2.0**-560)
    yield tiny, 0.0
    yield tiny, 2.0**-545
    yield _by_first(rng.integers(-3, 4, size=(40, m)) * 1e170), 1e155
    # squares that overflow while delta^2 is finite: in the second
    # coordinate, or for m = 1 in the first, within the slack of the slab end
    if m == 1:
        yield np.array([[1e300], [1e300 * (1 + 2.0**-45)]]), 1.0
    else:
        far = np.zeros((3, m))
        far[:, 0], far[:, 1] = [0.0, 0.5, 0.7], [0.0, 1e170, -1e170]
        yield far, 1.0
    # sizes around the window and the block, with slabs near WINDOW rows wide
    for n in (1, WINDOW, WINDOW + 1, WINDOW + 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
        z = np.sort(rng.random(n))
        yield _first_axis(z, m), WINDOW / n
        yield _first_axis(z, m), WINDOW / (2 * n)
    # equally spaced rows with slabs exactly WINDOW - 1, WINDOW and WINDOW + 1
    # wide, each one row narrower at the delta just below; the spacing 0.1
    # rounds, so there the widths vary from row to row
    for h in (2.0**-10, 0.1):
        z = np.arange(100) * h
        for w in (WINDOW - 1, WINDOW, WINDOW + 1):
            for delta in (w * h, np.nextafter(w * h, 0.0), np.nextafter(w * h, 1.0)):
                yield _first_axis(z, m), float(delta)
    # one run of equal rows longer than a block: every pair is close
    yield _first_axis(np.full(BLOCK + 500, 0.5), m), 0.0
    # rows whose slabs exceed the window throughout, and a run of 61 equal
    # rows at the first block edge: the sweep carries hi across block edges
    h = 2.0**-10
    yield _first_axis(np.arange(2 * BLOCK + 100) * h, m), (WINDOW + 4) * h
    z = np.concatenate([np.arange(1000), np.full(61, 1000), np.arange(1001, 2001)]) * h
    yield _first_axis(z, m), 2 * h
    frames = [(dim, f) for (dim, k), fs in TIE_FRAMES.items() if k == m for f in fs]
    for dim, frame in frames or [(3, np.eye(3))]:
        centers = _lattice_centers(rng, dim, int(rng.integers(2000, 4001)))
        coords = _by_first(centers @ np.array(frame, dtype=float).T)
        scale = float(rng.choice(TIE_SCALES)) * _cell_side(centers)
        for delta in (scale, np.nextafter(scale, 0.0), np.nextafter(scale, 1.0)):
            yield coords, float(delta)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_backends_agree_on_pair_counts(impls, m):
    for x, delta in _count_cases(m):
        got = {int(impl.pair_count(x, delta)) for impl in impls.values()}
        assert len(got) == 1
        if len(x) <= 400:
            assert got == {pair_energy_oracle(x, delta)}
        elif (x == x[0]).all():
            assert got == {len(x) ** 2}


@pytest.mark.parametrize("backend,delta", [
    pytest.param(b, d, id=b + suffix)
    for d, suffix in ((2.0**-10, ""), (0.0, "-delta0"))
    for b in ("python", "compiled")
])
def test_one_slab_of_every_row_counts_in_linear_time(impls, backend, delta):
    # every row of an m = 1 run of equal rows is past the compiled window, and
    # each continues the sweep from where the last one stopped; restarted at
    # each row, the sweep would take n^2 / 2 steps, seconds at this n.  The
    # fallback counts these pairs without a test: equal rows are close at every
    # delta >= 0, so at delta = 0 too, where delta - slack is below every row
    x = np.full((1 << 17, 1), 0.25)
    start = time.perf_counter()
    assert impls[backend].pair_count(x, delta) == len(x) ** 2
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("dim,m", [(2, 1), (3, 2)])
def test_count_ignores_order_of_first_coordinate_ties(impls, dim, m, monkeypatch):
    rng = np.random.default_rng(40 + dim)
    frame = np.array(TIE_FRAMES[dim, m][1], dtype=float)
    centers = _lattice_centers(rng, dim, 2000)
    coords = centers @ frame.T
    delta = np.sqrt(2.0) * _cell_side(centers)
    for impl in impls.values():
        monkeypatch.setattr(kernels, "_active", impl)
        want = coincidence_count(coords, delta)
        for _ in range(5):
            # random order within each run of equal first coordinates
            tied = np.lexsort((rng.random(len(coords)), coords[:, 0]))
            assert impl.pair_count(np.ascontiguousarray(coords[tied]), delta) == want
            assert coincidence_count(coords[rng.permutation(len(coords))], delta) == want


@pytest.mark.parametrize("dim,m", sorted(TIE_FRAMES))
def test_tie_heavy_frames_count_symmetrically(impls, dim, m, monkeypatch):
    rng = np.random.default_rng(10 * dim + m)
    for trial in range(60):
        level = int(rng.integers(1, 4))
        cells = rng.integers(0, 1 << level, size=(int(rng.integers(1, 30)), dim))
        P = GridPointSet.from_cells(dim, level, cells)
        for frame in TIE_FRAMES[dim, m]:
            coords = project_points(Plane(dim, m, np.array(frame, dtype=float)), P)
            scale = TIE_SCALES[trial % len(TIE_SCALES)] * P.delta
            for delta in (scale, np.nextafter(scale, 0.0), np.nextafter(scale, 1.0)):
                want = pair_energy_oracle(coords, delta)
                for impl in impls.values():
                    monkeypatch.setattr(kernels, "_active", impl)
                    got = coincidence_count(coords, delta)
                    assert (got - len(P)) % 2 == 0
                    assert got == want


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_non_finite_rows_are_refused(impls, backend, monkeypatch):
    # unchecked, 20 rows at 0.1 and one NaN row at delta = 0.5 counted 409
    # compiled and 401 on the fallback
    monkeypatch.setattr(kernels, "_active", impls[backend])
    for bad in (math.nan, math.inf, -math.inf):
        x = np.append(np.full(20, 0.1), bad)[:, None]
        for rows in (x, x[::-1], x[:1] * 0 + bad):
            with pytest.raises(ValueError, match="coords must be finite"):
                coincidence_count(rows, 0.5)
            with pytest.raises(ValueError, match="coords must be finite"):
                kernels.bin_profile(rows, 0.5, 1)
        for column in (0, 1):
            y = np.full((21, 2), 0.1)
            y[7, column] = bad
            with pytest.raises(ValueError, match="coords must be finite"):
                coincidence_count(y, 0.5)
            with pytest.raises(ValueError, match="coords must be finite"):
                kernels.bin_profile(y, 0.5, 1)
    assert coincidence_count(np.full((20, 1), 0.1), 0.5) == 400


def _profile_oracle(x, scale: float, delta: float) -> tuple[int, list[int]]:
    """The bin profile of rows x (N, m) in plain Python floats: the points
    near a face, where a point is near when one of its coordinates is by the
    near test as the backends form it, and the fewest bins holding kappa
    points at index kappa - 1, the fullest bins taken first."""
    near, bins = 0, Counter()
    for row in x.tolist():
        scaled = [c * scale for c in row]
        fracs = [c - math.floor(c) for c in scaled]
        near += any(min(f, 1.0 - f) / scale < 1e-9 * delta for f in fracs)
        bins[tuple(math.floor(c) for c in scaled)] += 1
    fewest = []
    for used, c in enumerate(sorted(bins.values(), reverse=True), 1):
        fewest += [used] * c
    return near, fewest


def _profile_cases():
    """(sorted coordinates, scale, delta) for the m = 1 bin profile."""
    rng = np.random.default_rng(61)
    for scale, delta in ((1.0, 1.0), (8.0, 0.125), (1024.0, 2.0**-10), (2.0**20, 3e-6)):
        tol = 1e-9 * delta
        faces = np.arange(-3, 4) / scale
        # on the faces, within tol of them, and at tol and its neighbours
        offsets = [0.0, tol / 2, tol, 2 * tol, np.nextafter(tol, 0.0), np.nextafter(tol, 1.0)]
        offsets += [-o for o in offsets] + [np.nextafter(0.0, 1.0), 0.5 / scale]
        near_faces = (faces[:, None] + np.array(offsets)[None, :]).ravel()
        yield np.sort(np.concatenate([near_faces, [tol, -tol]])), scale, delta
        yield np.sort(rng.uniform(-1, 1, 300)), scale, delta
        # one bin, and every bin distinct
        yield np.sort(rng.uniform(0.25, 0.75, 40)) / scale, scale, delta
        yield (np.arange(40) + 0.5) / scale, scale, delta
        yield np.array([0.3 / scale]), scale, delta
        # runs of 3, 3, 3, 2, 2 and 1: equal run lengths at the kappa boundary
        runs = np.repeat(np.arange(6), [3, 2, 3, 1, 3, 2]) + 0.5
        yield np.sort(runs + rng.uniform(-0.4, 0.4, len(runs))) / scale, scale, delta


def _plane_profile_cases():
    """(rows sorted by the first coordinate, scale, delta) for m = 2 and 3,
    from each _profile_cases column: in the last column with plain values,
    0.3 of a bin above a face at scale, scale / 2 and 2 * scale, in the
    others; and in every column, each its own shuffle."""
    rng = np.random.default_rng(62)
    for z, scale, delta in _profile_cases():
        for m in (2, 3):
            plain = (rng.integers(-2, 2, (len(z), m - 1)) + 0.3) / scale
            shuffled = [rng.permutation(z) for _ in range(m)]
            for x in (np.column_stack([plain, z]), np.column_stack(shuffled)):
                yield x[np.argsort(x[:, 0], kind="stable")], scale, delta


def test_backends_agree_on_bin_profiles(impls):
    for z, scale, delta in _profile_cases():
        near, fewest = _profile_oracle(z[:, None], scale, delta)
        derived = 1.0 / bin_side_oracle(1, delta)
        derived_near, derived_fewest = _profile_oracle(z[:, None], derived, delta)
        for kappa in range(1, len(z) + 1):
            for impl in impls.values():
                assert impl.bin_profile(z[:, None], scale, delta, kappa) == (near, fewest[kappa - 1])
            got = kernels.bin_profile(z[::-1, None], delta, kappa)
            assert got == (derived_near, derived_fewest[kappa - 1])


def test_bin_profiles_of_planes(impls, monkeypatch):
    for x, scale, delta in _plane_profile_cases():
        near, fewest = _profile_oracle(x, scale, delta)
        derived = 1.0 / bin_side_oracle(x.shape[1], delta)
        derived_near, derived_fewest = _profile_oracle(x, derived, delta)
        for kappa in range(1, len(x) + 1):
            assert _core_py.bin_profile(x, scale, delta, kappa) == (near, fewest[kappa - 1])
            for impl in impls.values():
                monkeypatch.setattr(kernels, "_active", impl)
                got = kernels.bin_profile(x[::-1], delta, kappa)
                assert got == (derived_near, derived_fewest[kappa - 1])


def test_bin_profile_refuses_kappa_outside_the_points():
    for kappa in (0, 4):
        with pytest.raises(ValueError, match="kappa"):
            kernels.bin_profile(np.zeros((3, 1)), 1.0, kappa)
    for coords in (np.zeros(3), np.zeros((3, 0))):
        with pytest.raises(ValueError, match="2-D array"):
            kernels.bin_profile(coords, 1.0, 1)


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_bin_profile_refuses_delta_and_kappa_outside_their_range(impls, backend, monkeypatch):
    # unchecked, delta = 0 divided by zero, a negative or infinite delta hit a
    # math domain error, NaN failed to become an integer, 1e-320 overflowed
    # the scale, and kappa = 1.5 ran as 1
    monkeypatch.setattr(kernels, "_active", impls[backend])
    rows = np.full((3, 1), 0.1)
    for delta in (0.0, -0.0, -0.1, math.nan, math.inf, -math.inf, 1e-320):
        with pytest.raises(ValueError, match="delta"):
            kernels.bin_profile(rows, delta, 1)
    with pytest.raises(ValueError, match="kappa"):
        kernels.bin_profile(rows, 0.5, 1.5)
    # the least delta is sqrt(m) * 2^-1023, where the scale is 2^1023
    for m in (1, 2, 3):
        least = math.sqrt(m) * 2.0**-1023
        assert kernels.bin_profile(np.zeros((3, m)), least, 3) == (3, 1)
        with pytest.raises(ValueError, match="delta"):
            kernels.bin_profile(np.zeros((3, m)), np.nextafter(least, 0.0), 1)


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_bin_profile_refuses_rows_whose_bins_overflow(impls, backend, monkeypatch):
    # unchecked, x * scale was inf for both rows of the first case, one bin
    # for two points 1e300 apart: (0, 1)
    monkeypatch.setattr(kernels, "_active", impls[backend])
    for rows in ([[1e300], [2e300]], [[1e300, 0.0], [2e300, 0.0]], [[0.0, -2e300], [1.0, 0.0]]):
        with pytest.raises(ValueError, match="overflow"):
            kernels.bin_profile(np.array(rows), 1e-300, 1)
    # at delta = 1e-300 the scale is 2^997, and the largest |x| that bins is
    # the largest float over it
    largest = sys.float_info.max / 2.0**997
    assert kernels.bin_profile(np.array([[-largest], [0.0], [largest]]), 1e-300, 3) == (3, 3)
    with pytest.raises(ValueError, match="overflow"):
        kernels.bin_profile(np.array([[0.0], [np.nextafter(largest, math.inf)]]), 1e-300, 1)


def test_python_backend_explicit(monkeypatch):
    monkeypatch.setattr(kernels, "_active", _core_py)
    pts = np.array([[0.1], [0.2], [0.9]])
    assert coincidence_count(pts, 0.15) == 5
