import dataclasses
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from dyadicproj.fractals import (
    CantorPattern,
    gen_cantor_product,
    gen_degenerate,
    gen_random_tree_set,
)
from dyadicproj import kernels, projection
from dyadicproj.grid import GridPointSet, coarsen
from dyadicproj.projection import (
    Plane,
    ScaleRecord,
    _derived_seed,
    _over_budget,
    _subset_size,
    classify_direction,
    coincidence_probability_exact,
    direction_scan,
    haar_sample,
    min_projection_cover,
    multiscale_scan,
    project_points,
    read_summary,
    riesz_sum,
    summary_line,
    write_scan_report,
    write_summary,
)

from conftest import (
    bin_counts_oracle,
    coincidence_probability_mc,
    min_bins_oracle,
    near_boundary_oracle,
    pair_energy_oracle,
    random_subset,
)

CANTOR2 = CantorPattern(4, ((0, 3), (0, 3)))

# m-frames in R^(m+1): "axis" puts every center on a bin face at
# delta = P.delta / 2; "3-4-5" puts some of them there, up to rounding
FRAMES = {
    "axis": {
        1: [[1.0, 0.0]],
        2: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        3: [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
    },
    "3-4-5": {
        1: [[0.6, 0.8]],
        2: [[0.6, 0.8, 0.0], [0.48, -0.36, 0.8]],
        3: [[0.6, 0.8, 0.0, 0.0], [-0.8, 0.6, 0.0, 0.0], [0.0, 0.0, 0.6, 0.8]],
    },
}


def named_plane(frame: str, m: int, rng) -> Plane:
    """An m-plane in R^(m+1): one of FRAMES, or a Haar draw for "haar"."""
    if frame == "haar":
        return haar_sample(m + 1, m, rng)
    return Plane(m + 1, m, np.array(FRAMES[frame][m]))


def greedy_cover(counts: list[int], kappa: int) -> int:
    """Fewest bins reaching kappa, taking the fullest bins first."""
    filled = 0
    for used, c in enumerate(sorted(counts, reverse=True), 1):
        filled += c
        if filled >= kappa:
            return used
    raise ValueError("kappa exceeds the number of points")


class TestPlane:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            Plane(2, 1, np.array([[1.0, 1.0]]))
        Plane(2, 1, np.array([[1.0, 0.0]]))

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            Plane(2, 2, np.eye(2))

    def test_equality_by_value(self):
        V = haar_sample(3, 2, np.random.default_rng(1))
        assert V == haar_sample(3, 2, np.random.default_rng(1)) and not V != V
        assert V != haar_sample(3, 2, np.random.default_rng(2))
        assert Plane(2, 1, np.array([[1.0, 0.0]])) != Plane(2, 1, np.array([[0.0, 1.0]]))
        assert V != (V.n, V.m, V.frame)


class TestHaarSample:
    def test_unit_norm_n2(self, rng):
        V = haar_sample(2, 1, rng)
        assert abs(np.linalg.norm(V.frame[0]) - 1.0) < 1e-12

    def test_gram_identity_n3m2(self, rng):
        V = haar_sample(3, 2, rng)
        gram = V.frame @ V.frame.T
        assert np.abs(gram - np.eye(2)).max() < 1e-12

    def test_rotation_invariance_moment(self, rng):
        # E <e, x>^2 = 1/n for fixed unit x
        x = np.array([1.0, 0.0])
        vals = [float(haar_sample(2, 1, rng).frame[0] @ x) ** 2 for _ in range(4000)]
        assert abs(np.mean(vals) - 0.5) < 0.03

    def test_sign_convention(self, rng):
        for _ in range(20):
            V = haar_sample(3, 2, rng)
            for row in V.frame:
                nz = row[row != 0.0]
                assert nz[0] > 0


class _RankDeficientFirst:
    """A generator whose first Gaussian draw is all zeros, then the stream of
    `rng`."""

    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    def standard_normal(self, shape):
        self.draws += 1
        return np.zeros(shape) if self.draws == 1 else self.rng.standard_normal(shape)


def haar_frame_oracle(n: int, m: int, rng) -> np.ndarray:
    """One QR of one (n, m) draw, redrawn while rank-deficient, and each
    frame row's sign set by its first nonzero entry, row by row."""
    while True:
        q, r = np.linalg.qr(rng.standard_normal((n, m)))
        if np.abs(np.diagonal(r)).min() > 1e-12:
            break
    frame = np.ascontiguousarray(q.T)
    for row in frame:
        nz = np.flatnonzero(row != 0.0)
        if nz.size and row[nz[0]] < 0.0:
            row *= -1.0
    return frame


class TestBatchedDraw:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_frames_equal_haar_sample(self, n):
        for m in range(1, n):
            streams = [_derived_seed(n, i)[0] for i in range(40)]
            planes = projection._haar_planes(n, m, [np.random.default_rng(ss) for ss in streams])
            for ss, V in zip(streams, planes):
                want = haar_sample(n, m, np.random.default_rng(ss)).frame
                assert V.frame.tobytes() == want.tobytes()
                oracle = haar_frame_oracle(n, m, np.random.default_rng(ss))
                assert want.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (5, 3)])
    def test_rank_deficient_draw_is_redrawn_from_its_stream(self, n, m):
        def rngs():
            out = [np.random.default_rng(i) for i in range(4)]
            out[1] = _RankDeficientFirst(out[1])
            return out

        batched = projection._haar_planes(n, m, rngs())
        alone = [haar_sample(n, m, rng) for rng in rngs()]
        assert [V.frame.tobytes() for V in batched] == [V.frame.tobytes() for V in alone]
        assert [V.frame.tobytes() for V in batched] == [
            haar_frame_oracle(n, m, rng).tobytes() for rng in rngs()
        ]
        stub = rngs()[1]
        projection._haar_planes(n, m, [stub])
        assert stub.draws == 2

    def test_dimensions_checked_before_drawing(self):
        rng = np.random.default_rng(0)
        for n, m in ((2, 2), (3, 0)):
            with pytest.raises(ValueError, match="0 < m < n"):
                haar_sample(n, m, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_scan_records_equal_per_direction_oracle(self, impls, monkeypatch, backend, workers):
        # each direction drawn alone by haar_sample on its own stream and
        # classified alone gives the scan's record, across draw blocks too
        monkeypatch.setattr(kernels, "_active", impls[backend])
        monkeypatch.setattr(projection, "_DRAW_BLOCK", 7)
        cases = ((1, gen_random_tree_set(2, 1.2, 7, seed=3)),
                 (2, gen_random_tree_set(3, 2.0, 4, seed=2)))
        for m, P in cases:
            rep = direction_scan(
                P, s=1.0, eps=0.1, num_samples=24, master_seed=8, m=m, workers=workers
            )
            for i, r in enumerate(rep.per_direction):
                ss, seed = _derived_seed(8, i)
                V = haar_sample(P.dim, m, np.random.default_rng(ss))
                c = classify_direction(P, V, 1.0, 0.1, rep.kappa)
                assert (r.index, r.seed, r.frame.tobytes()) == (i, seed, V.frame.tobytes())
                assert (r.label, r.energy, r.min_cover, r.n_boundary) == (
                    c.label, c.energy, c.min_cover, c.n_boundary
                )


class TestProjectPoints:
    def test_axis_aligned(self):
        P = GridPointSet.from_cells(2, 2, [(0, 3), (2, 1)])
        V = Plane(2, 1, np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(project_points(V, P).ravel(), [0.125, 0.625])

    def test_exact_inner_product(self, rng):
        P = GridPointSet.from_cells(2, 3, [(0, 0)])
        V = haar_sample(2, 1, rng)
        want = V.frame[0] @ np.array([1 / 16, 1 / 16])
        assert project_points(V, P)[0, 0] == want

    def test_lipschitz(self, rng):
        P = random_subset(rng, 2, 4)
        for _ in range(20):
            V = haar_sample(2, 1, rng)
            coords = project_points(V, P)
            centers = P.centers()
            i, j = rng.integers(0, len(P), size=2)
            assert np.linalg.norm(coords[i] - coords[j]) <= (
                np.linalg.norm(centers[i] - centers[j]) + 1e-12
            )

    def test_dimension_mismatch(self, rng):
        P = random_subset(rng, 2, 3)
        V = haar_sample(3, 1, rng)
        with pytest.raises(ValueError):
            project_points(V, P)


class TestPairEnergy:
    def test_total_collapse(self):
        P = gen_degenerate("line", n=2, level=4)
        V = Plane(2, 1, np.array([[0.0, 1.0]]))
        assert kernels.coincidence_count(project_points(V, P), P.delta) == len(P) ** 2

    def test_spacing_two_delta(self):
        # three points at projected spacing 2*delta: diagonal only
        P = GridPointSet.from_cells(2, 4, [(0, 0), (2, 0), (4, 0)])
        V = Plane(2, 1, np.array([[1.0, 0.0]]))
        assert kernels.coincidence_count(project_points(V, P), P.delta) == 3

    def test_matches_oracle(self, rng):
        for _ in range(10):
            P = random_subset(rng, 2, 3)
            V = haar_sample(2, 1, rng)
            delta = float(rng.uniform(0.01, 0.5))
            coords = project_points(V, P)
            assert kernels.coincidence_count(coords, delta) == pair_energy_oracle(coords, delta)

    def test_split_into_strict_part_plus_diagonal(self, rng):
        for _ in range(10):
            P = random_subset(rng, 2, 3)
            V = haar_sample(2, 1, rng)
            coords = project_points(V, P)
            delta = float(rng.uniform(0.01, 0.3))
            strict = sum(
                1
                for i in range(len(P))
                for j in range(len(P))
                if i != j and np.linalg.norm(coords[i] - coords[j]) <= delta
            )
            assert kernels.coincidence_count(coords, delta) == strict + len(P)

    def test_m2_projection_energy(self, rng):
        P = random_subset(rng, 3, 2)
        V = haar_sample(3, 2, rng)
        delta = 0.2
        coords = project_points(V, P)
        assert kernels.coincidence_count(coords, delta) == pair_energy_oracle(coords, delta)


class TestRieszSum:
    def test_two_points_distance_one(self):
        # centers at 1/4 and 3/4 after placing at level 1: use explicit cells
        P = GridPointSet.from_cells(2, 1, [(0, 0), (1, 0)])
        got = riesz_sum(P, 1)
        assert got.value == pytest.approx(2.0 / 0.5, rel=1e-12)  # distance 1/2

    def test_four_collinear_closed_form(self):
        P = GridPointSet.from_cells(1, 4, [(0,), (1,), (2,), (3,)])
        h = 1.0 / 16
        got = riesz_sum(P, 1)
        assert got.value == pytest.approx((26.0 / 3.0) / h, rel=1e-12)
        assert got.value <= got.annuli_bound

    def test_annuli_bound_holds(self, rng):
        for _ in range(10):
            P = random_subset(rng, 2, 4)
            if len(P) < 2:
                continue
            for power in (1, 2):
                got = riesz_sum(P, power)
                assert got.value <= got.annuli_bound

    def test_cantor_product_power_law_budget(self):
        # the regular product set obeys the delta^(-m-s-3*eps) ceiling for
        # s = 1 <= m = 1 once its measured constant is within delta^-eps
        P = gen_cantor_product(CANTOR2, 5)
        delta, s, eps = P.delta, 1.0, 0.1
        from dyadicproj.regularity import minimal_spread_constant

        assert minimal_spread_constant(P, s) <= delta**-eps
        got = riesz_sum(P, 1)
        assert got.value <= got.annuli_bound
        assert got.value <= (2**P.dim) * delta ** (-1 - s - 3 * eps)

    def test_validation(self):
        P = GridPointSet.from_cells(1, 2, [(0,)])
        with pytest.raises(ValueError):
            riesz_sum(P, 1)


class TestMinProjectionCover:
    def test_kappa_one(self, rng):
        P = random_subset(rng, 2, 3)
        V = haar_sample(2, 1, rng)
        assert min_projection_cover(P, V, kappa=1) == 1

    def test_kappa_full_counts_every_occupied_bin(self):
        P = gen_degenerate("line", n=2, level=6)
        V = Plane(2, 1, np.array([[1.0, 0.0]]))
        assert min_projection_cover(P, V, kappa=len(P)) == len(P)

    def test_greedy_counts_5_3_2(self):
        # bins with counts [5, 3, 2]: seven points need two bins
        cells = [(i, 0) for i in range(5)] + [(8 + i, 0) for i in range(3)] + [(14, 0), (15, 0)]
        P = GridPointSet.from_cells(2, 4, cells)
        V = Plane(2, 1, np.array([[1.0, 0.0]]))
        # at delta = 1/4 the x-projections bin into counts [5, 3, 2]
        assert min_projection_cover(P, V, delta=0.25, kappa=7) == 2

    def test_matches_exhaustive_subsets(self, rng):
        for _ in range(40):
            P = random_subset(rng, 2, 2)  # at most 16 cells
            if len(P) > 12:
                continue
            V = haar_sample(2, 1, rng)
            kappa = int(rng.integers(1, len(P) + 1))
            delta = float(rng.uniform(0.05, 0.6))
            coords = project_points(V, P)
            scale = 2.0 ** math.ceil(math.log2(1.0 / delta) - 1e-12)
            bins = np.floor(coords * scale).astype(np.int64)
            _, counts = np.unique(bins, axis=0, return_counts=True)
            want = min_bins_oracle(counts.tolist(), kappa)
            assert min_projection_cover(P, V, delta, kappa) == want

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_exhaustive_subsets_planes(self, rng, m):
        for _ in range(30):
            P = random_subset(rng, m + 1, 2, 10)
            V = haar_sample(m + 1, m, rng)
            kappa = int(rng.integers(1, len(P) + 1))
            delta = float(rng.uniform(0.05, 0.6))
            counts = bin_counts_oracle(project_points(V, P), delta)
            want = min_bins_oracle(counts, kappa)
            assert min_projection_cover(P, V, delta, kappa) == want

    def test_kappa_validation(self, rng):
        P = random_subset(rng, 2, 2)
        V = haar_sample(2, 1, rng)
        with pytest.raises(ValueError):
            min_projection_cover(P, V, kappa=len(P) + 1)

    def test_cauchy_schwarz_chain(self, rng):
        for _ in range(15):
            P = random_subset(rng, 2, 3)
            V = haar_sample(2, 1, rng)
            kappa = int(rng.integers(1, len(P) + 1))
            cover = min_projection_cover(P, V, kappa=kappa)
            energy = kernels.coincidence_count(project_points(V, P), P.delta)
            assert energy >= kappa**2 / cover - 1e-9


class TestBinProfile:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("frame", ["axis", "3-4-5", "haar"])
    def test_matches_oracles(self, rng, m, frame):
        near = total = 0
        for _ in range(10):
            P = random_subset(rng, m + 1, 3, 10)
            V = named_plane(frame, m, rng)
            coords = project_points(V, P)
            for delta in (P.delta / 2, float(rng.uniform(0.02, 0.6))):
                kappa = int(rng.integers(1, len(P) + 1))
                n_boundary, cover = kernels.bin_profile(coords, delta, kappa)
                assert n_boundary == near_boundary_oracle(coords, delta)
                assert cover == min_projection_cover(P, V, delta, kappa)
                assert cover == min_bins_oracle(bin_counts_oracle(coords, delta), kappa)
            near += near_boundary_oracle(coords, P.delta / 2)
            total += len(P)
        if frame == "axis":
            assert near == total
        elif frame == "3-4-5":
            assert 0 < near < total

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("frame", ["axis", "3-4-5", "haar"])
    def test_every_kappa_on_larger_sets(self, rng, m, frame):
        P = gen_random_tree_set(m + 1, 1.6, 5, seed=m)
        V = named_plane(frame, m, rng)
        coords = project_points(V, P)
        for delta in (P.delta / 2, P.delta, 4 * P.delta):
            counts = bin_counts_oracle(coords, delta)
            for kappa in range(1, len(P) + 1, 7):
                n_boundary, cover = kernels.bin_profile(coords, delta, kappa)
                assert n_boundary == near_boundary_oracle(coords, delta)
                assert cover == greedy_cover(counts, kappa)

    @pytest.mark.parametrize("m", [1, 2])
    def test_scan_records_match_oracles(self, m, impls, monkeypatch):
        P = gen_random_tree_set(m + 1, 1.6, 4, seed=5)
        delta = P.delta
        for impl in impls.values():
            monkeypatch.setattr(kernels, "_active", impl)
            rep = direction_scan(P, s=1.0, eps=0.1, num_samples=12, master_seed=4, m=m)
            for r in rep.per_direction:
                coords = project_points(Plane(m + 1, m, r.frame), P)
                assert r.n_boundary == near_boundary_oracle(coords, delta)
                assert r.min_cover == greedy_cover(bin_counts_oracle(coords, delta), rep.kappa)
                assert r.energy == pair_energy_oracle(coords, delta)
                # Cauchy-Schwarz: the points of one bin are within delta
                assert rep.kappa**2 <= r.energy * r.min_cover


class TestClassifyDirection:
    def test_singleton_good(self):
        P = GridPointSet.from_cells(2, 10, [(5, 9)])
        V = Plane(2, 1, np.array([[1.0, 0.0]]))
        label, energy, threshold, min_cover, _ = classify_direction(P, V, 1.0, 0.1, kappa=1)
        assert label == "good" and energy == 1 and threshold > 1
        assert min_cover == 1

    def test_degenerate_line_bad(self):
        P = gen_degenerate("line", n=2, level=6)
        V = Plane(2, 1, np.array([[0.0, 1.0]]))
        label, energy, _, min_cover, _ = classify_direction(P, V, 1.0, 0.1, kappa=len(P))
        assert label == "bad" and energy == len(P) ** 2
        assert min_cover == 1  # every center projects into one bin

    def test_cantor_random_direction_good(self):
        P = gen_cantor_product(CANTOR2, 5)
        rng = np.random.default_rng(12345)
        V = haar_sample(2, 1, rng)
        kappa = math.ceil(P.delta ** (-1.0 + 0.1))
        label, energy, threshold, min_cover, _ = classify_direction(P, V, 1.0, 0.1, kappa)
        assert label == "good"
        # confirmed by the covering side of the dichotomy
        assert min_projection_cover(P, V, kappa=kappa) >= P.delta ** (-1.0 + 6 * 0.1)
        assert min_cover == min_projection_cover(P, V, kappa=kappa)

    def test_energy_at_exact_power_of_two_is_bad(self):
        # 512 cells (2k, 0) at level 10: on e1 the centers are 2 delta apart,
        # so E = 512 = 2^(10 * (2s + 4eps - min(s, 1))) at s = 0.5, eps = 0.1,
        # but the float threshold lies one ulp above it
        P = GridPointSet.from_cells(2, 10, [(2 * k, 0) for k in range(512)])
        V = Plane(2, 1, np.array([[1.0, 0.0]]))
        label, energy, threshold, _, _ = classify_direction(P, V, 0.5, 0.1, kappa=1)
        assert energy == 512 and repr(threshold) == "512.0000000000001"
        assert label == "bad"
        # E >= |P| = 512 in every direction, so every one is bad
        rep = direction_scan(P, s=0.5, eps=0.1, num_samples=8, master_seed=1)
        assert min(r.energy for r in rep.per_direction) == 512
        assert rep.bad_fraction == 1.0

    def test_label_matches_fraction_oracle(self):
        # bad iff E^q >= 2^(j*p) for p/q = 2s + 4eps - min(s, m) > 0, over
        # energies next to each threshold, ties included
        for s, eps, m in itertools.product(
            ("0.5", "1.0", "1.5"), ("0.05", "0.1", "0.25"), (1, 2)
        ):
            e = 2 * Fraction(s) + 4 * Fraction(eps) - min(Fraction(s), m)
            p, q = e.numerator, e.denominator
            for j in range(1, 13):
                _, exponent = projection._energy_threshold(j, float(s), float(eps), m)
                assert exponent == e
                t = int(2.0 ** (j * float(e)))
                for energy in range(max(1, t - 2), t + 3):
                    bad = projection._cmp_pow2(energy, j, exponent) >= 0
                    assert bad == (energy**q >= 2 ** (j * p)), (s, eps, m, j, energy)


class TestDirectionScan:
    def test_empty_scan(self):
        P = gen_cantor_product(CANTOR2, 2)
        rep = direction_scan(P, num_samples=0, master_seed=1)
        assert rep.per_direction == () and rep.bad_fraction == 0.0

    @pytest.mark.parametrize(
        "samples,s,eps,m,match",
        [(0, 5.0, 0.1, 1, "exponent"), (3, 5.0, 0.1, 1, "exponent"), (0, 1.0, 2.0, 1, "eps"),
         (0, 1.0, 0.0, 1, "eps"), (0, 1.0, 0.1, 5, "m=5"), (0, 1.0, 0.1, 0, "m=0")],
    )
    def test_parameters_checked_before_sampling(self, samples, s, eps, m, match):
        # a scan of no directions refuses what a scan of some would, and
        # s > n is refused as content and multiscan refuse it
        P = gen_cantor_product(CANTOR2, 2)
        with pytest.raises(ValueError, match=match):
            direction_scan(P, s=s, eps=eps, num_samples=samples, master_seed=1, m=m)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_refused(self, workers):
        # each ran serially; a scan of no directions refuses it too
        P = gen_cantor_product(CANTOR2, 2)
        for samples in (0, 4):
            with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
                direction_scan(P, num_samples=samples, master_seed=1, workers=workers)

    def test_n_bad_counts_the_bad_records(self):
        P = gen_cantor_product(CANTOR2, 4)
        rep = direction_scan(P, s=1.0, eps=0.05, num_samples=50, master_seed=3)
        assert rep.n_bad == sum(r.label == "bad" for r in rep.per_direction) > 0
        assert rep.bad_fraction == rep.n_bad / 50

    def test_reports_compare_by_value(self):
        P = gen_cantor_product(CANTOR2, 3)
        a = direction_scan(P, s=1.0, eps=0.1, num_samples=12, master_seed=9, workers=1)
        b = direction_scan(P, s=1.0, eps=0.1, num_samples=12, master_seed=9, workers=2)
        assert a == b and a.per_direction[0] == b.per_direction[0]
        assert a != direction_scan(P, s=1.0, eps=0.1, num_samples=12, master_seed=8)
        record = a.per_direction[0]
        assert record != dataclasses.replace(record, energy=record.energy + 1)
        assert record != dataclasses.replace(record, frame=-record.frame)

    def test_deterministic_across_workers(self, tmp_path):
        P = gen_cantor_product(CANTOR2, 3)
        a = direction_scan(P, s=1.0, eps=0.1, num_samples=32, master_seed=9, workers=1)
        b = direction_scan(P, s=1.0, eps=0.1, num_samples=32, master_seed=9, workers=8)
        assert [r.energy for r in a.per_direction] == [r.energy for r in b.per_direction]
        assert [r.seed for r in a.per_direction] == [r.seed for r in b.per_direction]
        assert a.bad_fraction == b.bad_fraction
        # the whole report, min_cover and boundary included
        for m, Q in ((1, P), (2, gen_random_tree_set(3, 1.5, 4, seed=2))):
            texts = []
            for workers in (1, 2):
                rep = direction_scan(
                    Q, s=1.0, eps=0.1, num_samples=32, master_seed=9, m=m, workers=workers
                )
                write_scan_report(rep, tmp_path / f"m{m}-w{workers}.txt")
                texts.append((tmp_path / f"m{m}-w{workers}.txt").read_text())
            assert texts[0] == texts[1]

    def test_report_identical_across_backends(self, impls, monkeypatch, tmp_path):
        # energy_bound included: both backends sum the Riesz terms in one order
        cases = ((1, gen_random_tree_set(2, 1.2, 7, seed=3)), (2, gen_random_tree_set(3, 2.0, 4, seed=2)))
        for m, P in cases:
            texts = set()
            for name, impl in impls.items():
                monkeypatch.setattr(kernels, "_active", impl)
                rep = direction_scan(P, s=1.0, eps=0.1, num_samples=16, master_seed=5, m=m)
                write_scan_report(rep, tmp_path / f"m{m}-{name}.txt")
                texts.add((tmp_path / f"m{m}-{name}.txt").read_text())
            assert len(texts) == 1

    def test_budget_and_mean_energy_fields(self):
        P = gen_cantor_product(CANTOR2, 3)
        rep = direction_scan(P, s=1.0, eps=0.1, num_samples=50, master_seed=3)
        assert rep.budget == pytest.approx(P.delta**0.1)
        assert rep.mean_energy <= rep.energy_bound
        assert rep.kappa == min(len(P), math.ceil(P.delta ** (-1.0 + 0.1)))
        n_bad = sum(1 for r in rep.per_direction if r.label == "bad")
        assert rep.bad_fraction == n_bad / rep.num_samples
        for r in rep.per_direction:
            if r.label == "bad":
                assert r.energy >= r.threshold

    def test_subset_size_matches_fraction_oracle(self):
        # kappa = ceil(2^(j*(s - eps))): the least c with c^q >= 2^(j*p) for
        # s - eps = p/q > 0, read from the decimal strings; 1 for p/q <= 0.
        # Each case is also capped below, at and above kappa.
        def check(s, eps, j):
            e = Fraction(s) - Fraction(eps)
            want = 1
            if e > 0:
                p, q = e.numerator, e.denominator
                want = max(1, int(2.0 ** (j * float(e))) - 4)
                while want**q < 2 ** (j * p):
                    want += 1
                assert want == 1 or (want - 1) ** q < 2 ** (j * p)
            for cap in (want - 1, want, want + 1, 2**40):
                got = _subset_size(j, float(s), float(eps), cap)
                assert got == max(1, min(cap, want)), (s, eps, j, cap)

        for s, eps in itertools.product(
            ("0.5", "0.75", "0.9", "1.0", "1.1", "1.3", "1.5", "2.0", "2.5"),
            ("0.05", "0.1", "0.2", "0.25", "0.5", "1.0"),
        ):
            for j in range(21):
                check(s, eps, j)
        # s - eps with denominators 3,599 and 4,032, where kappa's q-th
        # powers run to tens of thousands of bits
        large = ((Fraction(306, 61), Fraction(1, 59)), (Fraction(449, 64), Fraction(1, 63)))
        for s, eps in large:
            for j in range(4):
                check(s, eps, j)
            # kappa = ceil(2^(20 * (s - eps))), about 2^100, is far above a cap of 9,215
            assert _subset_size(20, float(s), float(eps), 9215) == 9215
        # the float rule rounds these powers of two up by one
        assert _subset_size(15, 1.0, 0.2, 2**40) == 2**12
        assert _subset_size(20, 1.0, 0.1, 2**40) == 2**18
        # an exponent with no small-denominator rational keeps the float rule
        s = 0.6180339887
        want = math.ceil(2.0 ** (12 * (s - 0.1)) - 1e-12)
        assert _subset_size(12, s, 0.1, 2**40) == want
        assert _subset_size(12, s, 0.1, want - 1) == want - 1

    def test_budget_gate_at_equality(self):
        # budget 2^(-10 * 0.2) is exactly 1/4; the float rule computes
        # 0.24999999999999997, under which 50 bad of 200 would violate
        assert 50 / 200 > (2.0**-10) ** 0.2
        assert not _over_budget(50, 200, 10, 0.2)
        assert _over_budget(51, 200, 10, 0.2)
        # no samples, no bad directions: no violation
        assert not _over_budget(0, 0, 10, 0.2)

    def test_budget_gate_matches_fraction_oracle(self):
        # violation iff n_bad^q * 2^(j*p) > num_samples^q, p/q = eps
        for eps, j in itertools.product(("0.05", "0.1", "0.2", "0.25"), range(0, 21, 2)):
            frac = Fraction(eps)
            p, q = frac.numerator, frac.denominator
            for n_bad in range(41):
                want = n_bad**q * 2 ** (j * p) > 40**q
                assert _over_budget(n_bad, 40, j, float(eps)) == want, (eps, j)
        # an unsnapped eps keeps the float rule
        eps = 0.6180339887
        assert _over_budget(10, 40, 3, eps) == (10 / 40 > (2.0**-3) ** eps)

    def test_one_projection_per_direction(self, monkeypatch):
        # each direction projects P once, sorts the projection once and
        # counts its pairs once: the counts a per-layer trace of a scan
        # relies on
        calls = {"project_points": 0, "classify_direction": 0, "coincidence_count": 0}
        sorts, order = [], kernels._sorted_rows

        def sorted_rows(x):
            sorts.append(bool((x[1:, 0] < x[:-1, 0]).any()))
            return order(x)

        monkeypatch.setattr(kernels, "_sorted_rows", sorted_rows)

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(projection, "project_points")
        counted(projection, "classify_direction")
        counted(kernels, "coincidence_count")
        P = gen_random_tree_set(2, 1.2, 6, seed=3)
        direction_scan(P, s=1.0, eps=0.1, num_samples=20, master_seed=2)
        assert set(calls.values()) == {20}
        # three order checks per direction, and one sort
        assert len(sorts) == 60 and sum(sorts) == 20

    def test_kappa_at_exact_power_of_two(self):
        # 2^(10 * (1.3 - 0.2)) = 2^11 of 4,096 cells; the float rule gives 2049
        P = gen_degenerate("cluster", n=2, level=10, cube_level=4)
        assert len(P) == 4096
        assert direction_scan(P, s=1.3, eps=0.2).kappa == 2048

    def test_singleton_set_scan(self):
        P = GridPointSet.from_cells(2, 8, [(17, 200)])
        rep = direction_scan(P, s=1.0, eps=0.1, num_samples=10, master_seed=2)
        assert rep.kappa == 1
        assert rep.bad_fraction == 0.0
        assert all(r.min_cover == 1 and r.energy == 1 for r in rep.per_direction)

    def test_plane_valued_scan_m2(self):
        from dyadicproj.fractals import gen_random_tree_set

        P = gen_random_tree_set(3, 1.5, 4, seed=2)
        rep = direction_scan(P, s=1.5, eps=0.2, num_samples=16, master_seed=1, m=2)
        assert rep.m == 2
        assert rep.mean_energy <= rep.energy_bound
        for r in rep.per_direction:
            assert r.frame.shape == (2, 3)
            coords = project_points(Plane(3, 2, r.frame), P)
            assert kernels.coincidence_count(coords, P.delta) == r.energy

    def test_collapsed_ball_energy_for_any_direction(self, rng):
        # two cells whose centers sit within one grid step: projections of
        # every direction coincide within delta, so the energy saturates
        P = GridPointSet.from_cells(2, 10, [(0, 0), (1, 0)])
        for _ in range(5):
            V = haar_sample(2, 1, rng)
            assert kernels.coincidence_count(project_points(V, P), P.delta) == len(P) ** 2

    def test_report_header_v2(self, tmp_path):
        # the version line, exactly these keys in this order, then the records
        keys = ["n", "m", "delta", "s", "eps", "num_samples", "master_seed", "kappa",
                "budget_gt_half"]
        cases = ((2, gen_cantor_product(CANTOR2, 2)),
                 (3, gen_random_tree_set(3, 1.5, 3, seed=2)))
        for n, P in cases:
            rep = direction_scan(P, s=1.0, eps=0.1, num_samples=2, master_seed=3, m=n - 1)
            write_scan_report(rep, tmp_path / f"scan{n}.txt")
            lines = (tmp_path / f"scan{n}.txt").read_text().splitlines()
            assert lines[0] == "scan-report v2"
            assert [x.split()[0] for x in lines[1 : len(keys) + 2]] == [*keys, "direction"]
            assert lines[1] == f"n {n}"

    def test_report_round_trip_files(self, tmp_path):
        P = gen_cantor_product(CANTOR2, 2)
        rep = direction_scan(P, s=1.0, eps=0.1, num_samples=5, master_seed=3)
        write_scan_report(rep, tmp_path / "scan.txt")
        text = (tmp_path / "scan.txt").read_text()
        assert text.endswith(summary_line(rep) + "\n")
        assert text.count("direction ") == 5


class TestMultiscaleScan:
    @pytest.mark.parametrize("cantor", [True, False])
    def test_yields_each_scale_in_order(self, cantor):
        # at s = 1 the cluster's level-3 cube is heavy at every scale, so
        # no net of it is scanned, and every net of the Cantor set is
        if cantor:
            P = gen_cantor_product(CANTOR2, 3)
        else:
            P = gen_degenerate("cluster", n=2, level=6, cube_level=3)
        scales = list(multiscale_scan(P, 1.0, 0.1, 8, 5, 1, 6))
        assert [record.scale for record, *_ in scales] == [1, 2, 3, 4, 5, 6]
        assert [report is not None for *_, report in scales] == [cantor] * 6
        for record, Pj, dec, cover, report in scales:
            j = record.scale
            assert Pj == coarsen(P, j)
            assert (record.cells, record.good, record.bad) == (len(Pj), len(dec.good), len(dec.bad))
            assert record.content == cover.value
            if report is None:
                assert len(dec.net) == 0 and record.budget == (2.0**-j) ** 0.1
                assert record.bad_fraction == record.mean_energy == record.energy_bound == 0.0
                n_bad = 0
            else:
                assert report == direction_scan(dec.net, 1.0, 0.1, 8, _derived_seed(5, j)[1])
                assert (record.bad_fraction, record.budget, record.mean_energy,
                        record.energy_bound) == (report.bad_fraction, report.budget,
                                                 report.mean_energy, report.energy_bound)
                n_bad = report.n_bad
            assert record.violation == _over_budget(n_bad, 8, j, 0.1)

    @pytest.mark.parametrize(
        "change,match",
        [({"level_min": 5, "level_max": 4}, r"level range \[5, 4\] invalid for input at level 6"),
         ({"level_max": 7}, "level range"), ({"level_min": -1}, "level range"),
         ({"workers": 0}, "workers"), ({"workers": -1}, "workers"),
         ({"workers": 0, "num_samples": 0}, "workers"), ({"num_samples": -1}, "num_samples"),
         ({"eps": 1.0}, "eps"), ({"m": 2}, "m=2"), ({"s": 3.0}, "exponent")],
    )
    def test_parameters_checked_before_any_scale(self, monkeypatch, change, match):
        monkeypatch.setattr(projection, "coarsen", lambda P, j: pytest.fail("a scale was built"))
        args = {"P": gen_cantor_product(CANTOR2, 3), "s": 1.0, "eps": 0.1, "num_samples": 4,
                "master_seed": 1, "level_min": 2, "level_max": 6}
        with pytest.raises(ValueError, match=match):
            multiscale_scan(**{**args, **change})


# IEEE-754 values that a decimal writer may get wrong: signed zeros, the
# smallest and largest subnormals, the smallest normal, the largest finite
# float and the infinities
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                  2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                  1e300, math.inf, -math.inf]


def random_scale_records(rng, count: int) -> list[ScaleRecord]:
    """Records whose floats are special values or random bit patterns
    (NaN excluded: it does not compare equal to itself) and whose integers
    span int64."""
    kinds = [f.type for f in dataclasses.fields(ScaleRecord)]
    records = []
    for _ in range(count):
        values = []
        for kind in kinds:
            if kind == "float":
                value = math.nan
                while math.isnan(value):
                    if rng.random() < 0.3:
                        value = SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))]
                    else:
                        value = float(rng.integers(0, 2**64, dtype=np.uint64).view(np.float64))
                values.append(value)
            elif kind == "int":
                values.append(int(rng.integers(-(2**63), 2**63 - 1)))
            else:
                values.append(bool(rng.integers(2)))
        records.append(ScaleRecord(*values))
    return records


class TestSummary:
    def test_round_trip(self, tmp_path):
        records = random_scale_records(np.random.default_rng(20260), 300)
        assert {r.violation for r in records} == {False, True}
        names = [f.name for f in dataclasses.fields(ScaleRecord) if f.type == "float"]
        base = ScaleRecord(3, 8, 1.0, 1.0, 4, 4, 0.5, 0.5, 2.0, 3.0, False)
        records += [dataclasses.replace(base, **{name: v}) for name in names for v in SPECIAL_FLOATS]
        path = tmp_path / "summary.csv"
        write_summary(records, path)
        got = read_summary(path)
        # repr tells -0.0 from 0.0 and True from 1
        assert [repr(dataclasses.astuple(r)) for r in got] == [
            repr(dataclasses.astuple(r)) for r in records
        ]
        text = path.read_bytes()
        write_summary(got, path)
        assert path.read_bytes() == text

    def test_format(self, tmp_path):
        record = ScaleRecord(6, 374, 0.1, 1.875, 102, 272, 0.0, 0.5, 134.5, 7.0, True)
        write_summary([record], tmp_path / "summary.csv")
        assert (tmp_path / "summary.csv").read_text() == (
            "scale,cells,content,spread_constant,good,bad,bad_fraction,budget,"
            "mean_energy,energy_bound,violation\n"
            "6,374,0.10000000000000001,1.875,102,272,0,0.5,134.5,7,1\n"
        )

    @pytest.mark.parametrize(
        "edit,match",
        [(lambda lines: ["scale,cells,kontent" + lines[0][18:], *lines[1:]], "header"),
         (lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0]], "line 2 has 10 columns"),
         (lambda lines: lines + [lines[1] + ",0"], "line 3 has 12 columns"),
         (lambda lines: lines[:1] + [lines[1][:-1] + "2"], "violation '2'"),
         (lambda lines: lines[:1] + [lines[1].replace("374", "3.5", 1)], "line 2"),
         (lambda lines: [], "header")],
    )
    def test_reader_refuses_what_the_writer_does_not_write(self, tmp_path, edit, match):
        path = tmp_path / "summary.csv"
        write_summary([ScaleRecord(6, 374, 0.1, 1.875, 102, 272, 0.0, 0.5, 134.5, 7.0, True)], path)
        path.write_text("".join(f"{line}\n" for line in edit(path.read_text().splitlines())))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + match):
            read_summary(path)


class TestCoincidenceProbability:
    def test_exact_formula_values(self):
        assert coincidence_probability_exact(1.0, 1.0) == pytest.approx(1.0)
        assert coincidence_probability_exact(1.0, 0.5) == pytest.approx(
            2 / math.pi * math.asin(0.5)
        )

    def test_mc_matches_exact(self, rng):
        x = np.array([0.2, 0.7])
        for ratio in (0.1, 0.3):
            y = x + np.array([0.25, 0.0])
            p, se = coincidence_probability_mc(x, y, ratio * 0.25, 30000, rng)
            exact = coincidence_probability_exact(0.25, ratio * 0.25)
            assert abs(p - exact) <= 3.5 * se
