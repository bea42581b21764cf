import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from dyadicproj.fractals import (
    CantorPattern,
    gen_cantor_product,
    gen_degenerate,
    gen_random_tree_set,
)
from dyadicproj import kernels
from dyadicproj.grid import GridPointSet
from dyadicproj.projection import (
    Plane,
    _bin_profile,
    _subset_size,
    classify_direction,
    coincidence_probability_exact,
    direction_scan,
    haar_sample,
    min_projection_cover,
    pair_energy,
    project_points,
    riesz_sum,
    summary_line,
    write_scan_csv,
    write_scan_report,
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
        assert pair_energy(P, V) == len(P) ** 2

    def test_spacing_two_delta(self):
        # three points at projected spacing 2*delta: diagonal only
        P = GridPointSet.from_cells(2, 4, [(0, 0), (2, 0), (4, 0)])
        V = Plane(2, 1, np.array([[1.0, 0.0]]))
        assert pair_energy(P, V) == 3

    def test_matches_oracle(self, rng):
        for _ in range(10):
            P = random_subset(rng, 2, 3)
            V = haar_sample(2, 1, rng)
            delta = float(rng.uniform(0.01, 0.5))
            want = pair_energy_oracle(project_points(V, P), delta)
            assert pair_energy(P, V, delta) == want

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
            assert pair_energy(P, V, delta) == strict + len(P)

    def test_m2_projection_energy(self, rng):
        P = random_subset(rng, 3, 2)
        V = haar_sample(3, 2, rng)
        delta = 0.2
        want = pair_energy_oracle(project_points(V, P), delta)
        assert pair_energy(P, V, delta) == want


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

    def test_kappa_full_equals_covering_number(self):
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
            assert pair_energy(P, V) >= kappa**2 / cover - 1e-9


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
                n_boundary, cover = _bin_profile(coords, m, delta, kappa)
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
                n_boundary, cover = _bin_profile(coords, m, delta, kappa)
                assert n_boundary == near_boundary_oracle(coords, delta)
                assert cover == greedy_cover(counts, kappa)

    @pytest.mark.parametrize("m", [1, 2])
    def test_scan_records_match_oracles(self, m):
        P = gen_random_tree_set(m + 1, 1.6, 4, seed=5)
        delta = P.delta
        rep = direction_scan(P, s=1.0, eps=0.1, num_samples=12, master_seed=4, m=m)
        for r in rep.per_direction:
            coords = project_points(Plane(m + 1, m, r.frame), P)
            assert r.n_boundary == near_boundary_oracle(coords, delta)
            assert r.min_cover == greedy_cover(bin_counts_oracle(coords, delta), rep.kappa)


class TestClassifyDirection:
    def test_singleton_good(self):
        P = GridPointSet.from_cells(2, 10, [(5, 9)])
        V = Plane(2, 1, np.array([[1.0, 0.0]]))
        label, energy, threshold = classify_direction(P, V, s=1.0, eps=0.1)
        assert label == "good" and energy == 1 and threshold > 1

    def test_degenerate_line_bad(self):
        P = gen_degenerate("line", n=2, level=6)
        V = Plane(2, 1, np.array([[0.0, 1.0]]))
        label, energy, _ = classify_direction(P, V, s=1.0, eps=0.1)
        assert label == "bad" and energy == len(P) ** 2

    def test_cantor_random_direction_good(self):
        P = gen_cantor_product(CANTOR2, 5)
        rng = np.random.default_rng(12345)
        V = haar_sample(2, 1, rng)
        label, energy, threshold = classify_direction(P, V, s=1.0, eps=0.1)
        assert label == "good"
        # confirmed by the covering side of the dichotomy
        kappa = math.ceil(P.delta ** (-1.0 + 0.1))
        assert min_projection_cover(P, V, kappa=kappa) >= P.delta ** (-1.0 + 6 * 0.1)


class TestDirectionScan:
    def test_empty_scan(self):
        P = gen_cantor_product(CANTOR2, 2)
        rep = direction_scan(P, num_samples=0, master_seed=1)
        assert rep.per_direction == () and rep.bad_fraction == 0.0

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
        # s - eps = p/q > 0, read from the decimal strings; 1 for p/q <= 0
        for s, eps in itertools.product(
            ("0.5", "0.75", "0.9", "1.0", "1.1", "1.3", "1.5", "2.0", "2.5"),
            ("0.05", "0.1", "0.2", "0.25", "0.5", "1.0"),
        ):
            e = Fraction(s) - Fraction(eps)
            for j in range(21):
                want = 1
                if e > 0:
                    p, q = e.numerator, e.denominator
                    want = max(1, int(2.0 ** (j * float(e))) - 4)
                    while want**q < 2 ** (j * p):
                        want += 1
                    assert want == 1 or (want - 1) ** q < 2 ** (j * p)
                assert _subset_size(j, float(s), float(eps)) == want, (s, eps, j)
        # the float rule rounds these powers of two up by one
        assert _subset_size(15, 1.0, 0.2) == 2**12
        assert _subset_size(20, 1.0, 0.1) == 2**18
        # an exponent with no small-denominator rational keeps the float rule
        s = 0.6180339887
        assert _subset_size(12, s, 0.1) == math.ceil(2.0 ** (12 * (s - 0.1)) - 1e-12)

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
            assert pair_energy(P, Plane(3, 2, r.frame)) == r.energy

    def test_collapsed_ball_energy_for_any_direction(self, rng):
        # two cells whose centers sit within one grid step: projections of
        # every direction coincide within delta, so the energy saturates
        P = GridPointSet.from_cells(2, 10, [(0, 0), (1, 0)])
        for _ in range(5):
            V = haar_sample(2, 1, rng)
            assert pair_energy(P, V) == len(P) ** 2

    def test_report_header_constant_lines(self, tmp_path):
        # written without report fields: 1, and 2^n
        cases = ((2, gen_cantor_product(CANTOR2, 2), "dim_slack 4"),
                 (3, gen_random_tree_set(3, 1.5, 3, seed=2), "dim_slack 8"))
        for n, P, slack in cases:
            rep = direction_scan(P, s=1.0, eps=0.1, num_samples=2, master_seed=3, m=n - 1)
            write_scan_report(rep, tmp_path / f"scan{n}.txt")
            lines = (tmp_path / f"scan{n}.txt").read_text().splitlines()
            at = lines.index(f"kappa {rep.kappa}")
            assert lines[at + 1 : at + 3] == ["threshold_slack 1", slack]

    def test_report_round_trip_files(self, tmp_path):
        P = gen_cantor_product(CANTOR2, 2)
        rep = direction_scan(P, s=1.0, eps=0.1, num_samples=5, master_seed=3)
        write_scan_report(rep, tmp_path / "scan.txt")
        write_scan_csv(rep, tmp_path / "scan.csv")
        text = (tmp_path / "scan.txt").read_text()
        assert text.endswith(summary_line(rep) + "\n")
        assert text.count("direction ") == 5
        csv = (tmp_path / "scan.csv").read_text().splitlines()
        assert csv[0] == "index,energy,min_cover,label"
        assert len(csv) == 6


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
