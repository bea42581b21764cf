"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured quantities.  Tolerances are pinned here and
nowhere else; run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from dyadicproj.cli import main as cli_main
from dyadicproj.content import optimal_cover
from dyadicproj.fractals import (
    QUARTER_CANTOR,
    CantorPattern,
    gen_cantor_product,
    gen_degenerate,
    gen_random_tree_set,
)
from dyadicproj.grid import GridPointSet
from dyadicproj.projection import (
    Plane,
    classify_direction,
    coincidence_probability_exact,
    direction_scan,
    haar_sample,
    min_projection_cover,
    pair_energy,
    project_points,
    riesz_sum,
)
from dyadicproj.regularity import heavy_decompose, minimal_spread_constant

from conftest import (
    coincidence_probability_mc,
    min_bins_oracle,
    min_cover_value_oracle,
    random_subset,
)

CANTOR2 = CantorPattern(4, ((0, 3), (0, 3)))


def report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, text


def test_criterion_1_cover_dp_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    checked = 0
    for trial in range(500):
        level = int(rng.integers(1, 5))
        P = random_subset(rng, 1, level)
        s = 0.5 if trial % 2 == 0 else 1.0
        got = optimal_cover(P, s).value
        want, _ = min_cover_value_oracle(P, s)
        assert got == want, f"n=1 trial {trial}: {got} != {want}"
        checked += 1
    for trial in range(200):
        P = random_subset(rng, 2, 2)
        got = optimal_cover(P, 1.0).value
        want, _ = min_cover_value_oracle(P, 1.0)
        assert got == want, f"n=2 trial {trial}: {got} != {want}"
        checked += 1
    dt = time.time() - t0
    report(1, dt < 60, f"DP == exhaustive cover minimum on {checked} instances ({dt:.1f}s)")


def test_criterion_2_self_similar_exactness():
    t0 = time.time()
    for k in (1, 2, 3):
        P = gen_cantor_product(QUARTER_CANTOR, k)
        value = optimal_cover(P, 0.5).value
        spread = minimal_spread_constant(P, 0.5)
        assert value == 1.0, f"k={k}: value {value!r} != 1.0"
        assert spread <= 2.0, f"k={k}: spread {spread} > 2"
    report(2, time.time() - t0 < 10, "cantor content exactly 1.0 and spread <= 2 for k=1..3")


def test_criterion_3_heavy_decomposition_suite():
    t0 = time.time()
    nontrivial = 0
    for seed in range(100):
        n = 1 + seed % 2
        level = 8 + seed % 5
        s = 0.7 * n
        cluster = gen_degenerate("cluster", n=n, level=level, cube_level=level - 5)
        spread_set = gen_random_tree_set(n, 0.6 * n, level, seed=9000 + seed)
        P = cluster.union(spread_set)
        tau = 4.0**-n
        L = (4.0, 2.0 / tau, 4.0 / tau)[seed % 3]
        C = len(P) * 2.0 ** (-level * s)
        dec = heavy_decompose(P, s, C, L, tau)
        assert dec.heavy_weight <= 1.0 / (tau * L) + 1e-9, f"seed {seed}: weight bound"
        if len(dec.net):
            net_spread = minimal_spread_constant(dec.net, s)
            assert net_spread <= 4**n * tau * C * L + 1e-9, f"seed {seed}: net spread"
        if len(dec.good):
            again = heavy_decompose(dec.good, s, C, L, tau)
            assert len(again.bad) == 0, f"seed {seed}: not idempotent"
        if len(dec.good) and len(dec.bad):
            nontrivial += 1
    dt = time.time() - t0
    report(
        3,
        dt < 120,
        f"weight/net/idempotence bounds on 100 mixtures "
        f"({nontrivial} with nontrivial splits, {dt:.1f}s)",
    )


def test_criterion_4_coincidence_closed_form():
    t0 = time.time()
    rng = np.random.default_rng(4004)
    x = np.array([0.3, 0.4])
    gap = 0.2
    worst = 0.0
    for ratio in np.linspace(0.05, 0.5, 10):
        theta = rng.uniform(0, 2 * math.pi)
        y = x + gap * np.array([math.cos(theta), math.sin(theta)])
        delta = ratio * gap
        p, se = coincidence_probability_mc(x, y, delta, 100_000, rng)
        exact = coincidence_probability_exact(gap, delta)
        dev = abs(p - exact) / se
        worst = max(worst, dev)
        assert dev <= 3.0, f"ratio {ratio:.2f}: {dev:.2f} standard errors"
    dt = time.time() - t0
    report(4, dt < 60, f"arcsin law matched within 3 SE (worst {worst:.2f} SE, {dt:.1f}s)")


def test_criterion_5_direction_scan_budget():
    t0 = time.time()
    P = gen_cantor_product(CANTOR2, 5)
    assert len(P) == 1024 and P.level == 10
    s, eps = 1.0, 0.1
    rep = direction_scan(P, s=s, eps=eps, num_samples=200, master_seed=55, m=1)
    assert rep.bad_fraction <= rep.budget, (
        f"bad fraction {rep.bad_fraction} over budget {rep.budget}"
    )
    floor = rep.delta ** (-min(s, 1.0) + 6 * eps)
    for r in rep.per_direction:
        if r.label == "good":
            assert r.min_cover >= floor, f"direction {r.index}: {r.min_cover} < {floor}"
    dt = time.time() - t0
    report(
        5,
        dt < 300,
        f"bad_fraction {rep.bad_fraction:.3f} <= budget {rep.budget:.2f}, "
        f"good-direction covers >= {floor:.1f} ({dt:.1f}s)",
    )


def test_criterion_6_degenerate_detection():
    t0 = time.time()
    P = gen_degenerate("line", n=2, level=6)
    orth = Plane(2, 1, np.array([[0.0, 1.0]]))
    along = Plane(2, 1, np.array([[1.0, 0.0]]))
    label_orth, energy_orth, _ = classify_direction(P, orth, s=1.0, eps=0.1)
    assert energy_orth == len(P) ** 2 and label_orth == "bad"
    label_along, _, _ = classify_direction(P, along, s=1.0, eps=0.1)
    assert label_along == "good"
    assert min_projection_cover(P, along, kappa=len(P)) == len(P)
    report(6, time.time() - t0 < 10, "orthogonal collapse flagged bad, parallel stays good")


def test_criterion_7_energy_bounds():
    t0 = time.time()
    exponents = (0.5, 1.0, 1.5)
    worst_riesz = worst_energy = 0.0
    for seed in range(50):
        s = exponents[seed % 3]
        P = gen_random_tree_set(2, s, 9, seed=7000 + seed)
        if len(P) >= 2:
            rz = riesz_sum(P, 1)
            assert rz.value <= rz.annuli_bound, f"seed {seed}: riesz over annuli bound"
            worst_riesz = max(worst_riesz, rz.value / rz.annuli_bound)
        rep = direction_scan(P, s=s, eps=0.1, num_samples=100, master_seed=7000 + seed, m=1)
        assert rep.mean_energy <= rep.energy_bound, f"seed {seed}: mean energy over bound"
        if rep.energy_bound:
            worst_energy = max(worst_energy, rep.mean_energy / rep.energy_bound)
    dt = time.time() - t0
    report(
        7,
        dt < 300,
        f"riesz <= annuli bound (worst ratio {worst_riesz:.2f}) and mean energy "
        f"<= geometric bound (worst ratio {worst_energy:.2f}) on 50 instances ({dt:.1f}s)",
    )


def test_criterion_8_greedy_min_cover_optimality():
    t0 = time.time()
    rng = np.random.default_rng(8008)
    checked = 0
    while checked < 1000:
        level = 2
        total = 16
        k = int(rng.integers(1, 13))
        picks = rng.choice(total, size=k, replace=False)
        cells = np.stack([picks >> level, picks & 3], axis=1)
        P = GridPointSet(2, level, cells)
        V = haar_sample(2, 1, rng)
        delta = float(rng.uniform(0.05, 0.6))
        kappa = int(rng.integers(1, len(P) + 1))
        got = min_projection_cover(P, V, delta, kappa)
        coords = project_points(V, P)
        scale = 2.0 ** math.ceil(math.log2(1.0 / delta) - 1e-12)
        bins = np.floor(coords * scale).astype(np.int64)
        _, counts = np.unique(bins, axis=0, return_counts=True)
        want = min_bins_oracle(counts.tolist(), kappa)
        assert got == want, f"instance {checked}: greedy {got} != exhaustive {want}"
        checked += 1
    dt = time.time() - t0
    report(8, dt < 60, f"greedy == exhaustive min-cover on {checked} instances ({dt:.1f}s)")


def test_criterion_9_multiscan_reproducibility(tmp_path):
    t0 = time.time()
    base = [
        "multiscan", "--gen", "cantor:keep=0|3,base=4,dims=2,iters=3",
        "--s", "1.0", "--eps", "0.1", "--samples", "200", "--seed", "77",
        "--level-min", "4", "--level-max", "6",
    ]
    assert cli_main(base + ["--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    assert cli_main(base + ["--workers", "8", "--out", str(tmp_path / "w8")]) == 0
    names1 = sorted(f.name for f in (tmp_path / "w1").iterdir())
    names8 = sorted(f.name for f in (tmp_path / "w8").iterdir())
    assert names1 == names8 and names1
    for name in names1:
        b1 = (tmp_path / "w1" / name).read_bytes()
        b8 = (tmp_path / "w8" / name).read_bytes()
        assert b1 == b8, f"{name} differs between worker counts"
    dt = time.time() - t0
    report(9, dt < 120, f"multiscan outputs byte-identical for workers 1 and 8 ({dt:.1f}s)")
