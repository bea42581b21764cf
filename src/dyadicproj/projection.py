"""Random subspaces, projections, pair energies and direction scans.

For a point set P at scale delta and a random m-plane V, the pair energy
E_V(P) counts ordered pairs whose projections land within delta of each
other.  Directions where the energy exceeds a power-law threshold are
classified bad: by Cauchy-Schwarz, a small energy forces every large subset
of P to project onto many delta-cells, so good directions provably preserve
covering numbers.  `direction_scan` Monte-Carlos this classification over
Haar-random planes and compares the bad fraction with the delta^eps budget.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import kernels
from ._exact import _ceil_pow2, snap_exponent
from .grid import GridPointSet, _unique_rows, build_cover_tree

__all__ = [
    "Plane",
    "ScanReport",
    "DirectionRecord",
    "ClassifiedDirection",
    "RieszResult",
    "haar_sample",
    "project_points",
    "pair_energy",
    "riesz_sum",
    "min_projection_cover",
    "classify_direction",
    "direction_scan",
    "coincidence_probability_exact",
    "write_scan_report",
    "write_scan_csv",
    "summary_line",
]

_GRAM_TOL = 1e-12


@dataclass(frozen=True)
class Plane:
    """An m-dimensional subspace of R^n given by an orthonormal row frame."""

    n: int
    m: int
    frame: np.ndarray  # (m, n) float64, rows orthonormal

    def __post_init__(self):
        if not 0 < self.m < self.n:
            raise ValueError(f"need 0 < m < n, got m={self.m} n={self.n}")
        frame = np.ascontiguousarray(self.frame, dtype=np.float64)
        if frame.shape != (self.m, self.n):
            raise ValueError(f"frame shape {frame.shape} != ({self.m}, {self.n})")
        gram = frame @ frame.T
        if np.abs(gram - np.eye(self.m)).max() > _GRAM_TOL:
            raise ValueError("frame is not orthonormal to 1e-12")
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)


def haar_sample(n: int, m: int, rng: np.random.Generator) -> Plane:
    """Rotation-invariant random m-plane in R^n.

    Orthonormalizes m standard Gaussian vectors; the sign of each frame
    vector is normalized (first nonzero entry positive) so the frame is a
    deterministic function of the draw.
    """
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m} n={n}")
    while True:
        gauss = rng.standard_normal((n, m))
        q, r = np.linalg.qr(gauss)
        if np.abs(np.diagonal(r)).min() > 1e-12:
            break
    frame = np.ascontiguousarray(q.T)
    for row in frame:
        nz = np.flatnonzero(row != 0.0)
        if nz.size and row[nz[0]] < 0.0:
            row *= -1.0
    return Plane(n, m, frame)


def project_points(V: Plane, P: GridPointSet) -> np.ndarray:
    """Frame coordinates of the cell centers of P on V; (N, m) float64."""
    if V.n != P.dim:
        raise ValueError(f"plane lives in R^{V.n}, points in R^{P.dim}")
    return P.centers() @ V.frame.T


def pair_energy(P: GridPointSet, V: Plane, delta: float | None = None) -> int:
    """Ordered pairs (diagonal included) whose projections are within delta.

    Defaults delta to the grid scale 2^-P.level.  Always at least |P|, and
    exactly |P|^2 when all projections collapse into one delta-ball.
    """
    if delta is None:
        delta = P.delta
    if delta <= 0:
        raise ValueError("delta must be positive")
    if len(P) == 0:
        return 0
    return kernels.coincidence_count(project_points(V, P), delta)


class RieszResult(NamedTuple):
    value: float
    annuli_bound: float


def riesz_sum(P: GridPointSet, power: int) -> RieszResult:
    """Exact sum of |x - y|^-power over ordered distinct center pairs.

    Also returns the dyadic-annuli upper bound assembled from the per-level
    occupancy profile of P: pairs at distance comparable to 2^-t are counted
    against the worst level-(t-1) window population.  The exact sum never
    exceeds the bound; this is checked.
    """
    if len(P) < 2:
        raise ValueError("riesz sum needs at least two cells")
    if power < 1:
        raise ValueError("power must be a positive integer")
    value = kernels.riesz_pair_sum(P.centers(), power)

    tree = build_cover_tree(P)
    n_pts = len(P)
    t_min = -math.ceil(math.log2(P.dim) / 2.0) if P.dim > 1 else 0
    bound = 0.0
    for t in range(t_min, P.level + 1):
        if t >= 1:
            per_ball = min(n_pts, (2**P.dim) * tree.max_count(t - 1))
        else:
            per_ball = n_pts
        bound += per_ball * 2.0 ** ((t + 1) * power)
    bound *= n_pts
    if value > bound * (1 + 1e-9):
        raise AssertionError(
            f"pair sum {value:.6g} exceeded its annuli bound {bound:.6g}"
        )
    return RieszResult(value, bound)


def _bin_level(m: int, delta: float) -> int:
    """Smallest level whose bins have diameter sqrt(m) * side <= delta."""
    lev = max(0, math.ceil(math.log2(math.sqrt(m) / delta) - 1e-12))
    while 2.0**-lev * math.sqrt(m) > delta:
        lev += 1
    return lev


def _bin_profile(
    coords: np.ndarray, m: int, delta: float, kappa: int
) -> tuple[int, int]:
    """Near-boundary count and fewest bins holding kappa points, from one
    binning of the projected coordinates (N, m).

    A point is near a boundary when one of its coordinates lies within
    1e-9*delta of a bin face: its bin assignment is a coin flip at double
    precision.  For m = 1 the bins of the sorted coordinates never
    decrease, so bin occupancy is the run lengths of the bin indices.
    """
    scale = float(1 << _bin_level(m, delta))
    scaled = (np.sort(coords[:, 0]) if m == 1 else coords) * scale
    bins = np.floor(scaled)
    frac = scaled - bins
    near = np.minimum(frac, 1.0 - frac) / scale < 1e-9 * delta
    if m == 1:
        n_boundary = int(near.sum())
        edges = np.concatenate(([True], bins[1:] != bins[:-1], [True]))
        counts = np.diff(np.flatnonzero(edges))
    else:
        n_boundary = int(near.any(axis=1).sum())
        counts = np.bincount(_unique_rows(bins.astype(np.int64))[1])
    counts[::-1].sort()
    filled = np.cumsum(counts)
    return n_boundary, int(np.searchsorted(filled, kappa) + 1)


def min_projection_cover(
    P: GridPointSet, V: Plane, delta: float | None = None, kappa: int = 1
) -> int:
    """Fewest projection bins needed to hold at least kappa points of P.

    Bins are dyadic cubes on V's frame coordinates with diameter at most
    delta.  Taking occupied bins in decreasing-count order is exact for
    this objective.  Equals the full projection covering number at
    kappa = |P| and satisfies E_V(P) >= kappa^2 / result.
    """
    if delta is None:
        delta = P.delta
    if not 1 <= kappa <= len(P):
        raise ValueError(f"kappa={kappa} outside [1, {len(P)}]")
    return _bin_profile(project_points(V, P), V.m, delta, kappa)[1]


class ClassifiedDirection(NamedTuple):
    label: str  # "good" or "bad"
    energy: int
    threshold: float


def classify_direction(
    P: GridPointSet,
    V: Plane,
    delta: float | None = None,
    s: float = 1.0,
    eps: float = 0.1,
) -> ClassifiedDirection:
    """Label V bad when the pair energy reaches its power-law threshold.

    threshold = delta^(min(s,m) - 2s - 4eps).  For a good direction, every
    subset with at least delta^(-s+eps) points projects onto at least
    delta^(-min(s,m)+6eps) bins of size delta: this follows from the energy
    bound by Cauchy-Schwarz and is what the scan checks.
    """
    if len(P) == 0:
        raise ValueError("cannot classify directions for an empty set")
    if not 0.0 < eps < s:
        raise ValueError(f"need 0 < eps < s, got eps={eps} s={s}")
    if delta is None:
        delta = P.delta
    energy = pair_energy(P, V, delta)
    exponent = min(s, float(V.m)) - 2.0 * s - 4.0 * eps
    threshold = delta**exponent
    label = "bad" if energy >= threshold else "good"
    return ClassifiedDirection(label, energy, threshold)


@dataclass(frozen=True)
class DirectionRecord:
    """One sampled plane of a scan.

    min_cover is the fewest projection bins holding kappa points;
    n_boundary counts the projections with a coordinate within 1e-9*delta
    of a bin face, whose bin assignment is not trustworthy at double
    precision.
    """

    index: int
    seed: int
    frame: np.ndarray
    energy: int
    threshold: float
    min_cover: int
    label: str
    n_boundary: int


@dataclass(frozen=True)
class ScanReport:
    """Monte-Carlo census of direction quality for one point set and scale."""

    n: int
    m: int
    delta: float
    s: float
    eps: float
    num_samples: int
    master_seed: int
    kappa: int
    per_direction: tuple[DirectionRecord, ...]
    bad_fraction: float
    budget: float
    mean_energy: float
    energy_bound: float

    @property
    def budget_gt_half(self) -> bool:
        """True when delta is too coarse for the budget to say much."""
        return self.budget > 0.5


def _derived_seed(master_seed: int, index: int) -> tuple[np.random.SeedSequence, int]:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return ss, int(ss.generate_state(1, np.uint64)[0])


def _subset_size(level: int, s: float, eps: float) -> int:
    """ceil(delta^(-s+eps)) at delta = 2^-level.

    Exact when s and eps snap to small-denominator rationals (see _exact),
    so an exact power of two is not rounded up past itself; otherwise the
    float rule."""
    frac_s, frac_eps = snap_exponent(s), snap_exponent(eps)
    if frac_s is None or frac_eps is None:
        return math.ceil((2.0**-level) ** (-s + eps) - 1e-12)
    e = frac_s - frac_eps
    return _ceil_pow2(e.numerator, e.denominator, level) if e > 0 else 1


def direction_scan(
    P: GridPointSet,
    s: float = 1.0,
    eps: float = 0.1,
    num_samples: int = 0,
    master_seed: int = 0,
    m: int = 1,
    workers: int = 1,
) -> ScanReport:
    """Sample Haar planes, classify each, and compare with the eps-budget.

    The scan works at P's own scale delta = 2^-P.level, and each direction's
    min_cover counts the bins holding kappa = ceil(delta^(-s+eps)) points,
    capped at |P|: the subset size the classification speaks about.  Direction
    i draws from a stream derived from (master_seed, i), so the report is
    identical for any worker count.  The mean sampled energy is reported
    next to its geometric ceiling 2^n * (delta^m * riesz + |P|).
    """
    if num_samples < 0:
        raise ValueError("num_samples must be >= 0")
    delta = P.delta
    n_pts = len(P)
    kappa = max(1, min(n_pts, _subset_size(P.level, s, eps)))

    def one(index: int) -> DirectionRecord:
        ss, seed = _derived_seed(master_seed, index)
        rng = np.random.default_rng(ss)
        V = haar_sample(P.dim, m, rng)
        label, energy, threshold = classify_direction(P, V, delta, s, eps)
        n_boundary, cover = _bin_profile(project_points(V, P), m, delta, kappa)
        return DirectionRecord(
            index, seed, V.frame, energy, threshold, cover, label, n_boundary
        )

    if num_samples == 0:
        records: list[DirectionRecord] = []
    elif workers <= 1:
        records = [one(i) for i in range(num_samples)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(one, range(num_samples)))

    n_bad = sum(1 for r in records if r.label == "bad")
    bad_fraction = n_bad / num_samples if num_samples else 0.0
    mean_energy = sum(r.energy for r in records) / num_samples if num_samples else 0.0
    if n_pts >= 2:
        energy_bound = 2.0**P.dim * (delta**m * riesz_sum(P, m).value + n_pts)
    else:
        energy_bound = 2.0**P.dim * n_pts
    return ScanReport(
        n=P.dim,
        m=m,
        delta=delta,
        s=float(s),
        eps=float(eps),
        num_samples=num_samples,
        master_seed=int(master_seed),
        kappa=kappa,
        per_direction=tuple(records),
        bad_fraction=bad_fraction,
        budget=float(delta**eps),
        mean_energy=mean_energy,
        energy_bound=float(energy_bound),
    )


# --- two-point coincidence probability (n=2, m=1) ---------------------------


def coincidence_probability_exact(gap: float, delta: float) -> float:
    """P(|proj_e x - proj_e y| <= delta) for Haar e in the plane,
    |x - y| = gap: equals (2/pi) * arcsin(min(1, delta/gap))."""
    if gap <= 0 or delta <= 0:
        raise ValueError("gap and delta must be positive")
    return (2.0 / math.pi) * math.asin(min(1.0, delta / gap))


# --- report serialization ----------------------------------------------------


def summary_line(report: ScanReport) -> str:
    return (
        f"bad_fraction {report.bad_fraction:.17g} budget {report.budget:.17g} "
        f"mean_energy {report.mean_energy:.17g} energy_bound {report.energy_bound:.17g}"
    )


def write_scan_report(report: ScanReport, path) -> None:
    lines = [
        "scan-report v1",
        f"n {report.n}",
        f"m {report.m}",
        f"delta {report.delta:.17g}",
        f"s {report.s:.17g}",
        f"eps {report.eps:.17g}",
        f"num_samples {report.num_samples}",
        f"master_seed {report.master_seed}",
        f"kappa {report.kappa}",
        # constant in every v1 report
        "threshold_slack 1",
        f"dim_slack {2**report.n}",
        f"budget_gt_half {int(report.budget_gt_half)}",
    ]
    for r in report.per_direction:
        frame = " ".join(f"{v:.17g}" for v in r.frame.ravel())
        lines.append(
            f"direction {r.index} seed {r.seed} frame {frame} "
            f"E {r.energy} threshold {r.threshold:.17g} min_cover {r.min_cover} "
            f"boundary {r.n_boundary} label {r.label}"
        )
    lines.append(summary_line(report))
    Path(path).write_text("\n".join(lines) + "\n")


def write_scan_csv(report: ScanReport, path) -> None:
    lines = ["index,energy,min_cover,label"]
    lines.extend(
        f"{r.index},{r.energy},{r.min_cover},{r.label}" for r in report.per_direction
    )
    Path(path).write_text("\n".join(lines) + "\n")
