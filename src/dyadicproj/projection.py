"""Random subspaces, projections, pair energies and direction scans.

For a point set P at scale delta and a random m-plane V, the pair energy
E_V(P) counts ordered pairs whose projections land within delta of each
other.  Directions where the energy reaches a power-law threshold are
classified bad: by Cauchy-Schwarz, a small energy forces every large subset
of P to project onto many delta-cells, so good directions provably preserve
covering numbers.  `classify_direction` computes both sides from one
projection of P, ordered once: the energy and its label, and the fewest
bins holding kappa points.  `direction_scan` Monte-Carlos it over
Haar-random planes and compares the bad fraction with the delta^eps budget.
`multiscale_scan` is the scale-by-scale step: at each delta_j = 2^-j it
prunes heavy cubes, scans the net of the good part, and flags the scale
when the bad fraction exceeds delta_j^eps, with no other factor.  Its
per-scale `ScaleRecord`s are the rows of `summary.csv`, which
`write_summary` writes and `read_summary` reads back.
When s and eps snap to small-denominator rationals, kappa, the label and
the budget gate are decided in exact arithmetic (see _exact).
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import kernels
from ._exact import _ceil_pow2, _cmp_pow2, snap_exponent
from .content import DyadicCover, optimal_cover
from .grid import GridPointSet, _eq_by_value, _validate_exponent, build_cover_tree, coarsen
from .regularity import Decomposition, _check_big_l, heavy_decompose, minimal_spread_constant

__all__ = [
    "Plane",
    "ScanReport",
    "ScaleRecord",
    "DirectionRecord",
    "ClassifiedDirection",
    "RieszResult",
    "haar_sample",
    "project_points",
    "riesz_sum",
    "min_projection_cover",
    "classify_direction",
    "direction_scan",
    "multiscale_scan",
    "coincidence_probability_exact",
    "write_scan_report",
    "summary_line",
    "write_summary",
    "read_summary",
]

_GRAM_TOL = 1e-12


@dataclass(frozen=True)
class Plane:
    """An m-dimensional subspace of R^n given by an orthonormal row frame."""

    n: int
    m: int
    frame: np.ndarray  # (m, n) float64, rows orthonormal

    __eq__ = _eq_by_value

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
    return _haar_planes(n, m, [rng])[0]


def _haar_frames(gauss: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign-normalized orthonormal frames (S, m, n) of a stack of Gaussian
    draws (S, n, m), and whether each draw had full rank (|diag R| > 1e-12).
    One QR call factors the whole stack, matrix by matrix as it factors one."""
    q, r = np.linalg.qr(gauss)
    full_rank = np.abs(np.diagonal(r, axis1=1, axis2=2)).min(axis=1) > 1e-12
    frames = np.swapaxes(q, 1, 2)
    first = np.argmax(frames != 0.0, axis=2)  # 0 for an all-zero row
    lead = np.take_along_axis(frames, first[..., None], axis=2)
    return np.where(lead < 0.0, -frames, frames), full_rank


def _haar_planes(n: int, m: int, rngs: list[np.random.Generator]) -> list[Plane]:
    """haar_sample(n, m, rng) for each generator, from one QR of the stacked
    draws; a rank-deficient draw is redrawn from its own generator."""
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m} n={n}")
    frames, full_rank = _haar_frames(np.stack([rng.standard_normal((n, m)) for rng in rngs]))
    for i in np.flatnonzero(~full_rank):
        while not full_rank[i]:
            frame, ok = _haar_frames(rngs[i].standard_normal((1, n, m)))
            frames[i], full_rank[i] = frame[0], ok[0]
    return [Plane(n, m, frame) for frame in frames]


def project_points(V: Plane, P: GridPointSet) -> np.ndarray:
    """Frame coordinates of the cell centers of P on V; (N, m) float64."""
    if V.n != P.dim:
        raise ValueError(f"plane lives in R^{V.n}, points in R^{P.dim}")
    return P.centers() @ V.frame.T


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
    return kernels.bin_profile(project_points(V, P), delta, kappa)[1]


@functools.lru_cache(maxsize=64)
def _energy_threshold(
    level: int, s: float, eps: float, m: int
) -> tuple[float, Fraction | None]:
    """The threshold delta^(min(s,m) - 2s - 4eps) at delta = 2^-level, as the
    float a report prints, and its exponent of 2^level, 2s + 4eps - min(s,m),
    as a rational when s and eps snap (see _exact)."""
    threshold = (2.0**-level) ** (min(s, float(m)) - 2.0 * s - 4.0 * eps)
    frac_s, frac_eps = snap_exponent(s), snap_exponent(eps)
    if frac_s is None or frac_eps is None:
        return threshold, None
    return threshold, 2 * frac_s + 4 * frac_eps - min(frac_s, m)


def _check_scan(P: GridPointSet, s: float, eps: float, m: int) -> None:
    """The range the dichotomy speaks about: 0 < s <= n, 0 < eps < s and
    0 < m < n."""
    _validate_exponent(P, s)
    if not 0.0 < eps < s:
        raise ValueError(f"need 0 < eps < s, got eps={eps} s={s}")
    if not 0 < m < P.dim:
        raise ValueError(f"need 0 < m < n, got m={m} n={P.dim}")


class ClassifiedDirection(NamedTuple):
    label: str  # "good" or "bad"
    energy: int
    threshold: float
    min_cover: int
    n_boundary: int


def classify_direction(
    P: GridPointSet, V: Plane, s: float, eps: float, kappa: int
) -> ClassifiedDirection:
    """Both sides of the dichotomy at P's scale delta, from one projection
    of P on V ordered by its first coordinate.  V is bad when the pair energy
    reaches threshold = delta^(min(s,m) - 2s - 4eps), decided exactly when s
    and eps snap, so an energy equal to an exact power of two is bad even
    where the printed float threshold lies above it.  By Cauchy-Schwarz,
    every subset of a good direction with at least kappa = delta^(-s+eps)
    points projects onto at least delta^(-min(s,m)+6eps) bins of size delta;
    min_cover, the fewest bins holding kappa points, is what the scan checks.
    """
    if len(P) == 0:
        raise ValueError("cannot classify directions for an empty set")
    _check_scan(P, s, eps, V.m)
    coords = kernels._sorted_rows(project_points(V, P))
    energy = kernels.coincidence_count(coords, P.delta)
    n_boundary, min_cover = kernels.bin_profile(coords, P.delta, kappa)
    threshold, exponent = _energy_threshold(P.level, s, eps, V.m)
    if exponent is None:
        bad = energy >= threshold
    else:
        bad = _cmp_pow2(energy, P.level, exponent) >= 0
    label = "bad" if bad else "good"
    return ClassifiedDirection(label, energy, threshold, min_cover, n_boundary)


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
    label: str
    energy: int
    threshold: float
    min_cover: int
    n_boundary: int

    __eq__ = _eq_by_value


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
    n_bad: int
    bad_fraction: float
    budget: float
    mean_energy: float
    energy_bound: float

    @property
    def budget_gt_half(self) -> bool:
        """True when delta is too coarse for the budget to say much."""
        return self.budget > 0.5


_DRAW_BLOCK = 1024  # Haar planes per QR call of a scan
# Cells from which a scan's Riesz sum runs beside its directions.  Below
# it, measured on multiscan's nets (36 to 2,976 cells), the thread cost
# more CPU time than it overlapped.  Only the compiled sum overlaps: it
# holds no GIL, while the numpy fallback's row loop takes the GIL between
# its numpy calls, and overlapped it made the fallback's scan slower.
_OVERLAP_MIN_CELLS = 4096


def _derived_seed(master_seed: int, index: int) -> tuple[np.random.SeedSequence, int]:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return ss, int(ss.generate_state(1, np.uint64)[0])


def _subset_size(level: int, s: float, eps: float, cap: int) -> int:
    """ceil(delta^(-s+eps)) at delta = 2^-level, capped at cap and at least 1.

    Exact when s and eps snap to small-denominator rationals (see _exact),
    so an exact power of two is not rounded up past itself; otherwise the
    float rule."""
    cap = max(1, cap)
    frac_s, frac_eps = snap_exponent(s), snap_exponent(eps)
    if frac_s is None or frac_eps is None:
        return max(1, min(cap, math.ceil((2.0**-level) ** (-s + eps) - 1e-12)))
    e = frac_s - frac_eps
    return _ceil_pow2(e, level, cap) if e > 0 else 1


def _over_budget(n_bad: int, num_samples: int, level: int, eps: float) -> bool:
    """Whether the bad fraction exceeds the budget delta^eps at delta =
    2^-level.  Exact when eps snaps, so a fraction equal to its budget
    passes; otherwise the float rule."""
    frac = snap_exponent(eps)
    if frac is None:
        fraction = n_bad / num_samples if num_samples else 0.0
        return fraction > (2.0**-level) ** eps
    fraction = Fraction(n_bad, num_samples) if num_samples else Fraction(0)
    return _cmp_pow2(fraction, -level, frac) > 0


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
    identical for any worker count.  The planes are drawn before any is
    classified, with one QR call per _DRAW_BLOCK of them, and each is the
    plane haar_sample draws from its stream.  The mean sampled energy is
    reported next to its geometric ceiling 2^n * (delta^m * riesz + |P|).
    The ceiling depends on no direction: on the compiled backend, for a set
    of at least 4,096 cells (_OVERLAP_MIN_CELLS), its Riesz sum runs on one
    thread of its own while the directions are classified, whatever workers
    is, and returns the same float as run after them.  num_samples,
    workers, s, eps and m are checked before any direction is drawn, so a
    scan of no directions refuses what a scan of many would.
    """
    if num_samples < 0:
        raise ValueError("num_samples must be >= 0")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_scan(P, s, eps, m)
    delta = P.delta
    n_pts = len(P)
    kappa = _subset_size(P.level, s, eps, n_pts)

    def one(index: int) -> DirectionRecord:
        V = planes[index]
        record = classify_direction(P, V, s, eps, kappa)
        return DirectionRecord(index, seeds[index], V.frame, *record)

    overlap = n_pts >= _OVERLAP_MIN_CELLS and kernels.backend_name() == "compiled"
    P.centers()  # computed here, not by two threads at once
    with ThreadPoolExecutor(max_workers=1) as side:
        ceiling = side.submit(riesz_sum, P, m) if overlap else None

        # at most _DRAW_BLOCK generators are alive at once
        seeds, planes = [], []
        for start in range(0, num_samples, _DRAW_BLOCK):
            block = range(start, min(num_samples, start + _DRAW_BLOCK))
            streams = [_derived_seed(master_seed, i) for i in block]
            seeds += [seed for _, seed in streams]
            planes += _haar_planes(P.dim, m, [np.random.default_rng(ss) for ss, _ in streams])

        if workers <= 1:
            records = [one(i) for i in range(num_samples)]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(one, range(num_samples)))

        if ceiling is not None:
            riesz = ceiling.result().value
        else:
            riesz = riesz_sum(P, m).value if n_pts >= 2 else 0.0  # no pairs, empty sum

    n_bad = sum(1 for r in records if r.label == "bad")
    bad_fraction = n_bad / num_samples if num_samples else 0.0
    mean_energy = sum(r.energy for r in records) / num_samples if num_samples else 0.0
    energy_bound = 2.0**P.dim * (delta**m * riesz + n_pts)
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
        n_bad=n_bad,
        bad_fraction=bad_fraction,
        budget=float(delta**eps),
        mean_energy=mean_energy,
        energy_bound=float(energy_bound),
    )


# --- multiscale scan ------------------------------------------------------


@dataclass(frozen=True)
class ScaleRecord:
    """One scale of a multiscale scan, and one row of `summary.csv`.

    cells, content and spread_constant describe the input coarsened to the
    scale, good and bad the sizes of its decomposition's parts.  The scan
    fields are those of the net's report; where the net is empty they are
    0.0, and budget is delta^eps.  violation is the budget gate's verdict.
    """

    scale: int
    cells: int
    content: float
    spread_constant: float
    good: int
    bad: int
    bad_fraction: float
    budget: float
    mean_energy: float
    energy_bound: float
    violation: bool


def multiscale_scan(
    P: GridPointSet,
    s: float,
    eps: float,
    num_samples: int,
    master_seed: int,
    level_min: int,
    level_max: int,
    m: int = 1,
    workers: int = 1,
    big_l: float | None = None,
) -> Iterator[tuple[ScaleRecord, GridPointSet, Decomposition, DyadicCover, ScanReport | None]]:
    """Scan P at every level j from level_min to level_max and gate each
    scale on its eps-budget.

    At scale j the input is coarsened to level j and its heavy cubes are
    pruned (heavy_decompose with L = big_l and its defaults
    C = |P_j| * 2^(-j*s) and tau = 4^-dim); the net of the good part is scanned with
    master seed derived from (master_seed, j).  A scale violates when its
    bad fraction exceeds its budget delta_j^eps, decided exactly when eps
    snaps.

    Returns a generator of (record, P_j, decomposition, cover, report) in
    order of j, where cover is P_j's optimal cover at s and report is None
    where the net is empty.  It keeps no reference to a scale it has
    yielded, so the caller decides when each scale's sets are freed.  The
    level range, num_samples, workers, big_l, s, eps and m are checked when
    this is called, before any scale is computed.
    """
    if not 0 <= level_min <= level_max <= P.level:
        raise ValueError(
            f"level range [{level_min}, {level_max}] invalid for input at level {P.level}"
        )
    if num_samples < 0:
        raise ValueError("num_samples must be >= 0")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if big_l is not None:
        _check_big_l(big_l)
    _check_scan(P, s, eps, m)  # a scale whose net is empty scans nothing

    def scale(j):
        Pj = coarsen(P, j)
        dec = heavy_decompose(Pj, s, None, big_l)
        cover = optimal_cover(Pj, s)
        if len(dec.net):
            seed = _derived_seed(master_seed, j)[1]
            report = direction_scan(dec.net, s, eps, num_samples, seed, m, workers)
            n_bad = report.n_bad
            scan = (report.bad_fraction, report.budget, report.mean_energy, report.energy_bound)
        else:
            report, n_bad = None, 0
            scan = (0.0, float(Pj.delta**eps), 0.0, 0.0)
        record = ScaleRecord(
            j,
            len(Pj),
            float(cover.value),
            minimal_spread_constant(Pj, s),
            len(dec.good),
            len(dec.bad),
            *scan,
            _over_budget(n_bad, num_samples, j, eps),
        )
        return record, Pj, dec, cover, report

    return (scale(j) for j in range(level_min, level_max + 1))


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
    """Write `scan-report v2`: the version line, one `key value` line per
    header field, one `direction` line per record, then the summary line.

    Later fields are new `key value` lines, which readers skip when they do
    not know the key.  Removing or renaming a key bumps the version."""
    lines = [
        "scan-report v2",
        f"n {report.n}",
        f"m {report.m}",
        f"delta {report.delta:.17g}",
        f"s {report.s:.17g}",
        f"eps {report.eps:.17g}",
        f"num_samples {report.num_samples}",
        f"master_seed {report.master_seed}",
        f"kappa {report.kappa}",
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


_SUMMARY_TYPES = {f.name: f.type for f in fields(ScaleRecord)}  # "int", "float" or "bool"
_SUMMARY_HEADER = ",".join(_SUMMARY_TYPES)


def write_summary(records, path) -> None:
    """Write `summary.csv`: a header of ScaleRecord's field names, then one
    row per record, with integers in decimal, floats at %.17g and violation
    as 0 or 1.  read_summary reads it back exactly."""
    lines = [_SUMMARY_HEADER]
    for r in records:
        lines.append(",".join(
            f"{getattr(r, name):.17g}" if kind == "float" else str(int(getattr(r, name)))
            for name, kind in _SUMMARY_TYPES.items()
        ))
    Path(path).write_text("\n".join(lines) + "\n")


_VIOLATION = {"0": False, "1": True}


def _summary_cell(kind: str, text: str):
    if kind == "bool":
        if text not in _VIOLATION:
            raise ValueError(f"violation {text!r} is not 0 or 1")
        return _VIOLATION[text]
    return float(text) if kind == "float" else int(text)


def read_summary(path) -> list[ScaleRecord]:
    """The records of a `summary.csv` that write_summary wrote.  An unknown
    header, a row of the wrong width or a value that does not parse is a
    ValueError that names the file."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _SUMMARY_HEADER:
        raise ValueError(f"{path}: the header is not {_SUMMARY_HEADER!r}")
    records = []
    for number, row in enumerate(lines[1:], start=2):
        cells = row.split(",")
        if len(cells) != len(_SUMMARY_TYPES):
            raise ValueError(
                f"{path}: line {number} has {len(cells)} columns, expected {len(_SUMMARY_TYPES)}"
            )
        try:
            values = [_summary_cell(k, text) for k, text in zip(_SUMMARY_TYPES.values(), cells)]
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from exc
        records.append(ScaleRecord(*values))
    return records
