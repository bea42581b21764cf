"""Output checks and digests for the benchmark's CLI commands.

Every check reads the files a command wrote and tests them against the
input with public `dyadicproj` functions only.  A check returns a list of
error messages; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

from dyadicproj.content import read_cover
from dyadicproj.grid import GridPointSet, coarsen, read_pointset
from dyadicproj.regularity import heavy_decompose, minimal_spread_constant


def digest(rc, stdout: str, out_dir: Path) -> str:
    """Hash of a command's exit code, standard output and written files."""
    h = hashlib.sha256(f"{rc}\n{stdout}".encode())
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            h.update(f"\n{path.name}\n".encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _opt(argv, flag: str, kind=str):
    return kind(argv[argv.index(flag) + 1])


def check_command(argv, rc, stdout: str, out: Path, P: GridPointSet) -> list[str]:
    cmd = argv[0]
    if cmd == "multiscan":
        return check_multiscan(argv, rc, out, P)
    if rc != 0:
        return [f"exit code {rc}"]
    s = _opt(argv, "--s", float)
    if cmd == "content":
        errors = check_cover(out / "cover.txt", P, s)
        footer = (out / "cover.txt").read_text().splitlines()[-1]
        if stdout.strip() != footer:
            errors.append(f"printed {stdout.strip()!r}, cover footer is {footer!r}")
        return errors
    if cmd == "spread":
        value = float(stdout.split()[1])
        return [] if value >= 1.0 else [f"spread constant {value} below 1"]
    if cmd == "decompose":
        return check_partition(out / "good.txt", out / "bad.txt", P)
    if cmd == "frostman":
        return check_subset(out / "subset.txt", P, s)
    if cmd == "scan":
        errors, _ = check_scan(out / "scan.txt", len(P), _opt(argv, "--samples", int))
        return errors
    return [f"no check for command {cmd!r}"]


def check_cover(path: Path, P: GridPointSet, s: float) -> list[str]:
    """The footer equals the value recomputed from the cubes, and every
    cell of P lies under a cube (read_cover rejects non-antichains)."""
    cover = read_cover(path, s)
    errors = []
    value = sum(m * 2.0 ** (-j * s) for j, m in sorted(cover.level_multiplicity.items()))
    if not math.isclose(value, cover.value, rel_tol=1e-12):
        errors.append(f"{path.name}: footer {cover.value!r} != recomputed {value!r}")
    by_level: dict[int, list] = {}
    for c in cover.cubes:
        by_level.setdefault(c.level, []).append(c.coords)
    if max(by_level, default=0) > P.level:
        return errors + [f"{path.name}: cube finer than the input level {P.level}"]
    covered = np.zeros(len(P), dtype=bool)
    for level, coords in by_level.items():
        ancestors = _keys(P.cells >> (P.level - level), level)
        covered |= np.isin(ancestors, _keys(np.array(coords, dtype=np.int64), level))
    if not covered.all():
        errors.append(f"{path.name}: {int((~covered).sum())} input cells under no cube")
    return errors


def _keys(cells: np.ndarray, level: int) -> np.ndarray:
    return np.ravel_multi_index(tuple(cells.T), (1 << level,) * cells.shape[1])


def check_partition(good_path: Path, bad_path: Path, P: GridPointSet) -> list[str]:
    """good and bad are disjoint and their union is P."""
    good, bad = read_pointset(good_path), read_pointset(bad_path)
    if {(X.dim, X.level) for X in (good, bad)} != {(P.dim, P.level)}:
        return [f"{good_path.name}/{bad_path.name}: grid differs from the input"]
    if len(good) + len(bad) != len(P) or not np.array_equal(good.union(bad).cells, P.cells):
        return [f"{good_path.name} and {bad_path.name} do not partition the input"]
    return []


def check_subset(path: Path, P: GridPointSet, s: float) -> list[str]:
    """The frostman subset lies in P and is (2, delta, s)-regular."""
    S = read_pointset(path)
    errors = []
    if (S.dim, S.level) != (P.dim, P.level) or not S.issubset(P):
        errors.append(f"{path.name}: not a subset of the input")
    spread = minimal_spread_constant(S, s)
    if spread > 2.0:
        errors.append(f"{path.name}: spread constant {spread} exceeds 2")
    return errors


def read_scan(path: Path) -> tuple[dict, list[tuple[int, float, str]]]:
    """Header and summary fields, plus (E, threshold, label) per direction."""
    fields: dict[str, str] = {}
    records = []
    for line in path.read_text().splitlines():
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "direction":
            at = {t: i for i, t in enumerate(tok) if t in ("E", "threshold", "label")}
            records.append(
                (int(tok[at["E"] + 1]), float(tok[at["threshold"] + 1]), tok[at["label"] + 1])
            )
        elif len(tok) % 2 == 0:
            fields.update(zip(tok[::2], tok[1::2]))
    return fields, records


def check_scan(path: Path, n_points: int, samples: int) -> tuple[list[str], int]:
    """Labels follow E >= threshold, |P| <= E <= |P|^2, and the summary
    agrees with the records.  Also returns the sum of the energies."""
    fields, records = read_scan(path)
    errors = []
    if int(fields["num_samples"]) != samples or len(records) != samples:
        errors.append(f"{path.name}: {len(records)} directions, expected {samples}")
    for i, (energy, threshold, label) in enumerate(records):
        if (label == "bad") != (energy >= threshold):
            errors.append(f"{path.name}: direction {i} labelled {label} at E={energy}")
        if not n_points <= energy <= n_points**2:
            errors.append(f"{path.name}: direction {i} E={energy} outside [|P|, |P|^2]")
    total = sum(r[0] for r in records)
    if records:
        n_bad = sum(r[2] == "bad" for r in records)
        if not math.isclose(float(fields["bad_fraction"]), n_bad / len(records), rel_tol=1e-12):
            errors.append(f"{path.name}: bad_fraction disagrees with the labels")
        if not math.isclose(float(fields["mean_energy"]), total / len(records), rel_tol=1e-12):
            errors.append(f"{path.name}: mean_energy disagrees with the energies")
    return errors, total


def check_multiscan(argv, rc, out: Path, P: GridPointSet) -> list[str]:
    """summary.csv has one row per scale and its violation column agrees
    with the exit code; each scale's files pass the per-file checks."""
    s = _opt(argv, "--s", float)
    samples = _opt(argv, "--samples", int)
    scales = list(range(_opt(argv, "--level-min", int), _opt(argv, "--level-max", int) + 1))
    with open(out / "summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    errors = []
    if [int(r["scale"]) for r in rows] != scales:
        errors.append(f"summary.csv scales {[r['scale'] for r in rows]}, expected {scales}")
    violation = any(int(r["violation"]) for r in rows)
    if rc != (2 if violation else 0):
        errors.append(f"exit code {rc} with violation={int(violation)} in summary.csv")
    # the CLI's defaults: tau = 4^-dim, L = max(1, 2/tau), C = |P_j| 2^(-j*s)
    tau = 4.0**-P.dim
    big_l = max(1.0, 2.0 / tau)
    for row in rows:
        j = int(row["scale"])
        Pj = read_pointset(out / f"scale{j}_points.txt")
        if not np.array_equal(Pj.cells, coarsen(P, j).cells) or int(row["cells"]) != len(Pj):
            errors.append(f"scale{j}_points.txt is not the input coarsened to level {j}")
        errors += check_cover(out / f"scale{j}_cover.txt", Pj, s)
        errors += check_partition(out / f"scale{j}_good.txt", out / f"scale{j}_bad.txt", Pj)
        net = heavy_decompose(Pj, s, len(Pj) * 2.0 ** (-j * s), big_l, tau).net
        if len(net):
            errors += check_scan(out / f"scale{j}_scan.txt", len(net), samples)[0]
    return errors
