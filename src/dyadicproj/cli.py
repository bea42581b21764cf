"""Command-line front end.

Subcommands mirror the pipeline stages: generate, content, spread,
decompose, frostman, scan, multiscan.  Each parses its options, calls the
library and writes files; multiscan's per-scale loop and its budget gate
are `projection.multiscale_scan`.  The heavy-cube rule depends on tau and
L only through tau*L, so decompose and multiscan set L (--big-l) and keep
tau = 4^-dim.  All randomized commands require an explicit --seed; reports
are only overwritten with --force, and every output path is checked before
any is written.  Exit codes: 0 success, 1 usage or input error (any
ValueError, reported as `error: ...`), 2 budget violation (multiscan).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .content import optimal_cover, write_cover
from .fractals import parse_generator_spec
from .grid import GridPointSet, read_pointset, write_pointset
from .projection import (
    direction_scan,
    multiscale_scan,
    summary_line,
    write_scan_report,
    write_summary,
)
from .regularity import (
    heavy_decompose,
    frostman_subset,
    minimal_spread_constant,
    write_decomposition,
)

__all__ = ["main"]


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(message)


def _load_points(input_path, gen_spec, seed) -> GridPointSet:
    if (input_path is None) == (gen_spec is None):
        raise _UsageError("exactly one of --input and --gen is required")
    if input_path is not None:
        try:
            return read_pointset(input_path)
        except OSError as exc:
            raise _UsageError(f"cannot read {input_path}: {exc}") from exc
    return parse_generator_spec(gen_spec, seed)


def _out_file(out_dir: Path, name: str, force: bool) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    if path.exists() and not force:
        raise _UsageError(f"{path} exists; pass --force to overwrite")
    return path


_GEN_HELP = "generator spec, e.g. cantor:keep=0|3,dims=2,iters=5"
_BIG_L_HELP = "heavy-cube factor L (default 2*4^dim)"


def _add_common(p: _Parser, *, gen: bool = True):
    if gen:
        p.add_argument("--input", help="point-set file in the text format")
        p.add_argument("--gen", help=_GEN_HELP)
    p.add_argument("--seed", type=int, help="seed for randomized steps (required there)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dyadicproj")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a generated point set")
    _add_common(p, gen=False)
    p.add_argument("--gen", required=True, help=_GEN_HELP)

    p = sub.add_parser("content", help="minimal dyadic cover and its value")
    _add_common(p)
    p.add_argument("--s", type=float, required=True)

    p = sub.add_parser("spread", help="least regularity constant of the set")
    _add_common(p)
    p.add_argument("--s", type=float, required=True)

    p = sub.add_parser("decompose", help="heavy-cube good/bad decomposition")
    _add_common(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--big-l", type=float, default=None, help=_BIG_L_HELP)

    p = sub.add_parser("frostman", help="extract a regular witness subset")
    _add_common(p)
    p.add_argument("--s", type=float, required=True)

    p = sub.add_parser("scan", help="Monte-Carlo direction scan at one scale")
    _add_common(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--m", type=int, default=1, help="projection dimension")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("multiscan", help="scan a range of levels and gate on budget")
    _add_common(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--level-min", type=int, required=True)
    p.add_argument("--level-max", type=int, required=True)
    p.add_argument("--big-l", type=float, default=None, help=_BIG_L_HELP)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    return parser


def _require_seed(args) -> int:
    if args.seed is None:
        raise _UsageError("this command is randomized; --seed is required")
    if args.seed < 0:
        raise _UsageError("--seed must be a non-negative integer")
    return args.seed


def _cmd_generate(args) -> int:
    P = _load_points(None, args.gen, args.seed)
    write_pointset(P, _out_file(Path(args.out), "points.txt", args.force))
    print(f"wrote {len(P)} cells at level {P.level} in dimension {P.dim}")
    return 0


def _cmd_content(args) -> int:
    P = _load_points(args.input, args.gen, args.seed)
    cover = optimal_cover(P, args.s)
    write_cover(cover, _out_file(Path(args.out), "cover.txt", args.force))
    print(f"value {cover.value:.17g}")
    return 0


def _cmd_spread(args) -> int:
    P = _load_points(args.input, args.gen, args.seed)
    print(f"spread_constant {minimal_spread_constant(P, args.s):.17g}")
    return 0


def _cmd_decompose(args) -> int:
    P = _load_points(args.input, args.gen, args.seed)
    dec = heavy_decompose(P, args.s, None, args.big_l)
    out = Path(args.out)
    for name in ("good.txt", "bad.txt", "heavy.txt"):
        _out_file(out, name, args.force)
    write_decomposition(dec, out)
    print(
        f"good {len(dec.good)} bad {len(dec.bad)} heavy_cubes {len(dec.heavy.rows)} "
        f"heavy_weight {dec.heavy.value:.17g} budget {dec.weight_budget:.17g}"
    )
    return 0


def _cmd_frostman(args) -> int:
    P = _load_points(args.input, args.gen, args.seed)
    S = frostman_subset(P, args.s)
    write_pointset(S, _out_file(Path(args.out), "subset.txt", args.force))
    print(f"size {len(S)} spread_constant {minimal_spread_constant(S, args.s):.17g}")
    return 0


def _cmd_scan(args) -> int:
    seed = _require_seed(args)
    P = _load_points(args.input, args.gen, args.seed)
    report = direction_scan(
        P,
        s=args.s,
        eps=args.eps,
        num_samples=args.samples,
        master_seed=seed,
        m=args.m,
        workers=args.workers,
    )
    out = Path(args.out)
    write_scan_report(report, _out_file(out, "scan.txt", args.force))
    print(summary_line(report))
    return 0


def _cmd_multiscan(args) -> int:
    """Scan every level from --level-min to --level-max and gate on the
    eps-budget (`multiscale_scan`); write each scale's point set, cover,
    decomposition and scan report, then summary.csv.  Any scale over
    budget exits 2."""
    seed = _require_seed(args)
    P = _load_points(args.input, args.gen, seed)
    scales = multiscale_scan(
        P, args.s, args.eps, args.samples, seed, args.level_min, args.level_max,
        args.m, args.workers, args.big_l,
    )
    out = Path(args.out)
    for j in range(args.level_min, args.level_max + 1):
        for name in ("points", "cover", "good", "bad", "heavy", "scan"):
            _out_file(out, f"scale{j}_{name}.txt", args.force)
    _out_file(out, "summary.csv", args.force)
    records = []
    for record, Pj, dec, cover, report in scales:
        prefix = f"scale{record.scale}_"
        write_cover(cover, out / f"{prefix}cover.txt")
        if report is not None:
            write_scan_report(report, out / f"{prefix}scan.txt")
        del cover, report  # freed before the point sets, the largest writes
        write_decomposition(dec, out, prefix=prefix)
        write_pointset(Pj, out / f"{prefix}points.txt")
        del Pj, dec  # and this scale freed before the next is built
        records.append(record)
    write_summary(records, out / "summary.csv")
    worst = max(records, key=lambda r: r.bad_fraction / r.budget)  # budget = delta^eps > 0
    print(f"worst scale {worst.scale} bad_fraction/budget {worst.bad_fraction / worst.budget:.6g}")
    if any(r.violation for r in records):
        print("budget violation detected", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "content": _cmd_content,
    "spread": _cmd_spread,
    "decompose": _cmd_decompose,
    "frostman": _cmd_frostman,
    "scan": _cmd_scan,
    "multiscan": _cmd_multiscan,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ValueError as exc:  # _UsageError, or a library check of an option value
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
