"""Command-line front end.

Subcommands mirror the pipeline stages: generate, content, spread,
decompose, frostman, scan, multiscan.  All randomized commands require an
explicit --seed; reports are only overwritten with --force.  Exit codes:
0 success, 1 usage or input error (any ValueError, reported as
`error: ...`), 2 budget violation (multiscan).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .content import optimal_cover, write_cover
from .fractals import parse_generator_spec
from .grid import GridPointSet, coarsen, read_pointset, write_pointset
from .projection import (
    _derived_seed,
    direction_scan,
    summary_line,
    write_scan_csv,
    write_scan_report,
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
    p.add_argument("--j-min", type=int, default=0, help="coarsest allowed cube level")

    p = sub.add_parser("spread", help="least regularity constant of the set")
    _add_common(p)
    p.add_argument("--s", type=float, required=True)

    p = sub.add_parser("decompose", help="heavy-cube good/bad decomposition")
    _add_common(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--big-l", type=float, default=None, help="default max(1, 2/tau)")
    p.add_argument("--tau", type=float, default=None, help="default 4^-dim")

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
    p.add_argument("--big-l", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--slack", type=float, default=1.0, help="budget slack factor")
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
    cover = optimal_cover(P, args.s, j_min=args.j_min)
    write_cover(cover, _out_file(Path(args.out), "cover.txt", args.force))
    print(f"value {cover.value:.17g}")
    return 0


def _cmd_spread(args) -> int:
    P = _load_points(args.input, args.gen, args.seed)
    print(f"spread_constant {minimal_spread_constant(P, args.s):.17g}")
    return 0


def _cmd_decompose(args) -> int:
    P = _load_points(args.input, args.gen, args.seed)
    C = len(P) * 2.0 ** (-P.level * args.s)
    dec = heavy_decompose(P, args.s, C, args.big_l, args.tau)
    out = Path(args.out)
    for name in ("good.txt", "bad.txt", "heavy.txt"):
        _out_file(out, name, args.force)
    write_decomposition(dec, out)
    print(
        f"good {len(dec.good)} bad {len(dec.bad)} heavy_cubes {len(dec.maximal_heavy)} "
        f"heavy_weight {dec.heavy_weight:.17g} budget {dec.weight_budget:.17g}"
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
    write_scan_csv(report, _out_file(out, "scan.csv", args.force))
    print(summary_line(report))
    return 0


def _cmd_multiscan(args) -> int:
    """Scan every level from --level-min to --level-max and gate on the
    eps-budget.

    Per scale j: coarsen the input to level j, prune heavy cubes (cell-count
    normalization C = |P_j| * 2^(-j*s)), then Monte-Carlo the direction
    classification on the surviving regular part.  A scale violates when
    bad_fraction > budget * --slack; any violation exits 2.
    """
    seed = _require_seed(args)
    P = _load_points(args.input, args.gen, seed)
    if not 0 <= args.level_min <= args.level_max <= P.level:
        raise _UsageError(
            f"level range [{args.level_min}, {args.level_max}] invalid "
            f"for input at level {P.level}"
        )
    out = Path(args.out)

    rows = []
    worst = (None, -1.0)
    violation = False
    for j in range(args.level_min, args.level_max + 1):
        for name in ("points", "cover", "good", "bad", "heavy", "scan"):
            _out_file(out, f"scale{j}_{name}.txt", args.force)
        _out_file(out, f"scale{j}_scan.csv", args.force)
        Pj = coarsen(P, j)
        delta = 2.0**-j
        C = len(Pj) * delta**args.s
        dec = heavy_decompose(Pj, args.s, C, args.big_l, args.tau)
        write_decomposition(dec, out, prefix=f"scale{j}_")
        write_pointset(Pj, out / f"scale{j}_points.txt")
        cover = optimal_cover(Pj, args.s)
        write_cover(cover, out / f"scale{j}_cover.txt")
        scale_seed = _derived_seed(seed, j)[1]
        if len(dec.net):
            report = direction_scan(
                dec.net,
                s=args.s,
                eps=args.eps,
                num_samples=args.samples,
                master_seed=scale_seed,
                m=args.m,
                workers=args.workers,
            )
            write_scan_report(report, out / f"scale{j}_scan.txt")
            write_scan_csv(report, out / f"scale{j}_scan.csv")
            bad_fraction = report.bad_fraction
            budget = report.budget
            mean_energy = report.mean_energy
            energy_bound = report.energy_bound
        else:
            bad_fraction, budget = 0.0, delta**args.eps
            mean_energy = energy_bound = 0.0
        bad_over_budget = bad_fraction > budget * args.slack
        violation |= bad_over_budget
        ratio = bad_fraction / budget if budget else 0.0
        if ratio > worst[1]:
            worst = (j, ratio)
        rows.append(
            f"{j},{len(Pj)},{cover.value:.17g},"
            f"{minimal_spread_constant(Pj, args.s):.17g},"
            f"{len(dec.good)},{len(dec.bad)},{bad_fraction:.17g},{budget:.17g},"
            f"{mean_energy:.17g},{energy_bound:.17g},{int(bad_over_budget)}"
        )

    header = (
        "scale,cells,content,spread_constant,good,bad,"
        "bad_fraction,budget,mean_energy,energy_bound,violation"
    )
    _out_file(out, "summary.csv", args.force).write_text(
        header + "\n" + "\n".join(rows) + "\n"
    )
    print(f"worst scale {worst[0]} bad_fraction/budget {worst[1]:.6g}")
    if violation:
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
