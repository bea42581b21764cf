"""Workloads of the end-to-end benchmark: their inputs and command lines.

Each workload is one input file plus a fixed sequence of `dyadicproj` CLI
commands; only the seed varies between runs.  The seed reaches the program
twice: as `--seed` on every command, and through the generated input file.
README.md in this directory records why each workload was chosen.

Run as a script, this module builds one workload's input and writes it in a
fresh process; run.py times that process as `setup_s`:

    PYTHONPATH=src python3 perfbench/workloads.py --workload scan --seed 7 --out in.txt
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

import numpy as np

from dyadicproj import fractals  # called through the module, so tracing sees it
from dyadicproj.grid import GridPointSet, write_pointset

# Branching-process sets differ between seeds by about +-50% in size and
# by more in the size of their decomposition nets, on which the scans'
# O(N^2) Riesz ceiling runs; the greedy net of a Cantor product depends on
# which digit pairs sit side by side.  Such spread would swamp any change
# in speed.  So every input is one reference set under a symmetry of the
# grid that the workload seed picks.  Axis permutations and reflections
# map dyadic cubes to dyadic cubes, so every copy has the same cover tree,
# and the greedy nets differ by under 1%.
REFERENCE_SEED = 7

# One base-4 digit pair per axis: spacing 2, spacing 3, and side by side,
# which the greedy net thins to one cell of two (16,384 net cells).  None
# is a pair of binary siblings such as (0, 1), which would merge one level
# up and change the dimension, so the set has dimension 1.5.
SELFSIM_PAIRS = ((0, 2), (0, 3), (1, 2))


def grid_symmetry(P: GridPointSet, seed: int) -> GridPointSet:
    """P with its axes permuted and some reflected (x -> 2^level - 1 - x),
    both picked by the seed."""
    rng = np.random.default_rng(seed)
    cells = P.cells[:, rng.permutation(P.dim)]
    flip = rng.integers(0, 2, size=P.dim).astype(bool)
    return GridPointSet(P.dim, P.level, np.where(flip, (1 << P.level) - 1 - cells, cells))


@dataclass(frozen=True)
class RandomInput:
    """The `random:n=..,s=..,level=..` set of REFERENCE_SEED."""

    n: int
    s: float
    level: int

    def build(self, seed: int) -> GridPointSet:
        P = fractals.gen_random_tree_set(self.n, self.s, self.level, REFERENCE_SEED)
        return grid_symmetry(P, seed)


@dataclass(frozen=True)
class CantorInput:
    """The base-4 Cantor product of SELFSIM_PAIRS after `iters` steps."""

    iters: int

    def build(self, seed: int) -> GridPointSet:
        P = fractals.gen_cantor_product(fractals.CantorPattern(4, SELFSIM_PAIRS), self.iters)
        return grid_symmetry(P, seed)


@dataclass(frozen=True)
class Workload:
    input: RandomInput | CantorInput
    # argv of each command without --input, --seed and --out
    commands: tuple[tuple[str, ...], ...]


SELFSIM_COMMANDS = (
    ("content", "--s", "1.5"),
    ("spread", "--s", "1.5"),
    ("decompose", "--s", "1.5", "--big-l", "128"),
    ("frostman", "--s", "1.5"),
)


def _multiscan(samples: int, level_min: int, level_max: int) -> tuple[str, ...]:
    return (
        "multiscan", "--s", "1.5", "--eps", "0.1", "--samples", str(samples),
        "--level-min", str(level_min), "--level-max", str(level_max), "--workers", "1",
    )


def _scan(samples: int) -> tuple[str, ...]:
    return ("scan", "--s", "1.0", "--eps", "0.1", "--samples", str(samples), "--workers", "1")


WORKLOADS = {
    "multiscan": Workload(RandomInput(2, 1.5, 11), (_multiscan(100, 6, 11),)),
    "scan": Workload(RandomInput(2, 1.0, 13), (_scan(400),)),
    "selfsim": Workload(CantorInput(5), SELFSIM_COMMANDS),
}

# The same command sequences on inputs small enough to run in seconds.
SMOKE_WORKLOADS = {
    "multiscan": Workload(RandomInput(2, 1.5, 7), (_multiscan(10, 4, 7),)),
    "scan": Workload(RandomInput(2, 1.0, 8), (_scan(20),)),
    "selfsim": Workload(CantorInput(3), SELFSIM_COMMANDS),
}


def workload(name: str, smoke: bool = False) -> Workload:
    return (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]


def main() -> None:
    parser = argparse.ArgumentParser(description="build and write one workload's input")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    write_pointset(workload(args.workload, args.smoke).input.build(args.seed), args.out)


if __name__ == "__main__":
    main()
