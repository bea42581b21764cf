"""Benchmark of dyadicproj end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload multiscan --seed 7 --seconds 20 --trace 0

The script builds the package in place (`setup.py build_ext --inplace`;
without Cython that compiles nothing and the numpy kernels run), then
measures one workload of workloads.py.  With `--trace 0` it reports the
end-to-end metrics of BENCHMARK.json, with `--trace 1` the per-layer ones.
The last line of standard output is the result as one JSON object;
human-readable figures and run metadata come before it.  Scratch files go
to `.perfbench/` in the repository root.  `--smoke` runs the same command
sequences on small inputs (see test_perfbench.py).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"


def build() -> None:
    WORK.mkdir(exist_ok=True)
    with open(WORK / "build.log", "w") as log:
        subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, check=True, timeout=800,
        )


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for testing")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    for needed in ("setup.py", "src/dyadicproj/__init__.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found; run from a dyadicproj checkout", file=sys.stderr)
            return 2

    build()
    sys.path.insert(0, str(ROOT / "src"))
    import bench  # imports dyadicproj, so only after the build

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, spec, WORK)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
