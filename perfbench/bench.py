"""Measurement of one workload: set-up, timed command sequences, output
checks and, in a traced run, the per-layer figures.

Every command goes through the public entry point `dyadicproj.cli.main`
in this process.  run.py builds the package and puts `src` on the path
before importing this module.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dyadicproj
from dyadicproj import cli, kernels
from dyadicproj.grid import read_pointset

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
MIN_SEQUENCES = 3
TRACED_SEQUENCES = 2


@dataclass
class CommandRun:
    argv: tuple[str, ...]
    out: Path
    rc: int | None
    stdout: str
    stderr: str
    error: str = ""  # traceback when the command raised
    digest: str = ""


@dataclass
class Sequence:
    wall_s: float
    runs: list[CommandRun]
    tracer: tracing.Tracer | None


def run_sequence(wl, input_path: Path, seed: int, out_dir: Path, tracer=None) -> Sequence:
    """Run the workload's commands once; wall time spans the first
    `cli.main` call to the last return."""
    runs = []
    start = time.perf_counter()
    for k, argv in enumerate(wl.commands):
        out = out_dir / f"{k}-{argv[0]}"
        full = [*argv, "--input", str(input_path), "--seed", str(seed), "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        rc, error = None, ""
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                if tracer is None:
                    rc = cli.main(full)
                else:
                    rc = tracer.call(f"cli.{argv[0]}", cli.main, (full,))
            except Exception:
                error = traceback.format_exc()
        runs.append(CommandRun(argv, out, rc, stdout.getvalue(), stderr.getvalue(), error))
    wall = time.perf_counter() - start
    for r in runs:
        r.digest = checks.digest(r.rc, r.stdout, r.out)
    return Sequence(wall, runs, tracer)


def timed_setups(name: str, seed: int, smoke: bool, path: Path, repeats: int) -> list[float]:
    """Wall times of fresh processes that import dyadicproj, build the
    workload's input and write it with grid.write_pointset."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(Path(workloads.__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--out", str(path)] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=150)
        times.append(time.perf_counter() - start)
    return times


def _check(run: CommandRun, P) -> list[str]:
    try:
        return checks.check_command(run.argv, run.rc, run.stdout, run.out, P)
    except Exception as exc:  # an unreadable output is a failed check
        return [f"check raised {exc!r}"]


def store_key(name: str, seed: int, smoke: bool, input_path: Path) -> str:
    """Runs with equal keys must give byte-identical outputs: same
    workload, seed, input, program source and kernel backend."""
    h = hashlib.sha256(input_path.read_bytes())
    for path in sorted((ROOT / "src" / "dyadicproj").rglob("*")):
        if path.suffix in (".py", ".pyx", ".c"):
            h.update(path.name.encode() + path.read_bytes())
    mode = "smoke" if smoke else "full"
    return f"{name}/{seed}/{mode}/{kernels.backend_name()}/{h.hexdigest()[:16]}"


def _load_store(path: Path) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


def _save_store(path: Path, store: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)


def count_failures(sequences: list[Sequence], P, earlier: list[str] | None) -> tuple[int, int]:
    """(attempted, failed) over every command run.  A command fails on an
    exception, an output check (made on the first sequence; later ones
    must match its digests) or a digest that differs from an earlier run
    of the same seed."""
    attempted = failed = 0
    first = sequences[0].runs
    for i, seq in enumerate(sequences):
        for k, r in enumerate(seq.runs):
            attempted += 1
            errors = [r.error] if r.error else []
            if i == 0 and not r.error:
                errors += _check(r, P)
            if r.digest != first[k].digest:
                errors.append("output differs from the first sequence of this run")
            if earlier is not None and r.digest != earlier[k]:
                errors.append("output differs from an earlier run of this seed")
            if errors:
                failed += 1
                print(f"FAILED {' '.join(r.argv)} (sequence {i}, exit {r.rc}):", file=sys.stderr)
                for e in errors:
                    print(f"  {e}", file=sys.stderr)
                if r.stderr:
                    print(f"  stderr: {r.stderr.strip()}", file=sys.stderr)
    return attempted, failed


def cross_check_counts(tracers: list[tracing.Tracer], out_dir: Path, earlier: dict | None) -> list[str]:
    """Counters agree with each other, with the scan reports and with an
    earlier traced run of the same seed."""
    problems = []
    counts = [tracing.repeated_counts(t) for t in tracers]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("counts differ between traced sequences")
    if earlier is not None and earlier != counts[0]:
        problems.append("counts differ from an earlier traced run of this seed")
    energy = directions = 0
    from_mean = 0.0
    for path in sorted(out_dir.glob("*/*scan.txt")):
        fields, records = checks.read_scan(path)
        energy += sum(r[0] for r in records)
        directions += int(fields["num_samples"])
        from_mean += float(fields["mean_energy"]) * int(fields["num_samples"])
    pairs = tracers[0].counts.get("kernels.pairs_counted", 0)
    if pairs != energy or not math.isclose(pairs, from_mean, rel_tol=1e-12, abs_tol=0.5):
        problems.append(f"kernels.pairs_counted {pairs} != reported energy {energy} ({from_mean:.17g})")
    if tracers[0].counts.get("projection.directions", 0) != directions:
        problems.append(f"projection.directions != {directions} sampled in the reports")
    return problems


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict, work: Path) -> dict:
    """Measure one workload and return the result object."""
    wl = workloads.workload(name, smoke)
    work.mkdir(parents=True, exist_ok=True)
    input_path = work / f"{name}-input.txt"
    out_root = work / "out"
    shutil.rmtree(out_root, ignore_errors=True)

    setups = timed_setups(name, seed, smoke, input_path, 1 if trace else SETUP_REPEATS)

    sequences: list[Sequence] = []

    def measure(tracer=None) -> None:
        gc.collect()
        i = len(sequences)
        if tracer is None:
            seq = run_sequence(wl, input_path, seed, out_root / str(i))
        else:
            with tracing.installed(tracer) as (patched, missing):
                seq = run_sequence(wl, input_path, seed, out_root / str(i), tracer)
            problems.extend(f"not restored: {a}" for a in tracing.unrestored(patched))
            for m in missing:
                print(f"note: {m} not found, its layer metrics read 0", file=sys.stderr)
        if i > 0:
            shutil.rmtree(out_root / str(i), ignore_errors=True)
        sequences.append(seq)

    problems: list[str] = []
    start = time.perf_counter()

    # untraced sequences until the next one would end past the budget
    budget = seconds / 2 if trace else seconds
    while len(sequences) < (1 if trace else MIN_SEQUENCES) or (
        time.perf_counter() - start + sequences[-1].wall_s <= budget
    ):
        measure()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced = [s.wall_s for s in sequences]

    if trace:
        setup_tracer = tracing.Tracer()
        with tracing.installed(setup_tracer) as (patched, _):
            rebuilt = wl.input.build(seed)
        problems.extend(f"not restored: {a}" for a in tracing.unrestored(patched))
        for _ in range(TRACED_SEQUENCES):
            measure(tracing.Tracer())

    P = read_pointset(input_path)
    store_path = work / "digests.json"
    store = _load_store(store_path)
    key = store_key(name, seed, smoke, input_path)
    attempted, failed = count_failures(sequences, P, store.get(key))

    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if trace:
        tracers = [s.tracer for s in sequences if s.tracer is not None]
        if not np.array_equal(rebuilt.cells, P.cells):
            problems.append("the input differs when rebuilt in this process")
        problems += cross_check_counts(tracers, out_root / "0", store.get(key + "/counts"))
        values = tracing.layer_metrics([n for n in units if n != "trace.overhead_s"], tracers, setup_tracer)
        values["trace.overhead_s"] = statistics.median(s.wall_s for s in sequences[len(untraced):]) - statistics.median(untraced)
    else:
        values = {"wall_s": statistics.median(untraced), "setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb}
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}

    correct = failed == 0 and not problems
    for p in problems:
        print(f"FAILED cross-check: {p}", file=sys.stderr)
    if correct:
        store.setdefault(key, [r.digest for r in sequences[0].runs])
        if trace:
            store.setdefault(key + "/counts", tracing.repeated_counts(tracers[0]))
        _save_store(store_path, store)

    meta = {
        "workload": name, "seed": seed, "smoke": smoke,
        "input_cells": len(P), "backend": kernels.backend_name(),
        "version": dyadicproj.__version__, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
        "trace": trace, "sequences": len(sequences),
    }
    print(f"{name} seed {seed}: {len(P)} cells, backend {meta['backend']}, "
          f"{len(sequences)} sequences, fail_rate {failed / attempted:g} ({failed}/{attempted})")
    for n, m in metrics.items():
        print(f"  {n} {m['value']:.6g} {m['unit']}")
    print("meta " + json.dumps(meta))

    results = work / "results"
    results.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": metrics, "wall_s": [s.wall_s for s in sequences],
              "setup_s": setups, "attempted": attempted, "failed": failed, "problems": problems}
    if trace:
        record["spans"] = tracing.spans_json(tracers)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
