"""Smoke tests of the benchmark itself: every workload's command sequence
on small inputs, the output checks against broken outputs, and the
tracing wrappers.  Run from the repository root in a few seconds:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dyadicproj import _exact, cli, content, regularity  # noqa: E402
from dyadicproj.grid import GridPointSet, read_pointset, write_pointset  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_workload_names_match_the_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS) == sorted(workloads.SMOKE_WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_is_correct(tmp_path, name, trace):
    result = bench.run(name, 3, 0.0, trace, True, SPEC, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    # a second run of the same seed is compared with the stored digests
    again = bench.run(name, 3, 0.0, trace, True, SPEC, tmp_path)
    assert again["correct"] and again["failed"] == 0


def test_traced_counts(tmp_path):
    result = bench.run("scan", 5, 0.0, True, True, SPEC, tmp_path)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["projection.directions"] == 20 and m["kernels.coincidence_count_calls"] == 20
    n = len(read_pointset(tmp_path / "scan-input.txt"))
    assert m["kernels.riesz_pairs"] == n * (n - 1)
    assert m["fractals.cells"] == n and m["content.build_cover_tree_calls"] == 1


def test_wrappers_patch_every_binding_and_restore():
    originals = (cli.optimal_cover, regularity.optimal_cover, regularity.build_cover_tree,
                 content.build_cover_tree, vars(_exact.ExponentContext)["compare"])
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as (patched, missing):
        assert not missing
        assert cli.optimal_cover is not originals[0]
        assert regularity.optimal_cover is not originals[1]
        assert regularity.build_cover_tree is not originals[2]
        assert content.build_cover_tree is not originals[3]
        assert vars(_exact.ExponentContext)["compare"] is not originals[4]
        ctx = _exact.ExponentContext.create(1.5)
        assert ctx.compare({3: 1}, {3: 1}) == 0
    assert not tracing.unrestored(patched)
    assert (cli.optimal_cover, regularity.optimal_cover, regularity.build_cover_tree,
            content.build_cover_tree, vars(_exact.ExponentContext)["compare"]) == originals
    assert tracer.hot["exact.compare"][0] == 1


def test_self_time_excludes_traced_children():
    tracer = tracing.Tracer()
    inner = lambda: tracer.call("inner", sum, ([1, 2],))  # noqa: E731
    assert tracer.call("outer", lambda: [inner() for _ in range(3)]) == [3, 3, 3]
    seconds, calls = tracer.totals()
    assert calls == {"inner": 3, "outer": 1}
    outer = next(s for s in tracer.spans if s[2] == "outer")
    assert all(s[1] == outer[0] for s in tracer.spans if s[2] == "inner")
    assert seconds["outer"] + seconds["inner"] == pytest.approx(outer[4] - outer[3])


@pytest.fixture
def outputs(tmp_path):
    """One smoke sequence of each workload, run into tmp_path."""
    done = {}
    for name in NAMES:
        wl = workloads.workload(name, smoke=True)
        path = tmp_path / f"{name}.txt"
        write_pointset(wl.input.build(3), path)
        seq = bench.run_sequence(wl, path, 3, tmp_path / name)
        done[name] = (read_pointset(path), seq.runs)
    return done


def _run(outputs, name, cmd):
    P, runs = outputs[name]
    return P, next(r for r in runs if r.argv[0] == cmd)


def _errors(P, r):
    return checks.check_command(r.argv, r.rc, r.stdout, r.out, P)


def test_checks_pass_on_real_outputs(outputs):
    for P, runs in outputs.values():
        for r in runs:
            assert _errors(P, r) == [], r.argv


def test_scan_check_catches_a_flipped_label(outputs):
    P, r = _run(outputs, "scan", "scan")
    path = r.out / "scan.txt"
    text = path.read_text()
    flipped = text.replace("label good", "label bad", 1) if "label good" in text else text.replace("label bad", "label good", 1)
    path.write_text(flipped)
    assert any("labelled" in e for e in _errors(P, r))


def test_cover_check_catches_a_missing_cube(outputs):
    P, r = _run(outputs, "selfsim", "content")
    path = r.out / "cover.txt"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[1:]) + "\n")
    errors = _errors(P, r)
    assert any("under no cube" in e for e in errors) and any("footer" in e for e in errors)


def test_partition_check_catches_a_dropped_cell(outputs):
    P, r = _run(outputs, "selfsim", "decompose")
    good = read_pointset(r.out / "good.txt")
    write_pointset(GridPointSet(good.dim, good.level, good.cells[1:]), r.out / "good.txt")
    assert any("partition" in e for e in _errors(P, r))


def test_subset_check_catches_a_foreign_cell(outputs):
    P, r = _run(outputs, "selfsim", "frostman")
    S = read_pointset(r.out / "subset.txt")
    outside = next(c for c in range(1 << P.level) if (c,) * P.dim not in P)
    grown = S.union(GridPointSet(S.dim, S.level, [(outside,) * S.dim]))
    write_pointset(grown, r.out / "subset.txt")
    assert any("not a subset" in e for e in _errors(P, r))


def test_multiscan_check_catches_a_wrong_exit_code_and_missing_scale(outputs):
    P, r = _run(outputs, "multiscan", "multiscan")
    assert any("exit code" in e for e in checks.check_multiscan(r.argv, 2 - r.rc, r.out, P))
    summary = r.out / "summary.csv"
    summary.write_text("\n".join(summary.read_text().splitlines()[:-1]) + "\n")
    assert any("scales" in e for e in _errors(P, r))


def test_a_changed_digest_counts_as_failed(outputs):
    P, runs = outputs["selfsim"]
    seq = bench.Sequence(1.0, runs, None)
    earlier = [r.digest for r in runs]
    assert bench.count_failures([seq, seq], P, earlier) == (8, 0)
    earlier[1] = "0" * 64
    assert bench.count_failures([seq], P, earlier) == (4, 1)


def test_run_py_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert " backend " in proc.stdout.splitlines()[0]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
