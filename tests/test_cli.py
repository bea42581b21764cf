import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dyadicproj
from dyadicproj import cli, grid, kernels, projection
from dyadicproj.cli import main
from dyadicproj.grid import DyadicCube, read_pointset
from dyadicproj.projection import read_summary

from conftest import ROOT


def run(args):
    return main([str(a) for a in args])


CANTOR2 = "cantor:keep=0|3,base=4,dims=2,iters=3"


class TestGenerate:
    def test_cantor(self, tmp_path):
        assert run(["generate", "--gen", CANTOR2, "--out", tmp_path]) == 0
        P = read_pointset(tmp_path / "points.txt")
        assert len(P) == 64 and P.level == 6

    def test_random_requires_seed(self, tmp_path, capsys):
        assert run(["generate", "--gen", "random:n=2,s=1.0,level=5", "--out", tmp_path]) == 1
        assert "seed" in capsys.readouterr().err

    def test_input_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent.txt"
        assert run(["generate", "--input", missing, "--gen", "point:n=2,level=3",
                    "--out", tmp_path]) == 1
        assert "--input" in capsys.readouterr().err
        assert run(["generate", "--out", tmp_path]) == 1
        assert "--gen" in capsys.readouterr().err
        assert not (tmp_path / "points.txt").exists()

    def test_force_guard(self, tmp_path):
        assert run(["generate", "--gen", CANTOR2, "--out", tmp_path]) == 0
        assert run(["generate", "--gen", CANTOR2, "--out", tmp_path]) == 1
        assert run(["generate", "--gen", CANTOR2, "--out", tmp_path, "--force"]) == 0


class TestContentSpreadFrostman:
    def test_content_value(self, tmp_path, capsys):
        assert run(["content", "--gen", CANTOR2, "--s", 1.0, "--out", tmp_path]) == 0
        assert "value 1" in capsys.readouterr().out
        assert (tmp_path / "cover.txt").read_text().splitlines()[-1] == "value 1"

    def test_spread(self, tmp_path, capsys):
        assert run(["spread", "--gen", CANTOR2, "--s", 1.0]) == 0
        assert "spread_constant 1" in capsys.readouterr().out

    def test_frostman(self, tmp_path, capsys):
        assert run(["frostman", "--gen", CANTOR2, "--s", 1.0, "--out", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "size 64" in out
        assert read_pointset(tmp_path / "subset.txt").level == 6

    def test_input_file_round_trip(self, tmp_path, capsys):
        assert run(["generate", "--gen", CANTOR2, "--out", tmp_path]) == 0
        assert run(
            ["content", "--input", tmp_path / "points.txt", "--s", 1.0,
             "--out", tmp_path]
        ) == 0
        assert "value 1" in capsys.readouterr().out

    def test_unreadable_input(self, tmp_path, capsys):
        assert run(["content", "--input", tmp_path / "nope.txt", "--s", 1.0]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_integer_beyond_int64_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "points.txt"
        path.write_text("1 3 2\n1\n99999999999999999999\n")
        assert run(["spread", "--input", path, "--s", 1.0]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: row '99999999999999999999' has an integer outside int64\n"
        )


class TestNoCubeObjects:
    def test_command_paths_build_no_dyadic_cube(self, tmp_path, monkeypatch):
        built, check = [], DyadicCube.__post_init__
        monkeypatch.setattr(DyadicCube, "__post_init__", lambda c: built.append(c) or check(c))
        gen = ["--gen", "random:n=2,s=1.5,level=7", "--seed", 3, "--s", 1.5]
        assert run(["content", *gen, "--out", tmp_path / "c"]) == 0
        assert run(["decompose", *gen, "--big-l", 1.6, "--out", tmp_path / "d"]) == 0
        assert run(
            ["multiscan", *gen, "--eps", 0.1, "--samples", 5, "--level-min", 3,
             "--level-max", 7, "--out", tmp_path / "m"]
        ) == 0
        # decompose found heavy cubes: its list holds more than the footer
        assert len((tmp_path / "d" / "heavy.txt").read_text().splitlines()) > 1
        assert built == []


class TestDecompose:
    def test_cluster(self, tmp_path, capsys):
        assert run(
            ["decompose", "--gen", "cluster:n=1,level=10,cube_level=5",
             "--s", 1.0, "--big-l", 4.0, "--out", tmp_path]
        ) == 0
        out = capsys.readouterr().out
        assert "good 0 bad 32" in out
        assert (tmp_path / "heavy.txt").exists()

    def test_default_big_l_keeps_root_light(self, tmp_path, capsys):
        # L defaults to 2/tau, so tau*L = 2 and the root cube is not heavy
        assert run(["decompose", "--gen", CANTOR2, "--s", 1.0, "--out", tmp_path]) == 0
        words = capsys.readouterr().out.split()
        assert int(words[words.index("good") + 1]) > 0
        assert words[words.index("budget") + 1] == "0.5"  # 1 / (tau * L)

    @pytest.mark.parametrize("command", ["decompose", "multiscan"])
    @pytest.mark.parametrize("big_l", ["nan", "inf"])
    def test_big_l_not_finite_is_usage_error(self, tmp_path, capsys, command, big_l):
        # a NaN L switched heavy pruning off: good 64 bad 0, where L = 1 prunes all 64
        argv = [command, "--gen", "cluster:n=2,level=6,cube_level=3", "--s", 1.0,
                "--big-l", big_l, "--out", tmp_path]
        if command == "multiscan":
            argv += ["--eps", 0.1, "--samples", 5, "--seed", 1,
                     "--level-min", 6, "--level-max", 6]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: L={big_l} must be finite")
        assert not list(tmp_path.iterdir())

    def test_same_normalisation_as_multiscan(self, tmp_path, capsys):
        # at s = 1/3 and level 9, len(P) * 2.0 ** (-9 * s) and
        # len(P) * (2.0 ** -9) ** s differ in the last bit
        gen = ["--gen", "cluster:n=2,level=9,cube_level=3", "--s", "0.3333333333333333"]
        assert run(["decompose", *gen, "--out", tmp_path / "d"]) == 0
        assert run(["multiscan", *gen, "--eps", 0.1, "--samples", 3, "--seed", 1,
                    "--level-min", 9, "--level-max", 9, "--out", tmp_path / "m"]) == 0
        for name in ("good", "bad", "heavy"):
            got = (tmp_path / "d" / f"{name}.txt").read_text()
            assert got == (tmp_path / "m" / f"scale9_{name}.txt").read_text(), name

    def test_exact_tie_is_heavy(self, tmp_path, capsys):
        # the level-2 cube of {0, 1} holds 2 cells, and its threshold at the
        # default normalisation is exactly 2 (2.0000000000000004 in floats)
        points = tmp_path / "points.txt"
        points.write_text("1 3 2\n0\n1\n")
        assert run(["decompose", "--input", points, "--s", 0.5, "--out", tmp_path / "d"]) == 0
        assert capsys.readouterr().out == (
            "good 0 bad 2 heavy_cubes 1 heavy_weight 0.5 budget 0.5\n"
        )
        assert (tmp_path / "d" / "heavy.txt").read_text() == "2 0\nvalue 0.5\n"


CANTOR4 = "cantor:keep=0|3,base=4,dims=2,iters=4"


def test_outputs_byte_identical_across_backends(impls, monkeypatch, tmp_path, capsys):
    # the Cantor scan at s = 1 has bad directions, so bad records are compared too
    commands = [
        ["multiscan", "--gen", "random:n=2,s=1.5,level=8", "--s", 1.5, "--eps", 0.1,
         "--samples", 20, "--seed", 5, "--level-min", 4, "--level-max", 8],
        ["scan", "--gen", "random:n=3,s=2.0,level=5", "--m", 2, "--s", 2.0, "--eps", 0.1,
         "--samples", 20, "--seed", 3],
        ["scan", "--gen", CANTOR4, "--s", 1.0, "--eps", 0.05, "--samples", 50, "--seed", 3],
        ["content", "--gen", CANTOR4, "--s", 1.0],
        ["decompose", "--gen", CANTOR4, "--s", 1.0, "--big-l", 128],
        ["frostman", "--gen", CANTOR4, "--s", 1.0],
    ]
    seen = {}
    for name, impl in impls.items():
        monkeypatch.setattr(kernels, "_active", impl)
        seen[name] = []
        for k, argv in enumerate(commands):
            out = tmp_path / name / str(k)
            code = run([*argv, "--out", out])
            files = {f.name: f.read_bytes() for f in out.iterdir()}
            seen[name].append((code, capsys.readouterr(), files))
    assert seen["python"] == seen["compiled"]
    assert sum(len(files) for _, _, files in seen["python"]) == 38
    assert b"label bad" in seen["python"][2][2]["scan.txt"]


class TestScan:
    def test_scan_writes_reports(self, tmp_path, capsys):
        assert run(
            ["scan", "--gen", CANTOR2, "--s", 1.0, "--eps", 0.1,
             "--samples", 20, "--seed", 4, "--out", tmp_path]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("bad_fraction ")
        assert [f.name for f in tmp_path.iterdir()] == ["scan.txt"]

    def test_seed_required(self, tmp_path, capsys):
        assert run(
            ["scan", "--gen", CANTOR2, "--s", 1.0, "--eps", 0.1,
             "--samples", 5, "--out", tmp_path]
        ) == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--samples", 0, "--m", 5], "need 0 < m < n, got m=5 n=2"),
            (["--samples", 0, "--s", 1.0, "--eps", 2.0], "need 0 < eps < s"),
            (["--samples", 3, "--s", 5.0, "--eps", 0.1], "exponent s=5.0 outside (0, 2]"),
            (["--samples", 3, "--workers", 0], "workers must be >= 1, got 0"),
        ],
    )
    def test_parameters_checked_before_sampling(self, tmp_path, capsys, argv, message):
        # each exited 0 with a report (workers 0 ran serially); multiscan
        # already refused the same s
        base = ["scan", "--gen", CANTOR2, "--seed", 4, "--s", 1.0, "--eps", 0.1]
        assert run(base + argv + ["--out", tmp_path]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not list(tmp_path.iterdir())


class TestMultiscan:
    def _run(self, out, workers, seed=77):
        return run(
            ["multiscan", "--gen", CANTOR2, "--s", 1.0, "--eps", 0.1,
             "--samples", 40, "--seed", seed, "--level-min", 4, "--level-max", 6,
             "--workers", workers, "--out", out]
        )

    def test_cantor_passes_budget(self, tmp_path):
        assert self._run(tmp_path / "a", 1) == 0
        records = read_summary(tmp_path / "a" / "summary.csv")
        assert [r.scale for r in records] == [4, 5, 6]

    def test_byte_identical_across_workers(self, tmp_path):
        assert self._run(tmp_path / "w1", 1) == 0
        assert self._run(tmp_path / "w8", 8) == 0
        files1 = sorted((tmp_path / "w1").iterdir())
        files8 = sorted((tmp_path / "w8").iterdir())
        assert [f.name for f in files1] == [f.name for f in files8]
        for f1, f8 in zip(files1, files8):
            assert f1.read_bytes() == f8.read_bytes()

    def test_rerun_identical(self, tmp_path):
        assert self._run(tmp_path / "r", 2) == 0
        first = {f.name: f.read_bytes() for f in (tmp_path / "r").iterdir()}
        assert run(
            ["multiscan", "--gen", CANTOR2, "--s", 1.0, "--eps", 0.1,
             "--samples", 40, "--seed", 77, "--level-min", 4, "--level-max", 6,
             "--workers", 2, "--out", tmp_path / "r", "--force"]
        ) == 0
        second = {f.name: f.read_bytes() for f in (tmp_path / "r").iterdir()}
        assert first == second

    def test_builds_one_tree_per_input_and_net(self, tmp_path, monkeypatch):
        built, build = [], grid._build_tree
        monkeypatch.setattr(grid, "_build_tree", lambda P: built.append(P) or build(P))
        assert run(
            ["multiscan", "--gen", "random:n=2,s=1.5,level=8", "--s", 1.5, "--eps", 0.1,
             "--samples", 5, "--seed", 3, "--level-min", 3, "--level-max", 8,
             "--out", tmp_path]
        ) == 0
        # the input's tree serves every scale; each scanned net builds its own
        scanned = sorted(int(f.name[5:-9]) for f in tmp_path.glob("scale*_scan.txt"))
        assert len(scanned) == 6
        cells = len(read_pointset(tmp_path / "scale8_points.txt"))  # the input's
        assert [(P.level, len(P)) for P in built[:1]] == [(8, cells)]
        assert [P.level for P in built[1:]] == scanned

    def test_empty_nets_scan_nothing(self, tmp_path):
        # at s = 1 the level-1 cube holding every cell is heavy at each
        # scale, so each good part, and its net, is empty
        assert run(
            ["multiscan", "--gen", "point:n=2,level=5", "--s", 1.0, "--eps", 0.1,
             "--samples", 5, "--seed", 1, "--level-min", 1, "--level-max", 5,
             "--out", tmp_path]
        ) == 0
        records = read_summary(tmp_path / "summary.csv")
        assert len(records) == 5
        for r in records:
            assert r.good == 0
            assert r.bad_fraction == r.mean_energy == r.energy_bound == 0.0
        assert not list(tmp_path.glob("scale*_scan.txt"))

    @pytest.mark.parametrize("argv", [["--eps", 5], ["--m", 7]])
    def test_parameters_checked_with_every_net_empty(self, tmp_path, capsys, argv):
        # no scale scans, so no direction_scan call is left to refuse them
        code = run(
            ["multiscan", "--gen", "point:n=2,level=5", "--s", 1.0, "--eps", 0.1,
             "--samples", 5, "--seed", 1, "--level-min", 1, "--level-max", 5,
             "--out", tmp_path, *argv]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: need 0 <")
        assert not list(tmp_path.iterdir())

    def test_one_gate_decides_exit_code_and_summary(self, tmp_path, monkeypatch, capsys):
        calls = []

        def gate(n_bad, num_samples, level, eps):
            calls.append((level, n_bad, num_samples))
            return level == 5

        monkeypatch.setattr(projection, "_over_budget", gate)
        assert self._run(tmp_path, 1) == 2
        assert "violation" in capsys.readouterr().err
        records = read_summary(tmp_path / "summary.csv")
        assert [r.violation for r in records] == [False, True, False]
        # the gate sees the bad count behind each scale's bad_fraction
        assert [level for level, _, _ in calls] == [4, 5, 6]
        for (_, n_bad, num_samples), r in zip(calls, records):
            assert num_samples == 40 and n_bad / 40 == r.bad_fraction

    def test_readme_exit_two_example(self, tmp_path, capsys):
        # README's four-corner Cantor set at s = 0.9, which is not regular there
        code = run(
            ["multiscan", "--gen", "cantor:keep=0|3,base=4,dims=2,iters=6", "--s", 0.9,
             "--eps", 0.05, "--samples", 200, "--seed", 3, "--level-min", 6,
             "--level-max", 12, "--out", tmp_path]
        )
        assert code == 2
        assert "violation" in capsys.readouterr().err
        rows = {r.scale: r for r in read_summary(tmp_path / "summary.csv")}
        assert [int(rows[j].violation) for j in range(6, 13)] == [0, 0, 1, 0, 1, 0, 1]
        assert rows[8].bad_fraction == 0.78
        assert rows[8].budget == 0.75785828325519899

    def test_negative_samples_is_usage_error(self, tmp_path, capsys):
        # every net is empty, so no direction_scan call is left to refuse it
        code = run(
            ["multiscan", "--gen", "point:n=2,level=5", "--s", 1.0, "--eps", 0.1,
             "--samples", -1, "--seed", 1, "--level-min", 1, "--level-max", 5,
             "--out", tmp_path]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: num_samples must be >= 0\n"
        assert not list(tmp_path.iterdir())

    def test_workers_below_one_is_usage_error(self, tmp_path, capsys):
        # it ran serially and wrote every scale
        code = run(
            ["multiscan", "--gen", CANTOR2, "--s", 1.0, "--eps", 0.1, "--samples", 4,
             "--seed", 1, "--level-min", 4, "--level-max", 6, "--workers", -1, "--out", tmp_path]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: workers must be >= 1, got -1\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("existing", ["scale8_scan.txt", "summary.csv"])
    def test_existing_output_refused_before_any_scale(self, tmp_path, capsys, existing):
        # each scale's files were checked only when that scale was reached,
        # and summary.csv only at the end, so earlier scales were written
        (tmp_path / existing).write_text("kept\n")
        code = run(
            ["multiscan", "--gen", CANTOR4, "--s", 1.0, "--eps", 0.1, "--samples", 5,
             "--seed", 1, "--level-min", 4, "--level-max", 8, "--out", tmp_path]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / existing} exists; pass --force to overwrite\n"
        )
        assert [f.name for f in tmp_path.iterdir()] == [existing]
        assert (tmp_path / existing).read_text() == "kept\n"

    def test_empty_level_range_is_usage_error(self, tmp_path, capsys):
        code = run(
            ["multiscan", "--gen", CANTOR2, "--s", 1.0, "--eps", 0.1,
             "--samples", 5, "--seed", 1, "--level-min", 5, "--level-max", 4,
             "--out", tmp_path]
        )
        assert code == 1

    def test_level_range_beyond_input(self, tmp_path):
        code = run(
            ["multiscan", "--gen", CANTOR2, "--s", 1.0, "--eps", 0.1,
             "--samples", 5, "--seed", 1, "--level-min", 4, "--level-max", 9,
             "--out", tmp_path]
        )
        assert code == 1


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--s", 1.0, "--big-l", 0.5],
            ["content", "--s", 5],
            ["scan", "--seed", 1, "--s", 1.0, "--eps", 5, "--samples", 4],
            ["scan", "--seed", 1, "--s", 1.0, "--eps", 0.1, "--samples", 4, "--m", 2],
            ["scan", "--seed", 1, "--s", 1.0, "--eps", 0.1, "--samples", -1],
        ],
    )
    def test_invalid_option_value_is_an_error_line(self, tmp_path, capsys, argv):
        assert run(argv + ["--gen", CANTOR2, "--out", tmp_path]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["scan", "--nope"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [["multiscan", "--slack", 1], ["multiscan", "--tau", 0.1], ["decompose", "--tau", 0.1],
         ["content", "--j-min", 0]],
    )
    def test_removed_option_is_unrecognized(self, tmp_path, capsys, argv):
        rest = ["--gen", CANTOR2, "--s", 1.0, "--out", tmp_path]
        if argv[0] == "multiscan":
            rest += ["--eps", 0.1, "--samples", 5, "--seed", 1, "--level-min", 4, "--level-max", 6]
        assert run(argv + rest) == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {argv[1]} {argv[2]}\n"
        assert not list(tmp_path.iterdir())

    def test_missing_input_and_gen(self, tmp_path, capsys):
        assert run(["content", "--s", 1.0, "--out", tmp_path]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_both_input_and_gen(self, tmp_path, capsys):
        assert run(
            ["content", "--input", "x.txt", "--gen", CANTOR2, "--s", 1.0,
             "--out", tmp_path]
        ) == 1

    def test_module_entry_point(self):
        src = str(Path(dyadicproj.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "dyadicproj", "--help"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 0
        assert "multiscan" in done.stdout
        # Without the compiled library the package warns once at import
        # (kernels.py, README "Install").  That warning, and no other, may
        # show: the entry point itself must add no RuntimeWarning, such as
        # runpy's "'dyadicproj.cli' found in sys.modules" when the package
        # imports cli.
        stderr = done.stderr
        if kernels._compiled is None and not os.environ.get("DYADICPROJ_PURE_PYTHON"):
            stderr, warned = re.subn(
                r"^.*kernels\.py:\d+: RuntimeWarning: dyadicproj: compiled pair "
                r"kernels not built.*\n(?:[ \t].*\n)*",
                "", stderr, flags=re.M,
            )
            assert warned == 1, done.stderr
        assert "RuntimeWarning" not in stderr


def readme_cli_section() -> str:
    return (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


class TestReadme:
    def test_cli_examples_run(self, tmp_path, capsys):
        # the last sh block; the one before it is the exit-2 example, which
        # test_readme_exit_two_example runs
        block = re.findall(r"```sh\n(.*?)```", readme_cli_section(), re.S)[-1]
        lines = [line for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("dyadicproj ")]
        assert len(lines) == 7
        for line in lines:
            argv = [a.replace("run/", f"{tmp_path}/") for a in shlex.split(line)[1:]]
            assert main(argv) == 0, line
            out = capsys.readouterr().out
            if argv[0] == "decompose":  # the split its comment quotes
                assert out.startswith("good 246 bad 845 heavy_cubes 73 "), out

    def test_cli_section_names_every_option(self):
        (sub,) = [a for a in cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        options = {o for p in sub.choices.values() for a in p._actions for o in a.option_strings}
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme_cli_section()))
        assert named == options - {"-h", "--help"}
