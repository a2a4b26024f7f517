import argparse
import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracmeas import atoms, content, dimension, heat, io, potential, verify
from fracmeas.cli import build_parser, main
from fracmeas.measures import cantor_measure, new_grid_measure, unit_lattice


def run(args):
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def test_atom_gen_then_check(tmp_path, warm):
    out = str(tmp_path)
    assert run(["--out", out, "atom", "gen", "--kind", "cantor",
                "--depth", "5"]) == 0
    csv = os.path.join(out, "atom_cantor.csv")
    assert os.path.exists(csv) and os.path.exists(csv + ".json")
    assert run(["--out", out, "atom", "check", "--measure", csv,
                "--beta", "0.6309297535714574"]) == 0
    with open(os.path.join(out, "atom_check.json")) as fh:
        rep = json.load(fh)
    assert rep["results"]["pass"] is True
    assert [c["name"] for c in rep["results"]["checks"]] == [
        "support", "cancellation", "heat_bound", "variation"]
    assert rep["version"]
    assert rep["config_hash"]


def _assert_failed(capsys, path, checks):
    """The run's one stderr line names exactly ``checks`` (``name: value op
    bound`` each, as its report records them) and its report does not pass."""
    results = json.loads(path.read_text())["results"]
    assert results["pass"] is False
    failed = [c for c in results["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == checks
    line = "; ".join(f"{c['name']}: {c['value']!r} {c['op']} {c['bound']!r}" for c in failed)
    assert capsys.readouterr().err == f"{path.stem} FAILED: {line}\n"


def test_atom_check_failure_exit_code(tmp_path, capsys, warm):
    out = str(tmp_path)
    bad = new_grid_measure(1, 0.5, [0.0], [[0], [1]], [0.5, -0.5])
    csv = os.path.join(out, "bad.csv")
    io.save_measure(bad, csv)
    rc = run(["--out", out, "atom", "check", "--measure", csv,
              "--beta", "0.3", "--t-lo", "1e-9", "--t-hi", "64.0"])
    assert rc == 1
    _assert_failed(capsys, tmp_path / "atom_check.json", ["heat_bound"])


def test_usage_error_exit_2(tmp_path):
    assert run(["--out", str(tmp_path), "atom"]) == 2
    assert run(["--out", str(tmp_path), "nonsense"]) == 2


@pytest.mark.parametrize("given, missing", [("--t-lo", "--t-hi"), ("--t-hi", "--t-lo")])
def test_atom_check_half_window_exit_2(tmp_path, capsys, given, missing):
    # one bound alone used to run the default window and report the bound
    csv = str(tmp_path / "mu.csv")
    io.save_measure(cantor_measure(3), csv)
    assert run(["--out", str(tmp_path), "atom", "check", "--measure", csv,
                "--beta", "0.5", given, "1e-3"]) == 2
    assert f"{given} needs {missing}" in capsys.readouterr().err
    assert not (tmp_path / "atom_check.json").exists()


@pytest.mark.parametrize("argv", [
    "atom gen --kind linf --beta 0.3", "atom gen --kind loop --beta 0.3",
    "atom gen --kind cantor --component 0", "atom gen --kind linf --component 5",
    "atom check --measure {measure} --beta 0.5 --npd 4",
])
def test_atom_flag_its_mode_does_not_read_exit_2(tmp_path, capsys, argv):
    # each last flag used to be accepted and recorded in the config, then
    # ignored
    csv = str(tmp_path / "mu.csv")
    io.save_measure(cantor_measure(3), csv)
    out = tmp_path / "out"
    assert run(["--out", str(out), *argv.format(measure=csv).split()]) == 2
    flag = [w for w in argv.split() if w.startswith("--")][-1]
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["potential", "trace"], ["dim", "atomsum"],
    ["verify", "cor16", "--depth", "3"], ["verify", "thm15", "--alpha", "0.4"],
    ["verify", "thm18", "--scales", "2"], ["verify", "--depth", "3", "thm13"],
    ["maximal", "grand", "--measure", "m.csv", "--gamma", "0.5", "--k-min", "2"],
    ["maximal", "dyadic", "--measure", "m.csv", "--gamma", "0.5", "--npd", "4"],
], ids=" ".join)
def test_unread_flag_or_command_exit_2(tmp_path, argv):
    assert run(["--out", str(tmp_path), *argv]) == 2
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    "atom gen --kind loop --depth 0", "atom gen --kind linf --depth -1",
    "dim estimate --measure {measure} --beta-step 0",
    "dim estimate --measure {measure} --beta-step -0.5",
    "dim estimate --measure {measure} --beta-step 1.5",
    "content choquet --field {field} --beta -1",
    "content choquet --field {field} --beta 0",
    "content choquet --field {field} --beta 5",
    "verify thm13 --scales 1", "verify thm14 --scales 1", "verify thm15 --scales 1",
    "verify thm13 --scales 0", "verify thm14 --scales 0",
    # three depths give the depth sequence its first ratio
    "verify thm13 --depth 1", "verify thm13 --depth 2",
    "atom check --measure {measure} --beta 0.5 --cube-side -1",
    "atom check --measure {measure} --beta 0.5 --cube-side 0",
    "potential besov --measure {measure} --alpha 0.5 --beta 0.5 --cube-side 0",
    # its square is finite, but the far-field time window's overflows
    "atom check --measure {measure} --beta 0.5 --cube-side 1e153",
])
def test_out_of_range_input_exit_2(tmp_path, capsys, argv):
    # each used to raise a traceback, run to exit 0 on a meaningless grid,
    # scale set or cube, or exit 1 or 2 only through a later failure
    csv = str(tmp_path / "mu.csv")
    io.save_measure(cantor_measure(3), csv)
    field = tmp_path / "f.csv"
    field.write_text("level,i0,value\n3,0,1.0\n3,5,0.5\n")
    argv = argv.format(measure=csv, field=field).split()
    assert run(["--out", str(tmp_path / "out"), *argv]) == 2
    assert re.fullmatch(r"fracmeas: [^\n]+\n", capsys.readouterr().err)


@pytest.mark.parametrize("argv, named", [
    ("heat --npd 0", "--npd"),
    ("maximal grand --gamma 0.3 --npd 0", "--npd"),
    ("maximal antilocal --gamma 0.3 --npd 0 --rho 0.5", "--npd"),
    ("atom check --beta 0.5 --t-lo 1e-4 --t-hi 1 --npd 0", "--npd"),
    # a kernel 2^40 times wider than at k = 0: refused before it is built
    ("maximal lp --k -40", "k = -40"),
    ("maximal lp --k -2000", "k = -2000"),
    ("maximal lp --k 2000", "level 2000 above the grid Nyquist"),
    ("maximal lp --k 9", "level 9 above the grid Nyquist"),
    ("dim estimate --depth -1", "--depth"),
    ("potential riesz --alpha 0.5 --n-points 0", "--n-points"),
    # numpy's "Geometric sequence cannot include zero", a t_min/t_max window
    # the user never set, a time window of too many decades, a reversed range
    # run to exit 0, and a tolerance that ran the whole comparison to exit 1
    ("potential riesz --alpha 0.5 --r-lo 0", "--r-lo"),
    ("potential riesz --alpha 0.5 --r-lo -1", "--r-lo"),
    ("potential riesz --alpha 0.5 --r-lo nan", "--r-lo"),
    ("potential riesz --alpha 0.5 --r-hi inf", "--r-hi"),
    ("potential riesz --alpha 0.5 --r-lo 0.5 --r-hi 0.1", "--r-hi"),
    ("potential riesz --alpha 0.5 --tol -1", "--tol"),
    ("potential riesz --alpha 0.5 --tol nan", "--tol"),
    # a cube side whose square overflows (an OverflowError traceback)
    ("atom check --beta 0.5 --cube-side 1e200", "--cube-side"),
    ("potential besov --alpha 0.5 --beta 0.5 --cube-side 1e200", "--cube-side"),
    # a NaN truncation ran to exit 0 with the untruncated field, a NaN rho
    # exited 2 on a kernel overflow, and the dyadic variants took any gamma
    ("maximal truncated --gamma 0.3 --truncation nan", "--truncation"),
    ("maximal truncated --gamma 0.3 --truncation 0", "--truncation"),
    ("maximal truncated --gamma 0.3 --truncation inf", "--truncation"),
    ("maximal antilocal --gamma 0.3 --rho nan", "--rho"),
    ("maximal antilocal --gamma 0.3 --rho -1", "--rho"),
    ("maximal antilocal --gamma 0.3 --rho inf", "--rho"),
    ("maximal dyadic --gamma nan", "gamma must be nonnegative"),
    ("maximal dyadic --gamma -1", "gamma must be nonnegative"),
    ("maximal truncated --gamma nan --truncation 0.25", "gamma must be nonnegative"),
    ("maximal truncated --gamma -1 --truncation 0.25", "gamma must be nonnegative"),
    # an infinite or overflowing gamma ran to exit 0 with inf values (the
    # grand variants) or a junk sup (the dyadic ones), and a level whose
    # cube side overflows died in an OverflowError traceback
    ("maximal grand --gamma inf", "got inf"),
    ("maximal grand --gamma 1e308", "gamma 1e+308: s**gamma overflows"),
    ("maximal antilocal --gamma inf --rho 0.5", "got inf"),
    ("maximal dyadic --gamma inf", "got inf"),
    ("maximal dyadic --gamma 1e308", "gamma 1e+308: l(Q)^(d - gamma)"),
    ("maximal dyadic --gamma 0.3 --k-min -2000 --k-max 3", "level -2000 overflows"),
    ("maximal truncated --gamma 0.3 --k-min -2000 --truncation 0.25",
     "level -2000 overflows"),
])
def test_out_of_range_input_names_its_check(tmp_path, capsys, argv, named):
    # each used to exit 0 on a two-node time grid, die in a numpy or float
    # error (a traceback, or exit 2 with numpy's message), or exit 1 for a
    # level above Nyquist; now a check refuses it and names what it checked
    csv = str(tmp_path / "mu.csv")
    io.save_measure(cantor_measure(3), csv)
    command, flags = argv.split(" --", 1)
    argv = [*command.split(), "--measure", csv, *f"--{flags}".split()]
    assert run(["--out", str(tmp_path / "out"), *argv]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"fracmeas: [^\n]+\n", err)
    assert named in err


@pytest.mark.parametrize("header_only", [False, True], ids=["family", "header-only"])
@pytest.mark.parametrize("action, beta, bracket", [
    ("value", "0", "]"), ("value", "3", "]"), ("value", "-1", "]"), ("value", "nan", "]"),
    ("cover", "0", ")"), ("cover", "2", ")"), ("cover", "-1", ")"), ("cover", "nan", ")"),
])
def test_content_beta_is_checked_against_the_balls_dimension(tmp_path, capsys, action,
                                                             beta, bracket, header_only):
    # `value` takes beta in (0, d] and `cover` in (0, d), d from the CSV
    # header; value's beta = 0 used to report regularized_cover's range,
    # beta = 3 named no flag, and a header-only family ran to exit 0
    balls = tmp_path / "balls.csv"
    balls.write_text("x0,x1,r\n" + ("" if header_only else "0.5,0.5,0.1\n"))
    assert run(["--out", str(tmp_path / "out"), "content", action, "--balls", str(balls),
                "--beta", beta]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"fracmeas: [^\n]+\n", err)
    assert f"--beta {float(beta)} must lie in (0, 2{bracket}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["potential", "riesz", "--measure", "{measure}", "--alpha", "0.5",
     "--n-points", "100000000"],
], ids=["riesz-points"])
def test_out_of_memory_exits_1(tmp_path, argv):
    # under a 512 MB address-space limit (set in the child only) this died
    # in a MemoryError traceback: numpy's 763 MiB array for the radii
    import fracmeas
    csv = str(tmp_path / "mu.csv")
    io.save_measure(cantor_measure(3), csv)
    limit = 512 << 20
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fracmeas.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "fracmeas.cli", "--out", str(tmp_path / "out"),
         *(a.format(measure=csv) for a in argv)],
        env=env, capture_output=True, text=True, timeout=600,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stderr) == (1, "fracmeas: out of memory\n")


@pytest.mark.parametrize("beta", ["0.5", "2"])
def test_far_apart_radii_exit_2_before_rasterizing(tmp_path, beta):
    # radii 1e-12 and 0.1 put the 0.1 ball at level 42, about 8.8e11 rows of
    # its index box: the raster grew until the host ran out of memory (exit 1
    # under the 1.5 GB address-space limit, set in the child only)
    import fracmeas
    balls = tmp_path / "balls.csv"
    balls.write_text("x0,x1,r\n0.5,0.5,1e-12\n0.2,0.3,0.1\n")
    limit = 1536 << 20
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fracmeas.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "fracmeas.cli", "--out", str(tmp_path / "out"),
         "content", "value", "--balls", str(balls), "--beta", beta],
        env=env, capture_output=True, text=True, timeout=600,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 2, proc.stderr
    assert re.fullmatch(r"fracmeas: [^\n]+\n", proc.stderr)
    assert "radii 1e-12 to 0.1 need 7.74e+23 cells at raster level 42" in proc.stderr


def test_heat_csv_is_written_row_by_row(tmp_path):
    # 201 times at 1000 points: the 201000 rows held as lists before writing
    # peaked at 32 MB (`heat --npd 100000` on a depth-3 Cantor measure, 4.7M
    # rows, ran out of memory in that list)
    tg = heat.TGrid.build(1e-4, 1.0, 50)
    pts = np.linspace(0.0, 1.0, 1000)[:, None]
    vals = np.random.default_rng(0).random((len(pts), len(tg.nodes)))
    path = tmp_path / "heat_field.csv"
    tracemalloc.start()
    try:
        io.save_heat_field(heat.HeatField(points=pts, tgrid=tg, values=vals), str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tg.nodes) == 201 and len(path.read_text().splitlines()) == 201001
    assert peak < 1 << 20


@pytest.mark.parametrize("argv, given", [
    ("atom check --beta 0.5 --cube-corner 0", 1),
    ("atom check --beta 0.5 --cube-corner 0 0 0", 3),
    ("potential besov --alpha 0.5 --beta 0.5 --cube-corner 0", 1),
])
def test_cube_corner_takes_one_coordinate_per_axis(tmp_path, capsys, argv, given):
    # on a 2-d measure these died in an IndexError, stopped at numpy's
    # broadcast message, or ran to exit 0 with the corner ignored
    csv = str(tmp_path / "mu.csv")
    io.save_measure(new_grid_measure(2, 0.25, [0.0, 0.0], [[1, 1], [2, 3]], [1.0, -1.0]), csv)
    command, flags = argv.split(" --", 1)
    argv = [*command.split(), "--measure", csv, *f"--{flags}".split()]
    assert run(["--out", str(tmp_path / "out"), *argv]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"fracmeas: [^\n]+\n", err)
    assert "--cube-corner" in err and "2-d measure" in err and f"got {given}" in err


def _leaves(parser, path=()):
    """(command path, parser) of every runnable subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaves(child, path + (name,))


_LEAVES = dict(_leaves(build_parser()))

# tiny inputs for every subcommand, with the report each one writes; all
# flags but `atom gen --beta` (cantor only) are given on the command line
_TINY = {
    "atom gen": (["--kind", "loop", "--depth", "4", "--component", "1"], "atom_gen_loop"),
    "atom check": (["--measure", "{measure}", "--beta", "0.6", "--cube-corner", "0",
                    "--cube-side", "1", "--t-lo", "1e-4", "--t-hi", "4", "--npd", "4"],
                   "atom_check"),
    "heat": (["--measure", "{measure}", "--npd", "4"], "heat"),
    "potential riesz": (["--measure", "{measure}", "--alpha", "0.5", "--r-lo", "0.2",
                         "--r-hi", "5", "--n-points", "4", "--tol", "0.01"],
                        "potential_riesz"),
    "potential besov": (["--measure", "{measure}", "--alpha", "0.5", "--beta", "0.6",
                         "--cube-corner", "0", "--cube-side", "1"], "potential_besov"),
    "maximal dyadic": (["--measure", "{measure}", "--gamma", "0.3", "--k-min", "1",
                        "--k-max", "6"], "maximal_dyadic"),
    "maximal truncated": (["--measure", "{measure}", "--gamma", "0.3", "--k-min", "1",
                           "--k-max", "6", "--truncation", "0.25"], "maximal_truncated"),
    "maximal grand": (["--measure", "{measure}", "--gamma", "0.3", "--npd", "4"],
                      "maximal_grand"),
    "maximal antilocal": (["--measure", "{measure}", "--gamma", "0.3", "--npd", "4",
                           "--rho", "0.5"], "maximal_antilocal"),
    "maximal lp": (["--measure", "{measure}", "--k", "3", "--band"], "lp_band"),
    "content value": (["--balls", "{balls}", "--beta", "0.5"], "content_value"),
    "content cover": (["--balls", "{balls}", "--beta", "0.5"], "content_cover"),
    "content choquet": (["--field", "{field}", "--beta", "0.5"], "content_choquet"),
    "dim estimate": (["--measure", "{measure}", "--depth", "8", "--beta-step", "0.25"],
                     "dim_estimate"),
    "verify thm13": (["--alpha", "0.6", "--scales", "2", "--depth", "4"], "verify_thm13"),
    "verify thm14": (["--alpha", "0.6", "--scales", "2", "--depth", "4"], "verify_thm14"),
    "verify thm15": (["--scales", "2", "--depth", "4"], "verify_thm15"),
    "verify cor16": ([], "verify_cor16"),
    "verify thm18": (["--depth", "4"], "verify_thm18"),
    "verify thm19": (["--depth", "4"], "verify_thm19"),
}


def _readme_cli_lines():
    """The command lines of the README's CLI block: (command, flags, defaults)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```\n")[1]
    for line in block.splitlines():
        if not line.startswith("fracmeas "):
            continue
        words = line.split()[1:]
        first = next((i for i, w in enumerate(words) if w[0] in "-[<"), len(words))
        rest = " ".join(words[first:])
        yield (" ".join(words[:first]), set(re.findall(r"--[a-z][a-z-]*", rest)),
               dict(re.findall(r"\[(--[a-z][a-z-]*) (-?[0-9][0-9.e-]*)\]", rest)))


def test_readme_cli_block_matches_parser():
    # the README names exactly the parser's subcommands, each with exactly
    # its flags, and every number shown in brackets is that flag's default
    parsers = {**_LEAVES, "": build_parser()}
    lines = list(_readme_cli_lines())
    assert sorted(cmd for cmd, _, _ in lines) == sorted(parsers)
    for cmd, flags, defaults in lines:
        actions = {o: a for a in parsers[cmd]._actions for o in a.option_strings
                   if a.dest != "help"}
        assert flags == set(actions), cmd
        for flag, shown in defaults.items():
            assert float(shown) == actions[flag].default, (cmd, flag)


def test_readme_python_example_runs():
    # the README's Python block, as written, in a fresh interpreter: its
    # last line prints the Cantor measure's lower-dimension estimate
    import fracmeas
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fracmeas.__file__)))
    proc = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert round(float(proc.stdout.splitlines()[-1]), 2) == 0.65


def test_tiny_cases_name_every_subcommand():
    assert sorted(_TINY) == sorted(_LEAVES)


@pytest.mark.parametrize("command", sorted(_LEAVES))
def test_report_config_holds_every_parsed_flag(tmp_path, command):
    inputs = {"measure": str(tmp_path / "mu.csv"), "balls": str(tmp_path / "balls.csv"),
              "field": str(tmp_path / "f.csv")}
    io.save_measure(cantor_measure(3), inputs["measure"])
    io.write_csv(inputs["balls"], ["x0", "x1", "r"], [[0.3, 0.4, 0.1], [0.6, 0.5, 0.2]])
    (tmp_path / "f.csv").write_text("level,i0,value\n3,0,1.0\n3,5,0.5\n")
    tail, name = _TINY[command]
    argv = ["--out", str(tmp_path / "out"), "--seed", "3", *command.split(),
            *(a.format(**inputs) for a in tail)]
    assert run(argv) in (0, 1)
    config = json.loads((tmp_path / "out" / f"{name}.json").read_text())["config"]
    parsed = vars(build_parser().parse_args(argv))
    for key in ("out", "config", "func", "command"):
        del parsed[key]
    assert config.pop("command") == name
    # parsed values are numbers, strings, lists or None, which JSON keeps
    assert config == parsed


def test_missing_file_exit_2(tmp_path):
    rc = run(["--out", str(tmp_path), "atom", "check",
              "--measure", "/does/not/exist.csv", "--beta", "0.5"])
    assert rc == 2


def test_choquet_missing_field_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    assert run(["--out", str(tmp_path), "content", "choquet", "--field",
                missing, "--beta", "0.5"]) == 2
    assert missing in capsys.readouterr().err


def test_measure_without_sidecar_exit_2(tmp_path, capsys):
    csv = str(tmp_path / "mu.csv")
    io.save_measure(cantor_measure(3), csv)
    os.remove(csv + ".json")
    assert run(["--out", str(tmp_path), "heat", "--measure", csv]) == 2
    assert csv + ".json" in capsys.readouterr().err


def test_measure_columns_must_match_sidecar_exit_2(tmp_path, capsys):
    csv = str(tmp_path / "mu.csv")
    io.save_measure(cantor_measure(3), csv)
    with open(csv + ".json") as fh:
        side = json.load(fh)
    side["dim"] = 2
    with open(csv + ".json", "w") as fh:
        json.dump(side, fh)
    assert run(["--out", str(tmp_path), "heat", "--measure", csv]) == 2
    assert "index columns" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["dim", "spacing", "origin"])
def test_measure_sidecar_missing_key_exit_2(tmp_path, capsys, key):
    csv = str(tmp_path / "mu.csv")
    io.save_measure(cantor_measure(3), csv)
    with open(csv + ".json") as fh:
        side = json.load(fh)
    del side[key]
    with open(csv + ".json", "w") as fh:
        json.dump(side, fh)
    assert run(["--out", str(tmp_path), "heat", "--measure", csv]) == 2
    assert f"sidecar lacks {key}" in capsys.readouterr().err


@pytest.mark.parametrize("t_lo, t_hi", [("1e-320", "1"), ("1e-3", "1e400")])
def test_atom_check_window_too_wide_exit_2(tmp_path, capsys, t_lo, t_hi):
    # t_hi / t_lo overflows to inf, so the window has no finite node count
    csv = str(tmp_path / "mu.csv")
    io.save_measure(cantor_measure(3), csv)
    assert run(["--out", str(tmp_path), "atom", "check", "--measure", csv,
                "--beta", "0.5", "--t-lo", t_lo, "--t-hi", t_hi]) == 2
    assert "spans too many decades" in capsys.readouterr().err


def test_heat_command(tmp_path, warm):
    out = str(tmp_path)
    mu = cantor_measure(3)
    csv = os.path.join(out, "mu.csv")
    io.save_measure(mu, csv)
    assert run(["--out", out, "heat", "--measure", csv, "--npd", "4"]) == 0
    assert os.path.exists(os.path.join(out, "heat_field.csv"))


def test_heat_failing_mass_conservation_exit_1(tmp_path, monkeypatch, capsys):
    csv = str(tmp_path / "mu.csv")
    io.save_measure(cantor_measure(3), csv)
    monkeypatch.setattr(heat, "mass_conservation_residual", lambda mu, t: 1.0)
    assert run(["--out", str(tmp_path), "heat", "--measure", csv, "--npd", "4"]) == 1
    _assert_failed(capsys, tmp_path / "heat.json", ["mass_conservation_residual"])


def test_potential_besov_divergent_tail_exit_1(tmp_path, monkeypatch, capsys, warm):
    # an infinite tail estimate (a divergent-looking integrand) fails its check
    def divergent(*args):
        return replace(functional(*args), tail_estimate=math.inf)

    functional = potential.heat_besov_functional
    monkeypatch.setattr(potential, "heat_besov_functional", divergent)
    csv = str(tmp_path / "mu.csv")
    io.save_measure(atoms.make_frostman_atom(depth=4)[0].measure, csv)
    assert run(["--out", str(tmp_path), "potential", "besov", "--measure", csv,
                "--alpha", "0.5", "--beta", "0.6"]) == 1
    _assert_failed(capsys, tmp_path / "potential_besov.json", ["tail_estimate"])


def test_potential_riesz_failing_gap_exit_1(tmp_path, capsys, warm):
    # no two routes agree to the last bit, so a zero tolerance fails
    csv = str(tmp_path / "mu.csv")
    io.save_measure(cantor_measure(3), csv)
    assert run(["--out", str(tmp_path), "potential", "riesz", "--measure", csv,
                "--alpha", "0.5", "--n-points", "4", "--tol", "0"]) == 1
    _assert_failed(capsys, tmp_path / "potential_riesz.json", ["max_rel_gap"])


def _header_only_balls(tmp_path, d):
    balls = tmp_path / f"balls{d}.csv"
    balls.write_text(",".join([f"x{a}" for a in range(d)] + ["r"]) + "\n")
    return str(balls)


def test_content_cover_empty_file(tmp_path):
    # a family with no balls takes the general path: one corner column per
    # axis (the 1-d header used to be written whatever the dimension)
    for d in (1, 2, 3):
        out = tmp_path / f"out{d}"
        assert run(["--out", str(out), "content", "cover",
                    "--balls", _header_only_balls(tmp_path, d), "--beta", "0.5"]) == 0
        header = ",".join(["type"] + [f"corner{a}" for a in range(d)]
                          + ["size", "witness_ball_id"])
        assert (out / "cover.csv").read_text() == header + "\n"
        rep = json.loads((out / "content_cover.json").read_text())
        # no ball, so the least witness ratio is +inf and the check passes
        inf = float("inf")
        assert rep["results"] == {
            "n_elements": 0, "total": 0.0, "pass": True,
            "checks": [{"name": "witness_min_ratio", "value": inf, "op": ">=",
                        "bound": rep["constants"]["c"] - 1e-12, "passed": True,
                        "margin": inf}]}
        assert rep["constants"]["cell_level"] == 0


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_content_cover_non_finite_radius_exit_2(tmp_path, capsys, radius):
    balls = tmp_path / "balls.csv"
    balls.write_text(f"x,y,r\n0.5,0.5,{radius}\n")
    assert run(["--out", str(tmp_path), "content", "cover", "--balls", str(balls),
                "--beta", "0.5"]) == 2
    assert capsys.readouterr().err == (f"fracmeas: invalid configuration: a ball radius "
                                       f"is {radius}: it must be finite\n")


def test_content_cover_failing_witness_exit_1(tmp_path, monkeypatch, capsys):
    # a witness constant c above every witness ratio fails the postcondition
    def no_witness(*args):
        cov = regularized_cover(*args)
        return replace(cov, constants={**cov.constants, "c": float("inf")})

    regularized_cover = content.regularized_cover
    monkeypatch.setattr(content, "regularized_cover", no_witness)
    balls = tmp_path / "balls.csv"
    balls.write_text("x,y,r\n0.5,0.5,0.1\n")
    assert run(["--out", str(tmp_path), "content", "cover", "--balls", str(balls),
                "--beta", "0.5"]) == 1
    _assert_failed(capsys, tmp_path / "content_cover.json", ["witness_min_ratio"])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("at_d", [False, True], ids=["below-d", "at-d"])
def test_content_value_header_only_file_is_zero(tmp_path, d, at_d):
    out = tmp_path / "out"
    beta = str(float(d) if at_d else d / 2)
    assert run(["--out", str(out), "content", "value",
                "--balls", _header_only_balls(tmp_path, d), "--beta", beta]) == 0
    rep = json.loads((out / "content_value.json").read_text())
    assert rep["results"] == {"dyadic_content": 0.0, "spherical_upper": 0.0}


def _empty_measure(tmp_path, d):
    csv = str(tmp_path / "empty.csv")
    io.save_measure(new_grid_measure(d, 0.25, [0.0] * d, np.zeros((0, d)), []), csv)
    return csv


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("argv", [
    ["maximal", "dyadic", "--gamma", "0.5"],
    ["maximal", "truncated", "--gamma", "0.5", "--truncation", "0.1"],
    ["maximal", "grand", "--gamma", "0.5"],
    ["maximal", "antilocal", "--gamma", "0.5", "--rho", "0.1"],
    ["atom", "check", "--beta", "0.5"],
], ids=["dyadic", "truncated", "grand", "antilocal", "atom-check"])
def test_measure_with_no_masses(tmp_path, capsys, warm, d, argv):
    # these used to exit 2 on numpy's "zero-size array to reduction
    # operation maximum"; the maximal fields and the heat sup are now 0
    csv = _empty_measure(tmp_path, d)
    assert run(["--out", str(tmp_path), *argv, "--measure", csv]) == 0
    assert capsys.readouterr().err == ""
    if argv[0] == "maximal":
        rep = json.loads((tmp_path / f"maximal_{argv[1]}.json").read_text())
        assert rep["results"]["max_value"] == 0.0
        assert rep["results"]["n_points"] == 0


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("band", [[], ["--band"]], ids=["lowpass", "band"])
def test_maximal_lp_of_a_measure_with_no_masses_exit_2(tmp_path, capsys, d, band):
    csv = _empty_measure(tmp_path, d)
    assert run(["--out", str(tmp_path), "maximal", "lp", "--measure", csv,
                "--k", "2", *band]) == 2
    assert capsys.readouterr().err == (f"fracmeas: {csv}: a measure with no masses "
                                       "has no grid to project on\n")


def test_content_cover_real_family(tmp_path):
    out = str(tmp_path)
    rng = np.random.default_rng(4)
    balls = os.path.join(out, "balls.csv")
    rows = [[*c, r] for c, r in zip(rng.uniform(0, 1, (6, 2)),
                                    rng.uniform(0.05, 0.2, 6))]
    io.write_csv(balls, ["x0", "x1", "r"], rows)
    assert run(["--out", out, "content", "cover", "--balls", balls,
                "--beta", "0.5"]) == 0
    with open(os.path.join(out, "content_cover.json")) as fh:
        rep = json.load(fh)
    assert rep["constants"]["c"] > 0
    assert rep["results"]["pass"]


def test_dim_estimate_command(tmp_path, warm):
    out = str(tmp_path)
    mu = cantor_measure(6)
    csv = os.path.join(out, "can.csv")
    io.save_measure(mu, csv)
    assert run(["--out", out, "dim", "estimate", "--measure", csv,
                "--depth", "10", "--beta-step", "0.1"]) == 0
    assert os.path.exists(os.path.join(out, "modulus_curves.csv"))
    with open(os.path.join(out, "dim_estimate.json")) as fh:
        rep = json.load(fh)
    assert rep["results"]["diagnostics"]["vacuous_betas"] == []


VERIFY_DIGESTS = Path(__file__).resolve().parent / "data" / "verify_digests.json"


@pytest.mark.parametrize("argv, names", [
    (["thm13", "--depth", "6"], ["verify_thm13_besov.csv"]),
    (["thm14"], ["verify_thm14_trace.csv"]),
    (["thm15"], ["verify_thm15_trace.csv"]),
    (["cor16"], ["verify_cor16_loops.csv"]),
    (["thm18"], ["verify_thm18_curves.csv", "verify_thm18_choquet_maximal.csv"]),
    (["thm19", "--depth", "6"], ["verify_thm19_atomsum.csv"]),
], ids=["thm13", "thm14", "thm15", "cor16", "thm18", "thm19"])
def test_verify_matches_digests(tmp_path, argv, names):
    # the seven verify CSV digests: thm13-cor16 run the heat and Riesz
    # kernels, thm18 greedy mass capture, thm19 the radial profile kernel.
    # Every sum over masses runs in numpy's own loops, so the bytes hold under
    # every BLAS kernel.  A change that moves a verify CSV re-records
    # tests/data/verify_digests.json from its own program and names in
    # CHANGES.md each moved digest with its old value, its new value and why;
    # perfbench/digests.json stays the benchmark's reference
    want = json.loads(VERIFY_DIGESTS.read_text())
    assert run(["--out", str(tmp_path), "verify", *argv]) == 0
    for name in names:
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == want[name], name


# cover.csv of `content cover --beta 1.5` on the 40 balls of
# test_pinned_bytes_hold_under_another_blas_kernel
_COVER_DIGEST = "724f78104c232355d845e5e61d320032e79c05b12bd6e97e769476b27fbb5607"


def test_pinned_bytes_hold_under_another_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE=Prescott, set for the subprocesses alone, makes
    # numpy's OpenBLAS run its oldest kernel, whose products round otherwise
    # than the newer ones.  Every sum runs in numpy's own loops, so thm19
    # keeps its pinned digest, and a content cover whose witness scans take
    # the keyed path its bytes
    import fracmeas
    rng = np.random.default_rng(7)
    balls = tmp_path / "balls.csv"
    family = np.column_stack([rng.uniform(0, 1, (40, 2)), rng.uniform(0.002, 0.05, 40)])
    np.savetxt(balls, family, delimiter=",", header="x0,x1,r", comments="")
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.path.dirname(os.path.dirname(fracmeas.__file__)))
    cli_main = "import sys; from fracmeas.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in (["verify", "thm19", "--depth", "6"],
                 ["content", "cover", "--balls", str(balls), "--beta", "1.5"]):
        proc = subprocess.run([sys.executable, "-c", cli_main, "--out", str(tmp_path), *argv],
                              env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
    want = json.loads(VERIFY_DIGESTS.read_text())["verify_thm19_atomsum.csv"]
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("verify_thm19_atomsum.csv", "cover.csv")}
    assert digest == {"verify_thm19_atomsum.csv": want, "cover.csv": _COVER_DIGEST}


_COLD_START = textwrap.dedent("""
    import json, os, sys
    out = sys.argv[1]
    from fracmeas import cli, io
    from fracmeas.maximal import standard_family
    from fracmeas.measures import cantor_measure

    def loaded(names):
        return [m for m in names if m in sys.modules]

    standard_family(1)
    at_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    at_import += loaded(["concurrent.futures"])
    heavy = ["scipy.special", "scipy.fft", "scipy.interpolate", "scipy.optimize",
             "scipy.linalg", "scipy.sparse"]
    rc = [cli.main(["--out", out, "verify", t]) for t in ("cor16", "thm14", "thm18")]
    after_verify = loaded(heavy)
    rc += [cli.main(["--out", out, "content", action, "--balls", sys.argv[2],
                     "--beta", "1.5"]) for action in ("value", "cover")]
    after_content = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    csv = os.path.join(out, "cantor.csv")
    io.save_measure(cantor_measure(5), csv)
    rc.append(cli.main(["--out", out, "potential", "riesz", "--measure", csv,
                        "--alpha", "0.5", "--n-points", "4"]))
    after_riesz = loaded(heavy)
    rc.append(cli.main(["--out", out, "maximal", "lp", "--measure", csv, "--k", "3"]))
    print(json.dumps({"rc": rc, "at_import": at_import, "after_verify": after_verify,
                      "after_content": after_content, "after_riesz": after_riesz,
                      "after_lp": loaded(["scipy.fft", "scipy.interpolate"])}))
""")


def test_cold_start_loads_no_projector_modules(tmp_path):
    # importing the CLI and reading the plateau tables loads no scipy at all,
    # nor the verify targets' thread pool (concurrent.futures);
    # scipy.special serves only riesz_heat's incomplete gammas (Gamma is the
    # package's own), and scipy.fft and
    # scipy.interpolate (and, through them, scipy.optimize, linalg and
    # sparse) only the frequency projectors, so a verify run (thm14's Riesz
    # constants included) and `content value` / `cover` must load no scipy
    # module, while `potential riesz` and `maximal lp` must still find theirs
    import fracmeas
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fracmeas.__file__)))
    balls = Path(__file__).resolve().parent / "data" / "content_value_balls.csv"
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path), str(balls)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got == {"rc": [0, 0, 0, 0, 0, 0, 0], "at_import": [], "after_verify": [],
                   "after_content": [], "after_riesz": ["scipy.special"],
                   "after_lp": ["scipy.fft", "scipy.interpolate"]}


def test_config_file_defaults(tmp_path, warm):
    out = str(tmp_path)
    cfg = os.path.join(out, "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"depth": 4}, fh)
    assert run(["--out", out, "--config", cfg, "atom", "gen",
                "--kind", "cantor"]) == 0
    with open(os.path.join(out, "atom_gen_cantor.json")) as fh:
        rep = json.load(fh)
    assert rep["config"]["depth"] == 4


def test_config_file_given_with_equals_sign(tmp_path, warm):
    # argparse takes --config=F as --config F; the file used to go unread
    out = str(tmp_path)
    cfg = os.path.join(out, "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"depth": 4}, fh)
    assert run(["--out", out, f"--config={cfg}", "atom", "gen", "--kind", "cantor"]) == 0
    with open(os.path.join(out, "atom_gen_cantor.json")) as fh:
        assert json.load(fh)["config"]["depth"] == 4


def test_config_flag_overrides_file(tmp_path, warm):
    out = str(tmp_path)
    cfg = os.path.join(out, "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"depth": 4}, fh)
    assert run(["--out", out, "--config", cfg, "atom", "gen",
                "--kind", "cantor", "--depth", "3"]) == 0
    with open(os.path.join(out, "atom_gen_cantor.json")) as fh:
        rep = json.load(fh)
    assert rep["config"]["depth"] == 3


def test_config_file_sets_global_flags(tmp_path, warm):
    # a top-level key such as seed goes before the command, where its flag is
    out = str(tmp_path)
    cfg = os.path.join(out, "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"depth": 4, "seed": 3}, fh)
    assert run(["--out", out, "--config", cfg, "atom", "gen", "--kind", "cantor"]) == 0
    with open(os.path.join(out, "atom_gen_cantor.json")) as fh:
        rep = json.load(fh)
    assert (rep["config"]["depth"], rep["config"]["seed"]) == (4, 3)


def test_config_flag_with_equals_overrides_file(tmp_path, warm):
    out = str(tmp_path)
    cfg = os.path.join(out, "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"depth": 4}, fh)
    assert run(["--out", out, "--config", cfg, "atom", "gen", "--kind", "cantor",
                "--depth=3"]) == 0
    with open(os.path.join(out, "atom_gen_cantor.json")) as fh:
        assert json.load(fh)["config"]["depth"] == 3


def test_config_file_key_the_command_does_not_take_exit_2(tmp_path):
    cfg = os.path.join(str(tmp_path), "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"depth": 4}, fh)
    assert run(["--out", str(tmp_path), "--config", cfg, "verify", "cor16"]) == 2


def test_bad_config_exit_2(tmp_path):
    cfg = os.path.join(str(tmp_path), "broken.json")
    with open(cfg, "w") as fh:
        fh.write("{not json")
    assert run(["--out", str(tmp_path), "--config", cfg, "atom", "gen",
                "--kind", "cantor"]) == 2


def test_config_file_without_object_exit_2(tmp_path, capsys):
    cfg = os.path.join(str(tmp_path), "list.json")
    with open(cfg, "w") as fh:
        fh.write("[1]")
    assert run(["--out", str(tmp_path), "--config", cfg, "atom", "gen",
                "--kind", "cantor"]) == 2
    assert "holds no JSON object" in capsys.readouterr().err


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_prefix_of_a_flag_exits_2(tmp_path):
    # argparse used to take --conf for --config: the run went on at depth 8
    # and the file was never read
    out = str(tmp_path)
    cfg = os.path.join(out, "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"depth": 4}, fh)
    assert run(["--out", out, "--conf", cfg, "atom", "gen", "--kind", "cantor"]) == 2
    assert run(["--out", out, "atom", "gen", "--kind", "cantor", "--dep", "4"]) == 2
    assert not os.path.exists(os.path.join(out, "atom_gen_cantor.json"))
    assert all(not p.allow_abbrev for p in _parsers(build_parser()))


def test_config_null_means_flag_not_given(tmp_path, warm):
    # a report's config holds null for a flag not given (beta for --kind
    # cantor); it used to reach argparse as the word None and exit 2
    out = tmp_path / "from_config"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": None, "depth": 4}))
    assert run(["--out", str(out), "--config", str(cfg), "atom", "gen",
                "--kind", "cantor"]) == 0
    config = json.loads((out / "atom_gen_cantor.json").read_text())["config"]
    assert (config["beta"], config["depth"]) == (None, 4)
    flags = tmp_path / "from_flags"
    assert run(["--out", str(flags), "atom", "gen", "--kind", "cantor", "--depth", "4"]) == 0
    assert (out / "atom_cantor.csv").read_bytes() == (flags / "atom_cantor.csv").read_bytes()


def test_measure_roundtrip(tmp_path):
    mu = new_grid_measure(2, 0.25, [0.5, -1.0], [[0, 0], [3, -2]], [1.5, -0.5],
                          name="demo")
    path = os.path.join(str(tmp_path), "m.csv")
    io.save_measure(mu, path)
    back = io.load_measure(path)
    assert back.d == 2 and back.h == 0.25 and back.name == "demo"
    assert np.allclose(back.points(), mu.points())
    assert np.allclose(np.sort(back.weights), np.sort(mu.weights))


_int64 = st.integers(-2 ** 63, 2 ** 63 - 1)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _grid_measures(draw):
    d = draw(st.sampled_from([1, 2]))
    idx = draw(st.lists(st.tuples(*[_int64] * d), unique=True, max_size=12))
    w = draw(st.lists(_finite, min_size=len(idx), max_size=len(idx)))
    h = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    origin = draw(st.lists(_finite, min_size=d, max_size=d))
    return new_grid_measure(d, h, origin, np.array(idx, dtype=np.int64).reshape(-1, d),
                            w, name=draw(st.text()))


@settings(max_examples=200)
@given(mu=_grid_measures())
def test_measure_roundtrip_is_exact(mu):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.csv")
        io.save_measure(mu, path)
        back = io.load_measure(path)
    assert (back.d, back.h, back.name) == (mu.d, mu.h, mu.name)
    assert back.indices.dtype == np.int64
    assert np.array_equal(back.indices, mu.indices)
    assert np.array_equal(back.weights, mu.weights)
    assert np.array_equal(back.origin, mu.origin)


def test_measure_indices_past_2_53_load_exactly(tmp_path):
    # a float holds neither index: they would load as 2**53 and -2**53 - 4
    idx = [[2 ** 53 + 1], [-2 ** 53 - 3]]
    mu = new_grid_measure(1, 0.5, [0.0], idx, [1.0, 2.0])
    path = str(tmp_path / "m.csv")
    io.save_measure(mu, path)
    assert sorted(io.load_measure(path).indices[:, 0].tolist()) == sorted(i for i, in idx)


def test_choquet_command_matches_library(tmp_path):
    # level and cell indices are read as integers, the value as a float
    field = tmp_path / "f.csv"
    field.write_text("level,i0,i1,value\n3,0,0,1.0\n3,1,2,0.5\n3,7,7,2.25\n")
    assert run(["--out", str(tmp_path), "content", "choquet", "--field",
                str(field), "--beta", "0.5"]) == 0
    rep = json.loads((tmp_path / "content_choquet.json").read_text())
    want = content.choquet_integral(np.array([[0, 0], [1, 2], [7, 7]]),
                                    np.array([1.0, 0.5, 2.25]),
                                    unit_lattice(2), 3, 0.5)
    assert rep["results"]["value"] == want


def test_choquet_unparsable_level_names_file_and_line(tmp_path, capsys):
    field = tmp_path / "f.csv"
    field.write_text("level,i0,value\n3,0,1.0\n\n3.0,1,0.5\n")
    assert run(["--out", str(tmp_path), "content", "choquet", "--field",
                str(field), "--beta", "0.5"]) == 2
    err = capsys.readouterr().err
    assert f"{field}, line 4:" in err and "'3.0'" in err


def test_choquet_field_without_index_column_exit_2(tmp_path, capsys):
    field = tmp_path / "f.csv"
    field.write_text("value\n1.0\n2.0\n")
    assert run(["--out", str(tmp_path), "content", "choquet", "--field",
                str(field), "--beta", "0.5"]) == 2
    err = capsys.readouterr().err
    assert str(field) in err and "at least one index" in err


def test_choquet_mixed_levels_exit_2(tmp_path, capsys):
    # the level column is read per row: a field at two levels is refused,
    # not integrated at the first row's level
    field = tmp_path / "f.csv"
    field.write_text("level,i0,value\n3,0,1.0\n5,4,0.5\n3,2,2.0\n")
    assert run(["--out", str(tmp_path), "content", "choquet", "--field",
                str(field), "--beta", "0.5"]) == 2
    err = capsys.readouterr().err
    assert str(field) in err and "[3, 5]" in err
    assert not (tmp_path / "content_choquet.json").exists()


@pytest.mark.parametrize("argv, level", [
    # a +1/-1 pair at 0.3 and 0.7, whose wrapped indices read [0, 0] at level 70
    ("maximal dyadic --measure {pair} --gamma 0 --k-min 70 --k-max 70", 70),
    ("maximal dyadic --measure {pair} --gamma 0 --k-max 64", 64),
    # radii 1e-20 and 0.1 raster at level 69: a content of 0.0, a lost ball
    ("content value --balls {balls} --beta 2", 69),
    ("content cover --balls {balls} --beta 0.5", 69),
    # a depth-4 Cantor atom: a candidate without its parent at level 64
    ("dim estimate --measure {atom} --depth 64", 64),
])
def test_cube_index_outside_int64_exit_2(tmp_path, capsys, argv, level):
    pair, atom, balls = (str(tmp_path / n) for n in ("pair.csv", "atom.csv", "balls.csv"))
    io.save_measure(new_grid_measure(1, 0.1, [0.0], [[3], [7]], [1.0, -1.0]), pair)
    io.save_measure(atoms.make_frostman_atom(depth=4)[0].measure, atom)
    io.write_csv(balls, ["c0", "c1", "r"], [[0.5, 0.5, 1e-20], [0.2, 0.3, 0.1]])
    argv = argv.format(pair=pair, atom=atom, balls=balls).split()
    assert run(["--out", str(tmp_path / "out"), *argv]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"fracmeas: [^\n]+\n", err)
    assert f"cube indices at level {level} do not fit in int64" in err


def test_measure_index_outside_int64_exit_2(tmp_path, capsys):
    csv = str(tmp_path / "mu.csv")
    io.save_measure(cantor_measure(3), csv)
    with open(csv, "a") as fh:
        fh.write(f"{2 ** 63},1.0\n")
    assert run(["--out", str(tmp_path), "heat", "--measure", csv]) == 2
    assert "outside int64" in capsys.readouterr().err


def test_report_serializes_numpy_bool(tmp_path):
    path = os.path.join(str(tmp_path), "report.json")
    io.write_report(path, {"depth": 6}, {"dim_pass": np.bool_(True)})
    with open(path) as fh:
        assert json.load(fh)["results"]["dim_pass"] is True


# report digests of a saved family, from the implementation that rasterized
# and swept the family twice per run; the config names the file relatively
_CONTENT_VALUE_DIGESTS = {
    "0.5": "78cc84218fac24becfa2d74d26f5c624466122817f7cd4831889bc760f961820",
    "2": "4499a89263bdebbc5049c7eeed6bff0e36fd884905112393ae6c49b8ab3d0f14",
}


@pytest.mark.parametrize("beta", sorted(_CONTENT_VALUE_DIGESTS))
def test_content_value_rasterizes_and_sweeps_once(tmp_path, monkeypatch, beta):
    # below d one regularized cover gives the dyadic content (its raster's)
    # and the spherical bound (its cubes' balls); at beta = d there is no
    # such cover, and the raster alone is swept
    calls = {"rasterize_balls": 0, "_content_sweep": 0}
    for name in calls:
        def counted(*args, _fn=getattr(content, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(content, name, counted)
    data = Path(__file__).resolve().parent / "data" / "content_value_balls.csv"
    (tmp_path / "balls.csv").write_bytes(data.read_bytes())
    monkeypatch.chdir(tmp_path)
    assert run(["--out", "out", "content", "value", "--balls", "balls.csv",
                "--beta", beta]) == 0
    assert calls == {"rasterize_balls": 1, "_content_sweep": 1}
    report = (tmp_path / "out" / "content_value.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == _CONTENT_VALUE_DIGESTS[beta]


@pytest.mark.parametrize("argv, check, cap", [
    (["thm13", "--depth", "5"], "kind_ratio", "_KIND_RATIO_CAP"),
    (["thm14", "--depth", "5"], "spread", "_SPREAD_CAP"),
    (["thm15", "--depth", "5"], "spread", "_SPREAD_CAP"),
    (["cor16"], "dispersion", "_DISPERSION_CAP"),
    (["thm18", "--depth", "5"], "cantor.beta_hat_error", "_BETA_HAT_TOL"),
    (["thm19", "--depth", "6"], "constant_spread", "_C_SPREAD_CAP"),
], ids=["thm13", "thm14", "thm15", "cor16", "thm18", "thm19"])
def test_verdict_cap_is_applied(tmp_path, monkeypatch, capsys, argv, check, cap):
    # the report records the cap as its check's bound, and a cap just below
    # the measured value fails that check alone, which stderr names
    name = f"verify_{argv[0]}"
    path = tmp_path / f"{name}.json"
    assert run(["--out", str(tmp_path), "verify", *argv]) == 0
    checks = {c["name"]: c for c in json.loads(path.read_text())["results"]["checks"]}
    assert checks[check]["op"] == "<=" and checks[check]["bound"] == getattr(verify, cap)
    monkeypatch.setattr(verify, cap, float(np.nextafter(checks[check]["value"], -np.inf)))
    capsys.readouterr()
    assert run(["--out", str(tmp_path), "verify", *argv]) == 1
    _assert_failed(capsys, path, [check])


def test_thm19_failing_certificate_exit_1(tmp_path, monkeypatch, capsys):
    # a heat-bound tolerance of -1 puts the bound at 0, below any sup ratio:
    # the atom's certificate fails, and thm19 names its condition
    monkeypatch.setattr(atoms, "_SUP_TOL", -1.0)
    assert run(["--out", str(tmp_path), "verify", "thm19", "--depth", "6"]) == 1
    _assert_failed(capsys, tmp_path / "verify_thm19.json", ["certificate.heat_bound"])


def test_thm13_nan_dilate_total_exit_1(tmp_path, monkeypatch, capsys):
    # a NaN total of the 2^-1 dilate (cube side 0.5) is the largest
    # deviation, not one that max() skips
    def nan_half_dilate(cand, alpha):
        res = functional(cand, alpha)
        return replace(res, total=math.nan) if cand.side == 0.5 else res

    functional = potential.heat_besov_functional
    monkeypatch.setattr(potential, "heat_besov_functional", nan_half_dilate)
    assert run(["--out", str(tmp_path), "verify", "thm13", "--depth", "5",
                "--scales", "3"]) == 1
    _assert_failed(capsys, tmp_path / "verify_thm13.json", ["dilation_max_rel_dev"])


def test_thm13_infinite_tail_exit_1(tmp_path, monkeypatch, capsys):
    # a divergent-looking integrand of one case (the 2-d loop atom) fails
    # thm13 as it fails `potential besov`, whatever its total
    def infinite_loop_tail(cand, alpha):
        res = functional(cand, alpha)
        return replace(res, tail_estimate=math.inf) if cand.measure.d == 2 else res

    functional = potential.heat_besov_functional
    monkeypatch.setattr(potential, "heat_besov_functional", infinite_loop_tail)
    assert run(["--out", str(tmp_path), "verify", "thm13", "--depth", "4"]) == 1
    _assert_failed(capsys, tmp_path / "verify_thm13.json", ["tail_estimate_max"])


def test_thm13_growing_depth_increments_exit_1(tmp_path, monkeypatch, capsys):
    # a Cantor total that gains 1e-4 n^2 at n masses (2^(depth+1)) grows
    # faster with each depth; its dilates keep their base's n, so only the
    # depth sequence sees it
    def growing(cand, alpha):
        res = functional(cand, alpha)
        if not cand.measure.name.startswith("cantor"):
            return res
        return replace(res, total=res.total + 1e-4 * cand.measure.n_masses ** 2)

    functional = potential.heat_besov_functional
    monkeypatch.setattr(potential, "heat_besov_functional", growing)
    assert run(["--out", str(tmp_path), "verify", "thm13", "--depth", "5"]) == 1
    _assert_failed(capsys, tmp_path / "verify_thm13.json", ["depth_ratio_max"])


def test_thm13_depth_sequence_converges(tmp_path):
    # the Cantor totals at depths 3-6 rise by geometrically shrinking
    # increments, and the report carries the extrapolated limit's error bar
    assert run(["--out", str(tmp_path), "verify", "thm13", "--depth", "6"]) == 0
    seq = json.loads((tmp_path / "verify_thm13.json").read_text())["results"]["depth_sequence"]
    assert seq["depths"] == [3, 4, 5, 6]
    assert len(seq["ratios"]) == 2 and all(0 < r < 1 for r in seq["ratios"])
    assert 0 < seq["limit_err"] < 0.01 and seq["limit"] > seq["values"][-1]


def test_thm19_nan_bound_constant_exit_1(tmp_path, monkeypatch, capsys):
    # a NaN constant of the four-atom sum (the second call) makes the shared
    # constant and the spread NaN, where max() and min() returned the other
    def nan_second(dec, **kwargs):
        rep = check(dec, **kwargs)
        calls.append(dec)
        return {**rep, "bound_constant": math.nan} if len(calls) == 2 else rep

    calls, check = [], dimension.atom_sum_dimension_check
    monkeypatch.setattr(dimension, "atom_sum_dimension_check", nan_second)
    assert run(["--out", str(tmp_path), "verify", "thm19", "--depth", "6"]) == 1
    _assert_failed(capsys, tmp_path / "verify_thm19.json", ["shared_C", "constant_spread"])


@pytest.mark.parametrize("action", ["cover", "value"])
@pytest.mark.parametrize("exc", [RuntimeError("failed to stabilize"),
                                 AssertionError("cover lost a ball")])
def test_cover_invariant_exit_1(tmp_path, monkeypatch, capsys, action, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(content, "regularized_cover", broken)
    balls = tmp_path / "balls.csv"
    balls.write_text("x,y,r\n0.5,0.5,0.1\n")
    assert run(["--out", str(tmp_path), "content", action, "--balls",
                str(balls), "--beta", "0.5"]) == 1
    assert f"fracmeas: invariant violated: {exc}\n" in capsys.readouterr().err
