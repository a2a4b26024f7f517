import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from fracmeas import content, io
from fracmeas.cli import main
from fracmeas.measures import cantor_frostman, new_grid_measure


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
    assert rep["results"]["all_pass"]
    assert rep["version"]
    assert rep["config_hash"]


def test_atom_check_failure_exit_code(tmp_path, warm):
    out = str(tmp_path)
    bad = new_grid_measure(1, 0.5, [0.0], [[0], [1]], [0.5, -0.5])
    csv = os.path.join(out, "bad.csv")
    io.save_measure(bad, csv)
    rc = run(["--out", out, "atom", "check", "--measure", csv,
              "--beta", "0.3", "--t-lo", "1e-9", "--t-hi", "64.0"])
    assert rc == 1


def test_usage_error_exit_2(tmp_path):
    assert run(["--out", str(tmp_path), "atom"]) == 2
    assert run(["--out", str(tmp_path), "nonsense"]) == 2


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
    io.save_measure(cantor_frostman(3, 1.0)[0], csv)
    os.remove(csv + ".json")
    assert run(["--out", str(tmp_path), "heat", "--measure", csv]) == 2
    assert csv + ".json" in capsys.readouterr().err


def test_measure_columns_must_match_sidecar_exit_2(tmp_path, capsys):
    csv = str(tmp_path / "mu.csv")
    io.save_measure(cantor_frostman(3, 1.0)[0], csv)
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
    io.save_measure(cantor_frostman(3, 1.0)[0], csv)
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
    io.save_measure(cantor_frostman(3, 1.0)[0], csv)
    assert run(["--out", str(tmp_path), "atom", "check", "--measure", csv,
                "--beta", "0.5", "--t-lo", t_lo, "--t-hi", t_hi]) == 2
    assert "spans too many decades" in capsys.readouterr().err


def test_heat_command(tmp_path, warm):
    out = str(tmp_path)
    mu, _ = cantor_frostman(3, 1.0)
    csv = os.path.join(out, "mu.csv")
    io.save_measure(mu, csv)
    assert run(["--out", out, "heat", "--measure", csv, "--npd", "4"]) == 0
    assert os.path.exists(os.path.join(out, "heat_field.csv"))


def test_content_cover_empty_file(tmp_path):
    out = str(tmp_path)
    balls = os.path.join(out, "empty.csv")
    with open(balls, "w") as fh:
        fh.write("x0,x1,r\n")
    assert run(["--out", out, "content", "cover", "--balls", balls,
                "--beta", "0.5"]) == 0
    with open(os.path.join(out, "content_cover.json")) as fh:
        rep = json.load(fh)
    assert rep["results"]["n_elements"] == 0


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
    mu, _ = cantor_frostman(6, 1.0)
    csv = os.path.join(out, "can.csv")
    io.save_measure(mu, csv)
    assert run(["--out", out, "dim", "estimate", "--measure", csv,
                "--depth", "10", "--beta-step", "0.1"]) == 0
    assert os.path.exists(os.path.join(out, "modulus_curves.csv"))
    with open(os.path.join(out, "dim_estimate.json")) as fh:
        rep = json.load(fh)
    assert rep["results"]["diagnostics"]["vacuous_betas"] == []


@pytest.mark.parametrize("argv, names", [
    (["thm13", "--depth", "6"], ["verify_thm13_besov.csv"]),
    (["thm14"], ["verify_thm14_trace.csv"]),
    (["thm15"], ["verify_thm15_trace.csv"]),
    (["cor16"], ["verify_cor16_loops.csv"]),
    (["thm18"], ["verify_thm18_curves.csv", "verify_thm18_choquet_maximal.csv"]),
    (["thm19", "--depth", "6"], ["verify_thm19_atomsum.csv"]),
], ids=["thm13", "thm14", "thm15", "cor16", "thm18", "thm19"])
def test_verify_matches_digests(tmp_path, argv, names):
    # the benchmark's recorded CSV digests, all seven: thm13-cor16 run the
    # heat and Riesz kernels, thm18 greedy mass capture, thm19 the radial
    # profile kernel
    digests = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
    want = json.loads(digests.read_text())
    assert run(["--out", str(tmp_path), "verify", *argv]) == 0
    for name in names:
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == want[name], name


def test_verify_thm14_reports_riesz_nodes(tmp_path):
    # the trace interpolates at nu's 256 support points, from two nodes each
    assert run(["--out", str(tmp_path), "verify", "thm14"]) == 0
    rep = json.loads((tmp_path / "verify_thm14.json").read_text())
    assert rep["results"]["riesz_nodes"] == {"evaluated": [512] * 5,
                                             "total": [62983] * 5}
    assert "riesz_nodes" not in rep["config"]


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


def test_bad_config_exit_2(tmp_path):
    cfg = os.path.join(str(tmp_path), "broken.json")
    with open(cfg, "w") as fh:
        fh.write("{not json")
    assert run(["--out", str(tmp_path), "--config", cfg, "atom", "gen",
                "--kind", "cantor"]) == 2


def test_measure_roundtrip(tmp_path):
    mu = new_grid_measure(2, 0.25, [0.5, -1.0], [[0, 0], [3, -2]], [1.5, -0.5],
                          name="demo")
    path = os.path.join(str(tmp_path), "m.csv")
    io.save_measure(mu, path)
    back = io.load_measure(path)
    assert back.d == 2 and back.h == 0.25 and back.name == "demo"
    assert np.allclose(back.points(), mu.points())
    assert np.allclose(np.sort(back.weights), np.sort(mu.weights))


def test_report_serializes_numpy_bool(tmp_path):
    path = os.path.join(str(tmp_path), "report.json")
    io.write_report(path, {"depth": 6}, {"dim_pass": np.bool_(True)})
    with open(path) as fh:
        assert json.load(fh)["results"]["dim_pass"] is True


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
