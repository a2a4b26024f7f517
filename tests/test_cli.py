import json
import os

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
