import dataclasses
import json
import math
import os
import shutil

import numpy as np
import pytest

from blowuplab import cli
from blowuplab.errors import StepSizeUnderflow
from blowuplab.meshsim import INITIAL_DATA_FAMILIES, TRACE_COLUMNS, SimConfig
from blowuplab.params import ModelParams
from blowuplab.tables import write_table


def write_config(path, **overrides):
    cfg = {"d": 8, "k": 1, "M": 201, "rtol": 1e-6, "max_gradient": 1e6}
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    cfg = write_config(root / "cfg.json")
    assert cli.main(["simulate", "--config", cfg, "--out", str(root)]) == 0
    dirs = [d for d in os.listdir(root) if d.startswith("run_")]
    assert len(dirs) == 1
    return str(root / dirs[0])


def test_predict_power(tmp_path, capsys):
    out = tmp_path / "pred.json"
    assert cli.main(["predict", "--d", "8", "--k", "1", "--N", "1",
                     "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "power" in printed
    assert "0.6306019" in printed
    blob = json.loads(out.read_text())
    assert blob["rate_law"]["exponent"] == pytest.approx(0.6306019, abs=5e-8)
    # JSON mirrors the printed constants
    assert f"{blob['constants']['h']:.8f}" in printed


def test_predict_log(capsys):
    assert cli.main(["predict", "--d", "7", "--k", "1", "--N", "1"]) == 0
    printed = capsys.readouterr().out
    assert "logarithmic" in printed
    assert "exponent 1.0000000" in printed


def test_predict_subcritical(capsys):
    assert cli.main(["predict", "--d", "6", "--k", "1", "--N", "1"]) == 1
    assert "SubcriticalDimension" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["predict", "--d", "nan"], ["predict", "--d", "inf"],
    ["predict", "--d", "2"], ["predict", "--d", "8", "--k", "0"],
    ["predict", "--d", "8", "--N", "-1"],
    ["profile-dump", "--d", "nan", "--out", "x.csv"],
    ["basis-dump", "--d", "2", "--out", "x.csv"],
])
def test_bad_parameters_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    assert "invalid parameters" in capsys.readouterr().err


def test_simulate_malformed_configs(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    missing.write_text('{"k": 1}')
    assert cli.main(["simulate", "--config", str(missing),
                     "--out", str(tmp_path)]) == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"d": 8, "k": 1, "meshiness": 3}')
    assert cli.main(["simulate", "--config", str(unknown),
                     "--out", str(tmp_path)]) == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.main(["simulate", "--config", str(garbled),
                     "--out", str(tmp_path)]) == 2

    for bad in ('{"d": 8, "k": 1, "M": "abc"}', '{"d": 8, "k": 1, "M": 1e400}',
                '{"d": 8, "k": 1, "rtol": 0}',
                '{"d": 8, "k": 1, "snapshot_decades": 0}',
                '{"d": NaN, "k": 1}', '{"d": Infinity, "k": 1}',
                '{"d": 2, "k": 1}',
                '{"d": 8, "k": 1, "initial_data": 5}',
                '{"d": 8, "k": 1, "initial_data": "exp(r)"}',
                '{"d": 8, "k": 1, "initial_data": [[0, 1, 2], [0, 1]]}',
                '{"d": 8, "k": 1, "initial_data": [[0, 1], [0, 1]]}',
                '{"d": 8, "k": 1, "initial_data": [[0, 2, 1], [0, 1, 2]]}',
                '{"d": 8, "k": 1, "L": NaN}',
                '{"d": 8, "k": 1, "max_gradient": NaN}',
                '{"d": 8, "k": 1, "monitor_alpha": -1}',
                '{"d": 8, "k": 1, "monitor_scale_weight": -1}',
                '{"d": 8, "k": 1, "monitor_smooth_passes": -1}',
                '{"d": 8, "k": 1, "M": 201.7}',
                '{"d": 8, "k": 1, "monitor_smooth_passes": 2.5}',
                '{"d": 8, "k": 1.5}'):
        path = tmp_path / "bad.json"
        path.write_text(bad)
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path)]) == 2, bad
    capsys.readouterr()


def test_tabulated_configs_hash_apart():
    r = np.linspace(0.0, 2.0, 11)
    params = ModelParams(d=8, k=1)
    same = SimConfig(params=params, initial_data=(r, r))
    other = SimConfig(params=params, initial_data=(r, np.sin(r)))
    assert cli._config_hash(same) != cli._config_hash(other)
    assert cli._config_hash(same) == cli._config_hash(
        SimConfig(params=params, initial_data=(r.copy(), r.copy())))


def _changed_value(f):
    """A valid value other than the default of SimConfig field f."""
    if isinstance(f.default, str):
        return next(fam for fam in INITIAL_DATA_FAMILIES if fam != f.default)
    if type(f.default) in (int, float):
        return f.default * 2 + 1
    pytest.fail(f"no test value for SimConfig field {f.name!r}")


def test_config_schema_round_trip(tmp_path):
    """Every SimConfig field survives config file -> _load_config ->
    to_dict (config.json) -> _load_run."""
    fields = [f for f in dataclasses.fields(SimConfig) if f.name != "params"]
    values = {f.name: _changed_value(f) for f in fields}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"d": 9.0, "k": 1, **values}))
    config = cli._load_config(str(path))
    assert config.params == ModelParams(d=9.0, k=1)
    for f in fields:
        val = getattr(config, f.name)
        assert val == values[f.name] != f.default, f.name
        assert type(val) is type(f.default), f.name

    saved = config.to_dict()
    assert set(saved) == {"d", "k"} | set(values)
    run = tmp_path / "run"
    run.mkdir()
    (run / "config.json").write_text(json.dumps(saved | {"stopped": "tmax"}))
    write_table(run / "trace.csv", TRACE_COLUMNS, [[0.0]] * len(TRACE_COLUMNS))
    loaded, trace = cli._load_run(str(run))
    assert loaded == config
    assert trace.stopped == "tmax"


def test_config_hash_pinned(tmp_path):
    # run-directory names must not move when the config code changes
    assert cli._config_hash(SimConfig(ModelParams(d=8.0, k=1))) \
        == "7902e418309ae582"
    path = write_config(tmp_path / "cfg.json", M=161)
    assert cli._config_hash(cli._load_config(path)) == "81ee89ccc87e694b"
    # an integral float is the integer
    path = write_config(tmp_path / "cfg_float.json", M=161.0, k=1.0)
    assert cli._config_hash(cli._load_config(path)) == "81ee89ccc87e694b"


def test_bad_run_directory_exit_2(tmp_path, run_dir, capsys):
    missing = str(tmp_path / "no_such_run")
    for argv in (["fit", "--run", missing], ["compare", "--run", missing],
                 ["compare", "--run", run_dir, "--run2", missing]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv

    # the last config is valid, but the run has no trace.csv
    for bad in ("{not json", "[]", '{"k": 1}', '{"d": 8, "k": 1, "M": 3}',
                '{"d": 8, "k": 1}'):
        run = tmp_path / "bad_run"
        run.mkdir(exist_ok=True)
        (run / "config.json").write_text(bad)
        assert cli.main(["fit", "--run", str(run)]) == 2, bad
    capsys.readouterr()

    # config.json and trace.csv are fine, but snapshots/ is missing: compare
    # needs it, fit does not
    bare = tmp_path / "bare_run"
    bare.mkdir()
    for name in ("config.json", "trace.csv"):
        shutil.copy(os.path.join(run_dir, name), bare / name)
    assert cli.main(["compare", "--run", str(bare)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (bare / "compare.json").exists()
    assert cli.main(["fit", "--run", str(bare)]) == 0
    capsys.readouterr()


def test_run_directory_layout(run_dir):
    for name in ("config.json", "trace.csv", "fit.json", "manifest.json"):
        assert os.path.exists(os.path.join(run_dir, name))
    snaps = os.listdir(os.path.join(run_dir, "snapshots"))
    assert any(f.endswith(".csv") for f in snaps)
    assert any(f.endswith(".json") for f in snaps)

    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert manifest["command"] == "simulate"
    for artifact in manifest["artifacts"]:
        assert os.path.exists(artifact)
    assert "numpy" in manifest["versions"]
    solver = manifest["solver"]
    assert set(solver) == {"chunks", "nfev", "njev", "nlu", "rhs_s", "jac_s",
                           "lu_s"}
    assert solver["njev"] >= solver["chunks"] >= 1
    assert solver["rhs_s"] > 0

    # the stop record is the last row of the trace
    stop = manifest["stop"]
    assert set(stop) == {"reason", "t", "sup_grad", "steps"}
    config = json.load(open(os.path.join(run_dir, "config.json")))
    assert stop["reason"] == config["stopped"] == "blowup"
    trace = np.genfromtxt(os.path.join(run_dir, "trace.csv"), delimiter=",",
                          names=True)
    assert stop["steps"] == trace.size - 1
    assert stop["t"] == trace["t"][-1]
    assert stop["sup_grad"] == trace["sup_grad"][-1] >= 1e6

    fit = json.load(open(os.path.join(run_dir, "fit.json")))
    assert fit["kind"] == "power"
    assert 0.05 < fit["beta"] < 0.25


def test_fit_command(run_dir, capsys):
    assert cli.main(["fit", "--run", run_dir, "--kind", "power"]) == 0
    printed = capsys.readouterr().out
    blob = json.loads(printed)
    refit = json.load(open(os.path.join(run_dir, "fit.json")))
    assert refit["beta"] == pytest.approx(blob["beta"])


def test_compare_command(run_dir, capsys):
    assert cli.main(["compare", "--run", run_dir]) == 0
    printed = capsys.readouterr().out
    report = json.load(open(os.path.join(run_dir, "compare.json")))
    assert report["status"] == "ok"
    assert report["predicted_beta"] == pytest.approx(0.1306019, abs=5e-8)
    assert f"{report['relative_error']:.4f}" in printed
    plot = np.genfromtxt(report["rate_plot"], delimiter=",", names=True)
    assert "neg_log_T_minus_t" in plot.dtype.names
    assert plot.size > 100


def test_compare_writes_overlay(tmp_path, capsys):
    # deep enough (sup|u_r| = 1e8) that eps at the last snapshot is small and
    # compare writes the profile-vs-ansatz overlay through eval_u
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps({"d": 8, "k": 1, "M": 64,
                               "max_gradient": 1e8}))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    run = out / os.listdir(out)[0]
    assert cli.main(["compare", "--run", str(run)]) == 0
    capsys.readouterr()
    report = json.load(open(run / "compare.json"))
    assert report["overlay"] == str(run / "overlay.csv")
    overlay = np.genfromtxt(report["overlay"], delimiter=",", names=True)
    assert overlay.dtype.names == ("y", "f_numeric", "f_ansatz")
    assert overlay.size > 10
    for name in overlay.dtype.names:
        assert np.all(np.isfinite(overlay[name]))


def test_overlay_takes_latest_snapshot(tmp_path):
    # past 999 snapshots the names no longer sort by time: snap_1000 sorts
    # before snap_999 and is the later one; the overlay must use it
    prof, basis = cli._pipeline(8.0, 1, 1)[1:3]
    T = 0.2 + 1e-6
    r = np.concatenate([[0.0], np.geomspace(1e-9, 2.0, 400)])
    snap_dir = tmp_path / "snapshots"
    snap_dir.mkdir()
    # (index, t, layer width); both are steep enough for an overlay
    snaps = ((999, 0.1, 1e-3), (1000, 0.2, 1e-5))
    for j, t, width in snaps:
        write_table(snap_dir / f"snap_{j:03d}.csv", ("r", "u"),
                    (r, 2.0 * np.arctan(r / width)))
        (snap_dir / f"snap_{j:03d}.json").write_text(
            json.dumps({"t": t, "index": j}))
    path = tmp_path / "overlay.csv"
    assert cli._overlay_csv(str(path), str(tmp_path), T, prof, basis, 1)
    overlay = np.genfromtxt(path, delimiter=",", names=True)
    assert overlay.size > 10
    # f_numeric against y is snap_1000's profile at y = r / sqrt(T - 0.2)
    r_back = overlay["y"] * math.sqrt(T - 0.2)
    assert np.allclose(overlay["f_numeric"], 2.0 * np.arctan(r_back / 1e-5),
                       rtol=1e-8, atol=1e-12)


def test_compare_no_blowup(tmp_path, capsys):
    cfg = write_config(tmp_path / "nb.json", t_max=1e-3, M=101)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    run = [d for d in os.listdir(tmp_path) if d.startswith("run_")][0]
    assert cli.main(["compare", "--run", str(tmp_path / run)]) == 0
    report = json.load(open(tmp_path / run / "compare.json"))
    assert report["status"] == "NoBlowup"
    capsys.readouterr()


def test_failed_run_leaves_no_directory(tmp_path, monkeypatch, capsys):
    def failing_run(config):
        raise StepSizeUnderflow("forced")

    monkeypatch.setattr(cli.meshsim, "run", failing_run)
    cfg = write_config(tmp_path / "cfg.json", t_max=1e-3, M=101)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "StepSizeUnderflow" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_rerun_replaces_run_directory(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", t_max=1e-3, M=101)
    out = tmp_path / "out"
    for _ in range(2):
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert len(os.listdir(out)) == 1
    run = out / os.listdir(out)[0]
    assert run.name.startswith("run_")
    manifest = json.load(open(run / "manifest.json"))
    assert all(os.path.exists(artifact) for artifact in manifest["artifacts"])
    capsys.readouterr()


def test_simulate_sweep(tmp_path, capsys):
    cfgs = [write_config(tmp_path / f"c{j}.json", t_max=1e-3, M=101 + j)
            for j in range(2)]
    assert cli.main(["simulate", "--config", cfgs[0], "--sweep", cfgs[1],
                     "--out", str(tmp_path), "--workers", "2"]) == 0
    dirs = [d for d in os.listdir(tmp_path) if d.startswith("run_")]
    assert len(dirs) == 2
    capsys.readouterr()


def test_simulate_sweep_keeps_good_runs(tmp_path, capsys):
    good = write_config(tmp_path / "good.json", t_max=1e-3, M=101)
    bad = write_config(tmp_path / "bad.json", initial_data=5)
    assert cli.main(["simulate", "--config", bad, "--sweep", good,
                     "--out", str(tmp_path), "--workers", "2"]) == 2
    dirs = [d for d in os.listdir(tmp_path) if d.startswith("run_")]
    assert len(dirs) == 1
    assert os.path.exists(tmp_path / dirs[0] / "manifest.json")
    out, err = capsys.readouterr()
    assert dirs[0] in out and "stopped=tmax" in out
    assert err.count("\n") == 1 and bad in err


def test_out_root_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BLOWUPLAB_OUT", str(tmp_path))
    cfg = write_config(tmp_path / "cfg.json", t_max=1e-3, M=101)
    assert cli.main(["simulate", "--config", cfg]) == 0
    assert any(d.startswith("run_") for d in os.listdir(tmp_path))
    capsys.readouterr()


def test_profile_dump(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    assert cli.main(["profile-dump", "--d", "7", "--out", str(out)]) == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert {"x", "v", "vPrime"} <= set(data.dtype.names)
    assert "h=2.693" in capsys.readouterr().out


def test_basis_dump(tmp_path, capsys):
    out = tmp_path / "basis.csv"
    assert cli.main(["basis-dump", "--d", "8", "--n", "4",
                     "--out", str(out)]) == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert "phi4" in data.dtype.names
    capsys.readouterr()
