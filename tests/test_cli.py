import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

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


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


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
    # JSON mirrors the printed constants, each to 9 significant digits
    for key in ("gamma", "omega", "delta", "h", "Cs", "cN", "DN"):
        assert f"{key:>6s} = {blob['constants'][key]:.9g}\n" in printed


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

    # the mesh policy, the absolute tolerances and the snapshot spacing are
    # module constants, not config keys
    for key in ("meshiness", "monitor_alpha", "atol_u", "atol_r_rel",
                "snapshot_decades", "monitor_scale_weight",
                "monitor_smooth_passes", "uniform_fraction", "tau"):
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"d": 8, "k": 1, key: 1.0}))
        assert cli.main(["simulate", "--config", str(unknown),
                         "--out", str(tmp_path)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.main(["simulate", "--config", str(garbled),
                     "--out", str(tmp_path)]) == 2

    for bad in ('{"d": 8, "k": 1, "M": "abc"}', '{"d": 8, "k": 1, "M": 1e400}',
                '{"d": 8, "k": 1, "rtol": 0}',
                '{"d": NaN, "k": 1}', '{"d": Infinity, "k": 1}',
                '{"d": 2, "k": 1}',
                '{"d": 8, "k": 1, "initial_data": 5}',
                '{"d": 8, "k": 1, "initial_data": "exp(r)"}',
                '{"d": 8, "k": 1, "initial_data": [[0, 1, 2], [0, 1]]}',
                '{"d": 8, "k": 1, "initial_data": [[0, 1], [0, 1]]}',
                '{"d": 8, "k": 1, "initial_data": [[0, 2, 1], [0, 1, 2]]}',
                '{"d": 8, "k": 1, "L": NaN}',
                '{"d": 8, "k": 1, "max_gradient": NaN}',
                '{"d": 8, "k": 1, "M": 201.7}',
                '{"d": 8, "k": 1, "t_max": 0}',
                '{"d": 8, "k": 1.5}'):
        path = tmp_path / "bad.json"
        path.write_text(bad)
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path)]) == 2, bad
    capsys.readouterr()

    # JSON booleans are not numbers, although int() and float() take them
    # as 0 and 1: one error line naming the key
    for key, bad in (("k", '{"d": 8, "k": true}'),
                     ("rtol", '{"d": 8, "k": 1, "rtol": true}'),
                     ("L", '{"d": 8, "k": 1, "L": false}'),
                     ("t_max", '{"d": 8, "k": 1, "t_max": true}'),
                     ("d", '{"d": true, "k": 1}')):
        path = tmp_path / "bad.json"
        path.write_text(bad)
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path)]) == 2, bad
        err = capsys.readouterr().err
        assert err == f"error: config key {key!r} must be a number, got " \
                      f"{'False' if 'false' in bad else 'True'}\n", err


def test_simulate_huge_max_gradient_exit_2(tmp_path):
    # r_min = 1e-3/max_gradient = 1e-203: e^{-2x} there overflows, so the
    # config is malformed; one error line, no traceback, under -W error
    cfg = write_config(tmp_path / "huge.json", max_gradient=1e200)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "blowuplab.cli",
         "simulate", "--config", cfg, "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: invalid config value: max_gradient")
    assert proc.stderr.count("\n") == 1


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
        == "11bddd87b5304ada"
    path = write_config(tmp_path / "cfg.json", M=161)
    assert cli._config_hash(cli._load_config(path)) == "d2472ec14d9659e0"
    # an integral float is the integer
    path = write_config(tmp_path / "cfg_float.json", M=161.0, k=1.0)
    assert cli._config_hash(cli._load_config(path)) == "d2472ec14d9659e0"


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


@pytest.mark.parametrize("broken", ["not_json", "no_t_left", "no_csv",
                                    "bad_table"])
def test_compare_bad_snapshot_exit_2(tmp_path, run_dir, capsys, broken):
    # a snapshot JSON that is not JSON or lacks t_left, a snapshot table
    # gone, or the table of the snapshot the overlay reads (the latest
    # before the fitted T) not parsing: one error line, before any work is
    # printed or written
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    for name in ("rate_plot.csv", "compare.json"):
        (run / name).unlink(missing_ok=True)
    snaps = run / "snapshots"
    if broken == "no_csv":
        (snaps / "snap_000.csv").unlink()
    elif broken == "bad_table":
        tau = read_json(run / "fit.json")["tau"]
        left = {p.stem: read_json(p)["t_left"] for p in snaps.glob("*.json")}
        read = min((t, name) for name, t in left.items() if t > -tau)[1]
        (snaps / f"{read}.csv").write_text("r,u\n0,0,7\nx")
    else:
        (snaps / "snap_000.json").write_text(
            "{oops" if broken == "not_json" else '{"t": 0.2, "index": 0}')
    assert cli.main(["compare", "--run", str(run)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot read snapshot") and err.count("\n") == 1
    assert not (run / "rate_plot.csv").exists()
    assert not (run / "compare.json").exists()


def test_run_directory_with_removed_keys_loads(tmp_path, run_dir, capsys):
    # a run directory written while the mesh policy was configurable: its
    # config.json keeps those keys, which fit and compare pass over
    run = tmp_path / "old_run"
    shutil.copytree(run_dir, run)
    saved = read_json(run / "config.json")
    saved.update(monitor_scale_weight=1.0, monitor_smooth_passes=4,
                 uniform_fraction=0.1, tau=0.1)
    (run / "config.json").write_text(json.dumps(saved))
    config, _ = cli._load_run(str(run))
    assert config == cli._load_run(run_dir)[0]
    for argv in (["fit", "--run", str(run)], ["compare", "--run", str(run)]):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()


def test_run_directory_with_dr_u0_loads(tmp_path, run_dir, capsys):
    # a run directory written while the trace kept the origin gradient
    # dr_u0 as its second column: fit and compare read past it and fit the
    # same law as on the current layout
    fits = []
    for layout in ("new", "old"):
        run = tmp_path / layout
        shutil.copytree(run_dir, run)
        if layout == "old":
            trace = np.genfromtxt(run / "trace.csv", delimiter=",", names=True)
            columns = [trace[name] for name in TRACE_COLUMNS]
            write_table(run / "trace.csv", ("t", "dr_u0", *TRACE_COLUMNS[1:]),
                        (columns[0], columns[1], *columns[1:]))
        for argv in (["fit", "--run", str(run)], ["compare", "--run", str(run)]):
            assert cli.main(argv) == 0, argv
        fits.append((run / "fit.json").read_text())
    capsys.readouterr()
    assert fits[0] == fits[1]


def test_run_directory_layout(run_dir):
    for name in ("config.json", "trace.csv", "fit.json", "solver.jsonl",
                 "manifest.json"):
        assert os.path.exists(os.path.join(run_dir, name))
    snaps = os.listdir(os.path.join(run_dir, "snapshots"))
    assert any(f.endswith(".csv") for f in snaps)
    assert any(f.endswith(".json") for f in snaps)

    manifest = read_json(os.path.join(run_dir, "manifest.json"))
    assert manifest["command"] == "simulate"
    for artifact in manifest["artifacts"]:
        assert os.path.exists(artifact)
    assert "numpy" in manifest["versions"]
    solver = manifest["solver"]
    assert set(solver) == {"chunks", "nfev", "njev", "nlu", "rhs_s", "jac_s",
                           "lu_s"}
    assert solver["njev"] >= solver["chunks"] >= 1
    assert solver["rhs_s"] > 0 and solver["lu_s"] > 0

    # the stop record is the last row of the trace
    stop = manifest["stop"]
    assert set(stop) == {"reason", "t", "sup_grad", "steps"}
    config = read_json(os.path.join(run_dir, "config.json"))
    assert stop["reason"] == config["stopped"] == "blowup"
    trace = np.genfromtxt(os.path.join(run_dir, "trace.csv"), delimiter=",",
                          names=True)
    assert stop["steps"] == trace.size - 1
    assert stop["t"] == trace["t"][-1]
    assert stop["sup_grad"] == trace["sup_grad"][-1] >= 1e6
    # each snapshot carries the t_left of its trace row; the last row's is 0
    assert trace["t_left"][-1] == 0.0
    for name in snaps:
        if name.endswith(".json"):
            meta = read_json(os.path.join(run_dir, "snapshots", name))
            row = np.flatnonzero(trace["t_left"] == meta["t_left"])
            assert row.size == 1 and trace["t"][row[0]] == meta["t"], name

    fit = read_json(os.path.join(run_dir, "fit.json"))
    assert fit["kind"] == "power"
    assert 0.05 < fit["beta"] < 0.25


def test_snapshot_files_distinct(run_dir):
    # one file pair per snapshot, in index order, each row once: t_left
    # decreases strictly to 0 (the run stops on the sup|u_r| = 1e6 rung)
    snap_dir = os.path.join(run_dir, "snapshots")
    metas = sorted((read_json(os.path.join(snap_dir, name))
                    for name in os.listdir(snap_dir) if name.endswith(".json")),
                   key=lambda meta: meta["index"])
    assert [meta["index"] for meta in metas] == list(range(len(metas)))
    t_left = np.array([meta["t_left"] for meta in metas])
    assert np.all(np.diff(t_left) < 0) and t_left[-1] == 0.0


def test_solver_log(run_dir):
    # one line per chunk solver; they add up to the manifest's totals
    manifest = read_json(os.path.join(run_dir, "manifest.json"))
    path = os.path.join(run_dir, "solver.jsonl")
    assert path in manifest["artifacts"]
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    solver = manifest["solver"]
    assert len(lines) == solver["chunks"]
    assert sum(line["steps"] for line in lines) == manifest["stop"]["steps"]
    for key in ("nfev", "njev", "nlu"):
        assert sum(line[key] for line in lines) == solver[key], key
    assert list(lines[0]) == ["t0", "t1", "dt", "sup_grad0", "sup_grad1",
                              "steps", "nfev", "njev", "nlu", "rhs_s", "jac_s",
                              "lu_s", "wall_s", "end"]
    assert {line["end"] for line in lines[:-1]} == {"growth"}
    assert lines[-1]["end"] == manifest["stop"]["reason"] == "blowup"
    assert lines[-1]["t1"] == manifest["stop"]["t"]


def test_fit_command(run_dir, capsys):
    assert cli.main(["fit", "--run", run_dir, "--kind", "power"]) == 0
    printed = capsys.readouterr().out
    blob = json.loads(printed)
    refit = read_json(os.path.join(run_dir, "fit.json"))
    assert refit["beta"] == pytest.approx(blob["beta"])


def test_compare_command(run_dir, capsys):
    assert cli.main(["compare", "--run", run_dir]) == 0
    printed = capsys.readouterr().out
    report = read_json(os.path.join(run_dir, "compare.json"))
    assert report["status"] == "ok"
    assert report["predicted_beta"] == pytest.approx(0.1306019, abs=5e-8)
    assert f"{report['relative_error']:.4f}" in printed
    plot = np.genfromtxt(report["rate_plot"], delimiter=",", names=True)
    assert "neg_log_T_minus_t" in plot.dtype.names
    assert plot.size > 100
    # an overlay, or the reason there is none
    assert ("overlay" in report) != ("no_overlay" in report)


def log_law_run(root, d=7, k=1, C=0.225, s0=-0.436, T=0.229,
                stopped="blowup"):
    """A run directory at (d, k) without snapshots whose trace follows the
    log law sqrt(T-t) sup_grad = C (-log(T-t) - s0) exactly."""
    run = root / f"log_run_{d}d{k}k_{C}"
    (run / "snapshots").mkdir(parents=True)
    (run / "config.json").write_text(
        json.dumps({"d": d, "k": k, "stopped": stopped}))
    tau = np.geomspace(1e-1, 1e-9, 2400)
    g = C * (-np.log(tau) - s0) / np.sqrt(tau)
    write_table(run / "trace.csv", TRACE_COLUMNS,
                (T - tau, g, np.linspace(1.0, 0.5, tau.size), 1.0 / g,
                 np.zeros_like(tau), np.full(tau.size, 50), tau - tau[-1]))
    return str(run)


def test_fit_log_law_run(tmp_path, capsys):
    # --kind log and the automatic choice at d=7 (neutral N=1) give the
    # same log-law fit, which recovers the generator
    run = log_law_run(tmp_path)
    fits = []
    for kind in ("log", "auto"):
        assert cli.main(["fit", "--run", run, "--kind", kind]) == 0
        fits.append(json.loads(capsys.readouterr().out))
        assert read_json(os.path.join(run, "fit.json")) == fits[-1]
    assert fits[0] == fits[1]
    assert fits[0]["kind"] == "log"
    assert fits[0]["C"] == pytest.approx(0.225, abs=1e-3)
    assert fits[0]["T"] == pytest.approx(0.229, abs=1e-6)


def test_compare_second_log_law_run(tmp_path, capsys):
    run, run2 = log_law_run(tmp_path), log_law_run(tmp_path, C=0.2259)
    assert cli.main(["compare", "--run", run, "--run2", run2]) == 0
    printed = capsys.readouterr().out
    report = read_json(os.path.join(run, "compare.json"))
    assert report["run2"] == run2
    assert report["fit"]["C"] == pytest.approx(0.225, abs=1e-3)
    assert report["C2"] == pytest.approx(0.2259, abs=1e-3)
    assert report["C_agreement"] == pytest.approx(
        abs(report["fit"]["C"] - report["C2"])
        / min(report["fit"]["C"], report["C2"]))
    assert f"C agreement across runs: {report['C_agreement']:.2%}" in printed
    assert report["predicted_C"] == pytest.approx(0.22268, abs=1e-5)


def test_compare_second_run_mismatch_exit_2(tmp_path, run_dir, capsys):
    # the second run must be a log-law run at the first run's (d, k) that
    # blew up: a different d, a different k, a power-law pair or a second
    # run stopped at t_max exit 2 before any work
    log7 = log_law_run(tmp_path)
    for run, run2 in ((log7, run_dir), (run_dir, log7),
                      (log7, log_law_run(tmp_path, k=2)),
                      (run_dir, run_dir),
                      (log7, log_law_run(tmp_path, C=0.2259, stopped="tmax"))):
        report = os.path.join(run, "compare.json")
        before = os.stat(report).st_mtime_ns if os.path.exists(report) else None
        assert cli.main(["compare", "--run", run, "--run2", run2]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --run2 ") and err.count("\n") == 1
        after = os.stat(report).st_mtime_ns if os.path.exists(report) else None
        assert after == before


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
    report = read_json(run / "compare.json")
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
    tau = 1e-6
    r = np.concatenate([[0.0], np.geomspace(1e-9, 2.0, 400)])
    snap_dir = tmp_path / "snapshots"
    snap_dir.mkdir()
    # (index, t_left, layer width); both are steep enough for an overlay
    snaps = ((999, 0.1, 1e-3), (1000, 0.0, 1e-5))
    for j, t_left, width in snaps:
        write_table(snap_dir / f"snap_{j:03d}.csv", ("r", "u"),
                    (r, 2.0 * np.arctan(r / width)))
        (snap_dir / f"snap_{j:03d}.json").write_text(
            json.dumps({"t": 0.2 - t_left, "t_left": t_left, "index": j}))
    path = tmp_path / "overlay.csv"
    snap = cli._latest_snapshot(cli._snapshot_index(str(tmp_path)), tau)
    assert snap[0] == "snap_1000"
    assert cli._overlay_csv(str(path), snap, tau, prof, basis, 1) \
        == {"overlay": str(path)}
    overlay = np.genfromtxt(path, delimiter=",", names=True)
    assert overlay.size > 10
    # f_numeric against y is snap_1000's profile at y = r / sqrt(T - t)
    r_back = overlay["y"] * math.sqrt(tau)
    assert np.allclose(overlay["f_numeric"], 2.0 * np.arctan(r_back / 1e-5),
                       rtol=1e-8, atol=1e-12)


def test_overlay_reason(tmp_path):
    # no overlay: every snapshot at or after the fitted T, or the latest
    # one before it with eps outside (0, 0.1]
    prof, basis = cli._pipeline(8.0, 1, 1)[1:3]
    r = np.concatenate([[0.0], np.geomspace(1e-9, 2.0, 400)])
    snap_dir = tmp_path / "snapshots"
    snap_dir.mkdir()
    write_table(snap_dir / "snap_000.csv", ("r", "u"), (r, 2.0 * np.arctan(r)))
    (snap_dir / "snap_000.json").write_text(
        json.dumps({"t": 0.1, "t_left": 0.1, "index": 0}))
    path = tmp_path / "overlay.csv"
    for tau, reason in ((-0.2, "no snapshot before T"),
                        (1e-6, "eps = ")):
        snap = cli._latest_snapshot(cli._snapshot_index(str(tmp_path)), tau)
        entry = cli._overlay_csv(str(path), snap, tau, prof, basis, 1)
        assert entry["no_overlay"].startswith(reason), entry
        assert not path.exists()


def test_run_directory_without_t_left_exit_2(tmp_path, capsys):
    # a trace.csv written before the t_left column: one error line naming it
    run = log_law_run(tmp_path)
    trace = np.genfromtxt(os.path.join(run, "trace.csv"), delimiter=",",
                          names=True)
    old = TRACE_COLUMNS[:-1]
    write_table(os.path.join(run, "trace.csv"), old, [trace[c] for c in old])
    for argv in (["fit", "--run", run], ["compare", "--run", run]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, argv
        assert err.startswith("error: ") and "t_left" in err, argv


def test_simulate_flat_near_origin(tmp_path, capsys):
    # u = 0 near the origin: the steepest gradient starts off the origin,
    # and the finished run still fits the d=8 power law
    cfg = write_config(tmp_path / "flat.json", M=161,
                       initial_data=[[0, 0.5, 2], [0, 0, 3]])
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    run = tmp_path / [d for d in os.listdir(tmp_path) if d.startswith("run_")][0]
    assert "beta=" in capsys.readouterr().out
    assert 0.05 < read_json(run / "fit.json")["beta"] < 0.25


def test_simulate_k2_fits_layer_scale(tmp_path, capsys):
    # at k = 2 the layer U*(y/eps) has u_r(0) = 0; the fits and the overlay
    # read R = 1/sup |u_r|, whose exponent 1/2 + beta is of the order 1/2
    cfg = write_config(tmp_path / "k2.json", d=14, k=2, M=161)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    run = tmp_path / [d for d in os.listdir(tmp_path) if d.startswith("run_")][0]
    capsys.readouterr()
    assert 0.45 <= 0.5 + read_json(run / "fit.json")["beta"] <= 0.7
    assert cli.main(["compare", "--run", str(run)]) == 0
    capsys.readouterr()
    assert "overlay" in read_json(run / "compare.json")


def test_compare_no_blowup(tmp_path, capsys):
    cfg = write_config(tmp_path / "nb.json", t_max=1e-3, M=101)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    run = [d for d in os.listdir(tmp_path) if d.startswith("run_")][0]
    assert cli.main(["compare", "--run", str(tmp_path / run)]) == 0
    report = read_json(tmp_path / run / "compare.json")
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
    manifest = read_json(run / "manifest.json")
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


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_simulate_bad_workers_exit_2(workers, tmp_path, capsys):
    cfgs = [write_config(tmp_path / f"c{j}.json", t_max=1e-3, M=101 + j)
            for j in range(2)]
    for argv in (["--config", cfgs[0]], ["--config", cfgs[0], "--sweep", cfgs[1]]):
        assert cli.main(["simulate", *argv, "--out", str(tmp_path),
                         "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--workers" in err
    assert not [d for d in os.listdir(tmp_path) if d.startswith(("run_", "."))]


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


def test_profile_dump_large_d(tmp_path, capsys):
    # the subdominant tail amplitude, referred to x = 0, overflowed above
    # d ~ 150; h tends to 1 as d grows
    out = tmp_path / "orbit.csv"
    assert cli.main(["profile-dump", "--d", "200", "--out", str(out)]) == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert np.all(np.isfinite(data["v"]))
    assert "h=1.0001" in capsys.readouterr().out


def test_predict_runaway_profile_work_exit_1(capsys):
    assert cli.main(["predict", "--d", "1e6"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("IntegrationFailed: profile")
    assert err.count("\n") == 1


def test_predict_overflowing_profile_steps_exit_1(capsys):
    # the Taylor coefficients overflow at d = 1e20; the step loop ran on
    # nan steps to its cap and blamed stiffness
    assert cli.main(["predict", "--d", "1e20"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("IntegrationFailed: profile")
    assert "step 0 does not advance" in err
    assert err.count("\n") == 1


def test_predict_huge_d_exit_2(capsys):
    # (d - 2(k+1))^2 overflows: a malformed argument, not an OverflowError
    assert cli.main(["predict", "--d", "1e300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid parameters")
    assert err.count("\n") == 1


def test_predict_past_float_range_exit_1(capsys):
    # at d = 200 the outer integral's N_N^4 underflows; predict printed
    # DN = nan after RuntimeWarnings
    assert cli.main(["predict", "--d", "200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("FloatRangeExceeded: ")
    assert captured.err.count("\n") == 1


def test_cli_import_leaves_out_scipy_interpolate():
    # nothing reads the orbit through an interpolant, so no module imports
    # scipy.interpolate, which adds tens of ms to every start-up
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, blowuplab.cli; "
            "print('scipy.interpolate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_basis_dump(tmp_path, capsys):
    out = tmp_path / "basis.csv"
    assert cli.main(["basis-dump", "--d", "8", "--n", "4",
                     "--out", str(out)]) == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert "phi4" in data.dtype.names
    capsys.readouterr()
