"""Command-line front end.

Subcommands:

    predict       rate law + constants table for (d, k, N)
    simulate      run the log-grid PDE solver from a JSON config
    fit           (re-)fit the rate law of an existing run directory
    compare       prediction-vs-experiment report for one or two runs
    profile-dump  boundary-layer orbit as CSV
    basis-dump    eigenbasis table as CSV

Every printed number is mirrored in a JSON artifact, and a run directory
(config.json, trace.csv, snapshots/, fit.json, solver.jsonl with one line
per chunk, manifest.json) is the stable on-disk contract.
BLOWUPLAB_OUT overrides the output root.
Exit codes: 0 success, 2 malformed config/arguments, 1 anything else.  A
failing config in a sweep does not stop the others; the sweep exits with
the code of its gravest failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import time
import traceback

import numpy as np
import scipy

from . import __version__, coupling, meshsim, rates, spectral
from . import profile as profile_mod
from .errors import BadInitialData, BlowupLabError, NoBlowup
from .params import ModelParams, classify, derive, eigenvalue
from .tables import read_table, write_table

#: the config keys besides d and k, each with its default: the SimConfig
#: fields but params
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(meshsim.SimConfig)
             if f.name != "params"}


class ConfigError(Exception):
    """Malformed simulation config or arguments (exit code 2)."""


def _out_root(arg):
    return arg or os.environ.get("BLOWUPLAB_OUT", ".")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_output(path, write, *args):
    """write(path, *args) for a path named on the command line; ConfigError
    if it cannot be written (a missing directory, no permission)."""
    try:
        write(path, *args)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _params(d, k, N=None):
    """ModelParams from command-line values; out-of-range values are
    malformed arguments."""
    try:
        return ModelParams(d=d, k=k, N=N)
    except ValueError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc


def _pipeline(consts, N):
    """profile -> basis -> coupling -> rate law of the constants of (d, k)."""
    prof = profile_mod.solve_profile(consts)
    basis = spectral.build_basis(consts, max_n=max(8, N))
    coup = coupling.coupling_constants(prof, basis, N)
    return prof, basis, rates.predict_rate(consts, N, prof, basis, coup)


# ----------------------------------------------------------------------------
# predict

def cmd_predict(args):
    consts = derive(_params(args.d, args.k, args.N))
    law = _pipeline(consts, args.N)[2]
    table = {key: law.constants[key] for key in ("gamma", "omega", "delta",
             "h", "Cs", "cN", "DN", "CN") if key in law.constants}
    print(f"rate law: {law.kind}, exponent {law.exponent:.7f}")
    for key, val in table.items():
        print(f"  {key:>6s} = {val:.9g}")
    table |= {"d": args.d, "k": args.k, "N": args.N, "lambda_n":
              [eigenvalue(consts, n).lam for n in range(args.N + 2)]}
    out = {"rate_law": dataclasses.asdict(law), "constants": table}
    if args.json:
        _write_output(args.json, _write_json, out)
    return 0


# ----------------------------------------------------------------------------
# simulate

def _read_config(path):
    """The JSON object in a config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _as_number(key, val, conv):
    """conv(val) for conv int or float; a bool, which either would take as 0
    or 1, is malformed, and so, for int, is a float with a fractional part,
    which int() would truncate."""
    if isinstance(val, bool):
        raise ConfigError(f"config key {key!r} must be a number, got {val!r}")
    if conv is int and isinstance(val, float) and not val.is_integer():
        raise ConfigError(f"config key {key!r} must be an integer, got {val!r}")
    return conv(val)


def _sim_config(raw):
    """SimConfig from d, k and SimConfig fields; a float or int field's value
    is converted by the type of its default (_as_number), others pass
    through."""
    for key in ("d", "k"):
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}")
    kwargs = {}
    try:
        for key, val in raw.items():
            if key in ("d", "k"):
                continue
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            conv = type(_DEFAULTS[key])
            kwargs[key] = (_as_number(key, val, conv) if conv in (int, float)
                           else val)
        params = ModelParams(d=_as_number("d", raw["d"], float),
                             k=_as_number("k", raw["k"], int))
        return meshsim.SimConfig(params=params, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def _load_config(path):
    config = _sim_config(_read_config(path))
    try:
        meshsim.initial_profile(config)
    except BadInitialData as exc:
        raise ConfigError(f"invalid initial data: {exc}") from exc
    return config


def _config_hash(config):
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _generic_law(params):
    """Constants, the generic construction index N (the smallest admissible
    one) and the kind of its rate law, "log" where N is neutral or "power"."""
    consts = derive(params)
    spectrum = classify(consts)
    return (consts, spectrum.min_admissible_N,
            "power" if spectrum.neutral_index is None else "log")


def _fit(trace, law, kind="auto"):
    """Fit the law of `kind`, "power" or "log"; with "auto" that of `law`, the
    _generic_law of the run's (d, k), which "power" does not read."""
    if kind == "auto":
        kind = law[2]
    if kind == "log":
        return meshsim.fit_log(trace, delta=law[0].delta)
    return meshsim.fit_power(trace)


def _run_one(config_path, out_root):
    """Simulate one config and write its run directory.  The directory is
    built in a temporary sibling and renamed into place when complete, so a
    failed or interrupted run leaves no partial directory that fit or
    compare could read; a rerun of the same config replaces the old one."""
    config = _load_config(config_path)
    name = f"run_{config.params.d:g}d{config.params.k}k_{_config_hash(config)}"
    run_dir = os.path.join(out_root, name)
    tmp_dir = os.path.join(out_root, f".{name}.{os.getpid()}.tmp")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(os.path.join(tmp_dir, "snapshots"))
    try:
        started = time.time()
        try:
            trace = meshsim.run(config)
        except BadInitialData as exc:
            # data that pass the load check but whose right-hand side is
            # not finite on the first chunk (meshsim.initialize)
            raise ConfigError(f"invalid initial data: {exc}") from exc
        _write_json(os.path.join(tmp_dir, "config.json"),
                    config.to_dict() | {"stopped": trace.stopped})
        trace.to_csv(os.path.join(tmp_dir, "trace.csv"))
        snap_names = []
        for j, snap in enumerate(trace.snapshots):
            base = os.path.join("snapshots", f"snap_{j:03d}")
            snap.to_csv(os.path.join(tmp_dir, base + ".csv"))
            _write_json(os.path.join(tmp_dir, base + ".json"),
                        {"t": snap.t, "t_left": snap.t_left, "index": j})
            snap_names.append(base + ".csv")
        try:
            fit = _fit(trace, _generic_law(config.params))
            fit_blob = dataclasses.asdict(fit)
        except BlowupLabError as exc:
            fit = None
            fit_blob = {"error": type(exc).__name__, "message": str(exc)}
        _write_json(os.path.join(tmp_dir, "fit.json"), fit_blob)
        with open(os.path.join(tmp_dir, "solver.jsonl"), "w") as fh:
            for line in trace.chunk_log:
                fh.write(json.dumps(line) + "\n")
        manifest = {
            "command": "simulate",
            "config_hash": _config_hash(config),
            "started": started,
            "finished": time.time(),
            "artifacts": [os.path.join(run_dir, p) for p in
                          ("config.json", "trace.csv", "fit.json",
                           "solver.jsonl", *snap_names)],
            "versions": {"blowuplab": __version__, "numpy": np.__version__,
                         "scipy": scipy.__version__},
            "solver": trace.solver,
            # why the run stopped, at its last row (the initial state is
            # row 0, so the steps are the rows after it)
            "stop": {"reason": trace.stopped, "t": float(trace.t[-1]),
                     "sup_grad": float(trace.sup_grad[-1]),
                     "steps": int(trace.t.size - 1)},
        }
        _write_json(os.path.join(tmp_dir, "manifest.json"), manifest)
        shutil.rmtree(run_dir, ignore_errors=True)
        os.replace(tmp_dir, run_dir)
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    return run_dir, trace, fit


def _sweep(configs, out_root, workers):
    """Run every config in a process pool.  A config that fails gets one
    error line and does not stop the others; returns the results of the
    runs that succeeded and the exit code (2 if any config was malformed,
    1 if any run failed otherwise)."""
    # imported here, so that no other command loads the process pool
    from concurrent.futures import ProcessPoolExecutor

    results, code = [], 0
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_one, path, out_root) for path in configs]
        for path, future in zip(configs, futures):
            try:
                results.append(future.result())
            except ConfigError as exc:
                print(f"{path}: error: {exc}", file=sys.stderr)
                code = 2
            except Exception as exc:
                # one failed run must not lose the others
                if not isinstance(exc, BlowupLabError):
                    traceback.print_exception(exc)
                print(f"{path}: {type(exc).__name__}: {exc}", file=sys.stderr)
                code = max(code, 1)
    return results, code


def cmd_simulate(args):
    out_root = _out_root(args.out)
    configs = [args.config] + (args.sweep or [])
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    if len(configs) == 1:
        results, code = [_run_one(configs[0], out_root)], 0
    else:
        results, code = _sweep(configs, out_root, args.workers)
    for run_dir, trace, fit in results:
        line = f"{run_dir}: stopped={trace.stopped}"
        if fit is not None:
            if fit.kind == "power":
                line += f" beta={fit.beta:.5f} T={fit.T:.8f}"
            else:
                line += f" C={fit.C:.5f} s0={fit.s0:.4f} T={fit.T:.8f}"
        print(line)
    return code


# ----------------------------------------------------------------------------
# fit / compare

def _load_run(run_dir):
    """Config and trace of a run directory; ConfigError if either cannot be
    read.  Of the saved config, the keys d, k and the SimConfig fields are
    kept."""
    saved = _read_config(os.path.join(run_dir, "config.json"))
    config = _sim_config({key: val for key, val in saved.items()
                          if key in ("d", "k") or key in _DEFAULTS})
    path = os.path.join(run_dir, "trace.csv")
    try:
        trace = meshsim.trace_from_csv(path, config=config,
                                       stopped=saved.get("stopped", "blowup"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc
    return config, trace


def cmd_fit(args):
    config, trace = _load_run(args.run)
    law = None if args.kind == "power" else _generic_law(config.params)
    fit = _fit(trace, law, args.kind)
    print(fit.to_json())
    _write_json(os.path.join(args.run, "fit.json"), dataclasses.asdict(fit))
    return 0


def _rate_plot_csv(path, trace, tau):
    mask = trace.t_left > -tau
    left = trace.t_left[mask] + tau   # T - t
    write_table(path, ("neg_log_T_minus_t", "sqrt_T_minus_t_sup_grad"),
                (-np.log(left), np.sqrt(left) * trace.sup_grad[mask]))


def _snapshot_index(run_dir):
    """(path without extension, t, t_left) of every snapshot of a run
    directory; ConfigError if one lacks a readable JSON or its table."""
    snap_dir = os.path.join(run_dir, "snapshots")
    index = []
    try:
        for meta in os.listdir(snap_dir):
            if meta.endswith(".json"):
                base = os.path.join(snap_dir, meta[:-5])
                with open(base + ".json") as fh:
                    snap = json.load(fh)
                os.stat(base + ".csv")   # its table must exist
                index.append((base, float(snap["t"]), float(snap["t_left"])))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read snapshot in {snap_dir}: {exc!r}") from exc
    return index


def _latest_snapshot(snapshots, tau):
    """The latest snapshot of a _snapshot_index before T (least t_left >
    -tau) as (name, MeshState), or None; ConfigError if its table cannot be
    read."""
    before = [snap for snap in snapshots if snap[2] > -tau]
    if not before:
        return None
    base, t, t_left = min(before, key=lambda snap: snap[2])
    try:
        r, u = read_table(base + ".csv", ("r", "u"))
        state = meshsim.MeshState(t=t, r=r, u=u, t_left=t_left)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read snapshot {base}.csv: {exc!r}") from exc
    return os.path.basename(base), state


def _overlay_csv(path, snap, tau, prof, basis, N):
    """A _latest_snapshot against the matched ansatz, in (y, f); returns the
    compare.json entry, {"overlay": path} or {"no_overlay": why not}."""
    if snap is None:
        return {"no_overlay": f"no snapshot before T (tau = {tau:.3e})"}
    name, state = snap
    ss = meshsim.to_self_similar(state, tau, prof.Cs)
    if not 0.0 < ss.eps <= rates.EPS_MAX:
        return {"no_overlay": f"eps = {ss.eps:.3e} at {name} is outside "
                              f"(0, {rates.EPS_MAX}]"}
    mask = (ss.y >= ss.eps * 1e-2) & (ss.y <= 2.0)
    ansatz = rates.assemble_ansatz(prof, basis, N, ss.eps, y_grid=ss.y[mask])
    write_table(path, ("y", "f_numeric", "f_ansatz"),
                (ss.y[mask], ss.f[mask], ansatz.f))
    return {"overlay": path}


def cmd_compare(args):
    config, trace = _load_run(args.run)
    # unreadable snapshots or a bad second run exit 2 before any work; the
    # runs' log-law C are compared, so both must be log-law at one (d, k)
    snapshots = _snapshot_index(args.run)
    law = None
    if args.run2:
        config2, trace2 = _load_run(args.run2)
        p, p2 = config.params, config2.params
        law = _generic_law(p) if p2 == p else None
        if law is None or law[2] != "log":
            raise ConfigError(
                f"--run2 needs two log-law runs at one (d, k), got d={p.d:g}, "
                f"k={p.k} and d={p2.d:g}, k={p2.k}")
        if trace2.no_blowup:
            raise ConfigError(f"--run2 {args.run2} did not blow up")
    report = {"run": args.run, "d": config.params.d, "k": config.params.k}
    if trace.no_blowup:
        report["status"] = "NoBlowup"
        print(json.dumps(report, indent=2))
        _write_json(os.path.join(args.run, "compare.json"), report)
        return 0
    # derived only here: a run that did not blow up gets its report at any d
    law = law or _generic_law(config.params)
    consts, N = law[:2]
    prof, basis, rate = _pipeline(consts, N)
    report["status"] = "ok"
    fit = _fit(trace, law)
    fit2 = _fit(trace2, law) if args.run2 else None
    # the snapshot to read depends on the fitted T: read it before anything
    # is printed or written
    snap = _latest_snapshot(snapshots, fit.tau)
    if fit.kind == "power":
        beta_pred = rate.exponent - 0.5
        report["fit"] = {"beta": fit.beta, "T": fit.T,
                         "uncertainty": fit.uncertainty}
        report["predicted_beta"] = beta_pred
        report["relative_error"] = abs(fit.beta - beta_pred) / beta_pred
        print(f"beta: fitted {fit.beta:.5f} vs predicted {beta_pred:.5f} "
              f"(relative error {report['relative_error']:.2%})")
    else:
        # the trace measures 1/R, so the fitted slope is the reciprocal of
        # the rate-law prefactor Cs*CN
        C_pred = 1.0 / rate.prefactor
        report["fit"] = {"C": fit.C, "s0": fit.s0, "T": fit.T,
                         "r_squared": fit.r_squared}
        report["predicted_C"] = C_pred
        report["relative_error"] = abs(fit.C - C_pred) / C_pred
        report["C_ratio"] = fit.C / C_pred
        print(f"C: fitted {fit.C:.5f} vs predicted {C_pred:.5f} "
              f"(relative error {report['relative_error']:.2%})")
        if fit2 is not None:
            agree = abs(fit.C - fit2.C) / min(fit.C, fit2.C)
            report["run2"] = args.run2
            report["C2"] = fit2.C
            report["C_agreement"] = agree
            print(f"C agreement across runs: {agree:.2%}")
    plot_path = os.path.join(args.run, "rate_plot.csv")
    _rate_plot_csv(plot_path, trace, fit.tau)
    report["rate_plot"] = plot_path
    report.update(_overlay_csv(os.path.join(args.run, "overlay.csv"),
                               snap, fit.tau, prof, basis, N))
    print(f"report relative error: {report['relative_error']:.4f}")
    _write_json(os.path.join(args.run, "compare.json"), report)
    return 0


# ----------------------------------------------------------------------------
# dumps

def cmd_profile_dump(args):
    consts = derive(_params(args.d, args.k))
    prof = profile_mod.solve_profile(consts)
    _write_output(args.out, prof.to_csv)
    print(f"{args.out}: h={prof.h:.8f} Cs={prof.Cs:.8f}")
    return 0


def cmd_basis_dump(args):
    consts = derive(_params(args.d, args.k))
    if args.n < 0:
        raise ConfigError(f"invalid parameters: --n must be at least 0, "
                          f"got {args.n}")
    basis = spectral.build_basis(consts, max_n=args.n)
    _write_output(args.out, basis.to_csv)
    print(f"{args.out}: n<={args.n}, "
          f"gram residual target {spectral.ORTHO_TARGET:g}")
    return 0


# ----------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="blowuplab",
        description="Type-II blow-up rates: matched asymptotics vs. "
                    "log-grid simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="closed-form rate law for (d, k, N)")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--json", help="write constants/rate-law JSON here")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="run the log-grid PDE solver")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--sweep", nargs="*", help="additional config files")
    p.add_argument("--out", help="output root (default BLOWUPLAB_OUT or .)")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="(re-)fit a run directory")
    p.add_argument("--run", required=True)
    p.add_argument("--kind", choices=("auto", "power", "log"), default="auto")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("compare", help="prediction vs. experiment report")
    p.add_argument("--run", required=True)
    p.add_argument("--run2", help="second log-law run at the same (d, k)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("profile-dump", help="boundary-layer orbit CSV")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile_dump)

    p = sub.add_parser("basis-dump", help="eigenbasis table CSV")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_basis_dump)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlowupLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
