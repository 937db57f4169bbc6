"""One benchmark pass, in a fresh process.

    PYTHONPATH=src python3 perfbench/worker.py SPEC.json SPAWNED

SPEC.json names the pass kind and its inputs:

- "sim": `blowuplab simulate` then `blowuplab compare` on one config, both
  through `blowuplab.cli.main`;
- "sweep": the asymptotics chain on a batch of (d, k, N) points, through
  the public function of each module;
- "setup": imports and input generation only, to sample set-up time.

SPAWNED is the parent's monotonic clock just before it started this
process; set-up time runs from there to the first timed call.  From that
call on, a `hostspeed.Sampler` runs its reference kernel between the
program's own work; every time the pass measures leaves the kernel out,
and the pass reports the kernel's scale to reference host speed.  The pass
writes timings, check results and, when SPEC asks for tracing, its spans to
SPEC["result"].  A failed check marks its operation failed and the pass
goes on.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

from blowuplab import cli, coupling, meshsim, params, profile, rates, spectral
from blowuplab.params import Regime
from hostspeed import Sampler

MODULES = {"cli": cli, "meshsim": meshsim, "params": params,
           "profile": profile, "spectral": spectral, "coupling": coupling,
           "rates": rates}

#: eps(s) is compared with its closed form from this s on, past the
#: initial transient of the integrator
EPS_CHECK_FROM_S = 5.0


def _op(name, seconds, problems):
    return {"name": name, "seconds": seconds, "ok": not problems,
            "problems": problems}


def _call_cli(argv, clock):
    """Time one `cli.main` call; an exception is a failed operation."""
    start = clock()
    try:
        rc = cli.main(argv)
        problems = [] if rc == 0 else [f"exit code {rc}"]
    except Exception:
        problems = [traceback.format_exc(limit=3)]
    return clock() - start, problems


def _check_run_dir(run_dir):
    """The acceptance-suite invariants of a finished simulation."""
    with open(os.path.join(run_dir, "config.json")) as fh:
        stopped = json.load(fh)["stopped"]
    data = np.genfromtxt(os.path.join(run_dir, "trace.csv"), delimiter=",",
                         names=True)
    energy = data["energy"]
    # r-sin(r) starts steepest at r=L; from the step where the maximum
    # first reaches the origin it must stay there
    at_origin = data["sup_grad_loc"] == 0.0
    checks = {
        f"stopped={stopped}, expected blowup or roundoff":
            stopped in ("blowup", "roundoff"),
        "energy rose by more than 1e-10 |E0|":
            float(np.max(np.diff(energy))) <= 1e-10 * abs(float(energy[0])),
        "sup gradient did not reach r=0 or left it":
            bool(at_origin[np.argmax(at_origin):].all() and at_origin[-1]),
        "fewer than 20 nodes in the layer":
            int(np.min(data["nodes_in_layer"])) >= 20,
    }
    return [msg for msg, ok in checks.items() if not ok]


def _bytes_under(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def sim_pass(spec, out, tracer, sampler):
    config = spec["config"]
    cfg_path = os.path.join(out, "input.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    runs = os.path.join(out, "runs")
    os.makedirs(runs)
    result = {"first_call": time.monotonic(), "ops": []}
    sampler.start()
    start = sampler.clock()

    seconds, problems = _call_cli(["simulate", "--config", cfg_path,
                                   "--out", runs], sampler.clock)
    run_dirs = [os.path.join(runs, p) for p in os.listdir(runs)]
    if not problems:
        if len(run_dirs) != 1:
            problems = [f"{len(run_dirs)} run directories, expected 1"]
        else:
            problems = _check_run_dir(run_dirs[0])
    result["ops"].append(_op("simulate", seconds, problems))
    result["simulate_s"] = seconds

    if problems:
        result["ops"].append(_op("compare", 0.0, ["simulate failed"]))
    else:
        seconds, problems = _call_cli(["compare", "--run", run_dirs[0]],
                                      sampler.clock)
        report_path = os.path.join(run_dirs[0], "compare.json")
        if not problems:
            if not os.path.exists(report_path):
                problems = ["compare.json not written"]
            else:
                with open(report_path) as fh:
                    report = json.load(fh)
                err = report.get("relative_error")
                if report.get("status") != "ok" or err is None \
                        or not math.isfinite(err):
                    problems = [f"compare report {report}"]
                else:
                    result["rate_rel_err"] = err
        result["ops"].append(_op("compare", seconds, problems))
        result["compare_s"] = seconds
    result["work_s"] = sampler.clock() - start
    result["bytes_written"] = _bytes_under(runs)

    if tracer is not None:
        # one public step() from the seeded initial state, outside the
        # timed work so it does not count as tracing overhead
        rest = {k: v for k, v in config.items() if k not in ("d", "k")}
        cfg = meshsim.SimConfig(
            params=params.ModelParams(d=config["d"], k=config["k"]), **rest)
        meshsim.step(cfg, meshsim.initialize(cfg))
    return result


def _chain(d, k, N):
    """derive -> solve_profile -> build_basis -> coupling_constants ->
    predict_rate -> solve_epsilon -> coefficient_flow for n <= 3."""
    consts = params.derive(params.ModelParams(d=d, k=k, N=N))
    prof = profile.solve_profile(consts)
    basis = spectral.build_basis(consts, max_n=max(8, N))
    coup = coupling.coupling_constants(prof, basis, N)
    law = rates.predict_rate(consts, N, prof, basis, coup)
    reduced = rates.ReducedConstants(
        lam=params.eigenvalue(consts, N).lam, gamma=consts.gamma,
        DN=float(coup.D[N]), cN=float(basis.c_origin[N]), h=prof.h,
        delta=consts.delta)
    traj = rates.solve_epsilon(reduced, eps0=0.05, s_max=50.0)
    flows = [rates.coefficient_flow(traj, params.eigenvalue(consts, n).lam,
                                    float(coup.D[n]), 0.0)
             for n in range(4)]
    return consts, coup, law, reduced, traj, flows


def _check_point(N, consts, coup, law, reduced, traj, flows):
    """Checks of one sweep point; returns (problems, eps_rel_err)."""
    inner = consts.omega < 2.0 * consts.gamma
    expected_kind = "power" if reduced.lam > 0 else "logarithmic"
    late = traj.s >= EPS_CHECK_FROM_S
    with np.errstate(invalid="ignore"):
        eps_err = float(np.max(np.abs(
            traj.eps[late] / traj.closed_form(traj.s[late]) - 1.0)))
    checks = {
        "D_N <= 0": float(coup.D[N]) > 0.0,
        "regime does not match the sign of omega - 2 gamma":
            (coup.regime is Regime.INNER_DOMINATED) == inner,
        f"rate law {law.kind}, expected {expected_kind}":
            law.kind == expected_kind,
        "eps(s) or its closed form not finite": math.isfinite(eps_err),
        "coefficient flow not finite":
            all(bool(np.all(np.isfinite(f))) for f in flows),
    }
    return [msg for msg, ok in checks.items() if not ok], eps_err


def sweep_pass(spec, sampler):
    points = [tuple(p) for p in spec["points"]]
    result = {"first_call": time.monotonic(), "ops": [], "eps_rel_err": []}
    sampler.start()
    work_start = sampler.clock()
    for d, k, N in points:
        start = sampler.clock()
        try:
            parts = _chain(d, k, N)
        except Exception:
            parts, problems = None, [traceback.format_exc(limit=3)]
        seconds = sampler.clock() - start
        if parts is not None:
            problems, eps_err = _check_point(N, *parts)
            if not problems:
                result["eps_rel_err"].append(eps_err)
        result["ops"].append(_op(f"point d={d!r} k={k} N={N}", seconds,
                                 problems))
    result["work_s"] = sampler.clock() - work_start
    return result


def main(spec_path, spawned):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sampler = Sampler()
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer(pass_id=spec["pass_id"], clock=sampler.clock)
        tracer.install(MODULES)
    out = os.path.dirname(spec_path)
    if spec["kind"] == "sim":
        result = sim_pass(spec, out, tracer, sampler)
    elif spec["kind"] == "sweep":
        result = sweep_pass(spec, sampler)
    else:
        result = {"first_call": time.monotonic(), "ops": []}
    sampler.stop()
    result["setup_s"] = result.pop("first_call") - spawned
    result["ref_s"] = sampler.total
    result["ref_scale"] = sampler.scale()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["runs"] = tracer.runs
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
