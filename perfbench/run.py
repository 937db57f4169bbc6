"""blowuplab benchmark: the moving-mesh simulation and the asymptotics chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it needs nothing installed beyond numpy
and scipy.  Workloads (see workloads.py and BENCHMARK.json):

- sim-power-d8, sim-neutral-d7: `blowuplab simulate` then `blowuplab
  compare` through `blowuplab.cli.main`, one pass per initial-data family
  in each round;
- asym-sweep: derive -> solve_profile -> build_basis -> coupling_constants
  -> predict_rate -> solve_epsilon -> coefficient_flow on seeded, distinct
  (d, k, N) points, 20 points per pass.

Load model: closed loop, one client.  Each pass is a fresh Python process
with PYTHONPATH=src and BLAS pinned to one thread; it runs a reference
kernel between the program's own work and reports times both as measured
and at reference host speed (hostspeed.py).  Passes run one at a
time: always one round (a pass per family, or one batch), then more while
they are expected to end within --seconds.  --trace 0 measures the
end-to-end metrics; --trace 1 follows each pass with a traced pass on the
same inputs and reports the per-layer split and the tracing overhead.
--full runs one round at the reference configs of the acceptance suite
(minutes per pass, more than a benchmark run allows).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metrics are the end_to_end
(--trace 0) or per_layer (--trace 1) names of BENCHMARK.json.  The lines
before it print every metric this benchmark computes, n/a where a workload
does not reach it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

from stats import group_median, median, percentile, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
#: pass directories live here while a run lasts; a traced run leaves its
#: spans here when it ends
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

#: accepted_steps depends on the BLAS thread count (1359 steps with one
#: thread against 1356 with two at d=8, M=481), and a second thread gives
#: no measurable speed-up at these sizes
BLAS_THREADS = 1

#: set-up samples taken before the passes, in addition to one per pass
SETUP_PROBES = 3

#: no pass after the first round starts that would be expected to end
#: after this many seconds
RUN_LIMIT_S = 150.0

#: a pass still running after this many seconds is killed and counts failed
PASS_TIMEOUT_S = 170.0

#: sweep passes prepared per run; a run stops when it has used them all
MAX_SWEEP_PASSES = 200

#: a step slower than this multiple of the median step gap is counted as
#: one that rebuilt the Jacobian and its LU factorisation
SLOW_STEP_FACTOR = 10.0

#: step statistics of one meshsim.run, from its progress stamps
RUN_FIGURES = (
    "meshsim.run_s", "meshsim.accepted_steps", "meshsim.ms_per_step",
    "meshsim.steps_per_s", "meshsim.step_gap_ms_p50",
    "meshsim.step_gap_ms_p99", "meshsim.s_per_decade",
    "meshsim.decades_per_s", "meshsim.slow_step_share",
)

LAYERS = ("cli", "meshsim", "params", "profile", "spectral", "coupling",
          "rates")

#: every metric this benchmark computes, with its unit
UNITS = {
    "wall_s": "s", "work_ref_s": "s", "setup_s": "s", "simulate_s": "s",
    "simulate_ref_s": "s", "compare_s": "s", "compare_ref_s": "s",
    "points_per_s": "1/s", "points_per_ref_s": "1/s", "peak_rss_mb": "MB",
    "rate_rel_err": "1", "eps_rel_err": "1", "failed_share": "1",
    "ok_share": "1",
    "meshsim.run_s": "s", "meshsim.accepted_steps": "count",
    "meshsim.ms_per_step": "ms", "meshsim.step_gap_ms_p50": "ms",
    "meshsim.step_gap_ms_p99": "ms", "meshsim.s_per_decade": "s",
    "meshsim.steps_per_s": "1/s", "meshsim.decades_per_s": "1/s",
    "meshsim.slow_step_share": "1", "meshsim.step_s": "s",
    "meshsim.initialize_s": "s", "meshsim.fit_s": "s",
    "profile.solve_profile_s": "s", "spectral.build_basis_s": "s",
    "spectral.quad_nodes": "count", "coupling.coupling_constants_s": "s",
    "rates.predict_rate_s": "s", "rates.solve_epsilon_s": "s",
    "rates.coefficient_flow_s": "s", "rates.assemble_ansatz_s": "s",
    "params.derive_s": "s", "cli.self_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}
for _layer in LAYERS:
    UNITS[f"{_layer}.self_share"] = "1"
    UNITS[f"{_layer}.calls"] = "count"
    UNITS[f"{_layer}.errors"] = "count"


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ----------------------------------------------------------------------------
# passes

class Runner:
    """Starts passes one at a time and keeps what each reported."""

    def __init__(self, work_dir, timeout):
        self.work_dir = work_dir
        self.timeout = timeout
        self.passes = []
        self.env = dict(os.environ, PYTHONPATH=SRC)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def run_pass(self, kind, group, ops, trace=False, **inputs):
        """One pass in a fresh process; `ops` operations count as failed if
        it dies without a result."""
        pass_id = len(self.passes)
        pass_dir = os.path.join(self.work_dir, f"pass{pass_id:04d}")
        os.makedirs(pass_dir)
        spec_path = os.path.join(pass_dir, "spec.json")
        result_path = os.path.join(pass_dir, "result.json")
        with open(spec_path, "w") as fh:
            json.dump(dict(inputs, kind=kind, trace=trace, pass_id=pass_id,
                           result=result_path), fh)
        record = {"kind": kind, "group": group, "ops": ops, "trace": trace,
                  "result": None}
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, spec_path, repr(start)],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=self.timeout)
        except subprocess.TimeoutExpired:
            record["error"] = f"killed after {self.timeout:.0f} s"
        else:
            wall = time.monotonic() - start
            if proc.returncode == 0 and os.path.exists(result_path):
                with open(result_path) as fh:
                    record["result"] = json.load(fh)
                # without the time the pass spent in the reference kernel
                record["result"]["wall_s"] = wall - record["result"]["ref_s"]
            else:
                record["error"] = proc.stderr[-2000:]
        shutil.rmtree(pass_dir)
        self.passes.append(record)
        return record


def _run_loop(runner, jobs, first_round, seconds):
    """Run `jobs` in order until `seconds` have passed.  The first
    `first_round` always run.  After that a pass starts only if, judged by
    the last pass of its group, it would end by then and within
    RUN_LIMIT_S."""
    start = time.monotonic()
    last = {}
    for i, job in enumerate(jobs):
        elapsed = time.monotonic() - start
        expected = elapsed + last.get(job["group"], 0.0)
        if i >= first_round and expected > min(seconds, RUN_LIMIT_S):
            return
        runner.run_pass(**job)
        last[job["group"]] = time.monotonic() - start - elapsed


def _jobs(workload, seed, trace, full):
    """(pass jobs, length of the first round).  A round is one pass per
    family on the sim workloads and one batch on asym-sweep; with tracing,
    each pass is followed by a traced pass on the same inputs."""
    from workloads import SIM_WORKLOADS, sim_round, sweep_batches
    variants = (False, True) if trace else (False,)
    if workload in SIM_WORKLOADS:
        round_ = [dict(kind="sim", group=cfg["initial_data"], ops=2,
                       trace=traced, config=cfg)
                  for cfg in sim_round(workload, seed, full)
                  for traced in variants]
        jobs = round_ if full else itertools.cycle(round_)
        return jobs, len(round_)
    jobs = (dict(kind="sweep", group="sweep", ops=len(batch), trace=traced,
                 points=batch)
            for batch in sweep_batches(seed, MAX_SWEEP_PASSES)
            for traced in variants)
    return jobs, len(variants)


# ----------------------------------------------------------------------------
# metrics

def _group_metric(passes, key, scaled=False):
    """(group median of `key` over the passes that reported it, samples).
    `scaled` takes each pass's value to reference host speed."""
    groups = {}
    for p in passes:
        result = p["result"] or {}
        value = result.get(key)
        if scaled and value is not None:
            value *= result["ref_scale"]
        if value is not None:
            groups.setdefault(p["group"], []).append(value)
    if not groups:
        return None, 0
    return group_median(groups), sum(len(v) for v in groups.values())


def _counts(passes):
    attempted = failed = 0
    for p in passes:
        if p["result"] is None:
            attempted += p["ops"]
            failed += p["ops"]
        else:
            attempted += len(p["result"]["ops"])
            failed += sum(not op["ok"] for op in p["result"]["ops"])
    return attempted, failed


def end_to_end(passes, probes):
    """name -> (value or None, samples)."""
    sweep = passes[0]["kind"] == "sweep"
    done = [p for p in passes if p["result"] is not None]
    setups = [p["result"]["setup_s"] for p in probes + done
              if p["result"] is not None]
    none = (None, 0)
    m = {
        "wall_s": _group_metric(done, "wall_s"),
        "work_ref_s": _group_metric(done, "work_s", scaled=True),
        "setup_s": (median(setups), len(setups)) if setups else none,
        "peak_rss_mb": _group_metric(done, "rss_mb"),
        "simulate_s": none, "simulate_ref_s": none,
        "compare_s": none, "compare_ref_s": none,
        "rate_rel_err": none, "points_per_s": none,
        "points_per_ref_s": none, "eps_rel_err": none,
    }
    if sweep:
        rates_ = [(len(p["result"]["ops"])
                   / sum(op["seconds"] for op in p["result"]["ops"]),
                   p["result"]["ref_scale"]) for p in done]
        errs = [e for p in done for e in p["result"]["eps_rel_err"]]
        if rates_:
            m["points_per_s"] = (median([r for r, _ in rates_]), len(rates_))
            m["points_per_ref_s"] = (median([r / s for r, s in rates_]),
                                     len(rates_))
        m["eps_rel_err"] = (max(errs), len(errs)) if errs else none
    else:
        for key in ("simulate_s", "compare_s", "rate_rel_err"):
            m[key] = _group_metric(done, key)
        for op in ("simulate", "compare"):
            m[f"{op}_ref_s"] = _group_metric(done, f"{op}_s", scaled=True)
    attempted, failed = _counts(passes)
    m["failed_share"] = (failed / attempted, attempted)
    m["ok_share"] = (1.0 - failed / attempted, attempted)
    return m


def _run_figures(spans, run):
    """Per-run step statistics from the progress stamps of one
    meshsim.run."""
    span = spans[run["span"]]
    dur = span["end"] - span["start"]
    stamps = [span["start"]] + [w for w, _ in run["ticks"]]
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    steps = run["steps"]
    g0, g1 = run["ticks"][0][1], run["ticks"][-1][1]
    p50 = percentile(gaps, 50.0)
    return {
        "meshsim.run_s": dur,
        "meshsim.accepted_steps": steps,
        "meshsim.ms_per_step": 1e3 * dur / steps,
        "meshsim.steps_per_s": steps / dur,
        "meshsim.step_gap_ms_p50": 1e3 * p50,
        "meshsim.step_gap_ms_p99": 1e3 * percentile(gaps, 99.0),
        "meshsim.s_per_decade": dur / math.log10(g1 / g0),
        "meshsim.decades_per_s": math.log10(g1 / g0) / dur,
        "meshsim.slow_step_share":
            sum(g for g in gaps if g > SLOW_STEP_FACTOR * p50) / dur,
    }


def per_layer(passes):
    """name -> value or None (not reached by this workload)."""
    traced = [p for p in passes if p["trace"] and p["result"] is not None]
    if not traced:
        raise BenchError("no traced pass finished")
    n = len(traced)
    wall = sum(p["result"]["wall_s"] for p in traced)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    errors = dict.fromkeys(LAYERS, 0)
    durations, cli_self, nodes, runs = {}, [], [], []
    for p in traced:
        spans = p["result"]["spans"]
        for span, own in zip(spans, self_times(spans)):
            layer = span["name"].split(".")[0]
            self_s[layer] += own
            calls[layer] += 1
            errors[layer] += span["error"] is not None
            durations.setdefault(span["name"], []).append(
                span["end"] - span["start"])
            if span["name"] == "cli.main":
                cli_self.append(own)
            if "quad_nodes" in span:
                nodes.append(span["quad_nodes"])
        # a run that raised or never grew has no step statistics; its
        # operation already counts as failed
        runs += [_run_figures(spans, r) for r in p["result"]["runs"]
                 if r["steps"] and r["ticks"][-1][1] > r["ticks"][0][1]]

    def med(name, values):
        # a layer this workload does not reach has no time (n/a), and no
        # counts or shares (0)
        if values:
            return median(values)
        return None if UNITS[name] in ("s", "ms") else 0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_share"] = self_s[layer] / wall
        m[f"{layer}.calls"] = calls[layer] / n
        m[f"{layer}.errors"] = errors[layer] / n
    for name in ("params.derive", "profile.solve_profile",
                 "spectral.build_basis", "coupling.coupling_constants",
                 "rates.predict_rate", "rates.solve_epsilon",
                 "rates.coefficient_flow", "rates.assemble_ansatz",
                 "meshsim.step", "meshsim.initialize"):
        m[f"{name}_s"] = med(f"{name}_s", durations.get(name, []))
    m["meshsim.fit_s"] = med("meshsim.fit_s",
                             durations.get("meshsim.fit_power", [])
                             + durations.get("meshsim.fit_log", []))
    m["spectral.quad_nodes"] = med("spectral.quad_nodes", nodes)
    m["cli.self_s"] = med("cli.self_s", cli_self)
    m["cli.bytes_written"] = med("cli.bytes_written",
                                 [p["result"]["bytes_written"] for p in traced
                                  if p["kind"] == "sim"])
    for key in RUN_FIGURES:
        m[key] = med(key, [r[key] for r in runs])
    untraced = [p for p in passes if not p["trace"]]
    t_work, _ = _group_metric(traced, "work_s", scaled=True)
    u_work, _ = _group_metric(untraced, "work_s", scaled=True)
    m["trace.overhead_s"] = None if u_work is None else t_work - u_work
    return m


# ----------------------------------------------------------------------------
# report

def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _fmt(value):
    if value is None:
        return "n/a"
    return f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="one round at the acceptance-suite configs")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "blowuplab", "cli.py")):
        print(f"error: no blowuplab sources under {SRC}; run from the root "
              "of a blowuplab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=OUT_ROOT)
    try:
        runner = Runner(work_dir, None if args.full else PASS_TIMEOUT_S)
        for _ in range(SETUP_PROBES):
            runner.run_pass("setup", group="setup", ops=0)
        probes, runner.passes = runner.passes, []
        jobs, first_round = _jobs(args.workload, args.seed, args.trace,
                                  args.full)
        _run_loop(runner, jobs, first_round, args.seconds)
        passes = runner.passes
        e2e = end_to_end([p for p in passes if not p["trace"]], probes)
        layers = per_layer(passes) if args.trace else {}
        if args.trace:
            spans_path = os.path.join(
                OUT_ROOT, f"spans_{args.workload}_{args.seed}.json")
            with open(spans_path, "w") as fh:
                json.dump([{"group": p["group"], "spans": p["result"]["spans"],
                            "runs": p["result"]["runs"]}
                           for p in passes
                           if p["trace"] and p["result"] is not None], fh)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not os.listdir(OUT_ROOT):
            os.rmdir(OUT_ROOT)

    for p in passes:
        failures = ([p.get("error", "no result")] if p["result"] is None else
                    [f"{op['name']}: {'; '.join(op['problems'])}"
                     for op in p["result"]["ops"] if not op["ok"]])
        for line in failures:
            print(f"FAILED {p['kind']} pass ({p['group']}): {line}",
                  file=sys.stderr)

    traced = sum(p["trace"] for p in passes)
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(passes) - traced} untraced and {traced} traced passes")
    for p in passes:
        r = p["result"] or {}
        figures = ", ".join(f"{key} {_fmt(r.get(key))}" for key in
                            ("wall_s", "setup_s", "simulate_s", "compare_s",
                             "rate_rel_err") if key in r)
        print(f"  {'traced ' if p['trace'] else ''}{p['kind']} pass "
              f"({p['group']}): {figures or 'no result'}")
    print("end to end:")
    for name, (value, count) in e2e.items():
        print(f"  {name:32s} {_fmt(value):>12s} {UNITS[name]:6s} n={count}")
    if args.trace:
        print(f"per layer (traced passes; spans in "
              f"{os.path.relpath(spans_path, ROOT)}):")
        for name, value in sorted(layers.items()):
            print(f"  {name:32s} {_fmt(value):>12s} {UNITS[name]}")
    print("environment: " + json.dumps(_environment(), sort_keys=True))

    values = layers if args.trace else {k: v for k, (v, _) in e2e.items()}
    metrics = {}
    for name in _declared(args.trace):
        if values.get(name) is None:
            print(f"error: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": values[name], "unit": UNITS[name]}
    attempted, failed = _counts(passes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
