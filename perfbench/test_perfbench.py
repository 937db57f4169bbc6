"""Self-checks of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import random
import time

import numpy as np
import pytest

import run
from blowuplab import cli, meshsim, params
from hostspeed import NOMINAL_S, Sampler
from stats import group_median, median, percentile, self_times
from tracing import Tracer
from worker import MODULES
from workloads import SIM_WORKLOADS, SWEEP_BATCH, sim_round, sweep_batches


def test_percentile_matches_numpy():
    rng = random.Random(3)
    xs = [rng.random() for _ in range(37)]
    for q in (0.0, 1.0, 25.0, 50.0, 99.0, 100.0):
        assert percentile(xs, q) == pytest.approx(np.percentile(xs, q))
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert median([5.0]) == 5.0


def test_group_median_weights_groups_equally():
    assert group_median({"r": [1.0, 2.0, 30.0], "r+sin(r)": [10.0]}) == 6.0


def test_self_times_subtract_direct_children_only():
    spans = [
        {"start": 0.0, "end": 10.0, "parent": None},
        {"start": 1.0, "end": 4.0, "parent": 0},
        {"start": 5.0, "end": 9.0, "parent": 0},
        {"start": 6.0, "end": 7.5, "parent": 2},
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.5])


def test_same_seed_same_inputs():
    for workload in SIM_WORKLOADS:
        assert sim_round(workload, 11) == sim_round(workload, 11)
        fams = sorted(c["initial_data"] for c in sim_round(workload, 11))
        assert fams == sorted(SIM_WORKLOADS[workload]["families"])
    assert sweep_batches(11, 3) == sweep_batches(11, 3)
    assert sweep_batches(11, 3) != sweep_batches(12, 3)


def test_sweep_points_follow_the_distribution():
    batches = sweep_batches(5, 4)
    points = [p for b in batches for p in b]
    assert all(len(b) == SWEEP_BATCH for b in batches)
    assert len({(d, k) for d, k, _ in points}) == len(points)
    for d, k, N in points:
        d_star = params.critical_dimension(k)
        assert d_star + 0.3 <= d < d_star + 6.0
        consts = params.derive(params.ModelParams(d=d, k=k))
        assert abs(consts.omega - 2.0 * consts.gamma) >= 0.2
        n_min = max(params.classify(consts).min_admissible_N, 1)
        assert N in (n_min, n_min + 1)
    for b in batches:
        assert sum(k == 1 for _, k, _ in b) == SWEEP_BATCH // 2


def test_spans_nest_from_cli_through_run_to_initialize(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"d": 8, "k": 1, "M": 64, "rtol": 1e-4, '
                   '"max_gradient": 1e6}')
    tracer = Tracer(pass_id=7)
    original = meshsim.run
    tracer.install(MODULES)
    try:
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert meshsim.run is original
    spans = tracer.spans
    names = [s["name"] for s in spans]
    init = spans[names.index("meshsim.initialize")]
    run_span = spans[init["parent"]]
    assert run_span["name"] == "meshsim.run"
    assert spans[run_span["parent"]]["name"] == "cli.main"
    assert spans[run_span["parent"]]["parent"] is None
    assert all(s["pass"] == 7 and s["start"] <= s["end"] for s in spans)
    # cli imports derive by name: the fit in simulate still shows up
    assert "params.derive" in names
    (record,) = tracer.runs
    assert record["steps"] > 0 and len(record["ticks"]) >= record["steps"]


def test_per_layer_figures_from_spans():
    spans = [
        {"name": "cli.main", "start": 0.0, "end": 21.0, "parent": None,
         "error": None},
        {"name": "meshsim.run", "start": 1.0, "end": 20.0, "parent": 0,
         "error": None},
        {"name": "params.derive", "start": 20.0, "end": 20.5, "parent": 0,
         "error": "SubcriticalDimension"},
    ]
    # step gaps 1, 1, 1 and 15 s: the last one is slow
    ticks = [(2.0, 10.0), (3.0, 100.0), (4.0, 1e3), (19.0, 1e4)]
    passes = [
        {"kind": "sim", "group": "r", "trace": True,
         "result": {"spans": spans, "wall_s": 40.0, "work_s": 22.0,
                    "ref_scale": 0.5, "bytes_written": 100,
                    "runs": [{"span": 1, "ticks": ticks, "steps": 4}]}},
        {"kind": "sim", "group": "r", "trace": False,
         "result": {"wall_s": 39.0, "work_s": 20.0, "ref_scale": 0.5}},
    ]
    m = run.per_layer(passes)
    assert m["cli.self_share"] == pytest.approx(1.5 / 40.0)
    assert m["meshsim.self_share"] == pytest.approx(19.0 / 40.0)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["params.errors"] == 1
    assert m["meshsim.accepted_steps"] == 4
    assert m["meshsim.ms_per_step"] == pytest.approx(19e3 / 4)
    assert m["meshsim.step_gap_ms_p50"] == pytest.approx(1e3)
    assert m["meshsim.s_per_decade"] == pytest.approx(19.0 / 3.0)
    assert m["meshsim.slow_step_share"] == pytest.approx(15.0 / 19.0)
    assert m["cli.bytes_written"] == 100
    # at reference speed: 0.5 * (22 - 20)
    assert m["trace.overhead_s"] == pytest.approx(1.0)
    # layers the pass never reached: no time, zero counts
    assert m["rates.solve_epsilon_s"] is None
    assert m["spectral.quad_nodes"] == 0


def test_end_to_end_scales_times_to_reference_speed():
    def sim(group, work_s, ref_scale, ok=True):
        ops = [{"name": "simulate", "ok": ok}, {"name": "compare", "ok": True}]
        return {"kind": "sim", "group": group, "ops": 2, "trace": False,
                "result": {"ops": ops, "wall_s": work_s + 1.0,
                           "work_s": work_s, "simulate_s": work_s - 0.1,
                           "compare_s": 0.1, "ref_scale": ref_scale,
                           "setup_s": 1.0, "rss_mb": 100.0,
                           "rate_rel_err": 0.03}}

    # family r: 10 s at half speed and 4 s at full speed (5 and 4 s at
    # reference speed); family r+sin(r): 6 s at full speed
    passes = [sim("r", 10.0, 0.5), sim("r", 4.0, 1.0),
              sim("r+sin(r)", 6.0, 1.0, ok=False)]
    m = run.end_to_end(passes, probes=[])
    assert m["work_ref_s"] == (pytest.approx((4.5 + 6.0) / 2), 3)
    assert m["wall_s"][0] == pytest.approx((8.0 + 7.0) / 2)
    assert m["compare_ref_s"][0] == pytest.approx((0.075 + 0.1) / 2)
    assert m["failed_share"] == (pytest.approx(1 / 6), 6)
    assert m["ok_share"][0] == pytest.approx(5 / 6)


def test_sampler_clock_leaves_out_the_kernel():
    sampler = Sampler()
    start_wall = time.perf_counter()
    sampler.start()
    start = sampler.clock()
    try:
        while time.perf_counter() - start_wall < 0.3:
            sum(range(1000))
    finally:
        sampler.stop()
    wall = time.perf_counter() - start_wall
    assert sampler.count >= 3
    assert sampler.clock() - start == pytest.approx(wall - sampler.total,
                                                    abs=1e-3)
    assert sampler.scale() == pytest.approx(
        NOMINAL_S * sampler.count / sampler.total)
    assert Sampler().scale() is None


def test_declared_metrics_have_the_computed_units():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert run.UNITS[metric["name"]] == metric["unit"]
