"""In-memory spans around the public entry points of each blowuplab layer.

The tracer patches module attributes from outside the package, so the
program runs unmodified.  Only the entry points named in the benchmark's
per-layer table are wrapped: helpers that run inside integrands
(`coupling.g_function`, `profile.eval_u`) are called thousands of times per
point, and a span per call would dominate the run it is meant to measure.
"""

from __future__ import annotations

import functools
import time

#: (module, attribute) pairs wrapped in spans.  `cli` imports `derive` by
#: name, so its binding is wrapped as well; the span is named after the
#: module that defines the function.
ENTRY_POINTS = (
    ("cli", "main"),
    ("meshsim", "run"),
    ("meshsim", "initialize"),
    ("meshsim", "step"),
    ("meshsim", "fit_power"),
    ("meshsim", "fit_log"),
    ("params", "derive"),
    ("cli", "derive"),
    ("profile", "solve_profile"),
    ("spectral", "build_basis"),
    ("coupling", "coupling_constants"),
    ("rates", "predict_rate"),
    ("rates", "solve_epsilon"),
    ("rates", "coefficient_flow"),
    ("rates", "assemble_ansatz"),
)


class Tracer:
    """Records spans (name, start, end, parent, pass id, error, and the
    quadrature node count of each basis built) and, for every
    `meshsim.run`, the time stamp and sup|u_r| of each step the solver
    reports through its `progress` callback.  Times come from `clock`; the
    benchmark passes one that leaves out its reference kernel."""

    def __init__(self, pass_id, clock=time.perf_counter):
        self.pass_id = pass_id
        self.clock = clock
        self.spans = []
        self.runs = []       # one {"span", "ticks", "steps"} per meshsim.run
        self._stack = []
        self._saved = []

    def install(self, modules):
        """Wrap every entry point; `modules` maps short names to modules."""
        for mod_name, attr in ENTRY_POINTS:
            owner = modules[mod_name]
            fn = getattr(owner, attr)
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            if name == "meshsim.run":
                fn = self._with_progress(fn)
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": tracer.clock(),
                "end": None,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "pass": tracer.pass_id,
                "error": None,
            }
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                value = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = tracer.clock()
                tracer._stack.pop()
            if name == "spectral.build_basis":
                span["quad_nodes"] = int(value.nodes_y.size)
            return value

        return traced

    def _with_progress(self, run):
        tracer = self

        @functools.wraps(run)
        def run_with_progress(config, progress=None):
            # the wrapping span is on the stack by now: this is its index
            record = {"span": tracer._stack[-1], "ticks": [], "steps": None}
            tracer.runs.append(record)

            def stamp(t, gmax):
                record["ticks"].append((tracer.clock(), gmax))
                if progress is not None:
                    progress(t, gmax)

            trace = run(config, progress=stamp)
            record["steps"] = int(trace.t.size - 1)
            return trace

        return run_with_progress
