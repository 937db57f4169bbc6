"""Seeded inputs of the three benchmark workloads.

The program sees only what these functions return: a config per sim pass,
and a list of distinct (d, k, N) points per sweep pass.
"""

from __future__ import annotations

import math
import random

from blowuplab import params

#: Sim workloads at a size every benchmark run can afford: one pass must fit
#: in well under a minute on 2 cores.  `full` is the reference config of the
#: acceptance suite (d=8 at M=481 runs ~60 s, d=7 at M=961 ~140 s a pass).
#: `families` lists the initial data that blow up at that config; r-sin(r)
#: at d=8 stops at t_max and is never drawn.
SIM_WORKLOADS = {
    "sim-power-d8": {
        "config": {"d": 8.0, "k": 1, "M": 161, "rtol": 1e-6,
                   "max_gradient": 1e6},
        "full": {"d": 8.0, "k": 1, "M": 481, "rtol": 1e-6,
                 "max_gradient": 1e8},
        "families": ("r", "r+sin(r)"),
    },
    "sim-neutral-d7": {
        "config": {"d": 7.0, "k": 1, "L": math.pi, "M": 241, "rtol": 1e-6,
                   "max_gradient": 1e6},
        "full": {"d": 7.0, "k": 1, "L": math.pi, "M": 961, "rtol": 1e-6,
                 "max_gradient": 1e6},
        "families": ("r", "r-sin(r)"),
    },
}

WORKLOADS = tuple(SIM_WORKLOADS) + ("asym-sweep",)

#: points per sweep pass: 2 values of k x 5 strata of d x 2 values of N
SWEEP_BATCH = 20

#: sweep points closer than this to omega == 2*gamma are rejected: the
#: coupling integrals diverge there
DEGENERACY_MARGIN = 0.2


def sim_round(workload, seed, full=False):
    """One round of sim passes: a config for every family, in the order the
    seed picks.  Every round measures every family, so a run's figures do
    not depend on which family the seed drew first."""
    spec = SIM_WORKLOADS[workload]
    families = list(spec["families"])
    random.Random(seed).shuffle(families)
    base = spec["full"] if full else spec["config"]
    return [dict(base, initial_data=fam) for fam in families]


def sweep_batches(seed, count):
    """`count` batches of SWEEP_BATCH points, all (d, k) distinct.

    Each k in {1, 2} takes half of a batch.  (d*+0.3, d*+6) is cut into
    equal-width strata, and each stratum gets one point with N_min and one
    with N_min+1 (N_min is the smallest admissible index >= 1), each at its
    own seeded d inside the stratum.  So d is uniform over the range and
    every batch has the same make-up, and a run's figures do not hang on
    which corner of parameter space the seed favoured.  Points within
    DEGENERACY_MARGIN of omega == 2*gamma are drawn again."""
    rng = random.Random(seed)
    strata = SWEEP_BATCH // 4
    lo, hi = 0.3, 6.0
    width = (hi - lo) / strata
    seen = set()
    batches = []
    for _ in range(count):
        batch = []
        for k in (1, 2):
            d_star = params.critical_dimension(k)
            for i in range(strata):
                for bump in (0, 1):
                    while True:
                        d = d_star + lo + width * (i + rng.random())
                        consts = params.derive(params.ModelParams(d=d, k=k))
                        if (abs(consts.omega - 2.0 * consts.gamma)
                                >= DEGENERACY_MARGIN and (d, k) not in seen):
                            break
                    seen.add((d, k))
                    n_min = max(params.classify(consts).min_admissible_N, 1)
                    batch.append((d, k, n_min + bump))
        batches.append(batch)
    return batches
