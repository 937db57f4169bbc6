import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blowuplab import params
from blowuplab.errors import DegenerateRegime, SubcriticalDimension
from blowuplab.params import ModelParams, classify, derive, eigenvalue


def test_d7_closed_forms():
    c = derive(ModelParams(d=7, k=1))
    assert c.omega == pytest.approx(1.0, abs=1e-14)
    assert c.gamma == pytest.approx(2.0, abs=1e-14)
    assert c.delta == pytest.approx(1.0, abs=1e-14)
    assert eigenvalue(c, 0).lam == pytest.approx(-1.0, abs=1e-14)
    assert eigenvalue(c, 1).lam == pytest.approx(0.0, abs=1e-14)
    assert eigenvalue(c, 1).beta == pytest.approx(0.0, abs=1e-14)


def test_d12_k2_closed_forms():
    c = derive(ModelParams(d=12, k=2))
    assert c.omega == pytest.approx(2.0, abs=1e-14)
    assert c.gamma == pytest.approx(4.0, abs=1e-14)
    assert classify(c).neutral_index == 2


def test_d8_beta1():
    c = derive(ModelParams(d=8, k=1))
    beta = eigenvalue(c, 1).beta
    # beta_1 = -1/2 + 2/(d-2-omega)
    assert beta == pytest.approx(-0.5 + 2.0 / (8 - 2 - c.omega), rel=1e-14)
    assert beta == pytest.approx(0.1306019, abs=5e-8)


def test_d9_beta1():
    c = derive(ModelParams(d=9, k=1))
    assert eigenvalue(c, 1).beta == pytest.approx(
        -0.5 + 2.0 / (7.0 - math.sqrt(17.0)), rel=1e-14)
    assert eigenvalue(c, 1).beta == pytest.approx(0.195194, abs=5e-7)


def test_identity_on_grid():
    # d - 2 - gamma == gamma + omega across a grid of valid (d, k)
    count = 0
    for k in (1, 2, 3, 4):
        d0 = params.critical_dimension(k)
        for j in range(25):
            d = d0 + 0.37 + 0.61 * j
            c = derive(ModelParams(d=d, k=k))
            assert abs((d - 2 - c.gamma) - (c.gamma + c.omega)) <= 1e-14 * d
            count += 1
    assert count == 100


@given(st.integers(1, 5), st.floats(0.1, 40.0))
def test_derived_relations_property(k, offset):
    d = params.critical_dimension(k) + offset
    try:
        c = derive(ModelParams(d=d, k=k))
    except DegenerateRegime:
        return
    assert c.omega > 0
    assert c.gamma > 0
    assert c.delta == min(c.omega, 2 * c.gamma)
    # lambda_n strictly increasing with unit spacing
    lams = [eigenvalue(c, n).lam for n in range(5)]
    for a, b in zip(lams, lams[1:]):
        assert b - a == pytest.approx(1.0, abs=1e-14)


def test_subcritical_rejected():
    with pytest.raises(SubcriticalDimension):
        derive(ModelParams(d=6, k=1))
    with pytest.raises(SubcriticalDimension):
        derive(ModelParams(d=params.critical_dimension(1), k=1))


def test_degenerate_regime_rejected():
    # omega == 2*gamma along k=1 at the root of 3(d-2)^2/4 = ... ; solved in
    # closed form: d = 2 + (16 + sqrt(448))/6
    d = 2.0 + (16.0 + math.sqrt(448.0)) / 6.0
    with pytest.raises(DegenerateRegime):
        derive(ModelParams(d=d, k=1))


def test_classification():
    c7 = derive(ModelParams(d=7, k=1))
    cls = classify(c7)
    assert cls.neutral_index == 1
    assert cls.min_admissible_N == 1
    assert cls.stability_bound == pytest.approx(1.0)
    assert cls.stability_bound > 0.5  # > k/2

    c8 = derive(ModelParams(d=8, k=1))
    cls8 = classify(c8)
    assert cls8.neutral_index is None
    assert cls8.min_admissible_N == 1


def test_param_validation():
    with pytest.raises(ValueError):
        ModelParams(d=8, k=0)
    with pytest.raises(ValueError):
        ModelParams(d=2.5, k=1)
    with pytest.raises(ValueError):
        ModelParams(d=8, k=1, N=-1)
    for d in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ModelParams(d=d, k=1)
    # (d - 2(k+1))^2 must be a finite float, or derive raises OverflowError
    with pytest.raises(ValueError, match="too large"):
        ModelParams(d=1e300, k=1)
    assert derive(ModelParams(d=1e150, k=1)).omega > 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_classify_reads_the_sign_of_eigenvalue(k):
    # on a grid of (d*, d* + 20), and on its neutral d (7; 12; 17 and 27)
    # and their neighbours a few ulps away: N_min is the first n with
    # lambda_n >= 0, at least 1, and neutral exactly when its lambda_n is 0
    d_star = params.critical_dimension(k)
    ds = list(d_star + np.linspace(0.0, 20.0, 2001)[1:-1])
    for n in range(k // 2 + 1, 13):
        # gamma = 2n where omega = d - 2 - 4n > 0; squared, a linear equation
        d0 = ((2 + 4 * n) ** 2 - 4 * (k + 1) ** 2 + 8 * k * k) / (8 * n - 4 * k)
        if d0 > 2 + 4 * n and d_star < d0 < d_star + 20:
            ds += [d0 + j * math.ulp(d0) for j in range(-8, 9)]
    neutral = 0
    for d in ds:
        try:
            c = derive(ModelParams(d=d, k=k))
        except DegenerateRegime:
            continue
        cls = classify(c)
        N = cls.min_admissible_N
        assert N >= 1
        assert eigenvalue(c, N).lam >= 0 > eigenvalue(c, N - 1).lam
        assert (cls.neutral_index == N) == (eigenvalue(c, N).lam == 0)
        assert cls.neutral_index in (N, None)
        neutral += cls.neutral_index is not None
    assert neutral == 17 * (2 if k == 3 else 1)
