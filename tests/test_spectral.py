import numpy as np
import pytest
from scipy.special import eval_genlaguerre, roots_genlaguerre

from blowuplab import spectral
from blowuplab.errors import FloatRangeExceeded, QuadratureNotConverged
from blowuplab.spectral import closed_form_norm, laguerre_at_zero

from conftest import POINTS, c_origin_by_quadrature


@pytest.mark.parametrize("d,k", POINTS)
def test_orthonormality(basis_at, d, k):
    basis = basis_at(d, k)
    G = basis.gram_matrix()
    assert np.max(np.abs(G - np.eye(basis.max_n + 1))) <= 1e-8


@pytest.mark.parametrize("d,k", POINTS)
def test_phi_table_matches_per_n_loops(basis_at, d, k):
    """The one-array evaluation against the per-n loops it replaced: equal
    values, and sums that differ only in summation order."""
    basis = basis_at(d, k)
    ns = range(basis.max_n + 1)
    y, w = basis.nodes_y, basis.weights
    P = basis.phi_table(y)
    assert P.shape == (basis.max_n + 1, y.size)
    for n in ns:
        assert np.array_equal(P[n], basis.phi(n, y))
    G = np.array([[np.sum(w * P[i] * P[j]) for j in ns] for i in ns])
    assert np.allclose(basis.gram_matrix(), G, rtol=0.0, atol=1e-13)
    psi = lambda s: np.exp(-s) * s
    a = [np.sum(w[y <= 4.0] * psi(y[y <= 4.0]) * basis.phi(n, y[y <= 4.0]))
         for n in ns]
    assert np.allclose(basis.project(psi, y_max=4.0), a, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("d,k", POINTS)
def test_eigen_residual(basis_at, d, k):
    basis = basis_at(d, k)
    y = np.geomspace(0.3, 6.0, 400)
    for n in range(5):
        resid = basis.apply_operator(n, y) - basis.lam(n) * basis.phi(n, y)
        scale = np.max(np.abs(basis.phi(n, y)))
        assert np.max(np.abs(resid)) <= 1e-6 * max(scale, 1.0)


@pytest.mark.parametrize("d,k", POINTS)
def test_c_origin_closed_form(basis_at, consts_at, d, k):
    # c_n = N_n L_n^{(w/2)}(0) against c_n with the norm by quadrature
    basis = basis_at(d, k)
    c = consts_at(d, k)
    for n in range(basis.max_n + 1):
        assert basis.c_origin[n] == pytest.approx(
            c_origin_by_quadrature(c, n), rel=1e-10)
    # the closed form normalizes <phi,phi> to 1/2, so the factor is sqrt(2)
    ratios = basis.norm / [closed_form_norm(n, c.omega)
                           for n in range(basis.max_n + 1)]
    assert np.allclose(ratios, np.sqrt(2.0), rtol=1e-6)


def test_c_origin_increasing(basis_at):
    for d, k in POINTS:
        c = basis_at(d, k).c_origin
        assert np.all(np.diff(c) > 0)
        assert np.all(c > 0)


def test_eigenvalue_spacing(basis_at):
    basis = basis_at(8.0, 1)
    lams = [basis.lam(n) for n in range(6)]
    assert np.allclose(np.diff(lams), 1.0)
    assert lams[0] == pytest.approx(-0.5 * basis.consts.gamma)


def test_phi_prime_matches_fd(basis_at):
    basis = basis_at(8.0, 1)
    y = np.linspace(0.5, 5.0, 50)
    h = 1e-6
    for n in (0, 1, 3):
        fd = (basis.phi(n, y + h) - basis.phi(n, y - h)) / (2 * h)
        assert np.allclose(basis.phi_prime(n, y), fd, rtol=1e-6, atol=1e-8)


def test_projection_recovers_coefficients(basis_at):
    basis = basis_at(7.0, 1)
    target = lambda y: 0.7 * basis.phi(1, y) - 0.2 * basis.phi(3, y)
    a = basis.project(target)
    expect = np.zeros(basis.max_n + 1)
    expect[1], expect[3] = 0.7, -0.2
    assert np.allclose(a, expect, atol=1e-8)


def test_gram_residual_guard(consts_at, monkeypatch):
    # the one rule is exact, so only a broken rule or N_n trips the guard;
    # with a zero target the roundoff of the Gram matrix does
    monkeypatch.setattr(spectral, "ORTHO_TARGET", 0.0)
    with pytest.raises(QuadratureNotConverged):
        spectral.build_basis(consts_at(8.0, 1))


def test_gram_guard_catches_nan(consts_at, monkeypatch):
    # a NaN residual is no pass
    monkeypatch.setattr(spectral.EigenBasis, "_gram",
                        lambda self, y, w: np.full((y.size, y.size), np.nan))
    with pytest.raises(QuadratureNotConverged, match="nan"):
        spectral.build_basis(consts_at(8.0, 1))


@pytest.mark.parametrize("d", [300.0, 1000.0, 2000.0])
def test_overflowing_weights_are_typed(consts_at, d):
    # 2^(d-1) w_z z^gamma overflows from d ~ 269.6 (k = 1); 2.0 ** 1024
    # would raise OverflowError
    with pytest.raises(FloatRangeExceeded, match="weights overflow"):
        spectral.build_basis(consts_at(d, 1))


def test_overflowing_laguerre_recurrence_is_typed(consts_at):
    # the recurrence of the 381-node rule overflows at d = 8: the weight
    # check reports it, not a RuntimeWarning from laguerre
    with pytest.raises(FloatRangeExceeded, match="381-node .* weights overflow"):
        spectral.build_basis(consts_at(8.0, 1), max_n=380)


@pytest.mark.parametrize("max_n", [400, 1000])
def test_basis_past_max_n_bound_builds_no_table(consts_at, monkeypatch, max_n):
    def refuse(*args):
        raise AssertionError("a Laguerre table built past MAX_N_BOUND")

    monkeypatch.setattr(spectral, "laguerre", refuse)
    monkeypatch.setattr(spectral, "gauss_laguerre", refuse)
    with pytest.raises(FloatRangeExceeded, match=f"max_n = {max_n}: "):
        spectral.build_basis(consts_at(8.0, 1), max_n=max_n)


def test_hand_built_basis_takes_alpha_from_consts(consts_at, basis_at):
    # alpha = omega/2 is read off consts, so a basis built without
    # build_basis evaluates L^(omega/2) as well, not L^(0)
    built = basis_at(9.0, 1)
    assert built._alpha > 0.0
    hand = spectral.EigenBasis(consts=consts_at(9.0, 1), max_n=built.max_n,
                               norm=built.norm, c_origin=built.c_origin)
    y = np.linspace(0.05, 8.0, 160)
    assert np.array_equal(hand.phi_table(y), built.phi_table(y))


def test_build_basis_checks_on_smallest_rule(consts_at, monkeypatch):
    # the Gram check runs on the (max_n + 1)-node rule; the QUAD_NODES rule
    # of the projections is built on first use
    orders = []

    def counting(n, alpha, _rule=spectral.gauss_laguerre):
        orders.append(n)
        return _rule(n, alpha)

    monkeypatch.setattr(spectral, "gauss_laguerre", counting)
    for max_n in (3, 8):
        orders.clear()
        basis = spectral.build_basis(consts_at(9.0, 1), max_n=max_n)
        assert orders and max(orders) <= max_n + 1
        assert basis.nodes_y.size == basis.weights.size == spectral.QUAD_NODES
        assert orders[-1] == spectral.QUAD_NODES
        basis.project(lambda y: np.exp(-y))
        assert orders.count(spectral.QUAD_NODES) == 1


def test_gram_guard_catches_a_wrong_norm(consts_at, monkeypatch):
    # one N_n off by 1e-6 moves a Gram diagonal entry by 2e-6
    exact = spectral.closed_form_norm

    def off(n, omega):
        return exact(n, omega) * (1.0 + 1e-6 * (n == 5))

    monkeypatch.setattr(spectral, "closed_form_norm", off)
    with pytest.raises(QuadratureNotConverged, match="9-node"):
        spectral.build_basis(consts_at(8.0, 1))


def test_basis_csv(tmp_path, basis_at):
    basis = basis_at(7.0, 1)
    path = tmp_path / "basis.csv"
    basis.to_csv(path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert "phi0" in data.dtype.names
    assert data["y"].size == 160


def test_norm_closed_form_value():
    # 2^{-1-w/2} sqrt(0!/Gamma(1+w/2)) at w=2: 0.25 * 1 = 0.25
    assert closed_form_norm(0, 2.0) == pytest.approx(0.25, rel=1e-14)
    assert laguerre_at_zero(2, 1.0) == pytest.approx(3.0, rel=1e-12)


# scipy.special serves the tests as the oracle of the package's own Laguerre
# recurrence and Gauss-Laguerre rules

ALPHAS = np.linspace(-0.9, 198.0, 24)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_laguerre_rows_match_scipy(alpha):
    # every row L_0 .. L_12 on [0, 60], against the largest |L_j| there
    # (a relative error near a root of L_j says nothing): 4.4e-15 measured
    z = np.linspace(0.0, 60.0, 241)
    L = spectral.laguerre(12, alpha, z)
    ref = eval_genlaguerre(np.arange(13)[:, None], alpha, z)
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.max(np.abs(L - ref) / scale) <= 2e-14
    assert spectral.laguerre(0, alpha, z).shape == (1, z.size)
    assert spectral.laguerre(3, alpha, 2.0).shape == (4,)


@pytest.mark.parametrize("order", [1, 2, 9, 12, 20, 60])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_gauss_laguerre_matches_scipy(order, alpha):
    # the nodes are scipy's to the bit on this grid; the weights, where
    # scipy's are normal enough to compare, within 2e-15 (Gamma(alpha + 1)
    # by math.gamma), and inf on both sides past alpha = 171.6
    z, w = spectral.gauss_laguerre(order, alpha)
    z_ref, w_ref = roots_genlaguerre(order, alpha)
    assert np.max(np.abs(z - z_ref)) <= 1e-13
    if np.isinf(w_ref).all():
        assert np.isinf(w).all()
    else:
        big = w_ref > 1e-250
        assert np.max(np.abs(w[big] - w_ref[big]) / w_ref[big]) <= 1e-12
    assert not (z.flags.writeable or w.flags.writeable)


@pytest.mark.parametrize("d,k", POINTS)
def test_projection_rule_matches_scipy(consts_at, d, k):
    # the QUAD_NODES rule of the projections: its weights are within 1.2e-15
    # of scipy's, where both are within 1.3e-12 of the exact rule (mpmath at
    # 40 digits, order 200, alpha = 0.5 and 2.5)
    alpha = consts_at(d, k).omega / 2.0
    z, w = spectral.gauss_laguerre(spectral.QUAD_NODES, alpha)
    z_ref, w_ref = roots_genlaguerre(spectral.QUAD_NODES, alpha)
    assert np.max(np.abs(z - z_ref)) <= 1e-13
    big = w_ref > 1e-250
    assert np.max(np.abs(w[big] - w_ref[big]) / w_ref[big]) <= 1e-14
