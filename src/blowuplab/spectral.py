"""Eigenbasis of the linearization around the equatorial map.

The operator

    A phi = -phi'' - ((d-1)/y - y/2) phi' - k(d+k-2)/y^2 phi

is self-adjoint in L^2(R_+, rho dy) with rho(y) = y^{d-1} e^{-y^2/4} and
has the explicit spectrum

    phi_n(y) = N_n y^{-gamma} L_n^{(omega/2)}(y^2/4),   lambda_n = -gamma/2 + n.

The closed-form N_n normalizes <phi_n, phi_n> to 1/2 under this measure
(a desk check via the Laguerre orthogonality relation), so the basis is
rescaled numerically until the quadrature Gram matrix is the identity;
the origin coefficients c_n are recomputed from the rescaled N_n so all
downstream matching formulas stay internally consistent.

Inner products are evaluated with a generalized Gauss-Laguerre rule in
z = y^2/4: with y^{d-1} dy = 2^{d-1} z^{gamma + omega/2} dz the weight
becomes e^{-z} z^{omega/2} after factoring the y^{-2gamma} behavior of a
pair of eigenfunctions, so polynomial-type integrands are integrated
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gammaln, roots_genlaguerre

from .errors import DivergentIntegrand, QuadratureNotConverged
from .params import DerivedConstants
from .tables import write_table

ORTHO_TARGET = 1e-8
MIN_NODES = 200
MAX_NODES = 3200


def laguerre_at_zero(n, alpha):
    """L_n^{(alpha)}(0) = Gamma(n+1+alpha) / (Gamma(n+1) Gamma(1+alpha))."""
    return math.exp(gammaln(n + 1 + alpha) - gammaln(n + 1) - gammaln(1 + alpha))


def closed_form_norm(n, omega):
    """The closed-form normalization 2^{-1-omega/2} sqrt(n!/Gamma(n+1+omega/2))."""
    return 2.0 ** (-1.0 - omega / 2.0) * math.exp(
        0.5 * (gammaln(n + 1) - gammaln(n + 1 + omega / 2.0))
    )


@dataclass
class EigenBasis:
    consts: DerivedConstants
    max_n: int
    norm: np.ndarray       # N_n after numerical re-normalization
    c_origin: np.ndarray   # c_n = N_n L_n^{(omega/2)}(0) > 0
    nodes_y: np.ndarray    # quadrature nodes in y
    weights: np.ndarray    # weights including rho(y), for sum w_i f(y_i) g(y_i)
    _alpha: float = field(repr=False, default=0.0)

    def lam(self, n):
        return -0.5 * self.consts.gamma + n

    def phi(self, n, y):
        """phi_n(y), vectorized."""
        y = np.asarray(y, dtype=float)
        z = 0.25 * y * y
        return self.norm[n] * y ** (-self.consts.gamma) * eval_genlaguerre(n, self._alpha, z)

    def phi_table(self, y):
        """phi_0 .. phi_max_n at the points y, as a (max_n+1, len(y)) array."""
        n = np.arange(self.max_n + 1)[:, None]
        return self.phi(n, np.asarray(y, dtype=float)[None, :])

    def phi_prime(self, n, y):
        """d phi_n / dy via dL_n^{(a)}/dz = -L_{n-1}^{(a+1)}."""
        y = np.asarray(y, dtype=float)
        g = self.consts.gamma
        z = 0.25 * y * y
        w = eval_genlaguerre(n, self._alpha, z)
        wp = -eval_genlaguerre(n - 1, self._alpha + 1, z) if n >= 1 else 0.0 * z
        return self.norm[n] * y ** (-g) * (-g * w / y + 0.5 * y * wp)

    def phi_second(self, n, y):
        y = np.asarray(y, dtype=float)
        g = self.consts.gamma
        z = 0.25 * y * y
        w = eval_genlaguerre(n, self._alpha, z)
        wp = -eval_genlaguerre(n - 1, self._alpha + 1, z) if n >= 1 else 0.0 * z
        wpp = eval_genlaguerre(n - 2, self._alpha + 2, z) if n >= 2 else 0.0 * z
        return self.norm[n] * y ** (-g) * (
            g * (g + 1.0) * w / (y * y)
            + 0.5 * (1.0 - 2.0 * g) * wp
            + 0.25 * y * y * wpp
        )

    def apply_operator(self, n, y):
        """A phi_n evaluated from the analytic derivatives (equals
        lambda_n phi_n up to roundoff)."""
        d = self.consts.params.d
        k = self.consts.params.k
        y = np.asarray(y, dtype=float)
        return (
            -self.phi_second(n, y)
            - ((d - 1.0) / y - 0.5 * y) * self.phi_prime(n, y)
            - k * (d + k - 2.0) / (y * y) * self.phi(n, y)
        )

    def inner_product(self, f, g, f_exponent=None, g_exponent=None):
        """<f, g> = int_0^inf f g y^{d-1} e^{-y^2/4} dy for callables f, g.

        Optional small-y exponents declare the leading power of each factor
        near y = 0; integrands with total power <= -1 (including the weight)
        are rejected, and integrands more singular than the y^{-2 gamma}
        the Gauss rule factors out fall back to adaptive quadrature."""
        d = self.consts.params.d
        gam = self.consts.gamma
        if f_exponent is not None and g_exponent is not None:
            p = f_exponent + g_exponent + d - 1.0
            if p <= -1.0:
                raise DivergentIntegrand(
                    f"small-y power {p:.3f} of f*g*y^(d-1) is not integrable"
                )
            if f_exponent + g_exponent < -2.0 * gam:
                return self._adaptive_inner(f, g)
        fy = np.asarray(f(self.nodes_y), dtype=float)
        gy = np.asarray(g(self.nodes_y), dtype=float)
        return float(np.sum(self.weights * fy * gy))

    def _adaptive_inner(self, f, g):
        d = self.consts.params.d
        y_hi = float(self.nodes_y[-1])

        def integrand(y):
            return f(y) * g(y) * y ** (d - 1.0) * math.exp(-0.25 * y * y)

        val, _ = quad(integrand, 0.0, y_hi, limit=400)
        return val

    def project(self, psi, y_max=None):
        """Coefficients a_n = <psi, phi_n> truncated to nodes y <= y_max."""
        if y_max is None:
            mask = slice(None)
        else:
            mask = self.nodes_y <= y_max
        ys = self.nodes_y[mask]
        py = np.asarray(psi(ys), dtype=float)
        return self.phi_table(ys) @ (self.weights[mask] * py)

    def gram_matrix(self):
        P = self.phi_table(self.nodes_y)
        return (P * self.weights) @ P.T

    def to_csv(self, path, y_grid=None):
        """Basis table export on a diagnostic grid."""
        if y_grid is None:
            y_grid = np.linspace(0.05, 8.0, 160)
        write_table(path, ["y"] + [f"phi{n}" for n in range(self.max_n + 1)],
                    [y_grid, *self.phi_table(y_grid)])


def build_basis(consts, max_n=8):
    """Construct the eigenbasis with numerically re-normalized N_n, doubling
    the quadrature node count until the Gram residual meets ORTHO_TARGET."""
    d = consts.params.d
    alpha = consts.omega / 2.0
    gam = consts.gamma

    n_nodes = MIN_NODES
    while True:
        z, wz = roots_genlaguerre(n_nodes, alpha)
        nodes_y = 2.0 * np.sqrt(z)
        weights = 2.0 ** (d - 1.0) * wz * z**gam

        norm = np.array([closed_form_norm(n, consts.omega) for n in range(max_n + 1)])
        basis = EigenBasis(
            consts=consts,
            max_n=max_n,
            norm=norm,
            c_origin=np.zeros(max_n + 1),
            nodes_y=nodes_y,
            weights=weights,
            _alpha=alpha,
        )
        # rescale so <phi_n, phi_n> = 1 under this measure (closed form gives 1/2)
        diag = np.sum(weights * basis.phi_table(nodes_y) ** 2, axis=1)
        basis.norm = norm / np.sqrt(diag)
        basis.c_origin = np.array([
            basis.norm[n] * laguerre_at_zero(n, alpha) for n in range(max_n + 1)
        ])
        resid = float(np.max(np.abs(basis.gram_matrix() - np.eye(max_n + 1))))
        if resid <= ORTHO_TARGET:
            return basis
        if n_nodes >= MAX_NODES:
            raise QuadratureNotConverged(
                f"orthonormality residual {resid:.3e} at {n_nodes} nodes"
            )
        n_nodes *= 2
