"""Manufactured solutions, compatible current densities and L2 error norms.

The analytic field pairs are fixed in closed form; the current density is
derived symbolically from the first Maxwell equation so both equations
hold exactly.  ``strong_form_residual`` cross-checks the generated
callables with finite differences and is the gate run before any
convergence study (see the acceptance suite).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import sympy as sp

from .derham import DeRhamDofs, ElementProjectors, divergence_matrix, divergence_norm
from .geometry import cell_quadrature
from .mesh import PolyMesh

_X, _Y, _Z, _T = sp.symbols("x y z t", real=True)


def _curl(v):
    return sp.Matrix([
        sp.diff(v[2], _Y) - sp.diff(v[1], _Z),
        sp.diff(v[0], _Z) - sp.diff(v[2], _X),
        sp.diff(v[1], _X) - sp.diff(v[0], _Y),
    ])


def _grad(s):
    return sp.Matrix([sp.diff(s, _X), sp.diff(s, _Y), sp.diff(s, _Z)])


def _vector_field(exprs):
    """Lambdify a 3-vector of (x, y, z, t) expressions into a callable
    mapping ((..., 3) points, t) -> (..., 3) values."""
    fns = [sp.lambdify((_X, _Y, _Z, _T), sp.expand(e), "numpy") for e in exprs]

    def evaluate(pts, t=0.0):
        pts = np.asarray(pts, dtype=float)
        xs, ys, zs = pts[..., 0], pts[..., 1], pts[..., 2]
        out = np.empty(pts.shape)
        for i, fn in enumerate(fns):
            out[..., i] = np.broadcast_to(fn(xs, ys, zs, t), xs.shape)
        return out

    return evaluate


def _scalar_field(expr):
    fn = sp.lambdify((_X, _Y, _Z), sp.expand(expr), "numpy")

    def evaluate(pts):
        pts = np.asarray(pts, dtype=float)
        xs = pts[..., 0]
        return np.broadcast_to(fn(xs, pts[..., 1], pts[..., 2]), xs.shape).astype(float)

    return evaluate


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form solution pair with a compatible current density."""

    case_id: int
    name: str
    T: float
    domain: tuple                      # (lo, hi) corner triples
    E: object                          # callable (pts, t) -> (..., 3)
    B: object
    E_t: object
    curl_mu_inv_B: object
    J: object
    eps: object                        # callable (pts,) -> (...,)
    sigma: object
    mu: object


def _build_case(case_id, name, e_expr, b_expr, eps_expr, sigma_expr, mu_expr):
    e_t = e_expr.diff(_T)
    curl_mu_inv_b = _curl(b_expr / mu_expr)
    j_expr = eps_expr * e_t + sigma_expr * e_expr - curl_mu_inv_b
    return ManufacturedCase(
        case_id=case_id,
        name=name,
        T=1.0,
        domain=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        E=_vector_field(e_expr),
        B=_vector_field(b_expr),
        E_t=_vector_field(e_t),
        curl_mu_inv_B=_vector_field(curl_mu_inv_b),
        J=_vector_field(j_expr),
        eps=_scalar_field(eps_expr),
        sigma=_scalar_field(sigma_expr),
        mu=_scalar_field(mu_expr),
    )


@lru_cache(maxsize=None)
def case1() -> ManufacturedCase:
    """Unit coefficients; bump-like potentials with zero boundary traces.

    The magnetic field is the time integral of -curl E, which fixes its
    sign relative to the double-curl potential.  Every term carries a
    t or t^2 factor, so the initial data vanish identically.
    """
    pi = sp.pi
    phi = sp.Matrix([
        sp.sin(pi * _X) ** 2 * _Y**2 * (1 - _Y) ** 2 * _Z**2 * (1 - _Z) ** 2,
        _X**2 * (1 - _X) ** 2 * sp.sin(pi * _Y) ** 2 * _Z**2 * (1 - _Z) ** 2,
        _X**2 * (1 - _X) ** 2 * _Y**2 * (1 - _Y) ** 2 * sp.sin(pi * _Z) ** 2,
    ])
    psi = _grad(sp.sin(pi * _X) * sp.sin(pi * _Y) * sp.sin(pi * _Z))
    e_expr = _T * _curl(phi) + _T**2 * psi
    b_expr = -(_T**2 / 2) * _curl(_curl(phi))
    one = sp.Integer(1)
    return _build_case(1, "constant coefficients", e_expr, b_expr, one, one, one)


@lru_cache(maxsize=None)
def case2() -> ManufacturedCase:
    """Polarized standing wave with variable material coefficients."""
    pi = sp.pi
    omega = sp.Rational(11, 5) * pi            # 2.2 pi
    e_expr = sp.Matrix([0, 0, sp.sin(pi * _X) * sp.sin(pi * _Y)]) * sp.cos(omega * _T)
    b_expr = sp.Matrix([
        -sp.cos(pi * _Y) * sp.sin(pi * _X),
        sp.cos(pi * _X) * sp.sin(pi * _Y),
        0,
    ]) * sp.sin(omega * _T) / sp.Rational(11, 5)
    mu_expr = 1 / (1 + _X**2 + _Y**2 + _Z**2)
    eps_expr = 2 - _X**2 - _Z
    sigma_expr = 2 - _Y**2 + _Z
    return _build_case(2, "polarized wave, variable coefficients",
                       e_expr, b_expr, eps_expr, sigma_expr, mu_expr)


def get_case(case_id: int) -> ManufacturedCase:
    if case_id == 1:
        return case1()
    if case_id == 2:
        return case2()
    raise ValueError(f"unknown case id {case_id}")


def strong_form_residual(case: ManufacturedCase, n_samples: int = 1000,
                         step: float = 1e-5, seed: int = 0) -> float:
    """Max residual of both strong equations at random space-time samples.

    Curls and time derivatives are recomputed by central differences, so
    this checks the symbolic derivation of J and the sign conventions of
    the field pair rather than restating them.
    """
    rng = np.random.default_rng(seed)
    lo = np.asarray(case.domain[0])
    hi = np.asarray(case.domain[1])
    pts = lo + rng.random((n_samples, 3)) * (hi - lo)
    ts = rng.random(n_samples) * case.T

    def fd_time(fn):
        return (fn(pts, ts + step) - fn(pts, ts - step)) / (2 * step)

    def fd_curl(fn):
        d = [(fn(pts + step * e, ts) - fn(pts - step * e, ts)) / (2 * step)
             for e in np.eye(3)]     # d[a][:, c] = del_a (component c)
        return np.stack([
            d[1][:, 2] - d[2][:, 1],
            d[2][:, 0] - d[0][:, 2],
            d[0][:, 1] - d[1][:, 0],
        ], axis=1)

    mu_inv_b = lambda p, t: case.B(p, t) / case.mu(p)[..., None]
    eps = case.eps(pts)[:, None]
    sigma = case.sigma(pts)[:, None]

    ampere = (eps * fd_time(case.E) + sigma * case.E(pts, ts)
              - fd_curl(mu_inv_b) - case.J(pts, ts))
    faraday = fd_time(case.B) + fd_curl(case.E)
    return float(max(np.abs(ampere).max(), np.abs(faraday).max()))


@dataclass
class ErrorReport:
    """L2 errors of the projected discrete fields against the exact ones."""

    err_E: float
    err_B: float
    div_B: float
    h: float
    n_edge_dofs: int
    n_face_dofs: int
    tau: float = float("nan")
    label: str = ""
    cg_iters_total: int = 0
    wall_s: float = 0.0


def l2_error(mesh: PolyMesh, dofs: DeRhamDofs, projectors: ElementProjectors,
             e_full: np.ndarray, b_full: np.ndarray, case: ManufacturedCase,
             t: float, degree: int = 4) -> ErrorReport:
    """Cellwise L2 errors |E - P0 E_h| and |B - P0 B_h| plus |div B_h|.

    The discrete fields enter only through their elementwise constant
    projections, since the virtual shape functions are never available
    pointwise.  ``e_full``/``b_full`` carry boundary zeros re-inserted.
    """
    t0 = time.perf_counter()
    err_e_sq = 0.0
    err_b_sq = 0.0
    for k in range(mesh.n_cells):
        pe = projectors.edge_cell[k] @ e_full[mesh.cell_edges[k]]
        pb = projectors.face_cell[k] @ b_full[mesh.cell_faces[k]]
        rule = cell_quadrature(mesh, k, degree)
        err_e_sq += rule.weights @ ((case.E(rule.points, t) - pe) ** 2).sum(axis=1)
        err_b_sq += rule.weights @ ((case.B(rule.points, t) - pb) ** 2).sum(axis=1)
    return ErrorReport(
        err_E=float(np.sqrt(err_e_sq)),
        err_B=float(np.sqrt(err_b_sq)),
        div_B=divergence_norm(mesh, divergence_matrix(mesh), b_full),
        h=mesh.h,
        n_edge_dofs=dofs.n_interior_edges,
        n_face_dofs=dofs.n_interior_faces,
        wall_s=time.perf_counter() - t0,
    )
