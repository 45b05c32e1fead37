"""Manufactured solutions, compatible current densities and L2 error norms.

The analytic field pairs are fixed in closed form as sums of (time factor)
x (spatial vector) terms; the current density is derived symbolically
from the first Maxwell equation, term by term, so both equations hold
exactly and the current stays a short sum of such terms.
``strong_form_residual`` cross-checks the generated callables with finite
differences and is the gate run before any convergence study (see the
acceptance suite).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import sympy as sp

from .derham import DeRhamDofs, ElementProjectors
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


def _spatial_field(exprs):
    """Lambdify a 3-vector of (x, y, z) expressions into a callable
    mapping (..., 3) points to (..., 3) values."""
    fns = [sp.lambdify((_X, _Y, _Z), e, "numpy") for e in exprs]

    def evaluate(pts):
        pts = np.asarray(pts, dtype=float)
        xs, ys, zs = pts[..., 0], pts[..., 1], pts[..., 2]
        out = np.empty(pts.shape)
        for i, fn in enumerate(fns):
            out[..., i] = np.broadcast_to(fn(xs, ys, zs), xs.shape)
        return out

    return evaluate


def _scalar_field(expr):
    fn = sp.lambdify((_X, _Y, _Z), expr, "numpy")

    def evaluate(pts):
        pts = np.asarray(pts, dtype=float)
        xs = pts[..., 0]
        return np.broadcast_to(fn(xs, pts[..., 1], pts[..., 2]), xs.shape).astype(float)

    return evaluate


def _time_factor(expr):
    """Lambdify a t expression into a callable t -> float or array shaped like t."""
    fn = sp.lambdify(_T, expr, "numpy")
    return lambda t: fn(t) + np.zeros(np.shape(t))


def _sum_of_terms(terms):
    """The (pts, t) -> (..., 3) field sum_i a_i(t) g_i(pts) of numeric
    (time factor, spatial field) pairs; ``t`` may be an array over the
    points."""
    def evaluate(pts, t=0.0):
        vals = [a(t)[..., None] * g(pts) for a, g in terms]
        return sum(vals[1:], vals[0]) if vals else np.zeros(np.shape(pts))

    return evaluate


def _combination(parts):
    """Spatial field sum_k c_k w_k(x) g_k(x) of (constant, scalar weight
    or None, spatial field) triples."""
    def evaluate(pts):
        out = np.zeros(np.shape(pts))
        for c, w, g in parts:
            out += (c if w is None else c * w(pts)[..., None]) * g(pts)
        return out

    return evaluate


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form solution pair with a compatible current density.

    The current is kept as terms: ``J(x, t) = sum_i a_i(t) g_i(x)``, with
    ``J_terms`` the ``(a_i, g_i)`` pairs, so its edge interpolant is a
    combination of one interpolant per term.
    """

    case_id: int
    name: str
    T: float
    domain: tuple                      # (lo, hi) corner triples
    E: object                          # callable (pts, t) -> (..., 3)
    B: object
    E_t: object
    curl_mu_inv_B: object
    J_terms: tuple                     # (a: t -> float|array, g: (..., 3) -> (..., 3))
    eps: object                        # callable (pts,) -> (...,)
    sigma: object
    mu: object


def _build_case(case_id, name, e_terms, b_terms, eps_expr, sigma_expr, mu_expr):
    """Derive a case from E and B given as (time factor, spatial 3-vector)
    sympy terms.

    Time derivatives act on the time factors and curls on the spatial
    parts only; each spatial part is lambdified once and shared by every
    field it enters.  ``J = eps E_t + sigma E - curl(mu^-1 B)`` is grouped
    by time factor, constants folded into the spatial part.
    """
    eps, sigma, mu = (_scalar_field(c) for c in (eps_expr, sigma_expr, mu_expr))
    e_parts = [(a, _spatial_field(g)) for a, g in e_terms]
    b_parts = [(a, _spatial_field(h)) for a, h in b_terms]
    curl_parts = [(a, _spatial_field(_curl(h / mu_expr))) for a, h in b_terms]
    e_t_parts = [(a.diff(_T), g) for a, g in e_parts]

    groups = {}
    for a, w, g in ([(a, eps, g) for a, g in e_t_parts]
                    + [(a, sigma, g) for a, g in e_parts]
                    + [(-a, None, g) for a, g in curl_parts]):
        c, a = a.as_independent(_T, as_Add=False)
        groups.setdefault(a, []).append((float(c), w, g))

    def numeric(parts):
        return tuple((_time_factor(a), g) for a, g in parts)

    return ManufacturedCase(
        case_id=case_id,
        name=name,
        T=1.0,
        domain=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        E=_sum_of_terms(numeric(e_parts)),
        B=_sum_of_terms(numeric(b_parts)),
        E_t=_sum_of_terms(numeric(e_t_parts)),
        curl_mu_inv_B=_sum_of_terms(numeric(curl_parts)),
        J_terms=numeric((a, _combination(parts)) for a, parts in groups.items()),
        eps=eps,
        sigma=sigma,
        mu=mu,
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
    a = _curl(phi)
    e_terms = [(_T, a), (_T**2, psi)]
    b_terms = [(-_T**2 / 2, _curl(a))]
    one = sp.Integer(1)
    return _build_case(1, "constant coefficients", e_terms, b_terms, one, one, one)


@lru_cache(maxsize=None)
def case2() -> ManufacturedCase:
    """Polarized standing wave with variable material coefficients."""
    pi = sp.pi
    omega = sp.Rational(11, 5) * pi            # 2.2 pi
    g = sp.Matrix([0, 0, sp.sin(pi * _X) * sp.sin(pi * _Y)])
    h = sp.Matrix([
        -sp.cos(pi * _Y) * sp.sin(pi * _X),
        sp.cos(pi * _X) * sp.sin(pi * _Y),
        0,
    ])
    e_terms = [(sp.cos(omega * _T), g)]
    b_terms = [(sp.sin(omega * _T) / sp.Rational(11, 5), h)]
    mu_expr = 1 / (1 + _X**2 + _Y**2 + _Z**2)
    eps_expr = 2 - _X**2 - _Z
    sigma_expr = 2 - _Y**2 + _Z
    return _build_case(2, "polarized wave, variable coefficients",
                       e_terms, b_terms, eps_expr, sigma_expr, mu_expr)


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
    current = _sum_of_terms(case.J_terms)(pts, ts)

    ampere = (eps * fd_time(case.E) + sigma * case.E(pts, ts)
              - fd_curl(mu_inv_b) - current)
    faraday = fd_time(case.B) + fd_curl(case.E)
    return float(max(np.abs(ampere).max(), np.abs(faraday).max()))


@dataclass
class ErrorReport:
    """L2 errors of the projected discrete fields against the exact ones,
    plus run metadata filled in by the driver (``div_B`` is the last
    monitored |div B_h|)."""

    err_E: float
    err_B: float
    h: float
    n_edge_dofs: int
    n_face_dofs: int
    tau: float = float("nan")
    div_B: float = float("nan")
    label: str = ""
    cg_iters_total: int = 0
    wall_s: float = 0.0


def l2_error(mesh: PolyMesh, dofs: DeRhamDofs, projectors: ElementProjectors,
             e_full: np.ndarray, b_full: np.ndarray, case: ManufacturedCase,
             t: float, degree: int = 4) -> ErrorReport:
    """Cellwise L2 errors |E - P0 E_h| and |B - P0 B_h|.

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
        h=mesh.h,
        n_edge_dofs=dofs.n_interior_edges,
        n_face_dofs=dofs.n_interior_faces,
        wall_s=time.perf_counter() - t0,
    )
