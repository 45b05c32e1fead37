"""Manufactured solutions, compatible current densities and L2 error norms.

The analytic field pairs are fixed in closed form as sums of (time factor)
x (spatial vector) terms.  The current density follows from the first
Maxwell equation, ``J = eps E_t + sigma E - curl(mu^-1 B)``, term by term
and grouped by time factor, so both equations hold exactly and the
current stays a short sum of such terms.  The terms are plain numpy
functions in the generated module ``_case_fields``; ``tests/case_source.py``
derives them and rewrites that module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from . import _case_fields
from .derham import DeRhamDofs, ElementProjectors
from .geometry import cell_quadrature
from .mesh import PolyMesh


def _spatial_field(fn):
    """Wrap an (x, y, z) -> 3-tuple function into a callable mapping
    (..., 3) points to (..., 3) values."""
    def evaluate(pts):
        pts = np.asarray(pts, dtype=float)
        xs, ys, zs = pts[..., 0], pts[..., 1], pts[..., 2]
        out = np.empty(pts.shape)
        for i, component in enumerate(fn(xs, ys, zs)):
            out[..., i] = np.broadcast_to(component, xs.shape)
        return out

    return evaluate


def _scalar_field(fn):
    def evaluate(pts):
        pts = np.asarray(pts, dtype=float)
        xs = pts[..., 0]
        return np.broadcast_to(fn(xs, pts[..., 1], pts[..., 2]), xs.shape).astype(float)

    return evaluate


def _time_factor(fn):
    """Wrap a t function into a callable t -> float or array shaped like t."""
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


def _build_case(case_id, name, table):
    """A case from a generated ``CASE<id>`` table of (time factor, spatial
    part) terms; each spatial part is wrapped once and shared by every
    field it enters."""
    spatial = cache(_spatial_field)
    coefficient = {w: _scalar_field(table[w]) for w in ("eps", "sigma", "mu")}

    def field(key):
        return _sum_of_terms(tuple((_time_factor(a), spatial(g)) for a, g in table[key]))

    return ManufacturedCase(
        case_id=case_id,
        name=name,
        T=1.0,
        domain=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        E=field("E"),
        B=field("B"),
        E_t=field("E_t"),
        curl_mu_inv_B=field("curl_mu_inv_B"),
        J_terms=tuple(
            (_time_factor(a),
             _combination([(c, coefficient.get(w), spatial(g)) for c, w, g in parts]))
            for a, parts in table["J"]),
        eps=coefficient["eps"],
        sigma=coefficient["sigma"],
        mu=coefficient["mu"],
    )


@lru_cache(maxsize=None)
def case1() -> ManufacturedCase:
    """Unit coefficients; bump-like potentials with zero boundary traces.

    ``E = t curl(phi) + t^2 grad(s)`` and ``B = -(t^2 / 2) curl curl(phi)``,
    where ``phi_i = sin^2(pi x_i) q(x_j) q(x_k)`` over the other two
    coordinates, ``q(s) = s^2 (1-s)^2``, and ``s = sin(pi x) sin(pi y) sin(pi z)``.  The magnetic field is the
    time integral of -curl E, which fixes its sign relative to the
    double-curl potential.  Every term carries a t or t^2 factor, so the
    initial data vanish identically.
    """
    return _build_case(1, "constant coefficients", _case_fields.CASE1)


@lru_cache(maxsize=None)
def case2() -> ManufacturedCase:
    """Polarized standing wave with variable material coefficients.

    ``E = cos(w t) (0, 0, sin(pi x) sin(pi y))`` and
    ``B = sin(w t) / 2.2 (-sin(pi x) cos(pi y), cos(pi x) sin(pi y), 0)``
    with ``w = 2.2 pi``; ``mu = 1 / (1 + |x|^2)``, ``eps = 2 - x^2 - z``
    and ``sigma = 2 - y^2 + z``.
    """
    return _build_case(2, "polarized wave, variable coefficients", _case_fields.CASE2)


def get_case(case_id: int) -> ManufacturedCase:
    if case_id == 1:
        return case1()
    if case_id == 2:
        return case2()
    raise ValueError(f"unknown case id {case_id}")


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
    pe = (projectors.edge_cell @ e_full).reshape(-1, 3)
    pb = (projectors.face_cell @ b_full).reshape(-1, 3)
    for k in range(mesh.n_cells):
        rule = cell_quadrature(mesh, k, degree)
        err_e_sq += rule.weights @ ((case.E(rule.points, t) - pe[k]) ** 2).sum(axis=1)
        err_b_sq += rule.weights @ ((case.B(rule.points, t) - pb[k]) ** 2).sum(axis=1)
    return ErrorReport(
        err_E=float(np.sqrt(err_e_sq)),
        err_B=float(np.sqrt(err_b_sq)),
        h=mesh.h,
        n_edge_dofs=dofs.n_interior_edges,
        n_face_dofs=dofs.n_interior_faces,
        wall_s=time.perf_counter() - t0,
    )
