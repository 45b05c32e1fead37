"""Manufactured solutions, compatible current densities and L2 error norms.

The analytic field pairs are fixed in closed form as sums of (time factor)
x (spatial vector) terms.  The current density follows from the first
Maxwell equation, ``J = eps dE/dt + sigma E - curl(mu^-1 B)``, term by term
and grouped by time factor, so both equations hold exactly and the
current stays a short sum of such terms.  The terms are plain numpy
functions in the generated module ``_case_fields``; ``tests/case_source.py``
derives them and rewrites that module.  Per case, one generated
function gives the spatial parts of every E and B term from shared
sin/cos calls; ``E``, ``B`` and the error norms all evaluate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _case_fields, geometry, linalg
from .derham import ElementProjectors
from .mesh import PolyMesh


def _spatial_field(fn):
    """Wrap an (x, y, z) -> 3-tuple function into a callable mapping
    (..., 3) points to (..., 3) values laid out in memory like the points,
    so coordinate-planar points give contiguous component planes."""
    def evaluate(pts):
        pts = np.asarray(pts, dtype=float)
        xs, ys, zs = pts[..., 0], pts[..., 1], pts[..., 2]
        out = np.empty_like(pts)
        for i, component in enumerate(fn(xs, ys, zs)):
            out[..., i] = component
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


def _component(scales, parts, i):
    """Component ``i`` of ``sum_k scales[k] parts[k]``, summed term by
    term; a number where every term's component is one."""
    value = scales[0] * parts[0][i]
    for scale, part in zip(scales[1:], parts[1:]):
        value = value + scale * part[i]
    return value


def _fused_field(eb_parts, factors, which):
    """The (pts, t) -> (..., 3) field ``which`` (0: E, 1: B) of
    ``eb_parts`` with time ``factors``; ``t`` may be an array over the
    points.  Where every factor is 0 at ``t`` the field is zeros laid out
    like the points, and ``eb_parts`` is not called."""
    def evaluate(pts, t=0.0):
        scales = [a(t) for a in factors]
        if not np.any(scales):
            return np.zeros_like(pts, dtype=float)

        def components(x, y, z):
            parts = eb_parts(x, y, z)[which]
            return [_component(scales, parts, i) for i in range(3)]

        return _spatial_field(components)(pts)

    return evaluate


def _combination(parts):
    """Spatial field sum_k c_k w_k(x) g_k(x) of (constant, scalar weight
    or None, spatial field) triples."""
    def evaluate(pts):
        out = np.zeros_like(pts, dtype=float)
        for c, w, g in parts:
            out += (c if w is None else c * w(pts)[..., None]) * g(pts)
        return out

    return evaluate


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form solution pair with a compatible current density.

    The current is kept as terms: ``J(x, t) = sum_i a_i(t) g_i(x)``, with
    ``J_terms`` the ``(a_i, g_i)`` pairs, so its edge interpolant is a
    combination of one interpolant per term.  ``EB_parts`` gives the
    spatial parts of E's and of B's terms together, so ``E`` is
    ``sum_k EB_factors[0][k](t) EB_parts(x, y, z)[0][k]`` and B likewise;
    an identically zero component is the number 0, not an array.  ``E``
    and ``B`` evaluate exactly that sum, and give zeros without calling
    ``EB_parts`` where every factor of the field is 0 (``vanishes``).
    """

    E: object                          # callable (pts, t) -> (..., 3)
    B: object
    EB_parts: object                   # callable (x, y, z) -> (E's, B's) term 3-tuples
    EB_factors: tuple                  # (E's, B's) time factors, one per term
    J_terms: tuple                     # (a: t -> float|array, g: (..., 3) -> (..., 3))
    eps: object                        # callable (pts,) -> (...,)
    sigma: object
    mu: object

    def vanishes(self, which: int, t: float) -> bool:
        """Whether every time factor of field ``which`` (0: E, 1: B) is 0
        at time ``t``, so that the field is identically zero then."""
        return not any(a(t) for a in self.EB_factors[which])


def _build_case(table):
    """A case from a generated ``CASE<id>`` table: the time factors of E
    and B, their fused spatial parts, and J's (time factor, spatial
    combination) terms."""
    coefficient = {w: _scalar_field(table[w]) for w in ("eps", "sigma", "mu")}
    factors = tuple(tuple(_time_factor(a) for a in table[key]) for key in ("E", "B"))
    return ManufacturedCase(
        E=_fused_field(table["EB"], factors[0], 0),
        B=_fused_field(table["EB"], factors[1], 1),
        EB_parts=table["EB"],
        EB_factors=factors,
        J_terms=tuple(
            (_time_factor(a),
             _combination([(c, coefficient.get(w), _spatial_field(g)) for c, w, g in parts]))
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
    return _build_case(_case_fields.CASE1)


@lru_cache(maxsize=None)
def case2() -> ManufacturedCase:
    """Polarized standing wave with variable material coefficients.

    ``E = cos(w t) (0, 0, sin(pi x) sin(pi y))`` and
    ``B = sin(w t) / 2.2 (-sin(pi x) cos(pi y), cos(pi x) sin(pi y), 0)``
    with ``w = 2.2 pi``; ``mu = 1 / (1 + |x|^2)``, ``eps = 2 - x^2 - z``
    and ``sigma = 2 - y^2 + z``.
    """
    return _build_case(_case_fields.CASE2)


def get_case(case_id: int) -> ManufacturedCase:
    if case_id == 1:
        return case1()
    if case_id == 2:
        return case2()
    raise ValueError(f"unknown case id {case_id}")


@dataclass
class ErrorReport:
    """L2 errors of the projected discrete fields against the exact ones,
    plus run metadata filled in by the driver (the interior DOF counts,
    and ``div_B``, the last monitored |div B_h|)."""

    err_E: float
    err_B: float
    h: float
    n_edge_dofs: int = 0
    n_face_dofs: int = 0
    tau: float = float("nan")
    div_B: float = float("nan")
    label: str = ""
    cg_iters_total: int = 0
    wall_s: float = 0.0


def l2_error(mesh: PolyMesh, projectors: ElementProjectors, e_full: np.ndarray,
             b_full: np.ndarray, case: ManufacturedCase, t: float) -> ErrorReport:
    """Cellwise L2 errors |E - P0 E_h| and |B - P0 B_h|.

    The discrete fields enter only through their elementwise constant
    projections, since the virtual shape functions are never available
    pointwise.  ``e_full``/``b_full`` hold every edge and face DOF, boundary
    zeros included.
    One chunk of whole cells at a time, E and B come from one call of
    ``case.EB_parts`` on the chunk rule's ``coords``, and each component,
    an array or a number (identically 0 in practice), adds
    ``rule.squared_deviation``, ``sum w (F_i - c_i)^2``: over the points of
    a pyramid-rule chunk, or in factored form over the per-axis nodes of a
    box chunk.

    Pyramid-rule chunks come from ``cell_rules`` sized by their points.
    The box cells come as one rule, walked in slices of ``CHUNK_POINTS // v``
    cells, where v is the most values per cell that a component broadcasts
    to, read off one ``EB_parts`` call on the empty slice, which touches no
    point.  A field of x and y alone takes n^2, so case 2's slices hold
    n = 6 times the cells of case 1's, and no component array outgrows
    ``CHUNK_POINTS`` values or, where one cell takes more, that cell's
    values.
    """
    means = [np.ascontiguousarray(linalg.matvec(a, x).reshape(-1, 3).T)
             for a, x in ((projectors.edge_cell, e_full), (projectors.face_cell, b_full))]
    scales = [[float(a(t)) for a in factors] for factors in case.EB_factors]
    err_sq = [0.0, 0.0]

    for rule in geometry.cell_rules(mesh):
        chunks = [rule]
        if isinstance(rule, geometry.BoxRule):
            per_cell = max(math.prod(np.shape(_component(s, parts, i))[1:])
                           for s, parts in zip(scales, case.EB_parts(*rule[0:0].coords))
                           for i in range(3))
            step = max(1, geometry.CHUNK_POINTS // per_cell)
            chunks = (rule[start:start + step] for start in range(0, rule.volumes.size, step))
        for chunk in chunks:
            for f, parts in enumerate(case.EB_parts(*chunk.coords)):
                for i, c in enumerate(means[f]):
                    err_sq[f] += chunk.squared_deviation(_component(scales[f], parts, i), c)
    return ErrorReport(
        err_E=float(np.sqrt(err_sq[0])),
        err_B=float(np.sqrt(err_sq[1])),
        h=mesh.h,
    )
