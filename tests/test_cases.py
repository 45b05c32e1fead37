import dataclasses
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import sympy as sp

import case_source
import vemaxwell
from conftest import SPLIT_MESHES, expand, flat_rule, strong_form_residual
from vemaxwell import _case_fields, cases, linalg, stepper
from vemaxwell import derham as vd
from vemaxwell import geometry as vg


@pytest.fixture(scope="module")
def c1():
    return cases.case1()


@pytest.fixture(scope="module")
def c2():
    return cases.case2()


def fd_divergence(case, pts, ts, h=1e-4):
    """Fourth-order central differences; resolves the wiggly case-1 field
    to ~1e-11 where the second-order stencil stalls near 1e-10."""
    out = np.zeros(len(pts))
    for a, e in enumerate(np.eye(3)):
        d = (-case.B(pts + 2 * h * e, ts) + 8 * case.B(pts + h * e, ts)
             - 8 * case.B(pts - h * e, ts) + case.B(pts - 2 * h * e, ts)) / (12 * h)
        out += d[:, a]
    return out


class TestCase1:
    def test_zero_initial_data(self, c1):
        pts = np.random.default_rng(0).random((50, 3))
        assert np.abs(c1.E(pts, 0.0)).max() == 0.0
        assert np.abs(c1.B(pts, 0.0)).max() == 0.0

    def test_solenoidal_by_finite_differences(self, c1):
        rng = np.random.default_rng(1)
        pts = rng.random((100, 3))
        ts = rng.random(100)
        assert np.abs(fd_divergence(c1, pts, ts)).max() <= 1e-10

    def test_tangential_trace_on_x0(self, c1):
        p = np.array([[0.0, 0.3, 0.7]])
        for t in (0.2, 0.5, 1.0):
            vals = c1.E(p, t)[0]
            assert abs(vals[1]) < 1e-14 and abs(vals[2]) < 1e-14

    def test_unit_coefficients(self, c1, cube2):
        ctr = cube2.cell_centroids
        assert np.allclose(c1.eps(ctr), 1.0)
        assert np.allclose(c1.sigma(ctr), 1.0)
        assert np.allclose(c1.mu(ctr), 1.0)


class TestCase2:
    def test_b_vanishes_at_t0(self, c2):
        pts = np.random.default_rng(2).random((50, 3))
        assert np.abs(c2.B(pts, 0.0)).max() == 0.0

    def test_orthogonal_fields(self, c2):
        rng = np.random.default_rng(3)
        pts = rng.random((200, 3))
        ts = rng.random(200)
        dots = (c2.E(pts, ts) * c2.B(pts, ts)).sum(axis=1)
        assert np.abs(dots).max() <= 1e-12

    def test_divergence_cancels_symbolically(self):
        x, y, z, t = sp.symbols("x y z t", real=True)
        b = sp.Matrix([-sp.cos(sp.pi * y) * sp.sin(sp.pi * x),
                       sp.cos(sp.pi * x) * sp.sin(sp.pi * y), 0])
        div = sp.diff(b[0], x) + sp.diff(b[1], y) + sp.diff(b[2], z)
        assert sp.simplify(div) == 0


class TestStrongFormResidual:
    def test_case1(self, c1):
        assert strong_form_residual(c1, 1000) <= 1e-8

    def test_case2(self, c2):
        assert strong_form_residual(c2, 1000) <= 1e-8

    def test_faraday_only_case2(self, c2):
        # B is the time integral of -curl E by construction; the oracle
        # confirms it independently
        rng = np.random.default_rng(4)
        pts = rng.random((200, 3))
        ts = rng.random(200)
        h = 1e-5
        bt = (c2.B(pts, ts + h) - c2.B(pts, ts - h)) / (2 * h)
        curl = np.empty((200, 3))
        d = [(c2.E(pts + h * e, ts) - c2.E(pts - h * e, ts)) / (2 * h)
             for e in np.eye(3)]
        curl[:, 0] = d[1][:, 2] - d[2][:, 1]
        curl[:, 1] = d[2][:, 0] - d[0][:, 2]
        curl[:, 2] = d[0][:, 1] - d[1][:, 0]
        assert np.abs(bt + curl).max() <= 1e-8


class TestBoundaryTraces:
    @pytest.mark.parametrize("case_id", [1, 2])
    def test_traces_vanish(self, case_id):
        case = cases.get_case(case_id)
        rng = np.random.default_rng(5)
        worst_e = worst_b = 0.0
        for axis in range(3):
            for wall in (0.0, 1.0):
                p = rng.random((1700, 3))
                p[:, axis] = wall
                ts = rng.random(1700)
                n = np.zeros(3)
                n[axis] = 1.0
                worst_e = max(worst_e, np.abs(np.cross(case.E(p, ts), n)).max())
                worst_b = max(worst_b, np.abs(case.B(p, ts) @ n).max())
        assert worst_e <= 1e-12
        assert worst_b <= 1e-12

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            cases.get_case(9)


class TestL2Error:
    def test_zero_state_case2_at_t0(self, c2, cube4):
        # |E(., 0)| = sqrt(int sin^2 sin^2) = 1/2; B(0) = 0
        proj = vd.build_projectors(cube4)
        rep = cases.l2_error(cube4, proj, np.zeros(cube4.n_edges),
                             np.zeros(cube4.n_faces), c2, 0.0)
        assert rep.err_E == pytest.approx(0.5, abs=1e-7)
        assert rep.err_B == 0.0
        assert rep.h == pytest.approx(cube4.h)

    def test_interpolant_error_decreases(self, c2):
        from vemaxwell import generate_cube_mesh
        errs = []
        for n in (2, 4, 8):
            m = generate_cube_mesh(n)
            proj = vd.build_projectors(m)
            e = vd.interpolate_edge(m, lambda p: c2.E(p, 1.0))
            b = vd.interpolate_face(m, lambda p: c2.B(p, 1.0))
            e[m.boundary_edges] = 0.0
            b[m.boundary_faces] = 0.0
            rep = cases.l2_error(m, proj, e, b, c2, 1.0)
            errs.append((rep.err_E, rep.err_B))
        for (e0, b0), (e1, b1) in zip(errs, errs[1:]):
            assert e1 < e0 and b1 < b0

    @pytest.mark.parametrize("case_id, rel", [(1, 1e-11), (2, 1e-12)], ids=["1", "2"])
    def test_box_rule_matches_pyramid_rule(self, case_id, rel, cube8, monkeypatch):
        # bound stated before measuring for case 2: on the cube:8, tau 1/32
        # end state the box rule's norms agree with the pyramid rule's to
        # 1e-12.  Case 1's err_B differs by 1.7e-12: its q(u) = u^2 (1 - u)^2
        # factors outrun the degree-4 pyramid rule, while the box rule is
        # converged, as it agrees with a 12-point box rule to 1e-14.
        case = cases.get_case(case_id)
        res = stepper.run(cube8, case, 1 / 32, 1.0)
        ops = res.ops
        args = (cube8, ops.projectors,
                expand(res.state.e, ops.interior_edges, cube8.n_edges),
                expand(res.state.b, ops.interior_faces, cube8.n_faces), case, 1.0)
        boxes, lo, hi = vg.box_cells(cube8)
        assert boxes.all()
        box = cases.l2_error(*args)
        monkeypatch.setattr(vg, "BOX_POINTS", 12)
        fine = cases.l2_error(*args)
        monkeypatch.undo()
        monkeypatch.setattr(vg, "box_cells", lambda m: (np.zeros(m.n_cells, bool), lo, hi))
        pyramid = cases.l2_error(*args)
        for field in ("err_E", "err_B"):
            assert getattr(box, field) == pytest.approx(getattr(fine, field), rel=1e-14, abs=0)
            assert getattr(box, field) == pytest.approx(getattr(pyramid, field), rel=rel, abs=0)

    @pytest.mark.parametrize("case_id", [1, 2])
    def test_factored_box_rule_matches_tensor_points(self, case_id, cube8):
        # bound stated before measuring: on the cube:8, tau 1/32 end state
        # the factored sums agree with the 216-point sums to 1e-14
        case = cases.get_case(case_id)
        res = stepper.run(cube8, case, 1 / 32, 1.0)
        ops, proj = res.ops, res.ops.projectors
        e = expand(res.state.e, ops.interior_edges, cube8.n_edges)
        b = expand(res.state.b, ops.interior_faces, cube8.n_faces)
        rep = cases.l2_error(cube8, proj, e, b, case, 1.0)
        err_sq = [0.0, 0.0]
        for rule in vg.cell_rules(cube8):
            assert isinstance(rule, vg.BoxRule)
            flat = flat_rule(cube8, rule)
            for f, (field, means) in enumerate(((case.E, proj.edge_cell @ e),
                                               (case.B, proj.face_cell @ b))):
                diff = field(flat.points, 1.0) - means.reshape(-1, 3)[flat.owners]
                err_sq[f] += flat.weights @ (diff * diff).sum(axis=1)
        assert rep.err_E == pytest.approx(np.sqrt(err_sq[0]), rel=1e-14, abs=0)
        assert rep.err_B == pytest.approx(np.sqrt(err_sq[1]), rel=1e-14, abs=0)

    def test_box_chunks_evaluate_nodes_per_axis(self, c2, cube8, trig_calls):
        # each sin/cos of a box slice sees the slice's 6 nodes per cell
        # along one axis, not its 216 points per cell; an evaluation on the
        # empty slice, which makes no sin/cos call on data, sizes every
        # slice to 8192 // 36 cells
        cells = []

        def parts(x, y, z):
            cells.append(x.shape[0])
            return c2.EB_parts(x, y, z)

        cases.l2_error(cube8, vd.build_projectors(cube8), np.zeros(cube8.n_edges),
                       np.zeros(cube8.n_faces), dataclasses.replace(c2, EB_parts=parts), 1.0)
        assert cells == [0, 227, 227, 58]
        assert len(trig_calls) == 4 * 3
        for k, n in enumerate(cells[1:]):
            assert max(trig_calls[4 * k:4 * k + 4]) <= 6 * n

    def test_norms_nonnegative(self, c1, cube2):
        proj = vd.build_projectors(cube2)
        rng = np.random.default_rng(6)
        rep = cases.l2_error(cube2, proj,
                             rng.standard_normal(cube2.n_edges),
                             rng.standard_normal(cube2.n_faces), c1, 0.5)
        assert rep.err_E >= 0 and rep.err_B >= 0


# The per-entity loops that chunked quadrature replaced, kept as oracles.

def loop_interpolate_face(mesh, field):
    """Mean normal flux of ``field``, one face rule at a time."""
    out = np.empty(mesh.n_faces)
    for f in range(mesh.n_faces):
        rule = vg.face_quadrature(mesh, f, vd.INTERP_FACE_DEGREE)
        vals = np.asarray(field(rule.points))
        out[f] = (rule.weights @ (vals @ mesh.face_normals[f])) / mesh.face_areas[f]
    return out


def loop_l2_error(mesh, projectors, e_full, b_full, case, t):
    """(err_E, err_B), one cell at a time, each on the points and weights
    that ``cell_rules`` gives it, a box's as the tensor rule it factors."""
    err_e_sq = 0.0
    err_b_sq = 0.0
    pe = (projectors.edge_cell @ e_full).reshape(-1, 3)
    pb = (projectors.face_cell @ b_full).reshape(-1, 3)
    for rule in (flat_rule(mesh, r) for r in vg.cell_rules(mesh)):
        for k in np.unique(rule.owners):
            on = rule.owners == k
            points, weights = rule.points[on], rule.weights[on]
            err_e_sq += weights @ ((case.E(points, t) - pe[k]) ** 2).sum(axis=1)
            err_b_sq += weights @ ((case.B(points, t) - pb[k]) ** 2).sum(axis=1)
    return np.sqrt(err_e_sq), np.sqrt(err_b_sq)


# Chunk budgets: the default, one entity per chunk, the whole mesh at once.
BUDGETS = [vg.CHUNK_POINTS, 1, 10**9]


class TestCellMeans:
    @pytest.mark.parametrize("name", ["cube8", "agglo4"])
    def test_means_through_matvec_are_the_products(self, name, c2, request, monkeypatch):
        # l2_error forms its cell means with linalg.matvec: bit for bit the
        # products with @ of the edge and face projectors, and so the errors
        m = request.getfixturevalue(name)
        proj = vd.build_projectors(m)
        rng = np.random.default_rng(7)
        e, b = rng.standard_normal(m.n_edges), rng.standard_normal(m.n_faces)
        assert np.array_equal(linalg.matvec(proj.edge_cell, e), proj.edge_cell @ e)
        assert np.array_equal(linalg.matvec(proj.face_cell, b), proj.face_cell @ b)
        got = cases.l2_error(m, proj, e, b, c2, 0.3)
        monkeypatch.setattr(linalg, "matvec", lambda a, x: a @ x)
        want = cases.l2_error(m, proj, e, b, c2, 0.3)
        assert (got.err_E, got.err_B) == (want.err_E, want.err_B)


class TestChunkedMatchesLoops:
    """``interpolate_face`` and ``l2_error`` agree with the per-entity
    loops to 1e-14 relative under every chunk budget."""

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("case_id", [1, 2])
    @pytest.mark.parametrize("name", SPLIT_MESHES)
    def test_interpolate_face(self, name, case_id, budget, request, monkeypatch):
        m = request.getfixturevalue(name)
        case = cases.get_case(case_id)
        monkeypatch.setattr(vg, "CHUNK_POINTS", budget)
        points = vg.face_quadrature(m, slice(None), vd.INTERP_FACE_DEGREE).points
        for field in (lambda p: case.E(p, 0.7), lambda p: case.B(p, 0.7)):
            want = loop_interpolate_face(m, field)
            got = vd.interpolate_face(m, field)
            # relative to the field: on some fixtures every flux vanishes
            assert np.abs(got - want).max() <= 1e-14 * np.abs(field(points)).max()

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("case_id", [1, 2])
    @pytest.mark.parametrize("name", SPLIT_MESHES + ["agglo4"])
    def test_l2_error(self, name, case_id, budget, request, monkeypatch):
        m = request.getfixturevalue(name)
        case = cases.get_case(case_id)
        proj = vd.build_projectors(m)
        rng = np.random.default_rng(case_id)
        e, b = rng.standard_normal(m.n_edges), rng.standard_normal(m.n_faces)
        monkeypatch.setattr(vg, "CHUNK_POINTS", budget)
        rep = cases.l2_error(m, proj, e, b, case, 0.7)
        want_e, want_b = loop_l2_error(m, proj, e, b, case, 0.7)
        assert rep.err_E == pytest.approx(want_e, rel=1e-14)
        assert rep.err_B == pytest.approx(want_b, rel=1e-14)


class TestL2ErrorBudget:
    """``l2_error`` gives the same norms to 1e-14 relative whatever the
    chunk budget, so slicing the box cells only reorders the sum."""

    @pytest.mark.parametrize("case_id", [1, 2])
    @pytest.mark.parametrize("name", ["cube8", "agglo4"])
    def test_norms_independent_of_budget(self, name, case_id, request, monkeypatch):
        m = request.getfixturevalue(name)
        case = cases.get_case(case_id)
        proj = vd.build_projectors(m)
        rng = np.random.default_rng(case_id)
        e, b = rng.standard_normal(m.n_edges), rng.standard_normal(m.n_faces)
        reports = []
        for budget in BUDGETS:
            monkeypatch.setattr(vg, "CHUNK_POINTS", budget)
            reports.append(cases.l2_error(m, proj, e, b, case, 0.7))
        for rep in reports[1:]:
            assert rep.err_E == pytest.approx(reports[0].err_E, rel=1e-14, abs=0)
            assert rep.err_B == pytest.approx(reports[0].err_B, rel=1e-14, abs=0)


class TestPointLayout:
    @pytest.mark.parametrize("case_id", [1, 2])
    def test_values_independent_of_layout(self, case_id):
        case = cases.get_case(case_id)
        pts = np.random.default_rng(3).random((400, 3))
        planar = np.ascontiguousarray(pts.T).T
        fields = [lambda p, f=f: getattr(case, f)(p, 0.6) for f in ("E", "B")]
        fields += [g for _, g in case.J_terms] + [case.eps, case.sigma, case.mu]
        for field in fields:
            assert np.array_equal(field(pts), field(planar))
        for field in (case.E, case.B):
            assert field(planar, 0.6).T.flags.c_contiguous   # one plane per component


class TestChunkBudget:
    """No array a walk forms holds more values than the chunk budget or,
    where one entity takes more, that entity's values; every point is seen
    once.  A box slice's fields take fewer values than its tensor points
    where they depend on fewer than three coordinates."""

    @staticmethod
    def recording(case):
        sizes = []

        def record(field):
            def evaluate(pts, t=0.0):
                sizes.append(pts.shape[0])
                return field(pts, t)
            return evaluate

        def record_parts(x, y, z):
            sizes.append(np.broadcast(x, y, z).size)     # a box chunk's tensor points
            return case.EB_parts(x, y, z)

        return dataclasses.replace(case, E=record(case.E), B=record(case.B),
                                   EB_parts=record_parts), sizes

    @staticmethod
    def l2_error_arrays(m, case, budget, monkeypatch):
        """Sizes of the component arrays ``l2_error`` forms on ``m`` at
        chunk budget ``budget``, and the cells of each box slice."""
        sizes, box_cells = [], []

        def component(scales, parts, i):
            value = component_of(scales, parts, i)
            if np.ndim(value):
                sizes.append(value.size)
            return value

        def parts(x, y, z):
            if np.ndim(x) == 4 and x.shape[0]:       # not the empty slice that sizes them
                box_cells.append(x.shape[0])
            return case.EB_parts(x, y, z)

        component_of = cases._component
        with monkeypatch.context() as patch:
            patch.setattr(cases, "_component", component)
            patch.setattr(vg, "CHUNK_POINTS", budget)
            cases.l2_error(m, vd.build_projectors(m), np.zeros(m.n_edges), np.zeros(m.n_faces),
                           dataclasses.replace(case, EB_parts=parts), 1.0)
        return sizes, box_cells

    @pytest.mark.parametrize("budget", [vg.CHUNK_POINTS, 5000])
    @pytest.mark.parametrize("name", ["cube4", "voro27"])
    def test_l2_error(self, name, budget, request, monkeypatch):
        # every component array holds at most the budget or, where one cell
        # takes more, that cell's values, as one-cell chunks show; every
        # point is seen once, E and B together
        m = request.getfixturevalue(name)
        per_cell = np.bincount(np.concatenate([flat_rule(m, r).owners
                                               for r in vg.cell_rules(m)]))
        for case_id in (1, 2):
            one_cell = max(self.l2_error_arrays(m, cases.get_case(case_id), 1, monkeypatch)[0])
            sizes = self.l2_error_arrays(m, cases.get_case(case_id), budget, monkeypatch)[0]
            assert max(sizes) <= max(budget, one_cell)
            case, points = self.recording(cases.get_case(case_id))
            with monkeypatch.context() as patch:
                patch.setattr(vg, "CHUNK_POINTS", budget)
                cases.l2_error(m, vd.build_projectors(m), np.zeros(m.n_edges),
                               np.zeros(m.n_faces), case, 1.0)
            assert sum(points) == per_cell.sum()

    @pytest.mark.parametrize("budget", [1, vg.CHUNK_POINTS, 10**9])
    @pytest.mark.parametrize("name", ["cube4", "cube8", "agglo4"])
    def test_l2_error_box_slices(self, name, budget, request, monkeypatch):
        # the box cells' slices keep every component array within the
        # budget or one cell's values, and cover each box cell once
        m = request.getfixturevalue(name)
        boxes = vg.box_cells(m)[0]
        for case_id in (1, 2):
            case = cases.get_case(case_id)
            one_cell = max(self.l2_error_arrays(m, case, 1, monkeypatch)[0])
            sizes, box_cells = self.l2_error_arrays(m, case, budget, monkeypatch)
            assert max(sizes) <= max(budget, one_cell)
            assert sum(box_cells) == boxes.sum()
            assert budget > 1 or set(box_cells) == {1}      # one_cell is one cell's

    def test_case1_box_slices_keep_their_size(self, c1, cube8, monkeypatch):
        # case 1 takes all 216 tensor points per cell, so every box slice
        # but the last holds 8192 // 216 = 37 cells
        box_cells = self.l2_error_arrays(cube8, c1, vg.CHUNK_POINTS, monkeypatch)[1]
        assert box_cells == [37] * 13 + [512 - 13 * 37]

    def test_l2_error_on_box_rule(self, cube8):
        # every cube:8 cell is a box: 216 points each, not 24 x 150
        m = cube8
        case, sizes = self.recording(cases.case2())
        cases.l2_error(m, vd.build_projectors(m), np.zeros(m.n_edges),
                       np.zeros(m.n_faces), case, 1.0)
        assert sum(sizes) == 512 * 216

    @pytest.mark.parametrize("budget", [vg.CHUNK_POINTS, 500])
    @pytest.mark.parametrize("name", ["cube4", "voro27"])
    def test_interpolate_face(self, name, budget, request, monkeypatch):
        m = request.getfixturevalue(name)
        monkeypatch.setattr(vg, "CHUNK_POINTS", budget)
        case, sizes = self.recording(cases.case2())
        vd.interpolate_face(m, lambda p: case.B(p, 0.5))
        per_face = [vg.face_quadrature(m, f, vd.INTERP_FACE_DEGREE).weights.size
                    for f in range(m.n_faces)]
        assert max(sizes) <= max(budget, max(per_face))
        assert sum(sizes) == sum(per_face)


def fused_field(case, which, rule, t):
    """Field ``which`` (0: E, 1: B) at the rule's points from
    ``case.EB_parts`` and ``case.EB_factors``, summed term by term in the
    order ``ManufacturedCase`` documents."""
    parts = case.EB_parts(*rule.coords)[which]
    out = np.empty(rule.points.shape)
    for i in range(3):
        terms = [float(a(t)) * g[i] for a, g in zip(case.EB_factors[which], parts)]
        out[:, i] = sum(terms[1:], terms[0])
    return out


class TestFusedFields:
    """``EB_parts`` is the one evaluation of E and B: ``l2_error`` makes it
    once per chunk, ``case.E`` and ``case.B`` once per call."""

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("case_id", [1, 2])
    @pytest.mark.parametrize("name", ["cube2", "voro8"])
    def test_bit_identical_to_fields(self, name, case_id, t, request):
        # E and B are the documented sum of the fused parts, bit for bit, so
        # the fields a run interpolates are the ones l2_error integrates
        m = request.getfixturevalue(name)
        case = cases.get_case(case_id)
        for rule in (flat_rule(m, r) for r in vg.cell_rules(m)):
            assert np.array_equal(fused_field(case, 0, rule, t), case.E(rule.points, t))
            assert np.array_equal(fused_field(case, 1, rule, t), case.B(rule.points, t))

    @pytest.mark.parametrize("case_id, fused", [(1, 6), (2, 4)])
    def test_each_trig_call_once(self, case_id, fused, trig_calls):
        case = cases.get_case(case_id)
        pts = np.random.default_rng(8).random((50, 3))
        case.EB_parts(*pts.T)
        assert len(trig_calls) == fused
        for field in (case.E, case.B):
            trig_calls.clear()
            field(pts, 0.5)
            assert len(trig_calls) == fused

    def test_current_parts_share_the_six_calls(self, monkeypatch):
        # each case-1 J part calls sin and cos of pi x, pi y and pi z only,
        # each at most once: a derivative of sin^2 printed as cos(2 pi x)
        # would be a call outside them
        pts = np.random.default_rng(8).random((3, 50))
        calls = []
        for name in ("sin", "cos"):
            monkeypatch.setattr(_case_fields, name, lambda arg, name=name, fn=getattr(np, name):
                                calls.append((name, arg)) or fn(arg))
        for _, parts in _case_fields.CASE1["J"]:
            for _, _, g in parts:
                calls.clear()
                g(*pts)
                shared = [(name, i) for name, arg in calls
                          for i in range(3) if np.array_equal(arg, np.pi * pts[i])]
                assert len(shared) == len(calls) == len(set(shared)) <= 6, g.__name__

    @pytest.mark.parametrize("t", [0.0, np.zeros(50)], ids=["scalar-t", "array-t"])
    @pytest.mark.parametrize("case_id, which", [(1, "E"), (1, "B"), (2, "B")])
    def test_vanishing_field_is_not_evaluated(self, case_id, which, t, trig_calls):
        # every time factor is 0 at t: the field costs no sin/cos call
        # beyond its factors' own and is zeros laid out like the points
        case = cases.get_case(case_id)
        pts = np.ascontiguousarray(np.random.default_rng(10).random((3, 50))).T
        for a in case.EB_factors["EB".index(which)]:
            a(t)
        factor_calls = len(trig_calls)
        trig_calls.clear()
        value = getattr(case, which)(pts, t)
        assert len(trig_calls) == factor_calls
        assert np.array_equal(value, np.zeros((50, 3)))
        assert value.T.flags.c_contiguous

    def test_zero_components_are_numbers(self):
        e_parts, b_parts = cases.case2().EB_parts(*np.random.default_rng(9).random((3, 20)))
        assert [np.ndim(c) for c in e_parts[0]] == [0, 0, 1]
        assert [np.ndim(c) for c in b_parts[0]] == [1, 1, 0]
        assert e_parts[0][0] == 0 and b_parts[0][2] == 0


class TestEvaluationMemory:
    """Peak memory of one ``case.EB_parts`` call on a chunk of
    ``CHUNK_POINTS`` points, as tracemalloc sees numpy's buffers, in arrays
    of the chunk's size (Python's own objects add well under half of one).

    Bound: no more than the expanded fields that the one-dimensional
    factors replaced, whose peak is their 9 returned parts, 6 sin/cos
    locals and 3 products in flight, 18 arrays for case 1; a factoring that
    keeps every factor for the whole call held 33.  Case 2 is generated as
    before, at most its 7: 3 returned parts (a zero component is the
    number 0) and 4 sin/cos locals.
    """

    @pytest.mark.parametrize("case_id, bound", [(1, 18), (2, 7)])
    def test_peak_of_one_chunk(self, case_id, bound):
        case = cases.get_case(case_id)
        coords = np.ascontiguousarray(np.random.default_rng(11).random((3, vg.CHUNK_POINTS)))
        case.EB_parts(*coords)
        tracemalloc.start()
        try:
            case.EB_parts(*coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (bound + 0.5) * coords[0].nbytes


X, Y, Z, T = sp.symbols("x y z t", real=True)


def sym_curl(v):
    return sp.Matrix([sp.diff(v[2], Y) - sp.diff(v[1], Z),
                      sp.diff(v[0], Z) - sp.diff(v[2], X),
                      sp.diff(v[1], X) - sp.diff(v[0], Y)])


def full_fields(case_id):
    """(E, B, eps, sigma, mu) of a case as full (x, y, z, t) expressions,
    written out independently of the term lists in ``case_source``."""
    pi = sp.pi
    if case_id == 1:
        phi = sp.Matrix([
            sp.sin(pi * X) ** 2 * Y**2 * (1 - Y) ** 2 * Z**2 * (1 - Z) ** 2,
            X**2 * (1 - X) ** 2 * sp.sin(pi * Y) ** 2 * Z**2 * (1 - Z) ** 2,
            X**2 * (1 - X) ** 2 * Y**2 * (1 - Y) ** 2 * sp.sin(pi * Z) ** 2,
        ])
        s = sp.sin(pi * X) * sp.sin(pi * Y) * sp.sin(pi * Z)
        psi = sp.Matrix([s.diff(X), s.diff(Y), s.diff(Z)])
        e = T * sym_curl(phi) + T**2 * psi
        b = -(T**2 / 2) * sym_curl(sym_curl(phi))
        eps = sigma = mu = sp.Integer(1)
    else:
        omega = sp.Rational(11, 5) * pi
        e = sp.Matrix([0, 0, sp.sin(pi * X) * sp.sin(pi * Y)]) * sp.cos(omega * T)
        b = sp.Matrix([-sp.cos(pi * Y) * sp.sin(pi * X),
                       sp.cos(pi * X) * sp.sin(pi * Y), 0]) \
            * sp.sin(omega * T) / sp.Rational(11, 5)
        mu = 1 / (1 + X**2 + Y**2 + Z**2)
        eps = 2 - X**2 - Z
        sigma = 2 - Y**2 + Z
    return e, b, eps, sigma, mu


def lambdified(vector):
    """A 3-vector expression in (x, y, z, t) as a (pts, t) -> (..., 3) field."""
    fns = [sp.lambdify((X, Y, Z, T), c, "numpy") for c in vector]

    def field(pts, t):
        pts = np.asarray(pts, dtype=float)
        xs, ys, zs = pts[..., 0], pts[..., 1], pts[..., 2]
        return np.stack([np.broadcast_to(fn(xs, ys, zs, t), xs.shape)
                         for fn in fns], axis=-1)

    return field


def full_current(case_id):
    """J = eps E_t + sigma E - curl(B / mu) derived from the full
    expressions of the case's fields and lambdified as one callable:
    the oracle for the term-by-term derivation in ``case_source``."""
    e, b, eps, sigma, mu = full_fields(case_id)
    return lambdified(eps * e.diff(T) + sigma * e - sym_curl(b / mu))


def assert_close(got, want, rtol=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestExactFields:
    """``case.E``/``case.B`` against E and B lambdified from their full
    expressions, to 1e-13 relative: an oracle that shares neither the
    generated source nor the fused sum."""

    @pytest.mark.parametrize("case_id", [1, 2])
    def test_match_lambdified_expressions(self, case_id):
        case = cases.get_case(case_id)
        e, b, *_ = full_fields(case_id)
        rng = np.random.default_rng(10)
        pts = rng.random((500, 3))
        for got, want in ((case.E, lambdified(e)), (case.B, lambdified(b))):
            for t in (0.37, 1.0, rng.random(500)):
                assert_close(got(pts, t), want(pts, t))


class TestCurrentTerms:
    @pytest.fixture(scope="class", params=[(1, 3), (2, 2)], ids=["case1", "case2"])
    def case_and_oracle(self, request):
        case_id, n_terms = request.param
        case = cases.get_case(case_id)
        assert len(case.J_terms) == n_terms      # one term per time factor
        return case, full_current(case_id)

    def test_pointwise_scalar_and_array_time(self, case_and_oracle):
        case, current = case_and_oracle
        rng = np.random.default_rng(7)
        pts = rng.random((500, 3))
        for t in (0.0, 0.37, 1.0):
            got = sum(a(t) * g(pts) for a, g in case.J_terms)
            assert_close(got, current(pts, t))
        ts = rng.random(500)
        got = sum(a(ts)[:, None] * g(pts) for a, g in case.J_terms)
        assert_close(got, current(pts, ts))

    def test_edge_interpolant_of_terms(self, case_and_oracle, cube4, voro27):
        case, current = case_and_oracle
        for mesh in (cube4, voro27):
            parts = [(a, vd.interpolate_edge(mesh, g)) for a, g in case.J_terms]
            for t in (0.37, 1.0):
                want = vd.interpolate_edge(mesh, lambda p: current(p, t))
                assert_close(sum(a(t) * j for a, j in parts), want)


class TestGeneratedSource:
    def test_module_matches_derivation(self):
        assert case_source.stale_line() is None

    def test_check_names_first_stale_line(self, tmp_path, monkeypatch, capsys):
        rendered = case_source.render()
        monkeypatch.setattr(case_source, "render", lambda: rendered)
        target = tmp_path / "_case_fields.py"
        monkeypatch.setattr(case_source, "TARGET", target)
        lines = rendered.splitlines(keepends=True)
        n = next(i for i, line in enumerate(lines) if line.startswith("def case2_EB"))
        lines[n] = lines[n].replace("EB", "BE")
        target.write_text("".join(lines), encoding="utf-8")
        assert case_source.main(["--check"]) == 1
        assert f"_case_fields.py:{n + 1}: has b'def case2_BE" in capsys.readouterr().err
        target.write_text("".join(lines[:n]), encoding="utf-8")     # cut short
        assert case_source.main(["--check"]) == 1
        assert f":{n + 1}: has the end of the file" in capsys.readouterr().err
        assert case_source.main([]) == 0                            # rewrites it
        assert target.read_bytes() == rendered.encode()
        assert case_source.main(["--check"]) == 0

    def test_check_command(self):
        proc = subprocess.run([sys.executable, case_source.__file__, "--check"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_run_imports_no_sympy(self, tmp_path):
        script = (
            "import sys\n"
            "import vemaxwell.cli\n"
            "for case in ('1', '2'):\n"
            "    rc = vemaxwell.cli.main(['--generate', 'cube:2', '--case', case,\n"
            "                             '--tau', '1/2', '--out', case + '.csv'])\n"
            "    assert rc == 0, rc\n"
            "print('sympy' in sys.modules)\n"
        )
        src = pathlib.Path(vemaxwell.__file__).parents[1]
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
        assert (tmp_path / "1.csv").is_file() and (tmp_path / "2.csv").is_file()
