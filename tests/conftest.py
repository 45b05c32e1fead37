import dataclasses
import json
import pathlib
import sys
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sps

from vemaxwell import _case_fields, derham, forms, generate_cube_mesh, geometry, load_mesh
from vemaxwell.mesh import derive_topology

DATA = pathlib.Path(__file__).parent / "data"

# Fixtures on which flat-array code is checked against per-entity loops.
SPLIT_MESHES = ["cube4", "lcell", "two_prisms", "voro8", "voro27"]


def scipy_csr(m):
    """A ``linalg.SparseMatrix`` as a scipy CSR matrix over the same arrays,
    for the scipy algebra of the tests (``toarray``, ``abs``, ``!=``)."""
    return sps.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


@pytest.fixture(scope="session")
def cube1():
    return generate_cube_mesh(1)


@pytest.fixture(scope="session")
def cube2():
    return generate_cube_mesh(2)


@pytest.fixture(scope="session")
def cube4():
    return generate_cube_mesh(4)


@pytest.fixture(scope="session")
def cube8():
    return generate_cube_mesh(8)


@pytest.fixture(scope="session")
def agglo4():
    """The benchmark's seeded agglomerated cube:4 (6/10/14-face cells)."""
    sys.path.insert(0, str(DATA.parents[1] / "perfbench"))
    import agglo
    return agglo.agglomerated_cube(4, 1)


def folded_voro8():
    """voro8's document with vertex 4 moved to x = 1e20: its cells fold over
    their neighbours, yet every check but shape regularity passes and the
    cell volumes sum to 1.2e19."""
    doc = json.loads((DATA / "voro8.json").read_text())
    doc["vertices"][4][0] = 1e20
    return doc


@pytest.fixture(scope="session")
def voro8():
    return load_mesh(DATA / "voro8.json")


@pytest.fixture(scope="session")
def voro27():
    return load_mesh(DATA / "voro27.json")


def build_two_prisms():
    """Unit cube split by the diagonal plane x = y into two prisms."""
    verts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
             (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
    faces = [
        [0, 1, 2],          # bottom of prism A (normal +z)
        [4, 5, 6],          # top of prism A
        [0, 1, 5, 4],       # y = 0
        [1, 2, 6, 5],       # x = 1
        [0, 2, 6, 4],       # diagonal, normal (1, -1, 0): outward for B
        [0, 2, 3],          # bottom of prism B
        [4, 6, 7],          # top of prism B
        [2, 3, 7, 6],       # y = 1
        [3, 0, 4, 7],       # x = 0
    ]
    cells = [[-1, 2, 3, 4, -5], [-6, 7, 8, 9, 5]]
    return derive_topology(verts, faces, cells, name="two_prisms")


def build_lcell():
    """Right prism of height 1 over an L-shaped (nonconvex) hexagon."""
    poly = [(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)]
    verts = [(x, y, 0.0) for x, y in poly] + [(x, y, 1.0) for x, y in poly]
    bottom = list(range(6))              # CCW from +z, so stored normal is +z
    top = list(range(6, 12))
    faces = [bottom, top]
    cell = [-1, 2]
    for i in range(6):
        j = (i + 1) % 6
        faces.append([i, j, 6 + j, 6 + i])   # outward normal by construction
        cell.append(len(faces))
    return derive_topology(verts, faces, [cell], name="lcell")


@pytest.fixture(scope="session")
def two_prisms():
    return build_two_prisms()


@pytest.fixture(scope="session")
def lcell():
    return build_lcell()


@pytest.fixture
def trig_calls(monkeypatch):
    """(name, size) of each sin/cos/tan call that the generated case
    fields make over arrays; a time factor at a scalar t is not counted."""
    calls = []

    def counting(name):
        fn = getattr(np, name)

        def call(arg):
            if np.size(arg) > 1:
                calls.append((name, np.size(arg)))
            return fn(arg)
        return call

    for name in ("sin", "cos", "tan"):
        monkeypatch.setattr(_case_fields, name, counting(name))
    return calls


@pytest.fixture
def face_quadrature_calls(monkeypatch):
    """Point counts of the rules that ``geometry.face_quadrature`` returns,
    one per call."""
    sizes = []
    original = geometry.face_quadrature

    def counting(*args, **kwargs):
        rule = original(*args, **kwargs)
        sizes.append(rule.weights.size)
        return rule

    monkeypatch.setattr(geometry, "face_quadrature", counting)
    return sizes


def box_tensor_rule():
    """The ``BOX_POINTS``-point Gauss rule on the unit cube as (216, 3)
    points and weights, point i 36 + j 6 + k at nodes (i, j, k)."""
    g, w = geometry._gauss01(geometry.BOX_POINTS)
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    return pts, np.einsum("i,j,k->ijk", w, w, w).ravel()


def face_diameters(mesh):
    """Largest distance between two vertices of each face, face by face."""
    return np.array([np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1)).max()
                     for pts in (mesh.vertices[loop] for loop in mesh.faces)])


def flat_rule(mesh, rule):
    """A ``cell_rules`` rule as points, weights and owners: a pyramid-rule
    chunk as it is, a box chunk as the 216-point tensor rule it factors,
    mapped as the pyramid rule is, with apex ``lo`` and legs
    ``diag(hi - lo)``."""
    if isinstance(rule, geometry.QuadratureRule):
        return rule
    _, lo, hi = geometry.box_cells(mesh)
    cells = rule.entities
    extent = hi[cells] - lo[cells]
    return geometry._mapped_rule(cells, lo[cells],
                                 extent[:, :, None] * np.eye(3), np.prod(extent, axis=1),
                                 *box_tensor_rule())


def free_evolution(base, e0, b0, **fields):
    """``base`` with no current and the fields ``e0(p)`` and ``b0(p)`` at
    every time.  Each field's one time factor is 1, so neither vanishes at
    t = 0 and ``init_state`` interpolates both."""
    def one(t):
        return 1.0 + np.zeros(np.shape(t))

    return dataclasses.replace(base, E=lambda p, t: e0(p), B=lambda p, t: b0(p),
                               EB_factors=((one,), (one,)), J_terms=(), **fields)


@pytest.fixture(scope="session")
def cube4_proj(cube4):
    return derham.build_projectors(cube4)


def weighted_product(mesh, proj, cell_weights, kind, stab=forms.StabWeights()):
    """The edge or face product over all DOFs, boundary ones included,
    weighted by ``cell_weights``, as a scipy CSR matrix."""
    local = forms.local_edge_mass if kind == "edge" else forms.local_face_mass
    factors = local(mesh, proj, stab)
    return scipy_csr(forms.assemble_global(factors.f, factors.weighted(cell_weights)))


def cell_edges(mesh, k):
    """Sorted unique edge ids of cell k, read off its faces' loops."""
    return np.unique(np.concatenate([mesh.face_edges[f] for f in mesh.cell_faces[k]]))


def block_rows(proj_map, i, cols):
    """Entity i's projector as a dense (3, len(cols)) matrix: rows
    3i..3i+2 of a global projector map, restricted to ``cols``."""
    return scipy_csr(proj_map)[3 * i:3 * i + 3][:, cols].toarray()


class Blocks(NamedTuple):
    c_int: object       # interior face x interior edge
    m_eps: object       # interior edge x interior edge
    m_face: object      # interior face x interior face
    d_int: object       # cell x interior face


def blocks(ops):
    """The blocks C_int, M_eps, M_f and D_int of the step operators, sliced
    from their stacked ``curl_mass`` = [C_int; M_eps] and
    ``face_mass_div`` = [M_f; D_int], as scipy CSR matrices."""
    nf = ops.interior_faces.size
    curl_mass, face_mass_div = scipy_csr(ops.curl_mass), scipy_csr(ops.face_mass_div)
    return Blocks(curl_mass[:nf], curl_mass[nf:], face_mass_div[:nf], face_mass_div[nf:])


def expand(v, ids, n):
    """The length-``n`` vector holding ``v`` at ``ids`` and zeros elsewhere:
    a run's interior DOF vector with its eliminated boundary DOFs put back."""
    full = np.zeros(n)
    full[ids] = v
    return full


def constant_edge_dofs(mesh, c):
    """Edge DOFs of the constant vector field c."""
    return mesh.edge_tangents @ np.asarray(c, dtype=float)


def constant_face_dofs(mesh, c):
    """Face DOFs of the constant vector field c."""
    return mesh.face_normals @ np.asarray(c, dtype=float)


def strong_form_residual(case, n_samples=1000, step=1e-5, seed=0):
    """Max residual of both strong equations at random samples of the unit
    cube and of t in [0, 1].

    Curls and time derivatives are recomputed by central differences, so
    this checks the derivation of J and the sign conventions of the field
    pair rather than restating them.
    """
    rng = np.random.default_rng(seed)
    pts = rng.random((n_samples, 3))
    ts = rng.random(n_samples)

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
    current = sum(a(ts)[:, None] * g(pts) for a, g in case.J_terms)

    ampere = (eps * fd_time(case.E) + sigma * case.E(pts, ts)
              - fd_curl(mu_inv_b) - current)
    faraday = fd_time(case.B) + fd_curl(case.E)
    return float(max(np.abs(ampere).max(), np.abs(faraday).max()))
