import pathlib

import numpy as np
import pytest

from vemaxwell import derham, generate_cube_mesh, load_mesh
from vemaxwell.mesh import derive_topology

DATA = pathlib.Path(__file__).parent / "data"

# Fixtures on which flat-array code is checked against per-entity loops.
SPLIT_MESHES = ["cube4", "lcell", "two_prisms", "voro8", "voro27"]


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


@pytest.fixture(scope="session")
def cube4_proj(cube4):
    return derham.build_projectors(cube4)


def block_rows(proj_map, i, cols):
    """Entity i's projector as a dense (3, len(cols)) matrix: rows
    3i..3i+2 of a global projector map, restricted to ``cols``."""
    return proj_map[3 * i:3 * i + 3][:, cols].toarray()


def constant_edge_dofs(mesh, c):
    """Edge DOFs of the constant vector field c."""
    return mesh.edge_tangents @ np.asarray(c, dtype=float)


def constant_face_dofs(mesh, c):
    """Face DOFs of the constant vector field c."""
    return mesh.face_normals @ np.asarray(c, dtype=float)


def strong_form_residual(case, n_samples=1000, step=1e-5, seed=0):
    """Max residual of both strong equations at random space-time samples.

    Curls and time derivatives are recomputed by central differences, so
    this checks the derivation of J and the sign conventions of the field
    pair rather than restating them.
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
    current = sum(a(ts)[:, None] * g(pts) for a, g in case.J_terms)

    ampere = (eps * fd_time(case.E) + sigma * case.E(pts, ts)
              - fd_curl(mu_inv_b) - current)
    faraday = fd_time(case.B) + fd_curl(case.E)
    return float(max(np.abs(ampere).max(), np.abs(faraday).max()))
