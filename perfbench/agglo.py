"""Seeded agglomerated-cube meshes built only from vemaxwell's public API.

The hexes of ``generate_cube_mesh(n)`` are merged, in a pattern drawn
from the seed, into singles, face-adjacent pairs and nonconvex L-shaped
triples.  The faces shared inside a group are dropped; the coplanar
sub-faces on its surface stay separate faces, so cells have 6 (single),
10 (pair) or 14 (L-triple) faces.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from vemaxwell import derive_topology, generate_cube_mesh, validate_mesh

FACE_COUNTS = (6, 10, 14)


class AggloError(ValueError):
    """A generated mesh failed one of its checks."""


def _block_groups(rng) -> list[list[tuple]]:
    """Split one 2x2x2 block into an L-triple, two pairs and a single.

    Every block has the same make-up, so all seeds give the same number
    of cells of each size and only their arrangement changes.  Hexes are
    (i, j, k) offsets in {0, 1}^3.
    """
    corner = tuple(int(v) for v in rng.integers(0, 2, 3))
    axes = rng.permutation(3)[:2]

    def step(c, axis):
        return tuple(int(v ^ (a == axis)) for a, v in enumerate(c))

    triple = [corner, step(corner, axes[0]), step(corner, axes[1])]
    rest = [c for c in itertools.product((0, 1), repeat=3) if c not in triple]
    adjacent = [(a, b) for a, b in itertools.combinations(rest, 2)
                if sum(x != y for x, y in zip(a, b)) == 1]
    matchings = [(p, q) for p, q in itertools.combinations(adjacent, 2)
                 if not set(p) & set(q)]
    p, q = matchings[rng.integers(len(matchings))]
    single = [c for c in rest if c not in p + q]
    return [triple, list(p), list(q), single]


def group_hexes(n: int, seed: int) -> list[list[int]]:
    """Partition the n^3 hexes (n even) into L-triples, pairs and singles,
    one of each pattern per 2x2x2 block; hex (i, j, k) has id (i*n + j)*n + k."""
    if n < 2 or n % 2:
        raise ValueError("agglomeration needs an even n >= 2")
    rng = np.random.default_rng(seed)
    groups = []
    for bi, bj, bk in itertools.product(range(0, n, 2), repeat=3):
        for group in _block_groups(rng):
            groups.append([((bi + i) * n + bj + j) * n + bk + k for i, j, k in group])
    return groups


def agglomerated_cube(n: int, seed: int, name: str = ""):
    """PolyMesh of the unit cube with seeded agglomerated hex groups."""
    cube = generate_cube_mesh(n)
    cells = []
    used = set()
    for group in group_hexes(n, seed):
        refs = Counter()
        signs = {}
        for c in group:
            for f, s in zip(cube.cell_faces[c], cube.cell_face_signs[c]):
                refs[int(f)] += 1
                signs[int(f)] = int(s)
        outer = [f for f in sorted(refs) if refs[f] == 1]
        used.update(outer)
        cells.append((outer, signs))
    new_id = {f: i for i, f in enumerate(sorted(used))}
    faces = [cube.faces[f].tolist() for f in sorted(used)]
    signed = [[signs[f] * (new_id[f] + 1) for f in outer] for outer, signs in cells]
    return derive_topology(cube.vertices, faces, signed,
                           name=name or f"agglo{n}s{seed}")


def face_histogram(mesh) -> dict[int, int]:
    """Number of cells per face count."""
    return dict(sorted(Counter(len(f) for f in mesh.cell_faces).items()))


def check(mesh) -> dict[int, int]:
    """Validate a generated mesh; return its face-count histogram."""
    report = validate_mesh(mesh)
    if not report.ok:
        raise AggloError(f"validate_mesh failed: {report.violations[:3]}")
    volume = float(mesh.cell_volumes.sum())
    if abs(volume - 1.0) > 1e-12:
        raise AggloError(f"cell volumes sum to {volume!r}, not 1")
    hist = face_histogram(mesh)
    if sorted(hist) != list(FACE_COUNTS):
        raise AggloError(f"face counts {hist} differ from {FACE_COUNTS}")
    return hist
