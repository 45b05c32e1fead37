"""The benchmark's workloads, their reference errors and their metrics.

Every workload is one ``vemaxwell`` single run with ``T = 1`` and the
default ``eta``/``tol``.  Why each one exists is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    cube: int                  # hexes per axis
    case: int
    tau: str                   # rational, as the CLI takes it
    # err_E / err_B of the default-seed inputs; hex inputs ignore the seed.
    ref_err_E: float
    ref_err_B: float
    # Size of the inputs, the same on every seed: the gate fails a run
    # whose mesh or DOF counts differ, so no change can shrink the work.
    cells: int
    faces: int
    edges: int
    n_edge_dofs: int
    n_face_dofs: int
    agglomerate: bool = False  # merge hexes from the seed (agglo.py)

    @property
    def steps(self) -> int:
        return int(1 / Fraction(self.tau))

    @property
    def face_histogram(self) -> dict[int, int]:
        """Cells per face count of the agglomerated mesh (agglo.py)."""
        blocks = (self.cube // 2) ** 3
        return {6: blocks, 10: 2 * blocks, 14: blocks}


WORKLOADS = {w.name: w for w in (
    Workload("hex-coarse-dt", cube=8, case=2, tau="1/32",
             ref_err_E=1.718695461059903e-01, ref_err_B=5.512977007809212e-02,
             cells=512, faces=1728, edges=1944, n_edge_dofs=1176, n_face_dofs=1344),
    Workload("hex-fine-dt", cube=6, case=2, tau="1/512",
             ref_err_E=1.128763138300952e-01, ref_err_B=6.330440635843439e-02,
             cells=216, faces=756, edges=882, n_edge_dofs=450, n_face_dofs=540),
    Workload("agglo-case1", cube=4, case=1, tau="1/16",
             ref_err_E=1.029679572700538e+00, ref_err_B=3.076781371535657e-02,
             cells=32, faces=208, edges=300, n_edge_dofs=108, n_face_dofs=112,
             agglomerate=True),
)}

# End-to-end metrics of an untraced run (all lower-is-better).
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "step_ms": "ms",
    "error_s": "s",
    "peak_rss_mb": "MB",
}
