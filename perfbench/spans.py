"""In-memory spans and the hooks that record them around vemaxwell calls.

Hooks are installed from outside the package: every public function in
``TARGETS`` is replaced, in every ``vemaxwell`` module that holds a
reference to it, by a wrapper that records a span (name, start, end,
parent).  Replacing each reference rather than the defining attribute
is what makes calls through ``from .x import f`` bindings visible.

This module must not import numpy or vemaxwell at import time: the
single-run process takes its start timestamp before either is loaded.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Span name -> public functions whose calls it times.  A target missing
# from the installed package is reported, never fatal.
TARGETS = {
    "mesh.build": ("mesh.generate_cube_mesh", "mesh.load_mesh"),
    "mesh.topology": ("mesh.derive_topology",),
    "geometry.cell_quadrature": ("geometry.cell_quadrature",),
    "geometry.face_quadrature": ("geometry.face_quadrature",),
    "derham.projectors": ("derham.build_projectors",),
    "derham.incidence": ("derham.build_incidence",),
    "derham.interp_face": ("derham.interpolate_face",),
    "derham.interp_edge": ("derham.interpolate_edge",),
    "forms.assemble": ("forms.assemble_global",),
    "forms.local_mass": ("forms.local_edge_mass", "forms.local_face_mass"),
    "linalg.cg": ("linalg.cg_solve",),
    "stepper.operators": ("stepper.build_step_operators",),
    "stepper.init": ("stepper.init_state",),
    "stepper.advance": ("stepper.advance",),
    "stepper.divergence_norm": ("stepper.divergence_norm",),
    "stepper.run": ("stepper.run",),
    "cases.case_build": ("cases.get_case",),
    "cases.l2_error": ("cases.l2_error",),
    "cli.run_single": ("cli.run_single",),
}

# Spans whose callees are traced too; their self time is reported.
NESTED = ("mesh.build", "derham.interp_face", "derham.interp_edge",
          "forms.assemble", "stepper.operators", "stepper.init",
          "stepper.advance", "cases.l2_error", "cli.run_single")

# Spans whose number of calls is reported.
CALLS = ("geometry.cell_quadrature", "geometry.face_quadrature",
         "derham.interp_edge", "forms.assemble", "forms.local_mass", "linalg.cg")

# Fields of the case returned by ``get_case`` whose evaluations are timed
# as span ``FIELD_SPAN``.
CASE_FIELDS = ("E", "B", "J")
FIELD_SPAN = "cases.field_eval"


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1          # index into Recorder.spans, -1 for none
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one run, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` timed as span ``name``; ``count(span, args, result)``
        may attach counts to the span."""
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                count(self.spans[index], args, result)
            return result
        return traced


def package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "vemaxwell" or name.startswith("vemaxwell."))]


def replace_references(original, replacement) -> int:
    """Rebind every vemaxwell module attribute that is ``original``."""
    n = 0
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                n += 1
    return n


def resolve(target: str):
    """``"stepper.advance"`` -> the function object, or None if absent."""
    module_name, attr = target.rsplit(".", 1)
    module = sys.modules.get(f"vemaxwell.{module_name}")
    return getattr(module, attr, None) if module is not None else None


# --- counts attached to spans ---------------------------------------------

def _count_mesh(span, args, mesh):
    span.counts.update(cells=mesh.n_cells, faces=mesh.n_faces, edges=mesh.n_edges)


def _count_qpoints(span, args, rule):
    span.counts["qpoints"] = int(rule.weights.size)


def _matrix_shape(a):
    """(n, nnz, index bytes, pointer bytes) of a SparseMatrix or scipy CSR."""
    if hasattr(a, "nnz"):
        return a.shape[0], int(a.nnz), a.indices.itemsize, a.indptr.itemsize
    return int(a.n), int(a.data.size), a.indices.itemsize, a.indptr.itemsize


# Vector reads and writes of one Jacobi-CG iteration besides the product:
# p.Ap (2), x += a p (3), r -= a Ap (3), |r| (1), z = r / d (3), r.z (2),
# p = z + b p (3).
CG_VECTOR_PASSES = 17


def cg_bytes_per_iteration(n: int, nnz: int, index_bytes: int, ptr_bytes: int) -> int:
    """Computed (not measured) bytes one CG iteration moves: the CSR
    product reads values, column indices, row pointers and x, writes y,
    plus the float64 vector passes above.  Cache misses are ignored."""
    spmv = nnz * (8 + index_bytes) + (n + 1) * ptr_bytes + 2 * 8 * n
    return spmv + CG_VECTOR_PASSES * 8 * n


def _count_cg(span, args, result):
    iters = int(result[1].iterations)
    span.counts.update(iters=iters,
                       bytes=iters * cg_bytes_per_iteration(*_matrix_shape(args[0])))


COUNTERS = {"mesh.build": _count_mesh, "geometry.cell_quadrature": _count_qpoints,
            "linalg.cg": _count_cg}


def _field_wrapper(recorder: Recorder, fn):
    def evaluate(pts, *args, **kwargs):
        index = recorder.begin(FIELD_SPAN)
        try:
            return fn(pts, *args, **kwargs)
        finally:
            recorder.end(index)
            recorder.spans[index].counts["points"] = math.prod(pts.shape[:-1])
    return evaluate


def install(recorder: Recorder) -> list[str]:
    """Wrap every target; return the targets that no longer exist."""
    missing = []
    for name, targets in TARGETS.items():
        for target in targets:
            fn = resolve(target)
            if fn is None:
                missing.append(target)
                continue
            wrapped = recorder.wrap(name, fn, COUNTERS.get(name))
            if name == "cases.case_build":
                wrapped = _wrap_case_fields(recorder, wrapped)
            replace_references(fn, wrapped)
    return missing


def _wrap_case_fields(recorder: Recorder, get_case):
    def traced_get_case(*args, **kwargs):
        case = get_case(*args, **kwargs)
        if not dataclasses.is_dataclass(case):
            return case
        fields = {f: _field_wrapper(recorder, getattr(case, f))
                  for f in CASE_FIELDS if hasattr(case, f)}
        return dataclasses.replace(case, **fields)
    return traced_get_case


# --- untraced phase boundaries --------------------------------------------

class PhaseClock:
    """The only timestamps an untraced run takes: entry of the first
    ``stepper.advance``, return of ``stepper.run`` and entry and return of
    ``cases.l2_error``.  The advance hook removes itself after one call."""

    def __init__(self):
        self.first_step = None
        self.run_end = None
        self.error_start = None
        self.error_end = None

    def install(self) -> list[str]:
        """Hook each phase boundary; return the targets that no longer exist."""
        hooks = {"stepper.advance": self._first_advance, "stepper.run": self._timed_run,
                 "cases.l2_error": self._timed_error}
        missing = []
        for target, hook in hooks.items():
            fn = resolve(target)
            if fn is None:
                missing.append(target)
            else:
                replace_references(fn, hook(fn))
        return missing

    def _first_advance(self, advance):
        def first_advance(*args, **kwargs):
            self.first_step = time.perf_counter()
            replace_references(first_advance, advance)
            return advance(*args, **kwargs)
        return first_advance

    def _timed_run(self, run):
        def timed_run(*args, **kwargs):
            try:
                return run(*args, **kwargs)
            finally:
                self.run_end = time.perf_counter()
        return timed_run

    def _timed_error(self, l2_error):
        def timed_error(*args, **kwargs):
            self.error_start = time.perf_counter()
            try:
                return l2_error(*args, **kwargs)
            finally:
                self.error_end = time.perf_counter()
        return timed_error


# --- arithmetic over finished spans ---------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another in a single thread, so
    their durations do not overlap and simple subtraction is exact.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def loop_self_time(spans, run_name="stepper.run", before_loop="stepper.init"):
    """Time-stepping loop time that no child span covers, or None.

    The loop runs from the return of the last ``before_loop`` child of the
    (last) ``run_name`` span to that span's end; every direct child that
    starts in it (load interpolation, solve, monitors) is subtracted.
    """
    runs = [i for i, s in enumerate(spans) if s.name == run_name]
    if not runs:
        return None
    children = [s for s in spans if s.parent == runs[-1]]
    init_ends = [s.end for s in children if s.name == before_loop]
    if not init_ends:
        return None
    loop_start = max(init_ends)
    covered = sum(s.duration for s in children if s.start >= loop_start)
    return (spans[runs[-1]].end - loop_start) - covered


def to_rows(spans) -> list[list]:
    return [[s.name, s.start, s.end, s.parent, s.counts] for s in spans]


def from_rows(rows) -> list[Span]:
    return [Span(name, start, end, parent, dict(counts))
            for name, start, end, parent, counts in rows]


def layer_metrics(spans, import_s: float, missing=()) -> dict[str, float]:
    """Per-layer metrics of one traced run; metrics of spans whose every
    target is missing are left out."""
    absent = {name for name, targets in TARGETS.items()
              if all(t in missing for t in targets)}
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    counts = defaultdict(list)
    for s, self_s in zip(spans, self_times(spans)):
        total[s.name] += s.duration
        own[s.name] += self_s
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[s.name, key].append(value)

    m = {"cli.import_s": import_s}
    for name in TARGETS:
        if name in absent:
            continue
        m[f"{name}_s"] = total[name]
        if name in NESTED:
            m[f"{name}_self_s"] = own[name]
        if name in CALLS:
            m[f"{name}_calls"] = calls[name]
    if "geometry.cell_quadrature" not in absent:
        m["geometry.cell_qpoints"] = sum(counts["geometry.cell_quadrature", "qpoints"])
    if "linalg.cg" not in absent and counts["linalg.cg", "iters"]:
        iters = counts["linalg.cg", "iters"]
        m.update({"linalg.cg_iters": sum(iters), "linalg.cg_iters_min": min(iters),
                  "linalg.cg_iters_max": max(iters),
                  "linalg.cg_bytes_computed": sum(counts["linalg.cg", "bytes"])})
    if (loop := loop_self_time(spans)) is not None:
        m["stepper.step_self_s"] = loop
    if "cases.case_build" not in absent:
        m["cases.field_eval_s"] = total[FIELD_SPAN]
        m["cases.field_points"] = sum(counts[FIELD_SPAN, "points"])
    return m


def mesh_size(spans) -> dict[str, int]:
    """Cells, faces and edges of the last mesh built; empty if none was
    traced.  These size the inputs, so the gate checks them."""
    built = [s.counts for s in spans if s.name == "mesh.build" and s.counts]
    return {k: built[-1][k] for k in ("cells", "faces", "edges")} if built else {}


def covered_s(spans, parent="cli.run_single") -> float:
    """Summed durations of the direct children of the ``parent`` spans."""
    tops = {i for i, s in enumerate(spans) if s.name == parent}
    return sum(s.duration for s in spans if s.parent in tops)
