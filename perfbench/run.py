"""vemaxwell benchmark: timed single runs of one workload, one at a time.

    python3 perfbench/run.py --workload hex-coarse-dt --seed 1 --seconds 40 --trace 0

Runs ``vemaxwell.cli.main`` in a fresh process per run (perfbench/child.py),
as a closed loop with one client: the next run starts when the previous
one has exited, until ``--seconds`` have passed (at least MIN_RUNS runs).
Every run is checked against the CLI's own outputs.  With ``--trace 0`` the
result holds the end-to-end metrics (see ``summarise``); with
``--trace 1`` untraced and traced runs alternate and the result holds the
per-layer metrics (medians over the traced runs) and the tracing overhead.

The last stdout line is the result object; the line before it holds the
run's environment and inputs.  Exits 1 when no run succeeded (the result
then has no metrics) and 2 without a result when the vemaxwell sources
are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import spans  # noqa: E402
from workloads import DEFAULT_SEED, END_TO_END, WORKLOADS  # noqa: E402

MIN_RUNS = 3            # untraced runs with --trace 0
MIN_PAIRS = 2           # untraced/traced pairs with --trace 1
MEDIAN_METRICS = ("setup_s", "peak_rss_mb")   # the rest are means (summarise)
TOTAL_LIMIT_S = 170.0   # every run of one invocation ends by then
ERR_RTOL = 1e-9         # err_E / err_B against the reference: round-off
DIV_B_TOL = 1e-12       # max per-step divB: round-off
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunFailure(Exception):
    """A single run exited badly or its outputs failed the gate."""


def read_csv(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class Bench:
    """One workload at one seed: prepared inputs and every run made."""

    def __init__(self, name: str, seed: int, work: Path):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.deadline = time.perf_counter() + TOTAL_LIMIT_S
        self.started = time.perf_counter()    # reset when timing starts
        self.attempted = 0
        self.failures: list[str] = []
        self.first_errors: tuple[float, float] | None = None
        # What every passing run has: the gate checks each of these.
        self.info: dict = {k: getattr(self.w, k) for k in
                           ("cells", "faces", "edges", "n_edge_dofs", "n_face_dofs", "steps")}

    # --- inputs -------------------------------------------------------------

    def prepare(self) -> list[str]:
        """Build the inputs from the seed; return the CLI argv."""
        if not self.w.agglomerate:
            source = ["--generate", f"cube:{self.w.cube}"]
        else:
            import agglo
            from vemaxwell import save_mesh
            mesh = agglo.agglomerated_cube(self.w.cube, self.seed)
            hist = agglo.check(mesh)
            if hist != self.w.face_histogram:
                raise agglo.AggloError(f"face counts {hist}, expected {self.w.face_histogram}")
            self.check_mesh_size({"cells": mesh.n_cells, "faces": mesh.n_faces,
                                  "edges": mesh.n_edges})
            self.info["face_histogram"] = {str(k): v for k, v in hist.items()}
            path = self.work / f"{mesh.name}.json"
            save_mesh(mesh, path)
            source = ["--mesh", str(path)]
        return source + ["--case", str(self.w.case), "--tau", self.w.tau, "--T", "1",
                         "--monitors", str(self.work / "monitors.csv")]

    # --- one run ------------------------------------------------------------

    def run_once(self, argv: list[str], trace: bool) -> dict | None:
        """One single run; returns its child record, or None if it failed."""
        self.attempted += 1
        result = self.work / "result.json"
        for stale in (result, self.work / "monitors.csv"):
            stale.unlink(missing_ok=True)
        timeout = self.deadline - time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(result),
                 "1" if trace else "0", "--", *argv],
                capture_output=True, text=True, timeout=max(timeout, 1.0), cwd=ROOT)
            record = json.loads(result.read_text(encoding="utf-8"))
            self.check(proc, record)
        except (RunFailure, OSError, ValueError, KeyError, IndexError,
                subprocess.TimeoutExpired) as exc:
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        return record

    def check_mesh_size(self, size: dict) -> None:
        expected = {k: getattr(self.w, k) for k in ("cells", "faces", "edges")}
        if size != expected:
            raise RunFailure(f"mesh has {size}, expected {expected}")

    def check(self, proc, record: dict) -> None:
        """The correctness gate: exit code, input size, reference errors, div B."""
        if proc.returncode != 0 or record["rc"] != 0:
            raise RunFailure(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        row = read_csv(proc.stdout)[-1]
        monitors = read_csv((self.work / "monitors.csv").read_text(encoding="utf-8"))
        dofs = (int(row["n_edge_dofs"]), int(row["n_face_dofs"]))
        if dofs != (self.w.n_edge_dofs, self.w.n_face_dofs):
            raise RunFailure(f"edge/face DOFs {dofs}, expected "
                             f"{(self.w.n_edge_dofs, self.w.n_face_dofs)}")
        if "spans" in record and (size := spans.mesh_size(spans.from_rows(record["spans"]))):
            self.check_mesh_size(size)
        errs = (float(row["err_E"]), float(row["err_B"]))
        if not all(math.isfinite(e) and e > 0 for e in errs):
            raise RunFailure(f"bad errors {errs}")
        refs = (self.w.ref_err_E, self.w.ref_err_B)
        if self.seed == DEFAULT_SEED or not self.w.agglomerate:
            if not all(math.isclose(e, r, rel_tol=ERR_RTOL) for e, r in zip(errs, refs)):
                raise RunFailure(f"errors {errs} differ from the reference {refs}")
        if self.first_errors is None:
            self.first_errors = errs
        elif not all(math.isclose(e, r, rel_tol=ERR_RTOL)
                     for e, r in zip(errs, self.first_errors)):
            raise RunFailure(f"errors {errs} differ from this seed's first run "
                             f"{self.first_errors}")
        div_b = max(float(m["divB"]) for m in monitors)
        if not div_b <= DIV_B_TOL:
            raise RunFailure(f"max per-step divB {div_b:.3e} above {DIV_B_TOL:.0e}")
        if len(monitors) != self.w.steps + 1:
            raise RunFailure(f"{len(monitors) - 1} steps, expected {self.w.steps}")
        self.info.setdefault("cg_iters_total", int(row["cg_iters_total"]))
        if record["missing"]:
            self.info["missing_hooks"] = record["missing"]
        self.info["max_div_b"] = max(self.info.get("max_div_b", 0.0), div_b)

    # --- loops --------------------------------------------------------------

    def time_left(self, seconds: float, per_run: float) -> bool:
        """Whether one more run of ``per_run`` seconds ends in the window."""
        end = time.perf_counter() + per_run
        return end <= min(self.started + seconds, self.deadline)

    def untraced(self, argv, seconds) -> dict:
        runs = []
        while True:
            t = time.perf_counter()
            record = self.run_once(argv, trace=False)
            if record is not None:
                runs.append(e2e_metrics(record, self.w.steps))
            if self.attempted >= MIN_RUNS and not self.time_left(seconds, time.perf_counter() - t):
                break
        return summarise(runs)

    def traced(self, argv, seconds) -> dict:
        plain, layers = [], []
        while True:
            t = time.perf_counter()
            a = self.run_once(argv, trace=False)
            b = self.run_once(argv, trace=True)
            if a is not None and b is not None:
                plain.append(a["run_s"])
                layers.append(traced_metrics(b))
            if self.attempted >= 2 * MIN_PAIRS and not self.time_left(seconds, time.perf_counter() - t):
                break
        out = medians(layers)
        if plain:
            # Per pair: the two runs are adjacent, so they share the host's
            # speed phase far more often than two medians do.
            out["trace.untraced_run_s"] = statistics.median(plain)
            out["trace.overhead_s"] = statistics.median(
                m["trace.run_s"] - u for m, u in zip(layers, plain))
        return out


def e2e_metrics(record: dict, steps: int) -> dict:
    """End-to-end metrics of an untraced run; a phase whose hook is
    missing from the package leaves its metric out."""
    p = record["phases"]
    m = {"run_s": record["run_s"], "peak_rss_mb": record["peak_rss_mb"]}
    if p["first_step"] is not None:
        m["setup_s"] = p["first_step"]
        if p["run_end"] is not None:
            m["step_ms"] = 1e3 * (p["run_end"] - p["first_step"]) / steps
    if p["error_start"] is not None:
        m["error_s"] = p["error_end"] - p["error_start"]
    return {k: m[k] for k in END_TO_END if k in m}


def traced_metrics(record: dict) -> dict:
    spans_ = spans.from_rows(record["spans"])
    m = spans.layer_metrics(spans_, record["import_s"], record["missing"])
    m["trace.run_s"] = record["run_s"]
    m["trace.uncovered_s"] = record["run_s"] - record["import_s"] - spans.covered_s(spans_)
    return m


def medians(runs: list[dict]) -> dict:
    names = [k for k in runs[0] if all(k in r for r in runs)] if runs else []
    return {k: statistics.median(r[k] for r in runs) for k in names}


def summarise(runs: list[dict]) -> dict:
    """End-to-end metrics of a window of runs.  ``setup_s`` and
    ``peak_rss_mb`` are medians; the other times are means, i.e. the
    window's total time in the phase over its runs (``step_ms``: over its
    steps).  The host's speed switches between fast and slow phases lasting
    seconds; the median of a few runs jumps with whichever phase holds the
    majority of them, while the mean weighs each phase by its share of the
    window and spreads less from one window to the next."""
    names = [k for k in runs[0] if all(k in r for r in runs)] if runs else []
    return {k: (statistics.median if k in MEDIAN_METRICS else statistics.fmean)(
                [r[k] for r in runs]) for k in names}


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith("_bytes_computed") else "count"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import sympy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                          env={**os.environ, "GIT_DIR": str(git_dir)}, cwd=ROOT)
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "vemaxwell").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "vemaxwell" / "cli.py").is_file():
        print(f"error: vemaxwell sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, work)
    try:
        try:
            cli_argv = bench.prepare()
        except (ValueError, RunFailure) as exc:   # agglo.AggloError, mesh errors
            print(f"error: inputs for seed {args.seed}: {exc}", file=sys.stderr)
            return 1
        # Compile and page in the package once, outside every timed run.
        subprocess.run([sys.executable, "-c", "import vemaxwell.cli"], cwd=ROOT,
                       env={**os.environ, "PYTHONPATH": str(SRC)}, check=False,
                       capture_output=True)
        bench.started = time.perf_counter()
        if args.trace:
            metrics = bench.traced(cli_argv, args.seconds)
        else:
            metrics = bench.untraced(cli_argv, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for failure in bench.failures:
        print(f"failed run: {failure}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "environment": environment(args.seed),
                      "inputs": bench.info, "failures": bench.failures}))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
