"""Run every workload untraced and traced and print one table of results.

    python3 perfbench/report.py [--out perfbench/trajectory/BENCH_<n>.json]

Each workload runs at its default seed for the ``run_seconds`` that
BENCHMARK.json sets.  Prints the end-to-end metrics by name and unit with failed/attempted runs
per workload, then the per-layer table of the traced runs and how much of
each traced run its top-level spans account for.  ``--out`` also writes
the whole record as one point of the BENCH trajectory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, END_TO_END, WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} (trace {trace}) failed: {proc.stderr.strip()}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def fmt(value, width: int) -> str:
    return f"{'missing' if value is None else format(value, '.4g'):>{width}}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    seed = DEFAULT_SEED
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    record = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        info, e2e = bench(name, seed, seconds, 0)
        _, layers = bench(name, seed, seconds, 1)
        record["workloads"][name] = {
            "environment": info["environment"], "inputs": info["inputs"],
            "attempted": e2e["attempted"] + layers["attempted"],
            "failed": e2e["failed"] + layers["failed"],
            "end_to_end": e2e["metrics"], "per_layer": layers["metrics"],
        }
    record["commit"] = info["environment"]["commit"]
    runs = record["workloads"]

    print(f"end to end (seed {seed}, {seconds} s per workload; setup_s and peak_rss_mb "
          f"are medians over the runs, the other times means)")
    print(f"{'workload':<15}" + "".join(f"{f'{m} [{u}]':>18}" for m, u in END_TO_END.items())
          + f"{'failed/attempted':>18}")
    for name, r in runs.items():
        cells = [r["end_to_end"].get(m, {}).get("value") for m in END_TO_END]
        print(f"{name:<15}" + "".join(fmt(v, 18) for v in cells)
              + f"{r['failed']:>16}/{r['attempted']}")

    print("\nper layer (traced runs, medians)")
    names = list(dict.fromkeys(k for r in runs.values() for k in r["per_layer"]))
    print(f"{'metric':<34}{'unit':>7}" + "".join(f"{n:>16}" for n in runs))
    for metric in names:
        cells = [r["per_layer"].get(metric) for r in runs.values()]
        unit = next(c["unit"] for c in cells if c)
        print(f"{metric:<34}{unit:>7}"
              + "".join(fmt(c and c["value"], 16) for c in cells))

    print("\ncoverage: traced run_s - import - top-level spans of cli.run_single")
    for name, r in runs.items():
        m = {k: v["value"] for k, v in r["per_layer"].items()}
        print(f"{name:<15} uncovered {m['trace.uncovered_s']:.4f} s, "
              f"tracing overhead {m['trace.overhead_s']:.4f} s")

    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 1 if any(r["failed"] for r in runs.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
