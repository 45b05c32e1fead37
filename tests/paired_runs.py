"""Paired benchmark windows of two checkouts, summarised per workload and
end-to-end metric:

    python tests/paired_runs.py PARENT CHANGE [--pairs 10] [--seconds 8]
                                [--seed N] [--workload NAME ...]

PARENT and CHANGE are checkout directories.  For each workload of CHANGE's
``BENCHMARK.json``, or each one named by ``--workload``, each pair runs one ``perfbench/run.py --trace 0``
window per checkout (``window_argv``), at ``--seed`` where it is given, else
at the benchmark's default seed, each with that checkout's own benchmark
and sources;
the parent runs first in even pairs and the change first in odd ones.  As
each pair ends it prints the pair's parent and change value of every
end-to-end metric (``pair_line``).  Per workload and metric it then prints the parent's median and quartiles, the
change's median, the pairs the change won (ties count for neither), whether
a gain is shown (the change wins at least nine tenths of the pairs and its
median is better than the parent's by more than the parent's interquartile
range), whether the change's median is within the metric's relative
``bound`` of the parent's, and whether it beats the parent's by more than
that bound, the margin a claimed gain needs.  Nothing under either
checkout is changed.
Exits 1 when a window failed a run or gave no metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

GAIN_SHARE = 0.9


def window_argv(workload: str, seconds: float, seed: int | None = None) -> list:
    """The command of one benchmark window, run in a checkout; without
    ``seed`` the benchmark takes its default one."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--trace", "0"]
    return argv if seed is None else argv + ["--seed", str(seed)]


def window(checkout: Path, workload: str, seconds: float,
           seed: int | None = None) -> tuple[dict, int]:
    """(metric values, failed runs) of one benchmark window of ``checkout``."""
    proc = subprocess.run(window_argv(workload, seconds, seed),
                          cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return metrics, result.get("failed", 1) if metrics else 1


def summarise(pairs: list, metrics: list) -> list:
    """One row per metric of ``metrics`` (``BENCHMARK.json`` end-to-end
    entries) over ``pairs`` of (parent values, change values) dicts; a pair
    lacking a metric on either side is left out of that metric's row."""
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        both = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not both:
            continue
        parent, change = np.array(both).T
        q1, median, q3 = np.percentile(parent, [25, 50, 75])
        change_median = float(np.median(change))
        wins = int((sign * (parent - change) > 0).sum())
        rows.append(dict(
            metric=name, pairs=len(both), parent_median=float(median),
            parent_q1=float(q1), parent_q3=float(q3), change_median=change_median,
            wins=wins,
            gain=bool(wins >= GAIN_SHARE * len(both)
                      and sign * (median - change_median) > q3 - q1),
            within_bound=bool(sign * (change_median - median)
                              <= metric["bound"] * abs(median)),
            past_bound=bool(sign * (median - change_median)
                            > metric["bound"] * abs(median))))
    return rows


def selected(bench: dict, names) -> list:
    """The workloads of ``bench`` named in ``names``, in ``bench``'s order,
    or all of them when ``names`` is empty; ValueError names one unknown."""
    known = [w["name"] for w in bench["workloads"]]
    unknown = [name for name in names or () if name not in known]
    if unknown:
        raise ValueError(f"unknown workload {unknown[0]!r}; known: {', '.join(known)}")
    return [name for name in known if not names or name in names]


HEADER = ("workload metric parent_median [q1, q3] change_median wins/pairs gain "
          "within_bound past_bound")


def row_line(workload: str, r: dict) -> str:
    """One printed row of ``summarise``'s row ``r``, in ``HEADER``'s columns."""
    return (f"{workload} {r['metric']} {r['parent_median']:.4g} "
            f"[{r['parent_q1']:.4g}, {r['parent_q3']:.4g}] {r['change_median']:.4g} "
            f"{r['wins']}/{r['pairs']} {r['gain']} {r['within_bound']} {r['past_bound']}")


def pair_line(workload: str, index: int, parent: dict, change: dict, metrics: list) -> str:
    """One pair's values, ``parent -> change`` per metric of ``metrics``
    that either side has ("-" where one lacks it)."""
    def value(side, name):
        return f"{side[name]:.4g}" if name in side else "-"

    return f"{workload} pair {index}: " + ", ".join(
        f"{m['name']} {value(parent, m['name'])} -> {value(change, m['name'])}"
        for m in metrics if m["name"] in parent or m["name"] in change)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--seed", type=int,
                   help="the benchmark's input seed (default: its own default)")
    p.add_argument("--workload", action="append",
                   help="run only this workload (repeat for more)")
    args = p.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        workloads = selected(bench, args.workload)
    except ValueError as exc:
        p.error(str(exc))
    ok = True
    print(HEADER)
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
            runs = {side: window(side, workload, args.seconds, args.seed) for side in order}
            ok &= all(values and not failed for values, failed in runs.values())
            pairs.append((runs[args.parent][0], runs[args.change][0]))
            print(pair_line(workload, i, *pairs[-1], bench["end_to_end"]), flush=True)
        for r in summarise(pairs, bench["end_to_end"]):
            print(row_line(workload, r), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
