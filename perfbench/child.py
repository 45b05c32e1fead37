"""One vemaxwell single run in this process, timed from its first line.

    python3 perfbench/child.py RESULT_JSON TRACE(0|1) -- <vemaxwell argv...>

Calls ``vemaxwell.cli.main`` with the argv the ``vemaxwell`` console
script would get, then writes timings (and, with TRACE=1, every span) to
RESULT_JSON and exits with the CLI's exit code.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402  (this file's directory is sys.path[0])


def main(argv) -> int:
    result_path, trace, sep, *cli_argv = argv
    if sep != "--" or trace not in ("0", "1"):
        print("usage: child.py RESULT_JSON TRACE(0|1) -- <vemaxwell argv...>",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import vemaxwell.cli

    t_import = time.perf_counter()
    recorder = spans.Recorder()
    clock = spans.PhaseClock()
    missing = spans.install(recorder) if trace == "1" else clock.install()

    rc = vemaxwell.cli.main(cli_argv)
    t_end = time.perf_counter()

    out = {
        "rc": rc,
        "run_s": t_end - T0,
        "import_s": t_import - T0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing": missing,
    }
    if trace == "1":
        out["spans"] = [[n, s - T0, e - T0, p, c]
                        for n, s, e, p, c in spans.to_rows(recorder.spans)]
    else:
        out["phases"] = {k: (None if v is None else v - T0)
                         for k, v in vars(clock).items()}
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
