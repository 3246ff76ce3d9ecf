"""Benchmark child process: a fresh interpreter that sets up or runs one workload.

    python3 bench/worker.py setup --workload W --seed S --result FILE
    python3 bench/worker.py run --workload W --seed S --seconds T --trace 0|1 --work DIR --result FILE

`setup` imports ep_atlas.cli and builds the workload's models, then exits;
the parent times the whole process.  `run` makes passes over the workload's
CLI invocations, in-process through ep_atlas.cli.main, until the next pass
would end past --seconds (at least two passes).  With --trace 1 untraced and
traced passes alternate, so tracing overhead is measured in the same process.
Results go to --result as JSON; the parent checks outputs and prints metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def _setup(args) -> dict:
    t0 = time.perf_counter()
    import ep_atlas.cli  # noqa: F401  (the import users pay on every CLI call)

    t1 = time.perf_counter()
    from workloads import models

    models(args.workload, args.seed)
    return {"import_s": t1 - t0, "models_s": time.perf_counter() - t1}


def _invoke(main, argv: list[str]) -> int | str:
    """Run one CLI invocation; its exit code, or the exception it raised."""
    try:
        main.main(args=argv, prog_name="ep-atlas")
    except SystemExit as exc:  # click's standalone mode always ends in sys.exit
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # one failing invocation must not stop the loop
        traceback.print_exc()
        return "raised %s: %s" % (type(exc).__name__, exc)
    return 0


def _digests(out: Path) -> dict:
    """SHA-256 of every data file; manifests carry wall time and are left out."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob("*"))
        if p.is_file() and not p.name.endswith("_manifest.json")
    }


def _pass(main, calls, pass_dir: Path) -> dict:
    ops = []
    t0 = time.perf_counter()
    for i, (label, argv) in enumerate(calls):
        out = pass_dir / ("%d_%s" % (i, label))
        s = time.perf_counter()
        code = _invoke(main, argv + ["--out", str(out)])
        ops.append({"label": label, "dir": out.name, "code": code, "seconds": time.perf_counter() - s})
    wall = time.perf_counter() - t0
    for op in ops:
        op["digests"] = _digests(pass_dir / op["dir"])
    return {"wall_s": wall, "ops": ops}


def _run(args) -> dict:
    from ep_atlas import cli
    from workloads import invocations

    calls = invocations(args.workload, args.seed)
    work = Path(args.work)
    passes: list[dict] = []
    spans: list = []
    elapsed = 0.0
    start = time.perf_counter()
    while len(passes) < 2 or elapsed + passes[-1]["wall_s"] <= args.seconds:
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 1
        pass_dir = work / ("pass_%d" % k)
        if traced:
            from tracer import Tracer, by_n, installed, layer_metrics

            tracer = Tracer()
            with installed(tracer):
                rec = _pass(cli.main, calls, pass_dir)
            rec["layers"] = layer_metrics(tracer.spans, rec["wall_s"])
            rec["by_n"] = by_n(tracer.spans)
            spans.append(tracer.spans)
        else:
            rec = _pass(cli.main, calls, pass_dir)
        rec["traced"] = traced
        passes.append(rec)
        if k > 0:
            shutil.rmtree(pass_dir, ignore_errors=True)  # pass 0 is kept for the output checks
        elapsed = time.perf_counter() - start
    # read the high-water mark before anything else allocates
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"passes": passes, "maxrss_kb": maxrss_kb, "spans": spans}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", default=None)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    result = _setup(args) if args.mode == "setup" else _run(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
