"""ep-atlas benchmark: CLI workloads timed end to end, with a traced run per layer.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads (see workloads.py and README.md): bcurve_n1001, order_n3001,
paths_eps.  Each run

1. runs the workload in a fresh child process (worker.py) for about T
   seconds, pass after pass, through ep_atlas.cli.main with --jobs 1;
2. times SETUP_SAMPLES fresh interpreters that import ep_atlas.cli and build
   the workload's models;
3. checks the outputs of the first pass against independent references, and
   every later pass against the first one's SHA-256 digests (checks.py);
4. prints each metric with its unit, then, as the last line, one JSON object
   with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones from
alternating untraced and traced passes (tracer.py).  Everything the run
writes stays under bench/_runs/; a record of each run, with the environment,
is kept there as <workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import KNOWN_DEFECTS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "_runs"

SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # a run, set-up and checks included, must end within 180 s
DEP_PACKAGES = ("scipy", "sympy", "mpmath")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
NUMERICAL_FAILURE_EXIT = 3  # the CLI's exit code for a numerical failure

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_deps_s": "s",
    "cli.runner_self_s": "s",
    "cli.fail_share": "share",
    "secular.cold_solves": "count",
    "secular.warm_solves": "count",
    "secular.iterations_cold": "count",
    "secular.iterations_warm": "count",
    "secular.roots_s": "s",
    "secular.s_per_iteration": "s/iter",
    "secular.vectors_call_s": "s",
    "secular.vector_stage_s": "s",
    "secular.stall_accepts": "count",
    "secular.solver_failures": "count",
    "collectivity.flagged_points": "flags/point",
    "collectivity.find_peak_s": "s",
    "trajectories.sweep_self_s": "s",
    "trajectories.solves_per_point": "solves/point",
    "trajectories.turning_points_s": "s",
    "trajectories.order_parameter_s": "s",
    "exceptional.find_eps_s": "s",
    "exceptional.found_ratio": "share",
    "exceptional.incomplete": "count",
    "monodromy.loop_ep_s": "s",
    "monodromy.transport_solves": "count",
    "monodromy.samples": "count",
    "monodromy.theta_s": "s",
    "runio.write_s": "s",
    "runio.bytes_written": "bytes",
    "runio.manifest_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "share",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment for every process the benchmark starts.

    Sources come from the checkout's src/.  BLAS/OpenMP pools are capped at
    the cores this process may use, so no kernel oversubscribes them.
    Byte-code caching stays on, as it is for an installed CLI.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cores = nproc()
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= cores):
            env[var] = str(cores)
    return env


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git (None outside a repository)."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int, env: dict) -> dict:
    from importlib import metadata

    import numpy as np

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "click": version("click"),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "threads": {var: env[var] for var in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def _worker(args: list[str], env: dict, log, timeout: float) -> None:
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, timeout=timeout, check=True,
    )


def import_deps_s(env: dict, timeout: float) -> float:
    """Self time of scipy/sympy/mpmath modules while importing ep_atlas.cli (-X importtime)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ep_atlas.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=True,
    )
    total_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[0].split(":")[1].strip().isdigit():
            continue
        if parts[2].strip().split(".")[0] in DEP_PACKAGES:
            total_us += int(parts[0].split(":")[1])
    return total_us / 1e6


def account(workload: str, passes: list, problems: dict) -> tuple[bool, int, int, list]:
    """(correct, attempted, failed, failure notes) over every invocation of every pass.

    An invocation fails if it exits non-zero or raises, if its outputs fail a
    check, or if its digests differ from the first pass.  Only a listed known
    defect may fail without making the run incorrect.
    """
    ref = {op["label"]: op["digests"] for op in passes[0]["ops"]}
    correct, attempted, notes = True, 0, []
    for k, p in enumerate(passes):
        for op in p["ops"]:
            attempted += 1
            label = op["label"]
            known = KNOWN_DEFECTS.get((workload, label))
            if op["code"] != 0:
                why = "exit %s" % op["code"]
                if known and op["code"] == NUMERICAL_FAILURE_EXIT:
                    why += " (known defect: %s)" % known
                else:
                    correct = False
            elif problems.get(label):
                why = "; ".join(problems[label])
                correct = False
            elif op["digests"] != ref[label]:
                why = "output digests differ from pass 0"
                correct = False
            else:
                continue
            notes.append("pass %d %s: %s" % (k, label, why))
    return correct, attempted, len(notes), notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ep_atlas" / "cli.py").is_file():
        print("error: no ep_atlas sources under %s; run from a checkout of the repository" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    # a terminated run still kills and waits for its child (subprocess.run does so on any exception)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env()
    os.environ.update({var: env[var] for var in THREAD_VARS})  # before numpy loads BLAS here
    sys.path.insert(0, str(ROOT / "src"))

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    RUNS.mkdir(exist_ok=True)
    work = RUNS / (tag + "-work")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    result_file = work / "result.json"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--result", str(result_file)]
    try:
        with open(RUNS / (tag + ".log"), "w", encoding="utf-8") as log:
            try:
                _worker(["run", "--seconds", repr(args.seconds), "--trace", str(args.trace), "--work", str(work),
                         *common], env, log, DEADLINE_S - 40.0)
                run = json.loads(result_file.read_text())
                setups, imports = [], []
                for _ in range(SETUP_SAMPLES):
                    t0 = time.perf_counter()
                    _worker(["setup", *common], env, log, 30.0)
                    setups.append(time.perf_counter() - t0)
                    imports.append(json.loads(result_file.read_text())["import_s"])
                deps_s = import_deps_s(env, 30.0) if args.trace else None
            except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
                log.flush()
                tail = (RUNS / (tag + ".log")).read_text(errors="replace")[-3000:]
                print("error: benchmark child failed (%s)\n%s" % (err, tail), file=sys.stderr)
                return 1

        import checks
        from workloads import models

        passes = run["passes"]
        problems = checks.check_pass(models(args.workload, args.seed), work / "pass_0", passes[0]["ops"])
        correct, attempted, failed, notes = account(args.workload, passes, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p["wall_s"] for p in passes if not p["traced"]]
    if args.trace:
        from tracer import median_metrics

        traced = [p for p in passes if p["traced"]]
        values = median_metrics([p["layers"] for p in traced])
        values.update({
            "cli.import_s": statistics.median(imports),
            "cli.import_deps_s": deps_s,
            "cli.fail_share": failed / attempted,
            "trace.overhead_s": statistics.median(p["wall_s"] for p in traced) - statistics.median(plain),
        })
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["maxrss_kb"] / 1024.0,
            "ok_share": (attempted - failed) / attempted,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed, env),
        "correct": correct, "attempted": attempted, "failed": failed, "failures": notes,
        "metrics": metrics, "setup_samples_s": setups, "import_samples_s": imports,
        "passes": passes,
        "elapsed_s": time.perf_counter() - started,
    }
    (RUNS / (tag + ".json")).write_text(json.dumps(record, indent=1))
    if args.trace:
        (RUNS / (tag + "-spans.json")).write_text(json.dumps(run["spans"]))

    print("# %s seed=%d trace=%d passes=%d (%s)" % (args.workload, args.seed, args.trace, len(passes),
                                                    ", ".join("%.3f s" % p["wall_s"] for p in passes)))
    print("# environment: %s" % json.dumps(record["environment"], sort_keys=True))
    for note in notes:
        print("# failed: %s" % note)
    for name, m in metrics.items():
        print("%-32s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
