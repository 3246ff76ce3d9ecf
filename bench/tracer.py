"""Spans around the library's public functions, installed from outside at runtime.

Several ep_atlas modules import public functions by name, so a wrapper has
to replace the name in every module that calls it.  `installed(tracer)`
swaps the names listed in TARGETS for recording wrappers and restores the
originals on exit; no library source is touched.

A span is [name, start, end, parent index, attrs].  Spans stay in memory
until the run ends.  Self time is a span's duration minus the durations of
its child spans (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

from ep_atlas.errors import IllConditionedNormalizationError, IncompleteSearchError, SolverFailureError


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield attrs
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()


def _timed(name):
    def make(tracer, orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return orig(*args, **kwargs)

        return wrapper

    return make


def _execute(tracer, orig):
    """One CLI invocation (top-level span) and the runner it dispatches to."""

    @functools.wraps(orig)
    def wrapper(command, runner, kw):
        def traced_runner(cfg, out):
            with tracer.span("cli.runner", command=command):
                return runner(cfg, out)

        with tracer.span("cli.invoke", command=command):
            return orig(command, traced_runner, kw)

    return wrapper


def _eigen_spectrum(tracer, orig):
    """Counts solves and iterations; re-issues each vector call without vectors.

    The re-issued call repeats the root stage at the same coupling and warm
    start, so (vector call - re-issue) is the cost of the eigenvector/norm
    stage.  It is recorded as its own span, never returned to the caller.
    """

    def reissue(model, coupling, warm_start, kwargs):
        with tracer.span("secular.reissue", n=int(model.n), warm=warm_start is not None) as a:
            try:
                a["iterations"] = orig(model, coupling, warm_start=warm_start, **kwargs).iterations
            except SolverFailureError:
                a["iterations"] = 0

    default_tol = inspect.signature(orig).parameters["tol"].default

    @functools.wraps(orig)
    def wrapper(model, coupling, *, compute_vectors=False, warm_start=None, **kwargs):
        tol = kwargs.get("tol", default_tol)  # a returned residual above tol is a stall-accept
        try:
            with tracer.span(
                "secular.eigen_spectrum", n=int(model.n), warm=warm_start is not None, vectors=compute_vectors
            ) as a:
                try:
                    spec = orig(model, coupling, compute_vectors=compute_vectors, warm_start=warm_start, **kwargs)
                except IllConditionedNormalizationError:
                    a["outcome"] = "flagged"
                    raise
                except SolverFailureError:
                    a["outcome"] = "failure"
                    raise
                a["iterations"] = int(spec.iterations)
                a["stall"] = bool(spec.residual > tol)
        except IllConditionedNormalizationError:
            reissue(model, coupling, warm_start, kwargs)
            raise
        if compute_vectors:
            reissue(model, coupling, warm_start, kwargs)
        return spec

    return wrapper


def _find_eps(tracer, orig):
    @functools.wraps(orig)
    def wrapper(model, *args, **kwargs):
        active = int(np.count_nonzero(model.couplings))
        with tracer.span("exceptional.find_eps", n=int(model.n), want=max(active - 1, 0)) as a:
            try:
                reps = orig(model, *args, **kwargs)
            except IncompleteSearchError as err:
                a["found"] = len(err.found)
                a["incomplete"] = True
                raise
            a["found"] = len(reps)
            return reps

    return wrapper


def _sweep(tracer, orig):
    @functools.wraps(orig)
    def wrapper(model, lam_values, *args, **kwargs):
        with tracer.span("trajectories.sweep", points=int(np.size(lam_values))):
            return orig(model, lam_values, *args, **kwargs)

    return wrapper


def _loop_ep(tracer, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        with tracer.span("monodromy.loop_ep") as a:
            res = orig(*args, **kwargs)
            a["samples"] = int(res.samples)
            return res

    return wrapper


def _write_csv(tracer, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        with tracer.span("runio.write_csv") as a:
            path = orig(*args, **kwargs)
            a["bytes"] = os.path.getsize(path)
            return path

    return wrapper


# (module, attribute, wrapper factory).  eigen_spectrum and find_eps are
# replaced in every module that imported them by name.
TARGETS = (
    ("ep_atlas.cli", "_execute", _execute),
    ("ep_atlas.cli", "eigen_spectrum", _eigen_spectrum),
    ("ep_atlas.collectivity", "eigen_spectrum", _eigen_spectrum),
    ("ep_atlas.trajectories", "eigen_spectrum", _eigen_spectrum),
    ("ep_atlas.monodromy", "eigen_spectrum", _eigen_spectrum),
    ("ep_atlas.cli", "find_eps", _find_eps),
    ("ep_atlas.exceptional", "find_eps", _find_eps),
    ("ep_atlas.monodromy", "find_eps", _find_eps),
    ("ep_atlas.cli", "sweep", _sweep),
    ("ep_atlas.cli", "order_parameter", _timed("trajectories.order_parameter")),
    ("ep_atlas.cli", "turning_points", _timed("trajectories.turning_points")),
    ("ep_atlas.cli", "find_peak", _timed("collectivity.find_peak")),
    ("ep_atlas.cli", "loop_ep", _loop_ep),
    ("ep_atlas.cli", "theta_along", _timed("monodromy.theta")),
    ("ep_atlas.cli", "theta_of", _timed("monodromy.theta")),
    ("ep_atlas.cli", "omega_comparison", _timed("monodromy.theta")),
    ("ep_atlas.cli", "write_csv", _write_csv),
    ("ep_atlas.cli", "write_manifest", _timed("runio.write_manifest")),
)


@contextmanager
def installed(tracer: Tracer):
    """Replace every TARGETS name with its wrapper; restore the originals on exit."""
    saved = []
    try:
        for modname, attr, make in TARGETS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, make(tracer, orig))
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def self_times(spans) -> list[float]:
    """Duration minus the time covered by direct children, per span."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    selfs = self_times(spans)
    dur = [end - start for _, start, end, _, _ in spans]
    by = {}
    for i, (name, _, _, _, _) in enumerate(spans):
        by.setdefault(name, []).append(i)

    def total(name, values=dur):
        return float(sum(values[i] for i in by.get(name, ())))

    def attr_sum(name, key):
        return sum(spans[i][4].get(key, 0) for i in by.get(name, ()))

    eig = by.get("secular.eigen_spectrum", [])
    reissue = by.get("secular.reissue", [])
    plain = [i for i in eig if not spans[i][4]["vectors"]]
    vec = [i for i in eig if spans[i][4]["vectors"]]
    # root stage: plain solves plus the re-issued root stage of every vector call
    roots = plain + reissue
    roots_s = float(sum(dur[i] for i in roots))
    its_cold = sum(spans[i][4].get("iterations", 0) for i in roots if not spans[i][4]["warm"])
    its_warm = sum(spans[i][4].get("iterations", 0) for i in roots if spans[i][4]["warm"])
    vectors_call_s = float(sum(dur[i] for i in vec))

    loops = set(by.get("monodromy.loop_ep", []))
    sweep_set = set(by.get("trajectories.sweep", []))
    in_sweep = sum(1 for i in eig if spans[i][3] in sweep_set)
    top = [i for i, s in enumerate(spans) if s[3] < 0]

    return {
        "cli.runner_self_s": total("cli.runner", selfs),
        "secular.cold_solves": sum(1 for i in eig if not spans[i][4]["warm"]),
        "secular.warm_solves": sum(1 for i in eig if spans[i][4]["warm"]),
        "secular.iterations_cold": its_cold,
        "secular.iterations_warm": its_warm,
        "secular.roots_s": roots_s,
        "secular.s_per_iteration": _ratio(roots_s, its_cold + its_warm),
        "secular.vectors_call_s": vectors_call_s,
        "secular.vector_stage_s": vectors_call_s - float(sum(dur[i] for i in reissue)),
        "secular.stall_accepts": sum(1 for i in eig if spans[i][4].get("stall")),
        "secular.solver_failures": sum(1 for i in eig if spans[i][4].get("outcome") == "failure"),
        "collectivity.flagged_points": _ratio(
            sum(1 for i in vec if spans[i][4].get("outcome") == "flagged"), len(vec)
        ),
        "collectivity.find_peak_s": total("collectivity.find_peak"),
        "trajectories.sweep_self_s": total("trajectories.sweep", selfs),
        "trajectories.solves_per_point": _ratio(in_sweep, attr_sum("trajectories.sweep", "points")),
        "trajectories.turning_points_s": total("trajectories.turning_points"),
        "trajectories.order_parameter_s": total("trajectories.order_parameter"),
        "exceptional.find_eps_s": total("exceptional.find_eps"),
        "exceptional.found_ratio": _ratio(attr_sum("exceptional.find_eps", "found"),
                                          attr_sum("exceptional.find_eps", "want")),
        "exceptional.incomplete": attr_sum("exceptional.find_eps", "incomplete"),
        "monodromy.loop_ep_s": total("monodromy.loop_ep"),
        "monodromy.transport_solves": sum(1 for i in eig if spans[i][3] in loops),
        "monodromy.samples": attr_sum("monodromy.loop_ep", "samples"),
        "monodromy.theta_s": total("monodromy.theta"),
        "runio.write_s": total("runio.write_csv"),
        "runio.bytes_written": attr_sum("runio.write_csv", "bytes"),  # manifests vary with wall time; left out
        "runio.manifest_s": total("runio.write_manifest"),
        "trace.coverage": _ratio(float(sum(dur[i] for i in top)), wall_s),
    }


def by_n(spans) -> dict:
    """Root-stage seconds and iterations, and find_eps seconds, per model size."""
    out: dict = {}

    def row(n):
        return out.setdefault(str(n), {"roots_s": 0.0, "iterations": 0, "solves": 0, "find_eps_s": 0.0})

    for name, start, end, _, a in spans:
        if name == "secular.reissue" or (name == "secular.eigen_spectrum" and not a["vectors"]):
            r = row(a["n"])
            r["roots_s"] += end - start
            r["iterations"] += a.get("iterations", 0)
            r["solves"] += 1
        elif name == "exceptional.find_eps":
            row(a["n"])["find_eps_s"] += end - start
    for r in out.values():
        r["s_per_iteration"] = _ratio(r["roots_s"], r["iterations"])
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over traced passes (counts repeat, so theirs is exact)."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
