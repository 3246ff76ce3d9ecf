"""Experiment harness: config-driven runs with deterministic CSV outputs.

Subcommands reproduce the standard survey figures (trajectory fans, the
exceptional-point accumulation, B curves, the perturbed-fence comparison)
plus direct access to sweeps, exceptional-point tables, order-parameter
curves, monodromy loops, and compensation classification.

Every run resolves its configuration (config file first, command-line flags
override), writes CSV files with a '#' metadata block, and finishes with a
manifest carrying the resolved config, tool version, wall time, and content
digests.  Reruns with the same resolved config produce byte-identical data
files; grid work is fanned out to processes in fixed 64-point chunks so the
results do not depend on --jobs.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import click
import numpy as np

from . import __version__
from .asymptotics import LADDER_CRITICAL, classify_compensation, critical_coupling
from .collectivity import BPeak, b_curve, find_peak
from .errors import ConfigError, EpAtlasError, InvalidModelError
from .exceptional import accumulation_scan, find_eps, two_level_eps
from .models import (
    EffectiveModel,
    build_perturbed_fence,
    build_picket_fence,
    build_power_law,
    build_spacing_ensemble,
    build_two_level,
    phase_factor,
)
from .monodromy import _contour, loop_ep, omega_comparison, theta_along, theta_of
from .runio import format_value, parse_config, resolve_out, write_csv, write_json, write_manifest
from .secular import eigen_spectrum  # noqa: F401  (bench/tracer.py wraps it here)
from .trajectories import order_parameter, sweep, turning_points

_CHUNK = 64  # fixed fan-out unit; keeps outputs independent of --jobs

_CONFIG_KEYS = {
    "experiment", "model", "system", "n", "amplitude", "seed", "r", "t",
    "eps1", "eps2", "omega", "kind", "ladder",
    "lambda_start", "lambda_stop", "lambda_step", "lambda_list",
    "phi", "out", "format", "jobs", "ambiguity",
    "windings", "samples", "delta", "lam_factor", "radius",
}

_FLAG_KEYS = (
    "n", "lambda_start", "lambda_stop", "lambda_step", "phi",
    "r", "t", "amplitude", "seed", "out", "format", "jobs",
)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _get(cfg: dict, key: str, default, cast):
    """Read a config value, recording the default used into the echo."""
    if key not in cfg or cfg[key] == "":
        cfg[key] = _fmt(default)
    try:
        return cast(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError("bad value for %s: %r" % (key, cfg[key]))


def _resolve(command: str, kw: dict) -> dict:
    cfg: dict[str, str] = {}
    if kw.get("config_path"):
        cfg = parse_config(kw["config_path"], allowed=_CONFIG_KEYS)
        exp = cfg.pop("experiment", command)
        if exp != command:
            raise ConfigError("config is for experiment %r, but %r was invoked" % (exp, command))
    for key in _FLAG_KEYS:
        if kw.get(key) is not None:
            cfg[key] = _fmt(kw[key])
    return cfg


def _grid_from(cfg: dict, start: float, stop: float, step: float) -> np.ndarray:
    if cfg.get("lambda_list"):
        try:
            vals = np.array([float(x) for x in cfg["lambda_list"].split(",") if x.strip() != ""])
        except ValueError:
            raise ConfigError("lambda_list must be comma-separated numbers")
        if vals.size == 0:
            raise ConfigError("empty coupling grid")
        return vals
    s = _get(cfg, "lambda_start", start, float)
    e = _get(cfg, "lambda_stop", stop, float)
    st = _get(cfg, "lambda_step", step, float)
    if st <= 0:
        raise ConfigError("lambda_step must be positive")
    count = int(math.floor((e - s) / st + 1e-9)) + 1
    if count < 1:
        raise ConfigError("empty coupling grid")
    return s + st * np.arange(count)


def _model_from(cfg: dict, default_n: int) -> EffectiveModel:
    kind = cfg.get("model", "")
    if not kind:
        if "r" in cfg or "t" in cfg:
            kind = "powerlaw"
        elif float(cfg.get("amplitude", 0) or 0) > 0:
            kind = "perturbed"
        else:
            kind = "picket"
        cfg["model"] = kind
    if kind == "picket":
        return build_picket_fence(_get(cfg, "n", default_n, int))
    if kind == "perturbed":
        return build_perturbed_fence(
            _get(cfg, "n", default_n, int),
            _get(cfg, "amplitude", 0.1, float),
            _get(cfg, "seed", 1, int),
        )
    if kind == "powerlaw":
        return build_power_law(
            _get(cfg, "n", default_n, int),
            _get(cfg, "r", 0.0, float),
            _get(cfg, "t", 2.0, float),
        )
    if kind == "twolevel":
        return build_two_level(
            _get(cfg, "eps1", 0.0, float),
            _get(cfg, "eps2", 1.0, float),
            _get(cfg, "omega", 30.0, float),
        )
    if kind == "ensemble":
        return build_spacing_ensemble(
            _get(cfg, "n", default_n, int),
            _get(cfg, "kind", "poisson", str),
            _get(cfg, "seed", 1, int),
        )
    raise ConfigError("unknown model %r" % kind)


def _writer(cfg: dict):
    fmt = _get(cfg, "format", "csv", str)
    if fmt == "csv":
        return write_csv, ".csv"
    if fmt == "json":
        return write_json, ".json"
    raise ConfigError("format must be csv or json, got %r" % fmt)


def _jobs(cfg: dict) -> int:
    j = _get(cfg, "jobs", os.cpu_count() or 1, int)
    if j < 1:
        raise ConfigError("jobs must be >= 1")
    return j


# ---------------------------------------------------------------------------
# coupling grids in fixed chunks

def _b_values(model: EffectiveModel, phi: float, grid: np.ndarray, jobs: int) -> np.ndarray:
    """B over the grid, one warm-started b_curve per _CHUNK points, chunks spread over jobs processes."""
    chunks = [grid[i : i + _CHUNK] for i in range(0, grid.size, _CHUNK)]
    worker = partial(b_curve, model, phi=phi)
    if jobs == 1 or len(chunks) == 1:
        curves = [worker(c) for c in chunks]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as ex:
            curves = list(ex.map(worker, chunks))
    return np.concatenate([c.values for c in curves])


# ---------------------------------------------------------------------------
# runners

_NO_PEAK = BPeak(lam=math.nan, value=math.nan, descent_ratio=math.nan)


def _peak(grid: np.ndarray, b: np.ndarray) -> tuple[BPeak, int]:
    """The B peak and 1, or a peak of NaNs and 0 when the curve has none."""
    pk = find_peak(grid, b)
    return (pk, 1) if pk is not None else (_NO_PEAK, 0)


def _trajectory_cols(grid: np.ndarray, energies: np.ndarray, keep: np.ndarray) -> dict:
    """One row per kept (grid point, state), grid point major."""
    i, k = np.nonzero(keep)
    e = energies[i, k]
    return {"lam": grid[i], "state": k, "re_energy": e.real, "im_energy": e.imag}


def _ep_cols(lam, energy) -> dict:
    """Coupling and energy columns of points in the coupling plane."""
    lam = np.asarray(lam, dtype=complex)
    energy = np.asarray(energy, dtype=complex)
    return {"re_lambda": lam.real, "im_lambda": lam.imag, "re_energy": energy.real, "im_energy": energy.imag}


def _run_fig1(cfg, out):
    emit, ext = _writer(cfg)
    grid = _grid_from(cfg, 0.001, 2.0, 0.001)
    phi = _get(cfg, "phi", 0.0, float)
    ns = [_get(cfg, "n", 0, int)] if cfg.get("n") else [15, 43]
    cfg.setdefault("n", ",".join(str(n) for n in ns))
    files = []
    cross = []
    for n in ns:
        model = build_picket_fence(n)
        traj = sweep(model, grid, phi, policy="sorted")
        keep = traj.energies.real >= -1e-9  # mirror-symmetric spectrum: emit the positive half
        meta = {
            "n": n, "phi_deg": phi, "half": "re_energy >= 0",
            "ambiguous_intervals": ";".join("%r:%r" % iv for iv in traj.ambiguous_intervals) or "none",
        }
        cols = _trajectory_cols(grid, traj.energies, keep)
        files.append(emit(out / ("fig1_trajectories_n%d%s" % (n, ext)), meta, cols))
        cross += [(n, p) for p in find_eps(model) if p.energy.real >= -1e-9]
    cross_cols = {
        "n": [n for n, _ in cross],
        "pair_id": [p.pair_id for _, p in cross],
        **_ep_cols([p.coupling for _, p in cross], [p.energy for _, p in cross]),
    }
    files.append(emit(out / ("fig1_crossings" + ext), {"half": "re_energy >= 0", "phi_deg": phi}, cross_cols))
    return files


def _run_fig2(cfg, out):
    emit, ext = _writer(cfg)
    ladder_txt = cfg.get("ladder") or "15,19,27,43"
    cfg["ladder"] = ladder_txt
    try:
        ladder = [int(x) for x in ladder_txt.split(",") if x.strip()]
    except ValueError:
        raise ConfigError("ladder must be comma-separated integers")
    if len(ladder) < 2:
        raise ConfigError("ladder needs at least two sizes to show a trend")
    if any(n < 3 for n in ladder):
        raise ConfigError("ladder entries must be >= 3")
    scan = accumulation_scan(ladder)
    summary = {
        "n": [r.n for r in scan.rows],
        "n_points": [r.n_points for r in scan.rows],
        "min_distance": [r.min_distance for r in scan.rows],
        "median_distance": [r.median_distance for r in scan.rows],
        "re_closest": [r.closest.real for r in scan.rows],
        "im_closest": [r.closest.imag for r in scan.rows],
    }
    meta = {"target": repr(scan.target), "lambda_c_estimate": repr(scan.lambda_c_estimate)}
    files = [emit(out / ("fig2_accumulation" + ext), meta, summary)]
    lam = np.concatenate([r.couplings for r in scan.rows])
    pts = {
        "n": np.repeat([r.n for r in scan.rows], [r.couplings.size for r in scan.rows]),
        "re_lambda": lam.real,
        "im_lambda": lam.imag,
        "near_axis": np.concatenate([r.near_axis for r in scan.rows]).astype(int),
        "distance": [abs(z - scan.target) for z in lam],  # scalar abs: np.abs on arrays rounds differently
    }
    files.append(emit(out / ("fig2_points" + ext), meta, pts))
    return files


_FIG3_BUNDLE = (
    ("picket", 101), ("perturbed", 101), ("perturbed", 1001),
    ("compensated", 101), ("compensated", 1001), ("undercompensated", 101),
)


def _fig3_model(name: str, n: int, amplitude: float, seed: int) -> EffectiveModel:
    if name == "picket":
        return build_picket_fence(n)
    if name == "perturbed":
        return build_perturbed_fence(n, amplitude, seed)
    if name == "compensated":
        return build_power_law(n, 1.0, 4.0)
    if name == "undercompensated":
        return build_power_law(n, 0.0, 4.0)
    raise ConfigError("unknown fig3 system %r" % name)


def _run_fig3(cfg, out):
    emit, ext = _writer(cfg)
    grid = _grid_from(cfg, 0.05, 1.0, 0.005)
    phi = _get(cfg, "phi", 0.0, float)
    amplitude = _get(cfg, "amplitude", 0.1, float)
    seed = _get(cfg, "seed", 1, int)
    jobs = _jobs(cfg)
    system = _get(cfg, "system", "all", str)
    if system == "all":
        bundle = list(_FIG3_BUNDLE)
    else:
        bundle = [(system, _get(cfg, "n", 101, int))]
    bs, rows = [], []
    for name, n in bundle:
        b = _b_values(_fig3_model(name, n, amplitude, seed), phi, grid, jobs)
        pk, has = _peak(grid, b)
        bs.append(b)
        rows.append((name, n, has, pk.lam, pk.value, pk.descent_ratio))
    cols = {
        "system": np.repeat([name for name, _ in bundle], grid.size),
        "n": np.repeat([n for _, n in bundle], grid.size),
        "lam": np.tile(grid, len(bundle)),
        "b": np.concatenate(bs),
    }
    peaks = dict(zip(("system", "n", "has_peak", "peak_lam", "peak_value", "descent_ratio"), zip(*rows)))
    meta = {
        "phi_deg": phi,
        "lambda_c_ladder": repr(LADDER_CRITICAL),
        "lambda_c_compensated": repr(2.0 / math.pi),
        "amplitude": amplitude,
        "seed": seed,
    }
    return [
        emit(out / ("fig3_b" + ext), meta, cols),
        emit(out / ("fig3_peaks" + ext), meta, peaks),
    ]


def _ep_rows(systems) -> dict:
    """Both mirror partners of every exceptional point of each (name, model), representative first."""
    rows = [(name, p) for name, model in systems for p in find_eps(model)]
    pts = [p for _, p in rows]
    return {
        "system": np.repeat([name for name, _ in rows], 2),
        "pair_id": np.repeat([p.pair_id for p in pts], 2),
        "representative": np.tile([1, 0], len(pts)),
        **_ep_cols(
            np.ravel([(p.coupling, p.partner) for p in pts]),
            np.ravel([(p.energy, np.conj(p.energy)) for p in pts]),
        ),
        "residual": np.repeat([p.residual for p in pts], 2),
    }


def _run_fig4(cfg, out):
    emit, ext = _writer(cfg)
    n = _get(cfg, "n", 19, int)
    amplitude = _get(cfg, "amplitude", 0.1, float)
    seed = _get(cfg, "seed", 1, int)
    cols = _ep_rows([("ideal", build_picket_fence(n)), ("perturbed", build_perturbed_fence(n, amplitude, seed))])
    meta = {"n": n, "amplitude": amplitude, "seed": seed, "lambda_c_ladder": repr(LADDER_CRITICAL)}
    return [emit(out / ("fig4_eps" + ext), meta, cols)]


def _run_sweep(cfg, out):
    emit, ext = _writer(cfg)
    model = _model_from(cfg, 15)
    grid = _grid_from(cfg, 0.001, 2.0, 0.001)
    phi = _get(cfg, "phi", 0.0, float)
    policy = _get(cfg, "ambiguity", "sorted", str)
    traj = sweep(model, grid, phi, policy=policy)
    meta = {
        "model": cfg.get("model", "picket"), "n": model.n, "phi_deg": phi,
        "ambiguous_intervals": ";".join("%r:%r" % iv for iv in traj.ambiguous_intervals) or "none",
    }
    cols = _trajectory_cols(grid, traj.energies, np.ones(traj.energies.shape, dtype=bool))
    files = [emit(out / ("sweep_trajectories" + ext), meta, cols)]
    tps = turning_points(traj)
    eps = find_eps(model)
    pts = {
        "kind": ["turning"] * len(tps) + ["crossing"] * len(eps),
        "index": [tp.state for tp in tps] + [p.pair_id for p in eps],
        **_ep_cols(
            [tp.lam * phase_factor(phi) for tp in tps] + [p.coupling for p in eps],
            [complex(math.nan, math.nan)] * len(tps) + [p.energy for p in eps],
        ),
        "width": [tp.width for tp in tps] + [-2.0 * p.energy.imag for p in eps],
    }
    files.append(emit(out / ("sweep_points" + ext), meta, pts))
    return files


def _run_eps(cfg, out):
    emit, ext = _writer(cfg)
    model = _model_from(cfg, 15)
    cols = _ep_rows([(cfg.get("model", "picket"), model)])
    meta = {"model": cfg.get("model", "picket"), "n": model.n}
    return [emit(out / ("eps" + ext), meta, cols)]


def _run_bcurve(cfg, out):
    emit, ext = _writer(cfg)
    model = _model_from(cfg, 101)
    grid = _grid_from(cfg, 0.05, 1.0, 0.005)
    phi = _get(cfg, "phi", 0.0, float)
    b = _b_values(model, phi, grid, _jobs(cfg))
    pk, has = _peak(grid, b)
    meta = {
        "model": cfg.get("model", "picket"), "n": model.n, "phi_deg": phi,
        "flagged": int(np.count_nonzero(~np.isfinite(b))),
        "has_peak": has,
        "peak_lam": repr(pk.lam),
        "peak_value": repr(pk.value),
        "descent_ratio": repr(pk.descent_ratio),
    }
    return [emit(out / ("bcurve" + ext), meta, {"lam": grid, "b": b})]


def _run_order(cfg, out):
    emit, ext = _writer(cfg)
    model = _model_from(cfg, 1001)
    grid = _grid_from(cfg, 0.05, 1.0, 0.005)
    phi = _get(cfg, "phi", 0.0, float)
    curve = order_parameter(model, grid, phi)
    meta = {"model": cfg.get("model", "picket"), "n": model.n, "phi_deg": phi, "lambda_c_ladder": repr(LADDER_CRITICAL)}
    cols = {
        "lam": curve.lambdas,
        "gamma0": curve.gamma0,
        "gamma0_over_n": curve.gamma0_over_n,
        "slope_over_n": curve.derivative_over_n,
    }
    return [emit(out / ("order" + ext), meta, cols)]


def _run_loop(cfg, out):
    emit, ext = _writer(cfg)
    eps1 = _get(cfg, "eps1", 0.0, float)
    eps2 = _get(cfg, "eps2", 1.0, float)
    omega = _get(cfg, "omega", 30.0, float)
    windings = _get(cfg, "windings", 1, int)
    samples = _get(cfg, "samples", 512, int)
    model = build_two_level(eps1, eps2, omega)
    ep = two_level_eps(eps1, eps2, omega)
    radius = cfg.get("radius")
    radius = float(radius) if radius else 0.4 * abs(ep.coupling - ep.partner) / 2.0
    cfg["radius"] = repr(radius)
    res = loop_ep(model, ep.coupling, radius, windings=windings, samples=samples)
    t, contour = _contour(ep.coupling, radius, windings, res.samples // abs(windings))
    theta = theta_along(eps1, eps2, omega, contour)
    cols = {
        "winding_t": t,
        "re_lambda": contour.real,
        "im_lambda": contour.imag,
        "re_theta": theta.real,
        "im_theta": theta.imag,
    }
    meta = {
        "eps1": eps1, "eps2": eps2, "omega_deg": omega,
        "center": format_value(complex(ep.coupling)),
        "radius": repr(radius), "windings": windings,
        "permutation": ",".join(str(p) for p in res.permutation),
        "signs": ",".join("%+d" % s for s in res.signs),
        "min_overlap": repr(res.min_overlap),
        "matrix_error": repr(res.matrix_error),
    }
    files = [emit(out / ("loop_contour" + ext), meta, cols)]
    delta = _get(cfg, "delta", 1.0, float)
    factor = _get(cfg, "lam_factor", 100.0, float)
    rows, theta_ends = [], []
    for w in (45.0 - delta, 45.0 + delta):
        comp = omega_comparison(eps1, eps2, w, lam_factor=factor)
        th = theta_of(eps1, eps2, w, comp.lam)
        theta_ends.append(th)
        rows.append((
            w, comp.lam, comp.tan_theta.real, comp.tan_theta.imag, comp.tan_theta_limit,
            comp.predicted, comp.prediction, comp.deviation, math.degrees(th.real),
        ))
    names = (
        "omega_deg", "lam", "re_tan_theta", "im_tan_theta", "tan_theta_limit",
        "predicted", "prediction", "deviation", "theta_end_deg",
    )
    meta2 = {
        "delta_deg": delta, "lam_factor": factor,
        "phase_difference_deg": repr(abs(math.degrees((theta_ends[1] - theta_ends[0]).real))),
    }
    files.append(emit(out / ("omega_check" + ext), meta2, dict(zip(names, zip(*rows)))))
    return files


def _run_classify(cfg, out):
    emit, ext = _writer(cfg)
    n = _get(cfg, "n", 101, int)
    phi = _get(cfg, "phi", 0.0, float)
    jobs = _jobs(cfg)
    grid = _grid_from(cfg, 0.05, 1.0, 0.005)
    if cfg.get("r") is not None and cfg.get("t") is not None and cfg.get("r") != "" and cfg.get("t") != "":
        pairs = [(float(cfg["r"]), float(cfg["t"]))]
    else:
        pairs = [(0.0, 2.0), (1.0, 4.0), (0.0, 4.0)]
    rows = []
    for r, t in pairs:
        cls = classify_compensation(r, t)
        b = _b_values(build_power_law(n, r, t), phi, grid, jobs)
        pk, has = _peak(grid, b)
        predicted = critical_coupling(r, t) if cls == "compensated" else math.nan
        rows.append((r, t, cls, predicted, pk.lam, pk.value, has))
    names = ("r", "t", "class", "predicted_lambda_c", "peak_lam", "peak_value", "has_peak")
    meta = {"n": n, "phi_deg": phi}
    return [emit(out / ("classify" + ext), meta, dict(zip(names, zip(*rows))))]


# ---------------------------------------------------------------------------
# command wiring

def _common(fn):
    opts = [
        click.option("--config", "config_path", type=click.Path(), default=None, help="key = value config file."),
        click.option("--n", type=int, default=None, help="model size."),
        click.option("--lambda-start", "lambda_start", type=float, default=None),
        click.option("--lambda-stop", "lambda_stop", type=float, default=None),
        click.option("--lambda-step", "lambda_step", type=float, default=None),
        click.option("--phi", type=float, default=None, help="coupling phase in degrees."),
        click.option("--r", type=float, default=None, help="coupling growth exponent."),
        click.option("--t", type=float, default=None, help="level spreading exponent."),
        click.option("--amplitude", type=float, default=None, help="fence perturbation amplitude."),
        click.option("--seed", type=int, default=None, help="generator seed."),
        click.option("--out", type=click.Path(), default=None, help="output directory."),
        click.option("--format", "format", type=click.Choice(["csv", "json"]), default=None),
        click.option("--jobs", type=int, default=None, help="worker processes for grid scans."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _execute(command: str, runner, kw: dict) -> None:
    t0 = time.perf_counter()
    try:
        cfg = _resolve(command, kw)
        out = resolve_out(kw.get("out"), cfg.get("out"))
        cfg["out"] = str(out)
        out.mkdir(parents=True, exist_ok=True)
        files = runner(cfg, out)
        manifest = write_manifest(out, command, cfg, files, __version__, time.perf_counter() - t0)
        for f in list(files) + [manifest]:
            click.echo(str(f))
    except (ConfigError, InvalidModelError) as err:
        click.echo("error: %s" % err, err=True)
        sys.exit(2)
    except EpAtlasError as err:
        click.echo("numerical failure: %s" % err, err=True)
        sys.exit(3)


@click.group()
@click.version_option(__version__, prog_name="ep-atlas")
def main():
    """Spectra, exceptional points and collectivity of rank-one decaying systems."""


def _register(name: str, runner, doc: str):
    @main.command(name=name, help=doc)
    @_common
    def _cmd(**kw):
        _execute(name, runner, kw)

    _cmd.__name__ = "cmd_" + name
    return _cmd


_register("fig1", _run_fig1, "Trajectory fans for two fence sizes with coalescence markers.")
_register("fig2", _run_fig2, "Exceptional-point accumulation toward the critical coupling.")
_register("fig3", _run_fig3, "B curves for the standard six-system bundle.")
_register("fig4", _run_fig4, "Exceptional points of an ideal versus perturbed fence.")
_register("sweep", _run_sweep, "Eigenvalue trajectories over a coupling grid.")
_register("eps", _run_eps, "Exceptional-point table for one model.")
_register("bcurve", _run_bcurve, "B measure over a coupling grid.")
_register("order", _run_order, "Collective width and its slope over a coupling grid.")
_register("loop", _run_loop, "Monodromy loop around the two-level coalescence.")
_register("classify", _run_classify, "Compensation classes with measured B peaks.")


if __name__ == "__main__":
    main()
