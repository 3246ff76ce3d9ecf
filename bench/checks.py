"""Correctness checks on the CLI's outputs, run after the timed passes.

Every check compares an output file against an independent route: dense
LAPACK eigensolves of H = diag(eps) - 1j*Lambda*v v^T, the trace identity,
direct evaluation of the secular function, or the known monodromy of a
square-root exceptional point.
`check_pass` returns, per invocation label, the list of problems found; an
empty list means the invocation's outputs are correct.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

ENERGY_ATOL = 1e-8  # dense eigvals vs secular roots, away from coalescences
B_RTOL = 1e-6  # B from dense eigenvectors vs the CLI's B
EP_RESIDUAL = 1e-9  # the table's own polish residual bound
SECULAR_RTOL = 1e-9  # |S(E) - i/Lambda| relative to the size of its terms
TRACE_RTOL = 1e-10


def read_csv(path: Path):
    """('#' metadata dict, columns dict of string lists) of a CLI CSV file."""
    meta: dict[str, str] = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, val = lines[i][2:].partition(": ")
        meta[key] = val
        i += 1
    names = lines[i].split(",")
    cols = {k: [] for k in names}
    for row in lines[i + 1:]:
        for k, v in zip(names, row.split(",")):
            cols[k].append(v)
    return meta, cols


def dense_h(model, lam: complex) -> np.ndarray:
    return np.diag(model.epsilons).astype(complex) - 1j * lam * np.outer(model.couplings, model.couplings)


def _unmatched(got, ref) -> float:
    """Largest distance from a value in got to its nearest value in ref."""
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    return float(np.abs(got[:, None] - ref[None, :]).min(axis=1).max())


def _energies_at(cols, lam: str, model, what: str, half: bool = False) -> list[str]:
    """Energies the CSV lists at one coupling against dense eigvals (the Re >= 0 half for fig1)."""
    rows = [i for i, x in enumerate(cols["lam"]) if x == lam]
    got = np.array([complex(float(cols["re_energy"][i]), float(cols["im_energy"][i])) for i in rows])
    ref = np.linalg.eigvals(dense_h(model, float(lam)))
    if half:
        ref = ref[ref.real >= -1e-9]
    if got.size != ref.size:
        return ["%s lam=%s: %d energies, dense eigvals give %d" % (what, lam, got.size, ref.size)]
    err = max(_unmatched(got, ref), _unmatched(ref, got))
    if err > ENERGY_ATOL * max(1.0, float(np.abs(ref).max())):
        return ["%s lam=%s: energies off dense eigvals by %.3g" % (what, lam, err)]
    return []


def _sampled(values: list[str], k: int) -> list[str]:
    distinct = list(dict.fromkeys(values))
    idx = np.linspace(0, len(distinct) - 1, k).round().astype(int)
    return [distinct[i] for i in dict.fromkeys(idx)]


def _dense_b(model, lam: float) -> float:
    """B from c-normalized dense eigenvectors: mean of <psi|psi> / |psi^T psi|."""
    _, vecs = np.linalg.eig(dense_h(model, lam))
    bil = np.abs(np.einsum("ki,ki->i", vecs, vecs))
    herm = np.einsum("ki,ki->i", vecs.conj(), vecs).real
    return float(np.mean(herm / bil))


def _check_bcurve(out: Path, model, problems: list):
    meta, cols = read_csv(out / "bcurve.csv")
    lam = np.array([float(x) for x in cols["lam"]])
    b = np.array([float(x) for x in cols["b"]])
    if lam.size < 3:
        problems.append("bcurve has %d grid points" % lam.size)
        return
    if int(meta["flagged"]) != int(np.count_nonzero(~np.isfinite(b))):
        problems.append("bcurve flagged=%s but %d NaN values" % (meta["flagged"], np.count_nonzero(~np.isfinite(b))))
    finite = np.flatnonzero(np.isfinite(b))
    if meta["has_peak"] != "1" or abs(float(meta["peak_lam"]) - 1 / math.pi) > 0.1:
        problems.append("bcurve peak %s at %s, expected one near 1/pi" % (meta["has_peak"], meta["peak_lam"]))
    # the peak (largest mixing) and the strong-coupling end
    for i in dict.fromkeys([int(finite[np.argmax(b[finite])]), int(finite[-1])]):
        ref = _dense_b(model, float(lam[i]))
        if abs(b[i] - ref) > B_RTOL * ref:
            problems.append("bcurve B(%r)=%r, dense eigenvectors give %r" % (lam[i], b[i], ref))


def _check_order(out: Path, model, problems: list):
    from ep_atlas.secular import eigen_spectrum

    _, cols = read_csv(out / "order.csv")
    lam = float(cols["lam"][0])
    gamma0 = float(cols["gamma0"][0])
    e = eigen_spectrum(model, lam).energies
    eps, v2 = model.epsilons, model.couplings**2
    trace_err = abs(e.sum() - (eps.sum() - 1j * lam * v2.sum()))
    if trace_err > TRACE_RTOL * (np.abs(eps).sum() + lam * v2.sum()):
        problems.append("order lam=%r: trace identity off by %.3g" % (lam, trace_err))
    terms = v2[None, :] / (e[:, None] - eps[None, :])
    resid = np.abs(terms.sum(axis=1) - 1j / lam) / (np.abs(terms).sum(axis=1) + 1.0 / lam)
    if resid.max() > SECULAR_RTOL:
        problems.append("order lam=%r: secular residual %.3g" % (lam, resid.max()))
    if abs(gamma0 - float((-2.0 * e.imag).max())) > 1e-9 * gamma0:
        problems.append("order lam=%r: gamma0 %r is not the largest width" % (lam, gamma0))


def _check_ep_table(path: Path, model, problems: list):
    _, cols = read_csv(path)
    act = model.couplings != 0
    eps, v2 = model.epsilons[act], model.couplings[act] ** 2
    reps = [i for i, r in enumerate(cols["representative"]) if r == "1"]
    if len(reps) != eps.size - 1:
        problems.append("%s: %d representatives, N_active - 1 = %d" % (path.name, len(reps), eps.size - 1))
    res = max((float(x) for x in cols["residual"]), default=0.0)
    if res >= EP_RESIDUAL:
        problems.append("%s: residual %.3g" % (path.name, res))
    for i in reps:
        e = complex(float(cols["re_energy"][i]), float(cols["im_energy"][i]))
        lam = complex(float(cols["re_lambda"][i]), float(cols["im_lambda"][i]))
        d = e - eps
        s_err = abs((v2 / d).sum() - 1j / lam) / (np.abs(v2 / d).sum() + 1 / abs(lam))
        sp_err = abs((v2 / d**2).sum()) / np.abs(v2 / d**2).sum()
        if max(s_err, sp_err) > 1e-8:
            problems.append("%s pair %s: S - i/Lambda %.3g, S' %.3g" % (path.name, cols["pair_id"][i], s_err, sp_err))
            break


def _check_sweep(out: Path, model, problems: list):
    _, cols = read_csv(out / "sweep_trajectories.csv")
    for lam in _sampled(cols["lam"], 5):
        problems += _energies_at(cols, lam, model, "sweep")
    _, pts = read_csv(out / "sweep_points.csv")
    crossings = pts["kind"].count("crossing")
    if crossings != model.n - 1:
        problems.append("sweep: %d crossings, expected %d" % (crossings, model.n - 1))


def _check_fig1(out: Path, models: dict, problems: list):
    for n in (15, 43):
        _, cols = read_csv(out / ("fig1_trajectories_n%d.csv" % n))
        for lam in _sampled(cols["lam"], 3):
            problems += _energies_at(cols, lam, models["fig1_n%d" % n], "fig1 n=%d" % n, half=True)


def _check_loop(out: Path, problems: list):
    meta, _ = read_csv(out / "loop_contour.csv")
    signs = meta["signs"].split(",")
    if meta["permutation"] != "1,0" or signs.count("-1") != 1:
        problems.append("loop: permutation %s signs %s, expected 1,0 with one sign twist"
                        % (meta["permutation"], meta["signs"]))


def check_pass(models: dict, pass_dir: Path, ops: list) -> dict:
    """Problems per invocation label, for every invocation that exited 0."""
    found: dict[str, list] = {}
    for op in ops:
        if op["code"] != 0:
            continue
        out = pass_dir / op["dir"]
        problems: list[str] = []
        label = op["label"]
        try:
            if label == "bcurve":
                _check_bcurve(out, models["bcurve"], problems)
            elif label == "order":
                _check_order(out, models["order"], problems)
            elif label in ("eps_n1001", "eps_powerlaw"):
                _check_ep_table(out / "eps.csv", models[label], problems)
            elif label == "sweep":
                _check_sweep(out, models["sweep"], problems)
            elif label == "fig1":
                _check_fig1(out, models, problems)
            elif label == "loop":
                _check_loop(out, problems)
        except (OSError, KeyError, ValueError, IndexError) as err:
            problems.append("%s: unreadable output (%s: %s)" % (label, type(err).__name__, err))
        found[label] = problems
    return found
