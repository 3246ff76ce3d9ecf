"""Location of exceptional points in the complex coupling plane.

At an exceptional point two eigenvalues of H(Lambda) coalesce together with
their eigenvectors.  For the rank-one family this happens exactly where the
secular equation has a double root:

    S(E) = i/Lambda    and    S'(E) = 0.

The second condition does not involve Lambda at all, so the search decouples:
the zeros of S'(E) are the roots of the polynomial

    R(E) = sum_k v_k^2 prod_{j != k} (E - eps_j)^2,

of degree 2(N-1), and each zero E* yields its coupling as Lambda = i/S(E*).
R is found with the spectrum's Ehrlich-Aberth engine (secular._aberth), fed
the rational log-derivative R'/R = S''/S' + sum_k 2/(E - eps_k); then each
pair (E*, Lambda*) is polished with a 2x2 Newton step on (S - i/Lambda, S').

For real models R has real coefficients, so its roots come in conjugate
pairs and the exceptional couplings are closed under Lambda -> -conj(Lambda).
One member per such pair is reported, canonicalized to Re Lambda >= 0 (ties
broken toward Im Lambda >= 0); a model with N coupled levels has exactly
N - 1 representatives, 2(N-1) points in total.  The two roots of R behind a
representative are paired by distance, not by adjacency in a sort, because
mirror-symmetric models produce distinct pairs whose Re Lambda tie to the
last bit.  Levels with v_k = 0 are decoupled and take no part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompleteSearchError
from .models import EffectiveModel, build_picket_fence
from .secular import _aberth, _separate


@dataclass(frozen=True)
class ExceptionalPoint:
    """One representative coalescence: coupling, degenerate energy, partner.

    partner is the mirror coupling -conj(coupling); pair_id numbers the
    representatives in (Re, Im) order of the coupling.
    """

    coupling: complex
    energy: complex
    partner: complex
    residual: float
    pair_id: int


def _active(model: EffectiveModel):
    act = model.couplings != 0.0
    return model.epsilons[act], model.couplings[act] ** 2


def _gap_seeds(eps: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Two seeds per adjacent gap from the local two-level closed form.

    An isolated pair (eps_k, eps_k+1) with amplitudes (v_k, v_k+1) has its
    coalescences at E = midpoint + halfgap * exp(-+ 2j*w), w = atan2 of the
    amplitudes; those points seed the full search.
    """
    mid = (eps[1:] + eps[:-1]) / 2.0
    half = (eps[1:] - eps[:-1]) / 2.0
    w = np.arctan2(np.sqrt(v2[1:]), np.sqrt(v2[:-1]))
    up = mid + half * np.exp(2j * w)
    dn = mid + half * np.exp(-2j * w)
    return np.concatenate([dn, up])


def _r_logderiv(v2: np.ndarray):
    """R'/R = S''/S' + 2*sum r, with S' = -sum r^2*v^2 and S'' = 2*sum r^3*v^2."""
    v2 = v2.astype(complex)

    def logderiv(r):
        r2v = r * r
        r2v *= v2
        sp = r2v.sum(axis=1)
        r2v *= r
        return -2.0 * r2v.sum(axis=1) / sp + 2.0 * r.sum(axis=1)

    return logderiv


def _polish(eps, v2, e, lam, rounds=40):
    """Coupled Newton on (S - i/Lambda, S'); returns (E, Lambda, step residual)."""
    res = np.inf
    for _ in range(rounds):
        d = e - eps
        s = (v2 / d).sum()
        sp = -(v2 / d**2).sum()
        spp = 2.0 * (v2 / d**3).sum()
        f1 = s - 1j / lam
        de = -sp / spp
        dl = 1j * (f1 + sp * de) * lam * lam
        e = e + de
        lam = lam + dl
        res = abs(de) / (1.0 + abs(e)) + abs(dl) / (1.0 + abs(lam))
        if res < 1e-15:
            break
    return e, lam, res


def _canonical(e: complex, lam: complex) -> tuple[complex, complex]:
    """Map (E, Lambda) to the representative of its {Lambda, -conj Lambda} class."""
    tie = 1e-12 * (1.0 + abs(lam))
    if lam.real < -tie or (abs(lam.real) <= tie and lam.imag < 0):
        return np.conj(e), -np.conj(lam)
    return e, lam


def find_eps(model: EffectiveModel, *, tol: float = 5e-14, max_rounds: int = 4) -> list[ExceptionalPoint]:
    """All exceptional-point representatives of the model, one per mirror pair.

    Returns N_active - 1 points sorted by (Re, Im) of the coupling, each
    polished to a step residual well below 1e-9.  Raises
    IncompleteSearchError (carrying whatever was found) if repeated seeding
    rounds cannot account for the full set.
    """
    eps, v2 = _active(model)
    m = eps.size
    if m < 2:
        return []
    want = m - 1
    seeds = _gap_seeds(eps, v2)
    logderiv = _r_logderiv(v2)
    gen = np.random.Generator(np.random.PCG64(0x5EED))
    best: list[ExceptionalPoint] = []
    for _ in range(max_rounds):
        z0 = _separate(seeds.copy(), 0.7 + 0.3j)
        roots, _, ok, _ = _aberth(eps, logderiv, z0, maxiter=600, tol=tol)
        if ok:
            pts = []
            for z in roots:
                s = (v2 / (z - eps)).sum()
                e, lam, res = _polish(eps, v2, z, 1j / s)
                pts.append(_canonical(e, lam) + (res,))
            reps = _cluster(pts, want)
            if reps is not None:
                return reps
            if len(_dedup(pts)) > len(best):
                best = _dedup(pts)
        span = float(eps.max() - eps.min()) if m > 1 else 1.0
        seeds = _gap_seeds(eps, v2) + 0.05 * span * (
            gen.standard_normal(2 * want) + 1j * gen.standard_normal(2 * want)
        )
    raise IncompleteSearchError(
        "could not account for all %d exceptional-point pairs" % want,
        found=tuple(best),
    )


def _dedup(pts) -> list[ExceptionalPoint]:
    out: list[ExceptionalPoint] = []
    for e, lam, res in sorted(pts, key=lambda p: (p[1].real, p[1].imag)):
        if any(abs(lam - q.coupling) <= 1e-6 * (1.0 + abs(lam)) for q in out):
            continue
        out.append(ExceptionalPoint(lam, e, -np.conj(lam), res, len(out)))
    return out


def _cluster(pts, want: int):
    """Group canonicalized points into mirror pairs; None if the count is off.

    Each point is paired with its unique unused partner within 1e-6 in both
    coupling and energy.  Partners are looked up by distance rather than by
    adjacency in a sort: on mirror-symmetric models distinct pairs tie in
    Re Lambda up to the last bit and interleave in any lexicographic order.
    """
    lams = np.array([p[1] for p in pts])
    ens = np.array([p[0] for p in pts])
    used = np.zeros(len(pts), dtype=bool)
    reps = []
    for i in range(len(pts)):
        if used[i]:
            continue
        used[i] = True
        near = (np.abs(lams - lams[i]) <= 1e-6 * (1.0 + abs(lams[i]))) & (
            np.abs(ens - ens[i]) <= 1e-6 * (1.0 + abs(ens[i]))
        )
        j = np.flatnonzero(near & ~used)
        if j.size != 1:
            return None
        used[j[0]] = True
        a, b = pts[i], pts[j[0]]
        reps.append(((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0, max(a[2], b[2])))
    if len(reps) != want:
        return None
    reps.sort(key=lambda p: (p[1].real, p[1].imag))
    return [ExceptionalPoint(lam, e, -np.conj(lam), res, i) for i, (e, lam, res) in enumerate(reps)]


def expand_ep_set(reps: list[ExceptionalPoint]) -> np.ndarray:
    """Full coupling set (both mirror partners), sorted by (Re, Im)."""
    full = np.array([p.coupling for p in reps] + [p.partner for p in reps], dtype=complex)
    return full[np.lexsort((full.imag, full.real))]


def two_level_eps(eps1: float, eps2: float, omega_deg: float) -> ExceptionalPoint:
    """Closed-form exceptional point of the two-level model.

    The representative coupling is 1j*(eps2-eps1)*exp(-2j*w) with degenerate
    energy at midpoint + (gap/2)*exp(-2j*w); the mirror partner carries the
    opposite phase.  Levels are put in increasing order first.
    """
    if eps1 == eps2:
        raise ValueError("two-level exceptional point needs distinct energies")
    if eps1 > eps2:
        eps1, eps2 = eps2, eps1
        omega_deg = 90.0 - omega_deg
    w = math.radians(omega_deg)
    gap = eps2 - eps1
    lam = 1j * gap * np.exp(-2j * w)
    e = (eps1 + eps2) / 2.0 + (gap / 2.0) * np.exp(-2j * w)
    e, lam = _canonical(complex(e), complex(lam))
    return ExceptionalPoint(lam, e, -np.conj(lam), 0.0, 0)


@dataclass(frozen=True)
class AccumulationRow:
    n: int
    n_points: int
    min_distance: float
    median_distance: float
    closest: complex
    couplings: np.ndarray
    near_axis: np.ndarray


@dataclass(frozen=True)
class AccumulationResult:
    rows: list[AccumulationRow]
    target: float
    lambda_c_estimate: float


def accumulation_scan(n_values, *, target: float | None = None) -> AccumulationResult:
    """Distance of near-axis exceptional points to the critical coupling.

    For each fence size the representatives are found, the far-from-axis
    outliers (|Im Lambda| above three times the median, the ones tied to the
    fence edges) are dropped, and the minimum distance of the rest to the
    target is recorded.  Default target is the infinite-fence critical
    coupling 1/pi.  The estimate returned is Re Lambda of the closest point
    at the largest size.
    """
    tgt = (1.0 / math.pi) if target is None else float(target)
    rows: list[AccumulationRow] = []
    closest_at_max = 0.0
    for n in sorted(int(k) for k in n_values):
        reps = find_eps(build_picket_fence(n))
        lam = np.array([p.coupling for p in reps])
        med = float(np.median(np.abs(lam.imag)))
        keep = np.abs(lam.imag) <= 3.0 * med if med > 0 else np.ones(lam.size, bool)
        lam_near = lam[keep]
        dist = np.abs(lam_near - tgt)
        j = int(np.argmin(dist))
        rows.append(
            AccumulationRow(
                n=n,
                n_points=int(lam_near.size),
                min_distance=float(dist[j]),
                median_distance=float(np.median(dist)),
                closest=complex(lam_near[j]),
                couplings=lam,
                near_axis=keep,
            )
        )
        closest_at_max = float(lam_near[j].real)
    return AccumulationResult(rows=rows, target=tgt, lambda_c_estimate=closest_at_max)
