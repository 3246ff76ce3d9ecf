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
the rational log-derivative R'/R = S''/S' + sum_k 2/(E - eps_k); then two
coupled Newton steps on (S - i/Lambda, S') from Lambda = i/S(E*) polish all
roots at once, the second step's size being the residual.

For real models R has real coefficients, so its roots come in conjugate
pairs and the exceptional couplings are closed under Lambda -> -conj(Lambda).
One member per such pair is reported, canonicalized to Re Lambda >= 0 (ties
broken toward Im Lambda >= 0); a model with N coupled levels has exactly
N - 1 representatives, 2(N-1) points in total.  The two roots of R behind a
representative are paired by distance, not by adjacency in a sort, because
mirror-symmetric models produce distinct pairs whose Re Lambda tie to the
last bit; for the same reason their order treats Re Lambda within
1e-12*max(1, |Lambda|) as a tie, broken by Im Lambda.  Levels with v_k = 0
are decoupled and take no part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import IncompleteSearchError
from .models import EffectiveModel, build_picket_fence
from .secular import _aberth, _active, _cauchy_sums, _power_sums, _separate, _step_floor, _tie_order

_TOL = 5e-14  # Aberth stopping tolerance for the roots of R


@dataclass(frozen=True)
class ExceptionalPoint:
    """One representative coalescence: coupling, degenerate energy, partner.

    partner is the mirror coupling -conj(coupling); pair_id numbers the
    representatives by Re coupling, real parts within
    1e-12*max(1, |coupling|) being a tie ordered by Im coupling.
    """

    coupling: complex
    energy: complex
    partner: complex
    residual: float
    pair_id: int


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
    """R'/R = S''/S' + 2*sum r, with S' = -sum v^2*r^2 and S'' = 2*sum v^2*r^3."""
    v2 = v2.astype(complex)

    def logderiv(r, m):
        _, s2, s3 = _power_sums(r, v2, 3)
        return -2.0 * s3 / s2 + 2.0 * r.sum(axis=1)

    return logderiv


def _canonical(e: complex, lam: complex) -> tuple[complex, complex]:
    """Map (E, Lambda) to the representative of its {Lambda, -conj Lambda} class."""
    tie = 1e-12 * (1.0 + abs(lam))
    if lam.real < -tie or (abs(lam.real) <= tie and lam.imag < 0):
        return np.conj(e), -np.conj(lam)
    return e, lam


def find_eps(model: EffectiveModel) -> list[ExceptionalPoint]:
    """All exceptional-point representatives of the model, one per mirror pair.

    Returns N_active - 1 points sorted by Re coupling, ties in Re ordered by
    Im, each with the size of its last Newton step as residual (rounding
    noise, well below 1e-9).  Raises IncompleteSearchError (carrying the
    pairs that formed) if the one Aberth attempt from the gap seeds does not
    converge or its roots do not pair into the full set.
    """
    _, eps, v2 = _active(model)
    m = eps.size
    if m < 2:
        return []
    z0 = _separate(_gap_seeds(eps, v2), 0.7 + 0.3j)
    roots, _, ok, _ = _aberth(eps, _r_logderiv(v2), z0, floor=partial(_step_floor, eps, v2, 2), maxiter=600, tol=_TOL)
    pts = []
    if ok:
        # coupled Newton on (S - i/Lambda, S') from Lambda = i/S: the roots solve S' = 0 to _TOL, so
        # the first step reaches rounding and the size of the second is the residual
        e, lam = roots, None
        for _ in range(2):
            s, s2, s3 = _cauchy_sums(e, eps, v2, 3)  # S, -S' and S''/2
            lam = 1j / s if lam is None else lam
            de = s2 / (2.0 * s3)
            dl = 1j * (s - 1j / lam - s2 * de) * lam * lam
            e, lam = e + de, lam + dl
        res = np.abs(de) / (1.0 + np.abs(e)) + np.abs(dl) / (1.0 + np.abs(lam))
        pts = [_canonical(a, b) + (c,) for a, b, c in zip(e, lam, res)]
    reps = _cluster(pts)
    if len(reps) == m - 1:
        return reps
    raise IncompleteSearchError("could not account for all %d exceptional-point pairs" % (m - 1), found=reps)


def _cluster(pts) -> list[ExceptionalPoint]:
    """Group canonicalized points into mirror pairs, skipping any point without exactly one partner.

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
            continue
        used[j[0]] = True
        a, b = pts[i], pts[j[0]]
        reps.append(((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0, max(a[2], b[2])))
    reps = [reps[j] for j in _coupling_order(np.array([p[1] for p in reps], dtype=complex))]
    return [ExceptionalPoint(lam, e, -np.conj(lam), res, i) for i, (e, lam, res) in enumerate(reps)]


def _coupling_order(lam: np.ndarray) -> np.ndarray:
    """Order by Re Lambda, where Re Lambda within 1e-12*max(1, |Lambda|) is a tie ordered by Im Lambda."""
    return _tie_order(lam.real, lam.imag, np.maximum(1.0, np.abs(lam)))


def expand_ep_set(reps: list[ExceptionalPoint]) -> np.ndarray:
    """Full coupling set (both mirror partners), in the order of find_eps (Re, ties by Im)."""
    full = np.array([p.coupling for p in reps] + [p.partner for p in reps], dtype=complex)
    return full[_coupling_order(full)]


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
    coupling 1/pi; of a mirror pair tied in distance, the first in find_eps
    order is the closest.  The estimate returned is Re Lambda of the closest
    point at the largest size.
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
        j = int(np.flatnonzero(dist - dist.min() <= 1e-12 * np.maximum(1.0, np.abs(lam_near)))[0])
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
