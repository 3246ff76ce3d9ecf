"""Location of exceptional points in the complex coupling plane.

At an exceptional point two eigenvalues of H(Lambda) coalesce together with
their eigenvectors.  For the rank-one family this happens exactly where the
secular equation has a double root:

    S(E) = i/Lambda    and    S'(E) = 0.

The second condition does not involve Lambda at all, so the search decouples:
the zeros of S'(E) are the roots of the polynomial

    R(E) = sum_k v_k^2 prod_{j != k} (E - eps_j)^2,

of degree 2(N-1), and each zero E* yields its coupling as Lambda = i/S(E*).
For real models R has real coefficients and no real root: R(x) > 0 at
every real x, since off the levels every term is > 0, and at a level eps_m
the term k = m is (the coupled levels being distinct).  So its roots are
N-1 conjugate pairs (E*, conj E*), and the
exceptional couplings are closed under Lambda -> -conj(Lambda).  The search
therefore iterates only the N-1 roots in the upper half plane, seeded by
the upper coalescence of each adjacent two-level pair, with the
spectrum's Ehrlich-Aberth engine (secular._aberth with conjugates, whose
repulsion counts the mirror images as the other half of the roots), fed
the rational log-derivative R'/R = S''/S' + sum_k 2/(E - eps_k).  Two
coupled Newton steps on (S - i/Lambda, S') from Lambda = i/S(E*) polish
every root, the second step's size being the residual.

Each root gives one representative, canonicalized to Re Lambda >= 0 (ties
broken toward Im Lambda >= 0); a model with N coupled levels has exactly
N - 1 representatives, 2(N-1) points in total.  A search that does not
converge, or leaves a root on the real axis or two roots within
1e-6*(1 + |E|) of each other, raises IncompleteSearchError with one
representative per distinct root off the axis (none when it did not
converge).  Mirror-symmetric models produce distinct pairs whose
Re Lambda tie to the last bit, so the order treats Re Lambda within
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
from .secular import (
    _aberth,
    _active,
    _cauchy_sums,
    _crowded,
    _power_sums,
    _separate,
    _step_floor,
    _step_unit,
    _tie_order,
)

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
    """One seed per adjacent gap, in the upper half plane, from the local two-level closed form.

    An isolated pair (eps_k, eps_k+1) with amplitudes (v_k, v_k+1) has its
    coalescences at E = midpoint + halfgap * exp(-+ 2j*w), w = atan2 of the
    amplitudes in (0, pi/2); the upper one seeds the search.
    """
    mid = (eps[1:] + eps[:-1]) / 2.0
    half = (eps[1:] - eps[:-1]) / 2.0
    w = np.arctan2(np.sqrt(v2[1:]), np.sqrt(v2[:-1]))
    return mid + half * np.exp(2j * w)


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


def _polished(roots: np.ndarray, eps: np.ndarray, v2: np.ndarray):
    """(E, Lambda, residual) of each root of R by coupled Newton on (S - i/Lambda, S') from Lambda = i/S.

    The roots solve S' = 0 to _TOL, so the first step reaches rounding and
    the size of the second is the residual.
    """
    e, lam = roots, None
    for _ in range(2):
        s, s2, s3 = _cauchy_sums(e, eps, v2, 3)  # S, -S' and S''/2
        lam = 1j / s if lam is None else lam
        de = s2 / (2.0 * s3)
        dl = 1j * (s - 1j / lam - s2 * de) * lam * lam
        e, lam = e + de, lam + dl
    return e, lam, np.abs(de) / (1.0 + np.abs(e)) + np.abs(dl) / (1.0 + np.abs(lam))


def find_eps(model: EffectiveModel) -> list[ExceptionalPoint]:
    """All exceptional-point representatives of the model, one per mirror pair.

    Returns N_active - 1 points sorted by Re coupling, ties in Re ordered by
    Im, each with the size of its last Newton step as residual (rounding
    noise, well below 1e-9).  One Aberth attempt iterates the N_active - 1
    roots of R in the upper half plane from the gap seeds, their conjugates
    taking part through the repulsion (_aberth's conjugates).  Raises
    IncompleteSearchError if that attempt does not converge (found is then
    empty), or if a root ends on the real axis or two roots lie within
    1e-6*(1 + |E|) of each other: found then holds one representative per
    distinct root off the axis, the first of each crowded group.
    """
    _, eps, v2 = _active(model)
    m = eps.size
    if m < 2:
        return []
    z0 = _separate(_gap_seeds(eps, v2), 0.7 + 0.3j, _step_unit(eps))
    floor = partial(_step_floor, eps, v2, 2)
    roots, _, ok, _ = _aberth(eps, _r_logderiv(v2), z0, floor=floor, maxiter=600, tol=_TOL, conjugates=True)
    reps = []
    if ok:
        # fold to Im E > 0; an iterate that reached the real axis stopped there on a zeroed step
        roots = np.where(roots.imag < 0, roots.conj(), roots)
        keep = roots.imag > 0
        crowded = np.flatnonzero(_crowded(roots, 1e-6 * (1.0 + np.abs(roots))))
        for k, i in enumerate(crowded):  # the first of each crowded group stays
            kept = crowded[:k][keep[crowded[:k]]]
            keep[i] &= not (np.abs(roots[kept] - roots[i]) < 1e-6 * (1.0 + abs(roots[i]))).any()
        e, lam, res = _polished(roots[keep], eps, v2)
        pts = [_canonical(a, b) + (c,) for a, b, c in zip(e, lam, res)]
        pts = [pts[j] for j in _coupling_order(np.array([p[1] for p in pts], dtype=complex))]
        reps = [ExceptionalPoint(b, a, -np.conj(b), c, i) for i, (a, b, c) in enumerate(pts)]
        if keep.all():
            return reps
    raise IncompleteSearchError("could not account for all %d exceptional-point pairs" % (m - 1), found=reps)


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
