"""Eigenvector monodromy around exceptional points and mixing angles.

Encircling a square-root exceptional point once swaps the two coalescing
states and multiplies one of them by -1; the loop must be traversed four
times to return every vector to itself.  Transport is implemented by
continuation: the coupling walks the contour, each spectrum is solved warm
from the previous point, states are re-identified by proximity in the
energy plane, and the c-normalized vectors keep their sign by demanding a
near-unit bilinear overlap psi_prev^T psi_next between consecutive samples
(for the complex-symmetric H the transposed vectors are the left
eigenvectors, so these overlaps are the natural expansion coefficients).
If the worst step overlap falls below threshold the contour is resampled
more finely before giving up.

Positive winding numbers traverse the contour clockwise,
Lambda(t) = center + radius * exp(-2j*pi*t): one clockwise winding steps the
two-level mixing angle theta by a quarter period pi/2 (downward in the sign
convention of _tan_theta), so four windings restore the angle mod 2*pi.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourError, ResolutionError, ThetaSingularError
from .models import EffectiveModel, build_two_level, phase_factor
from .secular import _two_level_quadratic, eigen_spectrum
from .exceptional import expand_ep_set, find_eps
from .trajectories import _assign


@dataclass(frozen=True)
class LoopResult:
    """Outcome of transporting all eigenvectors around a closed contour.

    matrix[i, j] is the coefficient of initial state j in transported state
    i; for a clean loop it is a signed permutation.  permutation[i] and
    signs[i] give the dominant image and its sign, min_overlap the worst
    step-to-step bilinear overlap seen, and matrix_error the distance of
    matrix from the rounded signed permutation.  Signs are reported in the
    canonical basis gauge of _fix_gauge, where each swap cycle carries its
    invariant -1 on the edge closing the cycle (so one winding around a
    square-root point reads psi_i -> psi_j, psi_j -> -psi_i with i < j).
    """

    matrix: np.ndarray
    permutation: tuple[int, ...]
    signs: tuple[int, ...]
    min_overlap: float
    matrix_error: float
    samples: int
    windings: int
    enclosed: tuple[complex, ...]


def _fix_gauge(m: np.ndarray, perm: tuple[int, ...], signs: tuple[int, ...]):
    """Regauge initial-basis signs so each cycle's twist sits on its closing edge.

    Individual signs depend on the arbitrary overall sign of each starting
    vector; only the product around a permutation cycle is physical.  Walking
    every cycle from its lowest-numbered state, the basis is re-signed so all
    edges carry +1 except the edge closing the cycle, which then carries the
    invariant product.  Fixed points are untouched (their sign is physical).
    """
    n = len(perm)
    g = np.ones(n)
    seen = [False] * n
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        a = start
        while not seen[a]:
            seen[a] = True
            b = perm[a]
            if b != start:
                g[b] = g[a] * signs[a]
            a = b
    m = (g[:, None] * m) * g[None, :]
    signs = tuple(int(g[i] * signs[i] * g[perm[i]]) for i in range(n))
    return m, signs


def _transport(model, contour):
    spec0 = eigen_spectrum(model, contour[0], compute_vectors=True)
    e = spec0.energies.copy()
    v = spec0.vectors.copy()
    worst = 1.0
    for c in contour[1:]:
        spec = eigen_spectrum(model, c, warm_start=e, compute_vectors=True)
        idx = _assign(e, spec.energies)
        e = spec.energies[idx]
        vnew = spec.vectors[:, idx]
        ov = np.einsum("ki,ki->i", v, vnew)  # bilinear psi_prev^T psi_next per state
        flip = ov.real < 0
        vnew[:, flip] = -vnew[:, flip]
        ov = np.where(flip, -ov, ov)
        worst = min(worst, float(np.abs(ov).min()))
        v = vnew
    return spec0, e, v, worst


def _contour(center: complex, radius: float, windings: int, per_wind: int):
    """Winding parameter t in [0, |windings|] and the circle Lambda(t) it traces.

    per_wind samples per winding; positive windings run clockwise.
    """
    t = np.arange(per_wind * abs(int(windings)) + 1) / float(per_wind)
    orient = -1.0 if windings > 0 else 1.0
    return t, center + radius * np.exp(orient * 2j * np.pi * t)


def loop_ep(
    model: EffectiveModel,
    center: complex,
    radius: float | None = None,
    *,
    windings: int = 1,
    samples: int = 512,
    min_overlap: float = 0.99,
    max_refinements: int = 4,
) -> LoopResult:
    """Transport every eigenvector around a circle in the coupling plane.

    The circle |Lambda - center| = radius is traversed |windings| times,
    clockwise for positive windings.  With a single exceptional point inside,
    one winding exchanges the coalescing pair with a sign twist; with none
    inside the result is the identity.  Raises ContourError if the contour
    passes within 5% of an exceptional point or encloses more than one, and
    ResolutionError if even a refined sampling cannot keep consecutive
    overlaps above threshold.
    """
    if windings == 0:
        raise ContourError("winding number must be nonzero")
    eps_all = expand_ep_set(find_eps(model))
    dist = np.abs(eps_all - center)
    if radius is None:
        if eps_all.size < 2:
            raise ContourError("radius required when the model has a single exceptional pair")
        near = float(np.min(dist))
        others = dist[dist > near * (1 + 1e-9)]
        if others.size == 0:
            raise ContourError("cannot pick a radius: all exceptional points equidistant")
        radius = 0.3 * float(others.min())
    radius = float(radius)
    if radius <= 0:
        raise ContourError("contour radius must be positive")
    if np.any(np.abs(dist - radius) < 0.05 * radius):
        raise ContourError("an exceptional point lies on or hugs the contour")
    inside = eps_all[dist < radius]
    if inside.size > 1:
        raise ContourError("contour encloses %d exceptional points; isolate one" % inside.size)

    per_wind = int(samples)
    for _ in range(max_refinements + 1):
        _, contour = _contour(center, radius, windings, per_wind)
        spec0, e_end, v_end, worst = _transport(model, contour)
        if worst >= min_overlap:
            m = v_end.T @ spec0.vectors  # rows: transported states in the initial basis
            perm = tuple(int(np.argmax(np.abs(m[i]))) for i in range(m.shape[0]))
            signs = tuple(1 if m[i, perm[i]].real >= 0 else -1 for i in range(m.shape[0]))
            m, signs = _fix_gauge(m, perm, signs)
            ideal = np.zeros_like(m)
            for i, (p, s) in enumerate(zip(perm, signs)):
                ideal[i, p] = s
            return LoopResult(
                matrix=m,
                permutation=perm,
                signs=signs,
                min_overlap=worst,
                matrix_error=float(np.abs(m - ideal).max()),
                samples=contour.size - 1,
                windings=int(windings),
                enclosed=tuple(complex(z) for z in inside),
            )
        per_wind *= 2
    raise ResolutionError(
        "could not keep transport overlaps above %.3g even at %d samples per winding" % (min_overlap, per_wind // 2)
    )


# ---------------------------------------------------------------------------
# two-level mixing angle

def _two_level_arrays(eps1, eps2, omega_deg):
    if eps1 == eps2:
        raise ThetaSingularError("mixing angle undefined for degenerate levels")
    if eps1 > eps2:
        eps1, eps2 = eps2, eps1
        omega_deg = 90.0 - omega_deg
    w = math.radians(omega_deg)
    return float(eps1), float(eps2), math.cos(w), math.sin(w)


def _atan_near(x: complex, prev: complex) -> complex:
    th = cmath.atan(x)
    k = round((prev.real - th.real) / math.pi)
    return th + k * math.pi


def _tan_theta(e, eps1, lam_c, c, s):
    return (e - eps1 + 1j * lam_c * c * c) / (-1j * lam_c * c * s)


def _lambda_grid(lam: float, gap: float, n_steps: int):
    """Linear through the crossing region, geometric out to the target."""
    pivot = min(lam, 2.0 * gap)
    lin = np.linspace(0.0, pivot, max(2, n_steps // 2))
    if lam <= pivot:
        return lin
    geo = pivot * (lam / pivot) ** (np.arange(1, n_steps // 2 + 1) / (n_steps // 2))
    return np.concatenate([lin, geo])


def theta_of(eps1: float, eps2: float, omega_deg: float, lam: float, phi: float = 0.0, *, n_steps: int = 2048) -> complex:
    """Complex mixing angle of the state anchored at the lower level.

    theta is continued along the coupling ray from 0 (where it vanishes) to
    lambda at fixed phase, tracking the eigenvalue branch that starts at
    eps1.  tan(theta) is the component ratio of that state's eigenvector.
    Raises ThetaSingularError if the ray runs into or too close to the
    coalescence, where the branch choice stops being well defined.
    """
    e1, e2, c, s = _two_level_arrays(eps1, eps2, omega_deg)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0 or c == 0 or s == 0:
        return 0j
    path = _lambda_grid(lam, e2 - e1, n_steps) * phase_factor(phi)
    return complex(theta_along(eps1, eps2, omega_deg, path)[-1])


def theta_along(eps1: float, eps2: float, omega_deg: float, couplings) -> np.ndarray:
    """Mixing angle continued along an arbitrary coupling path.

    Starts from the lower-energy state at the first path point (principal
    branch of atan there) and tracks both the eigenvalue and the angle
    continuously; useful for watching theta advance by pi/2 per clockwise
    winding of a contour around the coalescence.
    """
    e1, e2, c, s = _two_level_arrays(eps1, eps2, omega_deg)
    if c == 0 or s == 0:
        raise ThetaSingularError("channel aligned with a basis state; angle is frozen")
    path = np.asarray(couplings, dtype=complex)
    if path.size == 0:
        raise ValueError("empty coupling path")
    gap = e2 - e1
    c2w = c * c - s * s
    thetas = np.empty(path.size, dtype=complex)
    e_prev = None
    theta = 0j
    for i, lam_c in enumerate(path):
        if lam_c == 0:
            thetas[i] = theta
            e_prev = complex(e1)
            continue
        mean, root = _two_level_quadratic(e1, e2, c2w, lam_c)
        if abs(root) ** 2 < 1e-14 * (gap * gap + abs(lam_c) ** 2):
            raise ThetaSingularError("coupling path passes through the coalescence point")
        cand = (mean - root / 2.0, mean + root / 2.0)
        if e_prev is None:
            e_now = min(cand, key=lambda z: z.real)
            theta = cmath.atan(_tan_theta(e_now, e1, lam_c, c, s))
        else:
            e_now = min(cand, key=lambda z: abs(z - e_prev))
            theta = _atan_near(_tan_theta(e_now, e1, lam_c, c, s), theta)
        thetas[i] = theta
        e_prev = e_now
    return thetas


@dataclass(frozen=True)
class OmegaComparison:
    omega_deg: float
    lam: float
    tan_theta: complex
    tan_theta_limit: float  # sign(Re tan theta) * |tan theta|; the finite-coupling correction is imaginary at leading order
    predicted: float
    prediction: str
    deviation: float


def omega_comparison(
    eps1: float,
    eps2: float,
    omega_deg: float,
    *,
    lam_factor: float = 100.0,
    phi: float = 0.0,
    n_steps: int = 4096,
) -> OmegaComparison:
    """Strong-coupling limit of tan(theta) on the principal branch.

    Follows the eigenvalue E = mean + w/2 whose square root starts at
    +(eps2 - eps1), out to lambda = lam_factor * gap, and compares
    tan(theta) with the channel prediction: tan(omega) above 45 degrees,
    -cot(omega) below.  The two predictions differ by the pi/2 monodromy
    step, which is why the comparison distinguishes the regimes sharply.
    """
    e1, e2, c, s = _two_level_arrays(eps1, eps2, omega_deg)
    if c == 0 or s == 0:
        raise ThetaSingularError("channel aligned with a basis state; no mixing to compare")
    w_eff = math.degrees(math.atan2(s, c))
    if abs(w_eff - 45.0) < 1e-9:
        raise ThetaSingularError("omega = 45 degrees sits on the exceptional ray; limit undefined")
    phase = phase_factor(phi)
    gap = e2 - e1
    c2w = c * c - s * s
    lam = lam_factor * gap
    w_prev = complex(gap)
    theta = cmath.pi / 2  # E(0) = eps2 means the vector starts aligned with the upper level
    for lam_k in _lambda_grid(lam, gap, n_steps)[1:]:
        lam_c = lam_k * phase
        mean, root = _two_level_quadratic(e1, e2, c2w, lam_c)
        if abs(root - w_prev) > abs(-root - w_prev):
            root = -root
        if abs(root) < 1e-12 * (gap * gap + abs(lam_c) ** 2) ** 0.5:
            raise ThetaSingularError("principal branch runs into the coalescence point")
        e_now = mean + root / 2.0
        theta = _atan_near(_tan_theta(e_now, e1, lam_c, c, s), theta)
        w_prev = root
    tth = cmath.tan(theta)
    limit = math.copysign(abs(tth), tth.real)  # residual finite-lambda part is imaginary, modulus converges fastest
    if w_eff > 45.0:
        predicted, label = math.tan(math.radians(w_eff)), "tan(omega)"
    else:
        predicted, label = -1.0 / math.tan(math.radians(w_eff)), "-cot(omega)"
    return OmegaComparison(
        omega_deg=float(w_eff),
        lam=float(lam),
        tan_theta=tth,
        tan_theta_limit=float(limit),
        predicted=float(predicted),
        prediction=label,
        deviation=float(abs(limit - predicted)),
    )


def two_level_loop(eps1: float, eps2: float, omega_deg: float, *, windings: int = 1, samples: int = 512) -> LoopResult:
    """Monodromy loop around the representative two-level exceptional point."""
    from .exceptional import two_level_eps

    model = build_two_level(eps1, eps2, omega_deg)
    ep = two_level_eps(eps1, eps2, omega_deg)
    radius = 0.4 * abs(ep.coupling - ep.partner) / 2.0
    return loop_ep(model, ep.coupling, radius, windings=windings, samples=samples)
