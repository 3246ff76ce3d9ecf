"""Eigenvector monodromy around exceptional points and mixing angles.

Encircling a square-root exceptional point once swaps the two coalescing
states and multiplies one of them by -1; the loop must be traversed four
times to return every vector to itself.  Transport is implemented by
continuation: the roots walk the contour by the batched continuation of a
sweep (trajectories._walk, with the winding parameter t in place of
lambda), in level order, so initial state k is that of level k.  Each
sample's c-normalized vectors are then built from its roots as
eigen_spectrum builds them (secular._level_vectors), and they keep their
sign by demanding a near-unit bilinear overlap psi_prev^T psi_next between
consecutive samples (for the complex-symmetric H the transposed vectors
are the left eigenvectors, so these overlaps are the natural expansion
coefficients).  If the worst step overlap falls below threshold, or the
walk cannot match a step, the contour is resampled more finely before
giving up.

Positive winding numbers traverse the contour clockwise,
Lambda(t) = center + radius * exp(-2j*pi*t): one clockwise winding steps the
two-level mixing angle theta by a quarter period pi/2 (downward in the sign
convention of _tan_theta), so four windings restore the angle mod 2*pi.

theta_of and omega_comparison read the real coupling ray off the two-level
closed form; theta_along continues the angle along any other path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourError, InvalidCouplingError, ResolutionError, ThetaSingularError, TrajectoryAmbiguityError
from .models import EffectiveModel, build_two_level
from .secular import _level_vectors, _two_level_quadratic, eigen_spectrum  # noqa: F401 (bench/tracer.py wraps eigen_spectrum here)
from .exceptional import expand_ep_set, find_eps, two_level_eps
from .trajectories import _walk

_MIN_OVERLAP = 0.99  # worst accepted bilinear overlap between consecutive samples
_MAX_REFINEMENTS = 4  # sample doublings before ResolutionError


@dataclass(frozen=True)
class LoopResult:
    """Outcome of transporting all eigenvectors around a closed contour.

    matrix[i, j] is the coefficient of initial state j (the state of level
    j) in transported state i; for a clean loop it is a signed permutation.
    permutation[i] and signs[i] give the dominant image and its sign,
    min_overlap the worst step-to-step bilinear overlap seen, and
    matrix_error the distance of matrix from the rounded signed permutation.  Signs are reported in the
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


def _transport(model, t, contour):
    """(first vectors, last vectors, worst step overlap) of the states walked along contour.

    The roots are continued by trajectories._walk (policy 'raise') with the
    winding parameter t; each sample's c-normalized vectors in level order
    then come from its roots, and every vector keeps the sign of a
    positive bilinear overlap psi_prev^T psi_next with its predecessor.
    """
    rows, _ = _walk(model, t, contour, "raise")
    v = v0 = _level_vectors(model, rows[0], contour[0])
    worst = 1.0
    for e, c in zip(rows[1:], contour[1:]):
        vnew = _level_vectors(model, e, c)
        ov = np.einsum("ki,ki->i", v, vnew)  # bilinear psi_prev^T psi_next per state
        flip = ov.real < 0
        vnew[:, flip] = -vnew[:, flip]
        worst = min(worst, float(np.abs(ov).min()))
        v = vnew
    return v0, v, worst


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
    radius: float,
    *,
    windings: int = 1,
    samples: int = 512,
) -> LoopResult:
    """Transport every eigenvector around a circle in the coupling plane.

    The circle |Lambda - center| = radius is traversed |windings| times,
    clockwise for positive windings.  With a single exceptional point inside,
    one winding exchanges the coalescing pair with a sign twist; with none
    inside the result is the identity.  Raises ContourError if windings is
    zero or not an integer, samples is below 3 (a triangle is the smallest
    contour that encloses a point), the radius is not positive and finite
    (checked before the exceptional-point search), or the contour passes
    within 5% of an exceptional point or encloses more than one, and
    ResolutionError if even a refined sampling cannot keep consecutive
    overlaps above threshold.
    """
    if windings != int(windings):
        raise ContourError("winding number must be an integer, got %r" % (windings,))
    if windings == 0:
        raise ContourError("winding number must be nonzero")
    if samples < 3:
        raise ContourError("need at least 3 samples per winding, got %r" % (samples,))
    radius = float(radius)
    if not 0 < radius < np.inf:
        raise ContourError("contour radius must be positive and finite, got %r" % (radius,))
    eps_all = expand_ep_set(find_eps(model))
    dist = np.abs(eps_all - center)
    if np.any(np.abs(dist - radius) < 0.05 * radius):
        raise ContourError("an exceptional point lies on or hugs the contour")
    inside = eps_all[dist < radius]
    if inside.size > 1:
        raise ContourError("contour encloses %d exceptional points; isolate one" % inside.size)

    per_wind = int(samples)
    for _ in range(_MAX_REFINEMENTS + 1):
        t, contour = _contour(center, radius, windings, per_wind)
        try:
            v0, v_end, worst = _transport(model, t, contour)
        except TrajectoryAmbiguityError:  # a step the walk cannot match is a resolution failure too
            worst = 0.0
        if worst >= _MIN_OVERLAP:
            m = v_end.T @ v0  # rows: transported states in the initial basis
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
        "could not keep transport overlaps above %.3g even at %d samples per winding" % (_MIN_OVERLAP, per_wind // 2)
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


def theta_of(eps1: float, eps2: float, omega_deg: float, lam: float) -> complex:
    """Complex mixing angle of the state anchored at the lower level, on the real ray.

    The principal atan of the closed-form eigenvector ratio tan(theta) of
    E = mean - w/2, which starts at eps1; it equals theta continued from 0.
    Raises InvalidCouplingError for a negative or non-finite lambda, and
    ThetaSingularError at omega = 45 degrees from lambda = gap on, where the
    ray meets the coalescence.  For other coupling paths use theta_along.
    """
    e1, e2, c, s = _two_level_arrays(eps1, eps2, omega_deg)
    if not (0 <= lam < math.inf):
        raise InvalidCouplingError("lambda must be finite and nonnegative, got %r" % (lam,))
    if lam == 0 or c == 0 or s == 0:
        return 0j
    if abs(math.degrees(math.atan2(s, c)) - 45.0) < 1e-9 and lam >= e2 - e1:
        raise ThetaSingularError("omega = 45 degrees: the ray meets the coalescence at lambda = gap")
    # Off 45 degrees Im w^2 = 2*lambda*gap*cos(2*omega) keeps one sign, so the principal root w
    # continues +gap.  tan(theta) is finite, tends to 0 with lambda and never meets the imaginary
    # axis, which holds both cuts of atan: for x = (1, i*y) with y real, E from the first row of
    # H x = E x put into the second leaves a real part that needs y = 0 or c^2 = s^2, and y = 0
    # leaves c*s = 0.  At 45 degrees below lambda = gap, tan(theta) = i*(gap - w)/lambda stays
    # inside (-i, i), between the cuts.  So the principal atan is the continued angle itself.
    mean, root = _two_level_quadratic(e1, e2, c * c - s * s, lam)
    return cmath.atan(_tan_theta(mean - root / 2.0, e1, lam, c, s))


def theta_along(eps1: float, eps2: float, omega_deg: float, couplings) -> np.ndarray:
    """Mixing angle continued along an arbitrary coupling path.

    Starts from the lower-energy state at the first path point (principal
    branch of atan there), then takes the eigenvalue nearest the previous
    one: a step not small against the eigenvalue gap, which closes at the
    coalescence, jumps to the other state unseen (loop_ep refines loop's
    contour until consecutive vectors overlap).  Per clockwise winding of a
    contour around the coalescence theta steps by pi/2.
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
) -> OmegaComparison:
    """Strong-coupling limit of tan(theta) on the principal branch of the real ray.

    Reads E = mean + w/2, the eigenvalue whose square root w starts at
    +(eps2 - eps1), at lambda = lam_factor * gap and compares tan(theta) with
    the channel prediction: tan(omega) above 45 degrees, -cot(omega) below.
    The two predictions differ by the pi/2 monodromy step, which is why the
    comparison distinguishes the regimes sharply.  Im w^2 =
    2*lambda*gap*cos(2*omega) keeps one sign along the real ray, so the
    principal root is the continuation of +gap, and tan discards the
    multiples of pi a continued theta would add.  theta_along covers other
    paths.  Raises InvalidCouplingError unless 0 < lam_factor < inf.
    """
    if not (0 < lam_factor < math.inf):
        raise InvalidCouplingError("lam_factor must be finite and positive, got %r" % (lam_factor,))
    e1, e2, c, s = _two_level_arrays(eps1, eps2, omega_deg)
    if c == 0 or s == 0:
        raise ThetaSingularError("channel aligned with a basis state; no mixing to compare")
    w_eff = math.degrees(math.atan2(s, c))
    if abs(w_eff - 45.0) < 1e-9:
        raise ThetaSingularError("omega = 45 degrees sits on the exceptional ray; limit undefined")
    lam = lam_factor * (e2 - e1)
    mean, root = _two_level_quadratic(e1, e2, c * c - s * s, lam)
    tth = _tan_theta(mean + root / 2.0, e1, lam, c, s)
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
    model = build_two_level(eps1, eps2, omega_deg)
    ep = two_level_eps(eps1, eps2, omega_deg)
    radius = 0.4 * abs(ep.coupling - ep.partner) / 2.0
    return loop_ep(model, ep.coupling, radius, windings=windings, samples=samples)
