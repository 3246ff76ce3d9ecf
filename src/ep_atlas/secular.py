"""Complex spectrum of H(Lambda) = diag(eps) - 1j*Lambda*outer(v,v).

The rank-one structure reduces diagonalization to the secular equation

    S(E) - i/Lambda = 0,    S(E) = sum_k v_k^2 / (E - eps_k),

whose left side times prod_k (E - eps_k) is the characteristic polynomial
p(E) = prod_k (E - eps_k) * g(E), g(E) = 1 + 1j*Lambda*S(E).  All N roots are
found simultaneously with the Ehrlich-Aberth iteration, which is Newton's
method on p with the other iterates divided out (multiplicative deflation).
p'/p is evaluated rationally,

    p'(E)/p(E) = sum_k 1/(E - eps_k) + g'(E)/g(E),

so coefficients are never expanded and the conditioning stays that of the
secular function itself.

The iteration is one engine, _aberth, shared with the exceptional-point
search: it takes the poles eps and a callback that maps a row block
r = 1/(z - eps) to the log-derivative, so the same loop serves p'/p here
and R'/R in exceptional.py.  It evaluates only iterates that have not yet
converged, in row blocks of at most _BLOCK complex entries, so temporaries
are O(N*B) rather than N x N.

Eigenvectors inherit the rank-one form, psi_j = v_j r_j with
r = 1/(E - eps).  The bilinear self-overlap of that raw vector is
sum v^2 r^2 = -S'(E), so c-normalization (psi^T psi = 1) is division by
sqrt(-S'(E)), and the Hermitian norm of the c-normalized state is

    <psi|psi> = sum v^2 |r|^2 / |sum v^2 r^2| = 1 / condition,

where condition = |psi^T psi| / <psi|psi> of the raw vector.  It is >= 1 and
measures how far the state is from the Hermitian limit.  Both per-state
numbers come from one pass over row blocks of r, so the norms (and the B
measure built on them) need no N x N matrix; the eigenvector matrix itself
is built only when Spectrum.vectors is first read.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import (
    IllConditionedNormalizationError,
    InvalidCouplingError,
    PoleProximityError,
    SolverFailureError,
)
from .models import CouplingParameter, EffectiveModel

_GOLDEN = 0.618033988749895
_NORM_FLOOR = 1e-7  # |psi^T psi|/<psi|psi> below this means the state pair is effectively defective


def _as_lambda(coupling) -> complex:
    # CouplingParameter enforces the physical quadrant; raw complex values are
    # accepted unrestricted (loops in the Lambda plane need all four quadrants).
    if isinstance(coupling, CouplingParameter):
        return coupling.value
    return complex(coupling)


def secular_eval(model: EffectiveModel, energy, coupling) -> np.ndarray | complex:
    """Evaluate F(E) = sum_k v_k^2/(E - eps_k) - i/Lambda at one or many E.

    Raises PoleProximityError if any E sits within 1e-14 of a level (relative
    to the model's energy scale), and InvalidCouplingError for lambda = 0
    where i/Lambda is undefined.
    """
    lam = _as_lambda(coupling)
    if lam == 0:
        raise InvalidCouplingError("secular function needs lambda > 0 (H is diagonal at lambda = 0)")
    e = np.asarray(energy, dtype=complex)
    scalar = e.ndim == 0
    e = np.atleast_1d(e)
    eps = model.epsilons
    v2 = model.couplings**2
    scale = max(1.0, float(np.max(np.abs(eps))))
    rows = max(1, _BLOCK // eps.size)
    s = np.empty(e.size, dtype=complex)
    for b0 in range(0, e.size, rows):
        d = e[b0 : b0 + rows, None] - eps[None, :]
        if np.min(np.abs(d)) < 1e-14 * scale:
            raise PoleProximityError("energy within 1e-14 of an unperturbed level; secular form is singular there")
        s[b0 : b0 + rows] = (v2[None, :] / d).sum(axis=1)
    out = s - 1j / lam
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Ehrlich-Aberth engine

_BLOCK = 1 << 16  # complex entries per row block (1 MiB): temporaries are O(N*B), never N x N


def _separate(z: np.ndarray, jitter: complex) -> np.ndarray:
    """Push apart iterates closer than 1e-12*scale, in place, so the repulsion term is finite.

    Up to three rounds; the k-th offending iterate moves by k*1e-6*scale*jitter.
    Nearest-neighbour gaps are taken over row blocks of the pairwise distance
    matrix, so memory stays O(N*B).
    """
    n = z.size
    scale = max(1.0, float(np.abs(z).max()))
    rows = max(1, _BLOCK // n)
    near = np.empty(n)
    for _ in range(3):
        for b0 in range(0, n, rows):
            gap = np.abs(z[b0 : b0 + rows, None] - z[None, :])
            k = np.arange(gap.shape[0])
            gap[k, b0 + k] = np.inf
            near[b0 : b0 + rows] = gap.min(axis=1)
        bad = np.flatnonzero(near < 1e-12 * scale)
        if bad.size == 0:
            break
        z[bad] += (np.arange(bad.size) + 1) * 1e-6 * scale * jitter
    return z


def _aberth(eps, logderiv, z0, maxiter=500, tol=5e-14):
    """Simultaneous root iteration; returns (roots, iterations, converged, last_step).

    The roots are those of p(E) = prod_k (E - eps_k) * q(E) for a rational q;
    logderiv(r) maps a row block r = 1/(z - eps) (one row per iterate) to
    p'/p at those iterates.  Only iterates that have not converged are
    evaluated, in row blocks of at most _BLOCK entries; the repulsion term
    still sums over all iterates, frozen ones included.  Reductions are
    elementwise products and row sums, not BLAS, so concurrent worker
    processes do not contend for BLAS threads.

    Converged iterates are frozen, and last_step reports each iterate's
    relative step at its final evaluation.  A deterministic index-asymmetric
    kick is applied if the maximum step stops shrinking (the plain iteration
    can lock into a mirror-symmetric limit cycle when the true roots sit on
    the symmetry axis of the seed configuration).
    """
    z = np.array(z0, dtype=complex)
    n = z.size
    rows = max(1, _BLOCK // max(n, eps.size))
    eps = eps.astype(complex)  # complex operands spare numpy a casting pass per block
    active = np.ones(n, dtype=bool)
    hist: list[float] = []
    twist = np.exp(2j * np.pi * _GOLDEN * np.arange(n))
    step = np.zeros(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(maxiter):
            idx = np.flatnonzero(active)
            wa = np.empty(idx.size, dtype=complex)
            for b0 in range(0, idx.size, rows):
                ib = idx[b0 : b0 + rows]
                zb = z[ib]
                r = zb[:, None] - eps[None, :]
                np.reciprocal(r, out=r)
                zz = zb[:, None] - z[None, :]
                zz[np.arange(ib.size), ib] = np.inf
                np.reciprocal(zz, out=zz)
                newt = 1.0 / logderiv(r)
                wa[b0 : b0 + rows] = newt / (1.0 - newt * zz.sum(axis=1))
            wa[~np.isfinite(wa)] = 0.0
            za = z[idx]
            sa = np.abs(wa) / (1.0 + np.abs(za))
            step[idx] = sa
            z[idx] = za - wa
            active[idx] = ~(sa < tol)
            if not active.any():
                return z, it + 1, True, float(step.max(initial=0.0))
            hist.append(float(step[active].max()))
            if it >= 25 and it % 25 == 0 and hist[-1] > 0.5 * hist[-25]:
                amp = np.abs(wa) + 1e-14
                keep = active[idx]
                z[idx[keep]] += 0.35 * amp[keep] * twist[idx[keep]]
    return z, maxiter, False, float(step[active].max())


def _spectrum_logderiv(v2: np.ndarray, lam: complex):
    """p'/p = sum r + g'/g with g = 1 + i*Lambda*S, S = sum r*v^2, S' = -sum r^2*v^2."""
    v2 = v2.astype(complex)

    def logderiv(r):
        rv = r * v2
        g = 1.0 + 1j * lam * rv.sum(axis=1)
        rv *= r
        gp = -1j * lam * rv.sum(axis=1)
        return r.sum(axis=1) + gp / g

    return logderiv


def _seeds(eps: np.ndarray, v2: np.ndarray, lam: complex) -> np.ndarray:
    """First-order onsite seeds, with one swapped for the collective root.

    Once |Lambda|*sum(v^2) is comparable to the level span, one eigenvalue
    separates from the cloud toward centroid - 1j*Lambda*sum(v^2); seeding it
    explicitly keeps the iteration from splitting a single deep root across
    two iterates.  Seeds closer than 1e-12*scale are jittered apart
    deterministically so the Aberth repulsion term is finite.
    """
    n = eps.size
    tot = v2.sum()
    z = (eps - 1j * lam * v2).astype(complex)
    span = (eps.max() - eps.min()) if n > 1 else 1.0
    if n > 1 and abs(lam) * tot > span / (2 * n):
        cen = (eps * v2).sum() / tot
        deep = cen - 1j * lam * tot
        j = int(np.argmin(np.abs(z - deep)))
        z[j] = deep
    return _separate(z, 0.7 + 0.7j)


_STALL_ACCEPT = 1e-8  # near a defective pair no method localizes roots below ~sqrt(eps)


def _solve_roots(eps, v2, lam, warm=None, maxiter=500, tol=5e-14):
    """Aberth with warm start, LAPACK-seeded retry, and rich failure info.

    Near an exceptional point the root pair is defective and every algorithm
    saturates at O(sqrt(machine eps)) absolute error; a run that stalls with
    all steps already below _STALL_ACCEPT is returned as converged-to-limit,
    with the stalled step size reported as the residual.
    """
    logderiv = _spectrum_logderiv(v2, lam)
    z0 = _seeds(eps, v2, lam) if warm is None else warm
    z, its, ok, last = _aberth(eps, logderiv, z0, maxiter=maxiter, tol=tol)
    best = (z, its, last)
    if not ok and warm is not None:
        # warm start led the iteration astray; retry from scratch
        z, its, ok, last = _aberth(eps, logderiv, _seeds(eps, v2, lam), maxiter=maxiter, tol=tol)
        if last < best[2]:
            best = (z, its, last)
    if not ok and eps.size <= 64:
        h = np.diag(eps).astype(complex) - 1j * lam * np.outer(np.sqrt(v2), np.sqrt(v2))
        z, its, ok, last = _aberth(eps, logderiv, np.linalg.eigvals(h), maxiter=maxiter, tol=tol)
        if last < best[2]:
            best = (z, its, last)
    if ok:
        return z, its, last
    if best[2] <= _STALL_ACCEPT:
        return best
    raise SolverFailureError(
        "eigenvalue iteration did not converge",
        diagnostics={
            "n": int(eps.size),
            "lambda": complex(lam),
            "iterations": best[1],
            "max_relative_step": best[2],
        },
    )


def _sorted_order(e: np.ndarray) -> np.ndarray:
    return np.lexsort((e.imag, e.real))


def _raw_overlaps(e: np.ndarray, eps: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi^T psi = sum v^2 r^2 and <psi|psi> = sum v^2 |r|^2 of each raw vector psi = v*r.

    r = 1/(e - eps) is formed one row block at a time (one row per state, at
    most _BLOCK entries), so memory stays O(N*B).
    """
    rows = max(1, _BLOCK // eps.size)
    eps = eps.astype(complex)
    v2c = v2.astype(complex)
    bil = np.empty(e.size, dtype=complex)
    herm = np.empty(e.size)
    for b0 in range(0, e.size, rows):
        r = e[b0 : b0 + rows, None] - eps[None, :]
        np.reciprocal(r, out=r)
        herm[b0 : b0 + rows] = ((r.real**2 + r.imag**2) * v2).sum(axis=1)
        r *= r
        r *= v2c
        bil[b0 : b0 + rows] = r.sum(axis=1)
    return bil, herm


def _c_normalized_vectors(order, act, cols, e, eps_a, v_a) -> np.ndarray:
    """N x N matrix of c-normalized eigenvectors, one column per sorted state.

    order is the sort permutation of the energies, act marks the coupled
    levels, cols the sorted positions of the coupled states and e their
    energies.  A coupled state's column is psi/sqrt(psi^T psi) with
    psi = v/(E - eps) on the coupled levels, signed so that its
    largest-modulus entry (the first one on ties) has positive real part, or
    positive imaginary part when the real part is zero.  A decoupled level
    keeps its exact basis column.
    """
    n = order.size
    vec = np.zeros((n, n), dtype=complex)
    dec = np.flatnonzero(~act[order])
    vec[order[dec], dec] = 1.0
    lev = np.flatnonzero(act)
    rows = max(1, _BLOCK // max(1, eps_a.size))
    for b0 in range(0, cols.size, rows):
        d = e[b0 : b0 + rows, None] - eps_a[None, :]
        psi = v_a[None, :] / d
        psi /= np.sqrt(((v_a**2)[None, :] / d**2).sum(axis=1))[:, None]
        piv = psi[np.arange(psi.shape[0]), np.argmax(np.abs(psi), axis=1)]
        flip = (piv.real < 0) | ((piv.real == 0) & (piv.imag < 0))
        psi[flip] = -psi[flip]
        vec[np.ix_(lev, cols[b0 : b0 + rows])] = psi.T
    return vec


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (sorted by real part, then imaginary) and per-state data.

    When vectors were requested, hermitian_norms are <psi|psi> of the
    c-normalized states (>= 1, equality only in the Hermitian limit) and
    condition holds the scale-invariant ratio |psi^T psi| / <psi|psi> of the
    raw rank-one vector, which is 1 for a real state and vanishes exactly at
    an exceptional point.  For a coupled state hermitian_norms = 1/condition;
    a decoupled level has norm 1 and condition inf.  Both come from a blocked
    pass without any N x N matrix.  vectors, the c-normalized right
    eigenvectors as columns, is an N x N matrix built on first read and then
    cached (None when vectors were not requested).
    """

    energies: np.ndarray
    iterations: int
    residual: float
    hermitian_norms: np.ndarray | None = None
    condition: np.ndarray | None = None
    _build_vectors: Callable[[], np.ndarray] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def vectors(self) -> np.ndarray | None:
        return None if self._build_vectors is None else self._build_vectors()

    @property
    def widths(self) -> np.ndarray:
        """Decay widths Gamma_k = -2 Im E_k."""
        return -2.0 * self.energies.imag

    @property
    def n(self) -> int:
        return int(self.energies.size)


def eigen_spectrum(
    model: EffectiveModel,
    coupling,
    *,
    compute_vectors: bool = False,
    warm_start: np.ndarray | None = None,
    maxiter: int = 500,
    tol: float = 5e-14,
) -> Spectrum:
    """All N complex eigenvalues of H(Lambda), optionally with eigenvector data.

    lambda = 0 is exact (the unperturbed levels).  Levels with v_k = 0 are
    split off exactly: they stay at eps_k with unit basis vectors, and the
    iteration runs on the coupled subset only.  warm_start takes a length-N
    array of previous eigenvalues to continue a parameter sweep.

    compute_vectors fills hermitian_norms and condition and makes vectors
    available; the eigenvector matrix is only built if vectors is read.

    Raises SolverFailureError if the iteration stalls, and (only when
    compute_vectors is set) IllConditionedNormalizationError when some state
    is too close to an exceptional point for c-normalization.
    """
    lam = _as_lambda(coupling)
    n = model.n
    eps = model.epsilons
    v = model.couplings
    act = (v != 0.0) if lam != 0 else np.zeros(n, dtype=bool)  # at lambda = 0 every level is bare
    e_full = eps.astype(complex)
    its = 0
    last = 0.0
    if act.any():
        eps_a = eps[act]
        v2_a = v[act] ** 2
        if eps_a.size == 1:
            roots = np.array([eps_a[0] - 1j * lam * v2_a[0]])
        else:
            warm = None
            if warm_start is not None:
                warm_start = np.asarray(warm_start, dtype=complex)
                if warm_start.shape != (n,):
                    raise ValueError("warm_start must have one entry per level")
                warm = warm_start[act]
            roots, its, last = _solve_roots(eps_a, v2_a, lam, warm=warm, maxiter=maxiter, tol=tol)
        e_full[act] = roots

    order = _sorted_order(e_full)
    e_sorted = e_full[order]

    if not compute_vectors:
        return Spectrum(energies=e_sorted, iterations=its, residual=last)

    cols = np.flatnonzero(act[order])
    e_act = e_sorted[cols]
    norms = np.ones(n)
    cond = np.full(n, np.inf)
    if cols.size:
        bil, herm = _raw_overlaps(e_act, eps[act], v[act] ** 2)
        cond[cols] = np.abs(bil) / herm
        ill = cols[cond[cols] < _NORM_FLOOR]
        if ill.size:
            raise IllConditionedNormalizationError(
                "states too close to an exceptional point for c-normalization",
                state_indices=tuple(int(c) for c in ill),
            )
        norms[cols] = 1.0 / cond[cols]
    return Spectrum(
        energies=e_sorted,
        iterations=its,
        residual=last,
        hermitian_norms=norms,
        condition=cond,
        _build_vectors=partial(_c_normalized_vectors, order, act, cols, e_act, eps[act], v[act]),
    )


# ---------------------------------------------------------------------------
# closed forms

def two_level_closed_form(model_or_eps1, eps2=None, omega_deg=None, coupling=None):
    """Exact pair of eigenvalues of the two-level model.

    Call as two_level_closed_form(model, coupling=...) or with explicit
    (eps1, eps2, omega_deg, coupling).  Returns (E1, E2) on the principal
    square-root branch, which reproduces (eps1, eps2) at lambda = 0 when
    eps1 < eps2.
    """
    if isinstance(model_or_eps1, EffectiveModel):
        m = model_or_eps1
        if m.n != 2:
            raise ValueError("closed form needs a two-level model")
        e1, e2 = float(m.epsilons[0]), float(m.epsilons[1])
        c2w = float(m.couplings[0] ** 2 - m.couplings[1] ** 2)  # cos(2w) for unit channel vectors
    else:
        e1 = float(model_or_eps1)
        e2 = float(eps2)
        w = np.radians(float(omega_deg))
        c2w = float(np.cos(2 * w))
    mean, root = _two_level_quadratic(e1, e2, c2w, _as_lambda(coupling))
    return mean - root / 2.0, mean + root / 2.0


def _two_level_quadratic(e1: float, e2: float, c2w: float, lam: complex) -> tuple[complex, complex]:
    """(mean, root) of the two-level eigenvalues E = mean -+ root/2 at coupling lam.

    root is the principal square root of the discriminant, which vanishes at
    the exceptional point; c2w = cos(2*omega) = v_1^2 - v_2^2 for a unit
    channel vector.
    """
    il = 1j * lam
    gap = e2 - e1
    return (e1 + e2 - il) / 2.0, cmath.sqrt(gap * gap + 2 * il * gap * c2w + il * il)
