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
and R'/R in exceptional.py.  Every spectrum solve reaches it through one
root stage, _roots, which takes B couplings at once (eigen_spectrum
passes one, a sweep batch several) and iterates only the coupled levels
at a nonzero coupling.  The engine evaluates only iterates that have not yet
converged, in row blocks of at most _BLOCK complex entries, so temporaries
are O(N*B) rather than N x N.  One call can also carry a batch of
independent root sets over the same poles (for a sweep, one per coupling):
their rows share blocks, which spreads the per-call cost, while each set
iterates, converges and stops exactly as it would alone.  The row blocks of
each pass are split across the usable cores (_over_shares): one contiguous
run of whole blocks per thread, the calling thread taking the first.  No
block reads what another writes, since the iterates move only after the
pass, and each thread enters the caller's np.errstate, which numpy keeps
per thread.  The blocks shrink with the thread count, so the temporaries of
all threads together stay O(N*B), and every root, iteration count and
output byte is the same on any number of cores.  An iterate stops
when its relative step, |step|/(min(1, span) + |z|) with span the extent
of the poles, falls below tol (so a model whose levels span less than 1
keeps its precision at its own scale), or when rounding keeps it above:
its step stops shrinking after falling below 1e-12, or lies under the
rounding bound of its Newton step (_step_floor): u*sum|v^2 r|/|S'| for
the secular sum S, and u*sum|v^2 r^2|/|S''| for S', whose zeros the
exceptional-point search finds.  One sorted scan, _crowded, finds both
seeds closer than rounding and sweep roots that moved too far.

Cold seeds follow the collectivity transition, which splits the spectrum
into one collective state of width about |Lambda|*sum(v^2) and N-1 trapped
states whose widths shrink like 1/|Lambda|.  Below it (weak coupling) each
level k is seeded at its first-order root eps_k - i*Lambda*v_k^2.  Above it
each trapped state sits next to a zero of S between two adjacent levels,
so the seeds are the first-order trapped states m + (i/Lambda)/S'(m) at
the N-1 gap midpoints m, plus the collective root.  The strong seeds are
chosen when more than half of the levels have |Lambda|*v_k^2 >
spacing_k/pi, spacing_k being the distance to the nearest other level
(_regime).  Either way a cold solve costs a few row evaluations per root.
A weak root sits next to its own level, so _seeds also moves every weak
seed but the collective one onto its root in up to three own-pole rounds
and confirms it there by the Newton step on S - i/Lambda, as the norm
pass checks a vector solve's roots (below).  _aberth then iterates only
the levels left over, the confirmed ones frozen but still repelling the
rest.  That check has no repulsion, so _seeds leaves to the iteration a
confirmed level with another iterate close by, and one that the push-apart
of coincident seeds moves.

Eigenvectors inherit the rank-one form, psi_j = v_j r_j with
r = 1/(E - eps).  The bilinear self-overlap of that raw vector is
sum v^2 r^2 = -S'(E), so c-normalization (psi^T psi = 1) is division by
sqrt(-S'(E)), and the Hermitian norm of the c-normalized state is

    <psi|psi> = sum v^2 |r|^2 / |sum v^2 r^2| = 1 / condition,

where condition = |psi^T psi| / <psi|psi> of the raw vector.  It is >= 1 and
measures how far the state is from the Hermitian limit.  Both per-state
numbers come from one pass over row blocks of r, so the norms (and the B
measure built on them) need no N x N matrix; the eigenvector matrix itself
is built only when Spectrum.vectors is first read, from the psi^T psi of
that pass.

Every blocked secular sum goes through one kernel (_power_sums on a row
block, _cauchy_sums at any points): sum w r^p for p = 1..top, each power one
product from the last, plus sum |w r^p| for a rounding bound.  Only the cold
seeds' S'(m) (_slope) and the eigenvector matrix keep their own forms.  The
norm pass runs the kernel to top = 1 + _AHEAD: its powers past the second
are the Taylor coefficients of S about each root, from which
Spectrum.toward predicts the roots at the next coupling of a continuation,
with the term of each root's nearest level kept exact (_predicted).

A solve with vectors spends no Aberth row on confirming its roots, in the
way Aberth solvers end with a Newton check (Bini, Numer. Algorithms 13,
1996).  _roots hands the roots over once their relative steps are below
max(tol, _HANDOVER), and the norm pass, which evaluates r at every root in
any case, holds S and -S' in its first two sums: one Newton step
d = (S - i/Lambda)/S' per root.  When every d is finite and
|d|/(unit + |E|) < tol, the roots stand as they are; d is not applied, so
the norms and the vectors come from the same energies.  Otherwise _roots
continues from them at tol and the norm pass runs again.  The handover
step is still an Aberth step, with its repulsion: two iterates next to
one root take steps of the order of their distance, so they part before
the handover, and if they did not, the one further from the root would
have a Newton step (which has no repulsion) of at least half their
distance, which the check refuses.  The roots of a vector solve agree
with a vector-less solve's within tol*(unit + |E|), but not always to
the last bit.
"""

from __future__ import annotations

import cmath
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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
_NEWTON = 3  # Newton steps on the local model from its tangent
_AHEAD = 4  # order of the local model behind Spectrum.toward: the norm pass also sums v^2 r^3 .. v^2 r^(1 + _AHEAD)
_ROUNDS = 3  # own-pole rounds a weak cold seed takes at most
_KEEP_ROUNDS = 0.25  # a level takes own-pole rounds while each moves it by less than this share of the one before
_HANDOVER = 1e-8  # relative Aberth step at which a vector solve hands its roots to the norm pass's Newton check


def _as_lambda(coupling) -> complex:
    # CouplingParameter enforces the physical quadrant; raw complex values are
    # accepted in all four quadrants (loops in the Lambda plane need them), but
    # never NaN or inf, which no root iteration can converge on.
    lam = coupling.value if isinstance(coupling, CouplingParameter) else complex(coupling)
    if not cmath.isfinite(lam):
        raise InvalidCouplingError("coupling must be finite, got %r" % (lam,))
    return lam


def secular_eval(model: EffectiveModel, energy, coupling) -> np.ndarray | complex:
    """Evaluate F(E) = sum_k v_k^2/(E - eps_k) - i/Lambda at one or many E.

    Raises PoleProximityError if any E sits within 1e-14 of a level, relative
    to the model's energy scale max(unit, max |eps|) (unit as in _aberth, so
    a model whose levels span less than 1 is checked at its own scale), and
    InvalidCouplingError for lambda = 0 where i/Lambda is undefined, or for a
    NaN or infinite lambda.
    """
    lam = _as_lambda(coupling)
    if lam == 0:
        raise InvalidCouplingError("secular function needs lambda > 0 (H is diagonal at lambda = 0)")
    e = np.asarray(energy, dtype=complex)
    scalar = e.ndim == 0
    e = np.atleast_1d(e)
    eps = model.epsilons
    scale = max(_step_unit(eps), float(np.max(np.abs(eps))))
    j = np.searchsorted(eps, e.real)  # the nearest level is eps[j - 1] or eps[j]
    near = np.minimum(np.abs(e - eps[np.maximum(j - 1, 0)]), np.abs(e - eps[np.minimum(j, eps.size - 1)]))
    if np.any(near < 1e-14 * scale):
        raise PoleProximityError("energy within 1e-14 of an unperturbed level; secular form is singular there")
    out = _cauchy_sums(e, eps, model.couplings**2, 1)[0] - 1j / lam
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Ehrlich-Aberth engine

_BLOCK = 1 << 16  # complex entries per row block (1 MiB): temporaries are O(N*B), never N x N


def _usable_cores() -> int:
    """Cores this process may run on (the CPU count where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_THREADS = _usable_cores()  # shares per blocked pass
_pool: ThreadPoolExecutor | None = None  # runs every share but the caller's; started on the first split
_pool_lock = threading.Lock()


def _drop_pool() -> None:
    # joined before every fork: a forked child would inherit the pool without its threads
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown()
            _pool = None


os.register_at_fork(before=_drop_pool)


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_THREADS - 1, thread_name_prefix="ep-atlas-share")
        return _pool


def _over_shares(fn: Callable[[list], None], nrows: int, width: int) -> None:
    """Run fn(blocks) over the row blocks [lo, hi) of range(nrows), split into one share per thread.

    width is the number of entries in a row.  Work that fits in one block of
    _BLOCK entries runs inline as that one block.  Otherwise the blocks hold
    _BLOCK // (_THREADS * width) rows, so the temporaries of all threads
    together stay O(width * _BLOCK), and each of up to _THREADS shares is one
    contiguous run of whole blocks: the calling thread takes the first, the
    pool the rest.  fn loops over the (lo, hi) pairs of its share itself:
    a block's temporaries then live until the next block's are made, which
    keeps malloc from returning their pages to the system and faulting them
    in again after every block.  Each share runs under the caller's
    np.errstate, which numpy keeps per thread.  fn must write only to its
    own rows and read nothing another block writes; each row's arithmetic
    then does not depend on the split.
    """
    threads = _THREADS if nrows * width > _BLOCK else 1
    rows = max(1, _BLOCK // max(1, threads * width))
    blocks = [(lo, min(lo + rows, nrows)) for lo in range(0, nrows, rows)]
    shares = min(threads, len(blocks))
    if shares <= 1:
        fn(blocks)
        return
    runs = [blocks[k * len(blocks) // shares : (k + 1) * len(blocks) // shares] for k in range(shares)]
    errs = np.geterr()

    def share(blocks):
        with np.errstate(**errs):
            fn(blocks)

    pool = _executor()
    futures = [pool.submit(share, blocks) for blocks in runs[1:]]
    try:
        fn(runs[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _power_sums(r: np.ndarray, w: np.ndarray, top: int, mag: int = 0):
    """Row sums sum_j w_j r_ij^p of a row block r for p = 1..top, as a list of top arrays.

    Each power is one product from the last, (w*r)*r*..., so the sums for
    p = 1 and 2 are S and -S' when r = 1/(x - eps) and w = v^2.  With mag = p,
    also returns the row sums of |w r^p|, the scale of the rounding error of
    the p-th sum.
    """
    t = r * w
    sums = []
    for p in range(1, top + 1):
        if p > 1:
            t *= r
        sums.append(t.sum(axis=1))
        if p == mag:
            size = np.abs(t).sum(axis=1)
    return (sums, size) if mag else sums


def _cauchy_sums(x: np.ndarray, eps: np.ndarray, w: np.ndarray, top: int, mag: int = 0):
    """_power_sums of r = 1/(x - eps) at the points x as a (top, x.size) array, in row blocks over _over_shares."""
    eps = eps.astype(complex)
    w = w.astype(complex)
    sums = np.empty((top, x.size), dtype=complex)
    size = np.empty(x.size)

    def run(blocks):
        for lo, hi in blocks:
            r = x[lo:hi, None] - eps[None, :]
            np.reciprocal(r, out=r)
            if mag:
                sums[:, lo:hi], size[lo:hi] = _power_sums(r, w, top, mag)
            else:
                sums[:, lo:hi] = _power_sums(r, w, top)

    _over_shares(run, x.size, eps.size)
    return (sums, size) if mag else sums


def _crowded(z: np.ndarray, reach) -> np.ndarray:
    """Mask of the points that have another point of their row closer than their reach.

    z is one row of points or a (B, N) stack of rows, and reach one scalar or
    one reach per point.  When the sorted real parts of every row are all
    at least the largest reach apart, no point is crowded and the scan is
    skipped.  Each row is otherwise scanned in order of real part: points
    k places apart are compared for k = 1, 2, ... while some pair k apart
    is closer in real part alone than the larger of its two reaches, since
    no pair further apart can then be closer.  Memory stays O(B*N).
    """
    zm = np.atleast_2d(z)
    xs = np.sort(zm.real, axis=1)
    if (xs[:, 1:] - xs[:, :-1] >= np.max(reach, initial=0.0)).all():
        return np.zeros(np.shape(z), dtype=bool)
    rows = np.arange(zm.shape[0])[:, None]
    o = np.argsort(zm.real, axis=1, kind="stable")
    zs = zm[rows, o]
    rs = np.full(zm.shape, reach)[rows, o]
    near = np.zeros(zm.shape, dtype=bool)
    for k in range(1, zm.shape[1]):
        if not (zs.real[:, k:] - zs.real[:, :-k] < np.maximum(rs[:, k:], rs[:, :-k])).any():
            break
        gap = np.abs(zs[:, k:] - zs[:, :-k])
        near[:, k:] |= gap < rs[:, k:]
        near[:, :-k] |= gap < rs[:, :-k]
    mask = np.empty_like(near)
    mask[rows, o] = near
    return mask.reshape(np.shape(z))


def _separate(z: np.ndarray, jitter: complex, unit: float) -> np.ndarray:
    """Push apart iterates closer than 1e-12*scale, in place, so the repulsion term is finite.

    z is one row of iterates or a (B, N) stack of rows, each row with its own
    scale max(unit, max |z|), unit being _step_unit of the poles, so that
    levels spanning less than 1 are jittered at their own scale.  Up to three
    rounds; the k-th offending iterate of a row moves by k*1e-6*scale*jitter.
    """
    zm = z[None, :] if z.ndim == 1 else z
    scale = np.maximum(unit, np.abs(zm).max(axis=1, initial=0.0))[:, None]
    for _ in range(3):
        bad = _crowded(zm, 1e-12 * scale)
        if not bad.any():
            break
        row, col = np.nonzero(bad)
        zm[row, col] += np.cumsum(bad, axis=1)[row, col] * 1e-6 * scale[row, 0] * jitter
    return z


def _step_unit(eps: np.ndarray) -> float:
    """The unit of a relative step |step|/(unit + |z|) over the sorted poles eps: min(1, their span), 1 for one pole."""
    return min(1.0, float(eps[-1].real - eps[0].real)) or 1.0


def _aberth(eps, logderiv, z0, floor, maxiter=500, tol=5e-14, conjugates=False, frozen=None):
    """Simultaneous root iteration; returns (roots, iterations, converged, last_step).

    The roots are those of p(E) = prod_k (E - eps_k) * q(E) for a rational q,
    with the poles eps in increasing order.
    z0 is one seed set of shape (n,), or B independent sets of shape (B, n)
    (the members) that share the poles eps.  logderiv(r, m) maps a row block
    r = 1/(z - eps) (one row per iterate) and the member index m of each row
    to p'/p at those iterates, so each member may carry its own q.  Only
    iterates that have not converged are evaluated, in row blocks of at most
    _BLOCK entries that rows of several members may share; the repulsion
    term of an iterate sums over all iterates of its own member, frozen ones
    included.  Reductions are elementwise products and row sums, not BLAS,
    so concurrent worker processes do not contend for BLAS threads.  The
    blocks of one pass are shared out over _THREADS threads by _over_shares,
    each thread under this call's np.errstate, with blocks of
    _BLOCK // (_THREADS * max(n, eps.size)) rows so that all threads hold
    O(N*_BLOCK) temporaries together; logderiv must be safe to call from
    several threads at once.  A block reads z and writes only its own
    corrections, and z moves only after the pass, so the split changes no
    arithmetic.

    An iterate converges when its relative step |step|/(unit + |z|) falls
    below tol, unit being min(1, eps[-1] - eps[0]) (1 for one pole) so that
    poles that span less than 1 are solved to their own scale, or when
    rounding keeps it from getting there: when its step stops shrinking
    after falling below 1e-12, or when a step below 1e-7 that shrank by
    less than a factor of 10 is below floor(z), the absolute rounding bound
    of a step at the points z (such as _step_floor); floor is evaluated only
    for such iterates.
    Converged iterates are frozen, and last_step reports each member's
    largest relative step at the final evaluation of its iterates.  frozen,
    a mask shaped like z0, freezes iterates from the start: they are never
    evaluated but repel the rest, and a member whose iterates are all frozen
    takes 0 iterations and reports a last_step of 0.  A
    deterministic index-asymmetric kick is applied to a member whose maximum
    step stops shrinking (the plain iteration can lock into a
    mirror-symmetric limit cycle when the true roots sit on the symmetry axis
    of the seed configuration).  Every member gets the iterates, iteration
    count, converged flag and last_step that it would get alone; for a
    (B, n) seed they come back as (B, n), (B,), (B,) and (B,) arrays.

    With conjugates, p has real coefficients and no real root, so its roots
    are conjugate pairs, and each member iterates one root per pair: the
    repulsion term of an iterate also sums 1/(z - conj z_j) over every
    iterate of its member, its own included.  That is Aberth's iteration on
    all 2n roots, the mirror images standing in for the other half.  A row
    then holds 2n repulsion entries, which the block sizing counts.  An
    iterate that reaches the real axis meets its own image there, and the
    zeroed non-finite step stops it; the caller must check Im z.
    """
    zm = np.array(z0, dtype=complex, ndmin=2, order="C")
    nb, n = zm.shape
    z = zm.reshape(-1)
    member, pos = np.divmod(np.arange(z.size), n)
    width = max(2 * n if conjugates else n, eps.size)
    eps = eps.astype(complex)  # complex operands spare numpy a casting pass per block
    unit = _step_unit(eps)  # steps are relative to unit + |z|
    active = np.ones(z.size, dtype=bool) if frozen is None else ~np.ravel(frozen)
    its = np.zeros(nb, dtype=int)
    twist = np.exp(2j * np.pi * _GOLDEN * np.arange(n))
    step = np.zeros(z.size)

    def largest_active_step():
        return np.where(active, step, 0.0).reshape(nb, n).max(axis=1, initial=0.0)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(maxiter):
            idx = np.flatnonzero(active)
            its[member[idx]] = it + 1
            wa = np.empty(idx.size, dtype=complex)

            def run(blocks):
                for lo, hi in blocks:
                    ib = idx[lo:hi]
                    mb = member[ib]
                    zb = z[ib]
                    zz = zm[mb]
                    np.subtract(zb[:, None], zz, out=zz)
                    zz[np.arange(ib.size), pos[ib]] = np.inf
                    np.reciprocal(zz, out=zz)
                    repel = zz.sum(axis=1)
                    if conjugates:  # the mirror images, the iterate's own among them
                        np.conjugate(zm[mb], out=zz)
                        np.subtract(zb[:, None], zz, out=zz)
                        np.reciprocal(zz, out=zz)
                        repel += zz.sum(axis=1)
                    del zz  # one block temporary at a time: the callback makes its own
                    r = zb[:, None] - eps[None, :]
                    np.reciprocal(r, out=r)
                    newt = 1.0 / logderiv(r, mb)
                    wa[lo:hi] = newt / (1.0 - newt * repel)

            _over_shares(run, idx.size, width)
            wa[~np.isfinite(wa)] = 0.0
            za = z[idx]
            sa = np.abs(wa) / (unit + np.abs(za))
            done = sa < tol
            # a step below 1e-7 that shrinks slowly may be rounding noise, not the distance to the root
            low = np.flatnonzero(~done & (sa < 1e-7)) if it else ()
            if len(low):
                prev = step[idx[low]]
                slow = sa[low] > 0.1 * prev  # both rules need a step that shrank by less than 10x
                if slow.any():
                    low, prev = low[slow], prev[slow]
                    done[low] = (sa[low] < 1e-12) & (sa[low] >= prev)
                    near = low[~done[low]]
                    if near.size:
                        done[near] = np.abs(wa[near]) <= floor(za[near])
            step[idx] = sa
            z[idx] = za - wa
            active[idx] = ~done
            if not active.any():
                break
            # stall test: each member's largest active step against its value 24 iterations back
            if it % 25 == 1:
                ref = largest_active_step()
            elif it >= 25 and it % 25 == 0:
                stuck = largest_active_step() > 0.5 * ref
                keep = active[idx] & stuck[member[idx]]
                amp = np.abs(wa) + 1e-14
                z[idx[keep]] += 0.35 * amp[keep] * twist[pos[idx[keep]]]
    ok = ~active.reshape(nb, n).any(axis=1)
    last = np.where(active | ok[member], step, 0.0).reshape(nb, n).max(axis=1, initial=0.0)
    if np.ndim(z0) == 1:
        return z, int(its[0]), bool(ok[0]), float(last[0])
    return zm, its, ok, last


def _spectrum_logderiv(v2: np.ndarray, lam):
    """p'/p = sum r + g'/g with g = 1 + i*Lambda*S, S = sum r*v^2, S' = -sum r^2*v^2.

    lam is one coupling, or one per member of a batched _aberth call.
    """
    v2 = v2.astype(complex)
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    il, nil = 1j * lam, -1j * lam

    def logderiv(r, m):
        s = _power_sums(r, v2, 2)
        return r.sum(axis=1) + nil[m] * s[1] / (1.0 + il[m] * s[0])

    return logderiv


def _slope(x: np.ndarray, eps: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """S'(x) = -sum v^2/(x - eps)^2 at real points x, in place in one row-block buffer."""
    rows = max(1, _BLOCK // eps.size)
    out = np.empty(x.size)
    buf = np.empty((min(rows, x.size), eps.size))
    for b0 in range(0, x.size, rows):
        d = buf[: min(rows, x.size - b0)]
        np.subtract(x[b0 : b0 + rows, None], eps[None, :], out=d)
        np.square(d, out=d)
        np.divide(v2, d, out=d)
        out[b0 : b0 + rows] = -d.sum(axis=1)
    return out


def _step_floor(eps: np.ndarray, w: np.ndarray, p: int, z: np.ndarray) -> np.ndarray:
    """Rounding bound u*sum|w r^p|/|p*sum w r^(p+1)| of a Newton step on sum w r^p at each z, r = 1/(z - eps)."""
    s, size = _cauchy_sums(z, eps, w, p + 1, mag=p)
    return np.finfo(float).eps * size / np.abs(p * s[p])


def _regime(eps: np.ndarray, v2: np.ndarray, lam: complex) -> bool:
    """Whether the cold seeds at the levels eps (strictly increasing) are strong.

    They are when more than half of the levels have |Lambda|*v_k^2 >
    spacing_k/pi, spacing_k being the distance to the nearest other level.
    """
    gap = np.diff(eps)
    bound = np.minimum(np.append(gap, np.inf), np.insert(gap, 0, np.inf)) / np.pi
    return 2 * np.count_nonzero(abs(lam) * v2 > bound) > eps.size


def _seeds(eps: np.ndarray, v2: np.ndarray, lam: complex, tol: float):
    """Cold seeds for the coupled levels eps (at least two, strictly increasing, v2 > 0); returns (z, check).

    Strong regime (_regime), when more than half of the levels have
    |Lambda|*v_k^2 > spacing_k/pi (spacing_k: distance to the nearest other
    level): the collective root centroid - 1j*Lambda*sum(v^2) seeds the level
    nearest to it, level j say, and the trapped states m + (i/Lambda)/S'(m)
    at the gap midpoints m seed the rest, level k < j from the gap above it
    and level k > j from the gap below it.

    Weak regime otherwise: first-order onsite seeds eps_k - 1j*Lambda*v_k^2.
    Once |Lambda|*sum(v^2) is comparable to the level span, one eigenvalue
    separates from the cloud toward the collective root; the seed nearest it
    is swapped for it, which keeps the iteration from splitting a single
    deep root across two iterates.  A weak root sits next to its own level,
    so every other first-order seed then takes up to _ROUNDS own-pole
    rounds.  A round is one _cauchy_sums pass at the current positions x of
    the levels still open.  Its S and S' first check x: a level whose Newton
    step d = (S - i/Lambda)/S' has |d|/(unit + |x|) below tol, the solve's
    final tol, is confirmed, keeps x (d is not applied) and takes no further
    round.  Every other level moves:
    level k keeps its own term v_k^2/(E - eps_k) exact and linearizes the
    rest of S about x_k; the small root in E - eps_k of that quadratic (the
    one that goes to eps_k with Lambda) is its next x_k.  A level stays open
    while its moves are finite and each moves it less than _KEEP_ROUNDS
    times the one before, as quadratic convergence does.  One whose second
    move fails that goes back to its seed, and one whose third move fails
    keeps its second; a level confirmed after two moves has passed it with
    its second.  A round costs about half an Aberth row per open level.

    Seeds closer than 1e-12*scale are then jittered apart deterministically
    (_separate), so the Aberth repulsion term is finite.

    check[k] is the relative Newton step of a confirmed level, which _aberth
    then leaves frozen, and inf for the levels left to iterate, every strong
    seed among them.  Newton's step has no repulsion, so two positions next
    to one root can both pass the check: a confirmed level that has another
    position within sqrt(tol)*(unit + max |z|) before _separate is left to
    iterate too, as is any level that _separate moves, whose check no longer
    holds where it stands.
    """
    tot = v2.sum()
    deep = (eps * v2).sum() / tot - 1j * lam * tot  # the collective root
    unit = _step_unit(eps)
    check = np.full(eps.size, np.inf)
    if _regime(eps, v2, lam):
        mid = (eps[1:] + eps[:-1]) / 2.0
        z = np.insert(mid + (1j / lam) / _slope(mid, eps, v2), int(np.argmin(np.abs(eps - deep))), deep)
        return _separate(z, 0.7 + 0.7j, unit), check
    z = (eps - 1j * lam * v2).astype(complex)
    k = np.arange(eps.size)
    if abs(lam) * tot > (eps[-1] - eps[0]) / (2 * eps.size):
        j = int(np.argmin(np.abs(z - deep)))
        z[j] = deep
        k = np.delete(k, j)
    seed, x = z[k], z[k]
    prev = np.full(k.size, np.inf)  # each open level's latest move
    open_ = np.arange(k.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(_ROUNDS):
            if not open_.size:
                break
            xo = x[open_]
            s = _cauchy_sums(xo, eps, v2, 2)
            step = np.abs((s[0] - 1j / lam) / s[1]) / (unit + np.abs(xo))
            w, e = v2[k[open_]], eps[k[open_]]
            d = xo - e
            own = w / d
            slope = own / d - s[1]  # T_k': S' is -s[1], and the own term's slope is -w/d^2
            # slope*y^2 + b*y + w = 0 in y = E - eps_k; its small root is -2w over the larger b -+ sqrt
            b = s[0] - own - slope * d - 1j / lam
            sq = np.sqrt(b * b - 4.0 * slope * w)
            xn = e - 2.0 * w / (b + np.where((b.conjugate() * sq).real >= 0, sq, -sq))
            del s, w, e, d, own, slope, b, sq  # freed before the next round's pass allocates its blocks
            done = step < tol  # false for a non-finite step too
            check[k[open_[done]]] = step[done]
            move = np.abs(xn - xo)
            go = ~done & np.isfinite(xn) & (move < _KEEP_ROUNDS * prev[open_])
            if i == 1:  # a level whose second move fails goes back to its seed
                back = open_[~done & ~go]
                x[back] = seed[back]
            x[open_[go]] = xn[go]
            prev[open_[go]] = move[go]
            open_ = open_[go]
    z[k] = x
    check[_crowded(z, np.sqrt(tol) * (unit + np.abs(z).max()))] = np.inf
    before = z.copy()
    _separate(z, 0.7 + 0.7j, unit)
    check[z != before] = np.inf
    return z, check


def _sorted_order(e: np.ndarray) -> np.ndarray:
    return np.lexsort((e.imag, e.real))


def _tie_order(key: np.ndarray, then: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Sort order by key, where a key within 1e-12*scale of the one before it ties and then orders the tie."""
    o = np.argsort(key, kind="stable")
    group = np.cumsum(np.diff(key[o], prepend=-np.inf) > 1e-12 * scale[o])
    return o[np.lexsort((then[o], group))]


def _c_normalized_vectors(order, act, cols, e, eps_a, v_a, bil) -> np.ndarray:
    """N x N matrix of c-normalized eigenvectors, one column per sorted state.

    order is the sort permutation of the energies, act marks the coupled
    levels, cols the sorted positions of the coupled states, e their
    energies and bil their psi^T psi from the norm pass.  A coupled state's
    column is psi/sqrt(psi^T psi) with psi = v/(E - eps) on the coupled
    levels, signed so that its largest-modulus entry (the first one on ties)
    has positive real part, or positive imaginary part when the real part is
    zero.  A decoupled level keeps its exact basis column.
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
        psi /= np.sqrt(bil[b0 : b0 + rows])[:, None]
        piv = psi[np.arange(psi.shape[0]), np.argmax(np.abs(psi), axis=1)]
        flip = (piv.real < 0) | ((piv.real == 0) & (piv.imag < 0))
        psi[flip] = -psi[flip]
        vec[np.ix_(lev, cols[b0 : b0 + rows])] = psi.T
    return vec


def _condition(cols: np.ndarray, bil: np.ndarray, herm: np.ndarray) -> np.ndarray:
    """|psi^T psi| / <psi|psi> of the coupled states cols from the norm pass's sums.

    bil is psi^T psi = sum v^2 r^2 and herm is <psi|psi> = sum v^2 |r|^2.
    Raises IllConditionedNormalizationError, naming those of cols, where it
    is below _NORM_FLOOR, or where herm is not finite, as at a coupling so
    small that |r| ~ 1/(|Lambda| v^2) squared overflows; |bil| <= herm, so
    the ratio is finite wherever herm is.
    """
    over = cols[~np.isfinite(herm)]
    if over.size:
        raise IllConditionedNormalizationError(
            "normalization sums overflowed: coupling too small for c-normalization",
            state_indices=tuple(int(c) for c in over),
        )
    cond = np.abs(bil) / herm
    ill = cols[cond < _NORM_FLOOR]
    if ill.size:
        raise IllConditionedNormalizationError(
            "states too close to an exceptional point for c-normalization",
            state_indices=tuple(int(c) for c in ill),
        )
    return cond


def _level_vectors(model: EffectiveModel, roots: np.ndarray, coupling) -> np.ndarray:
    """N x N matrix of c-normalized eigenvectors at coupling, column k for roots[k], the root of level k.

    roots are in level order, as _roots returns them.  One norm pass, the
    check of _condition (naming levels) and _c_normalized_vectors with the
    levels as the order, as eigen_spectrum builds its vectors.
    """
    act, eps_a, v2_a = _active(model)
    act &= _as_lambda(coupling) != 0  # at lambda = 0 every level is bare
    levels = np.flatnonzero(act)
    e = roots[levels]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # _condition reports an overflow
        sums, herm = _cauchy_sums(e, eps_a, v2_a, 2, mag=2)
    _condition(levels, sums[1], herm)
    return _c_normalized_vectors(np.arange(roots.size), act, levels, e, eps_a, model.couplings[act], sums[1])


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

    energies[warm_order][k] is the state of level k, the next warm_start:
    it continues warm_start[k] or, cold, the seed of level k (onsite below
    the transition; above it, the collective seed for the level nearest that
    root and, for every other level, the trapped seed in its adjacent gap
    that faces it).  Continuation never reads the sort of energies.

    toward(coupling) is that warm start moved to another coupling: with
    vectors requested, the norm pass also kept sum v^2 r^p for p up to
    1 + _AHEAD at each root, the Taylor coefficients of S there.  Each
    coupled root moves to where S, with the term of its nearest level kept
    exact and the rest of S truncated to that series, takes the new value
    (_predicted); below the transition that lands within the handover of
    the next solve, which then takes one Aberth row per root.  Without the
    sums, at lambda = 0 or toward lambda = 0 it is energies[warm_order]
    itself.

    iterations counts the Aberth iterations of the levels that the cold
    seeds' own-pole rounds (_seeds) did not confirm, so it is 0 when they
    confirm every level.  residual is the largest relative step that ended
    the solve: without vectors, the last Aberth step or the Newton step
    that confirmed a level in the rounds, |S - i/Lambda|/|S'| over
    unit + |E|; with them, the Newton step of the norm pass's check (see
    eigen_spectrum).
    """

    energies: np.ndarray
    iterations: int
    residual: float
    warm_order: np.ndarray
    hermitian_norms: np.ndarray | None = None
    condition: np.ndarray | None = None
    _build_vectors: Callable[[], np.ndarray] | None = field(default=None, repr=False, compare=False)
    _ahead: Callable[[np.ndarray, complex], np.ndarray] | None = field(default=None, repr=False, compare=False)

    def toward(self, coupling) -> np.ndarray:
        """Warm start for a solve at coupling: energies[warm_order], each coupled root moved along its local model."""
        warm = self.energies[self.warm_order]
        lam = _as_lambda(coupling)
        return warm if self._ahead is None or lam == 0 else self._ahead(warm, lam)

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


def _active(model: EffectiveModel):
    """The coupled levels (v_k != 0), the only ones that take part: (their mask, their eps, their v^2)."""
    act = model.couplings != 0.0
    return act, model.epsilons[act], model.couplings[act] ** 2


def _off_poles(z: np.ndarray, eps: np.ndarray, v2: np.ndarray, lam) -> np.ndarray:
    # warm seeds z of the levels eps, entry k for level k: an entry on any pole eps_j (a sweep from
    # lambda = 0, or a start in another order) makes the step 1/0, which _aberth zeroes and then
    # accepts, so it moves to its own weak seed eps_k - i*lam*v2_k.  Only real entries are looked
    # up, and off phi = 90 degrees a warm start at lambda > 0 has none.
    if z.imag.all():
        return z
    j = np.minimum(np.searchsorted(eps, z.real), eps.size - 1)
    hit = (z.imag == 0) & (eps[j] == z.real)
    return np.where(hit, eps - 1j * lam * v2, z) if hit.any() else z


def _roots(model: EffectiveModel, couplings, seeds=None, maxiter: int = 500, tol: float = 5e-14, final_tol=None):
    """Roots at B couplings from one _aberth call; returns (roots, iterations, ok, last_step) per member.

    roots is (B, N) in level order: roots[b, k] is level k at couplings[b],
    continuing seeds[b, k] when B warm starts are given (each read as
    eigen_spectrum reads warm_start), else from _seeds, which confirms weak
    cold seeds on their roots by a Newton step below final_tol, the
    tolerance the solve must meet in the end (tol when None; a vector
    solve's _aberth stops at its handover instead).  _aberth iterates the
    levels left over, every warm one among them, to tol, the confirmed ones
    frozen: iterations counts its iterations alone, and last_step is the
    largest of its last steps and the confirming Newton steps.  Only coupled
    levels at a nonzero coupling are iterated: a split-off level, and every
    level at lambda = 0, keeps its bare energy exactly, and a single coupled
    level takes its exact root (0 iterations, ok).  Raises
    InvalidCouplingError for a NaN or infinite coupling.
    """
    lams = [_as_lambda(c) for c in couplings]
    lam = np.array(lams, dtype=complex)
    act, eps, v2 = _active(model)
    roots = np.repeat(model.epsilons.astype(complex)[None, :], lam.size, axis=0)
    its = np.zeros(lam.size, dtype=int)
    ok = np.ones(lam.size, dtype=bool)
    last = np.zeros(lam.size)
    live = np.flatnonzero(lam != 0)
    at = np.ix_(live, act)
    if eps.size == 1:
        roots[at] = eps - 1j * lam[live, None] * v2
    elif eps.size and live.size:
        if seeds is None:
            final = tol if final_tol is None else final_tol
            z0, check = map(np.array, zip(*(_seeds(eps, v2, lams[b], final) for b in live)))
        else:
            z0 = _off_poles(np.asarray(seeds, dtype=complex)[at], eps, v2, lam[live, None])
            z0 = _separate(z0, 0.7 + 0.7j, _step_unit(eps))
            check = np.full(z0.shape, np.inf)
        frozen = check < np.inf
        floor = partial(_step_floor, eps, v2, 1)
        roots[at], its[live], ok[live], last[live] = _aberth(
            eps, _spectrum_logderiv(v2, lam[live]), z0, floor=floor, maxiter=maxiter, tol=tol, frozen=frozen
        )
        last[live] = np.maximum(last[live], check.max(axis=1, where=frozen, initial=0.0))
    return roots, its, ok, last


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
    array of previous eigenvalues in level order, energies[warm_order] of an
    earlier solve, to continue a parameter sweep: warm entry k seeds level
    k, and the entries of split-off levels are ignored.  An entry that sits
    on any coupled level eps_j is seeded at eps_k - i*Lambda*v_k^2 instead,
    since the iteration cannot step off a pole.

    The roots come from one _aberth attempt (_roots), from warm_start or, on
    a cold solve, from _seeds, which below the transition confirms the seeds
    it has moved onto their roots by a Newton step below tol; the attempt
    iterates only the levels left over.  iterations counts those Aberth
    iterations alone, 0 when _seeds confirms every level, so it says little
    of the cost of a weak cold solve, whose own-pole rounds take about half
    an Aberth row per level each.  residual is the attempt's largest last
    relative step, or the largest Newton step that confirmed a level in
    _seeds when that is larger.
    Near an exceptional point, where a defective pair is defined only to
    about sqrt(machine eps), the rounding-bound stop leaves it up to 1e-7.
    At an exact exceptional point the coincident iterates stop on a
    non-finite step, which _aberth zeroes, so residual reads 0.0 although
    the pair is only good to about sqrt(machine eps):
    eigen_spectrum(build_picket_fence(2), 0.5) returns -0.50000001j and
    -0.5j for the double root -0.5j.  Warm entries closer than rounding,
    equal ones included, are pushed apart first (_separate), as cold seeds
    are.

    With compute_vectors the attempt stops at max(tol, _HANDOVER) instead
    (_seeds still confirms at tol, so the roots it confirms pass the check
    below as they stand), and the norm pass checks the roots by one
    Newton step each, which it does not apply; residual is then the largest
    relative Newton step.
    Only when that is not below tol does _roots continue from the roots to
    tol, with maxiter iterations more, before the norm pass runs again.
    The energies may therefore differ from a vector-less solve's in their
    last bits, within tol*(unit + |E|) (unit as in _aberth).

    compute_vectors fills hermitian_norms and condition and makes vectors
    available; the eigenvector matrix is only built if vectors is read.

    Raises InvalidCouplingError for a NaN or infinite coupling, ValueError
    for a warm_start of the wrong shape or with a NaN or infinite entry,
    SolverFailureError (with diagnostics n, lambda, iterations and
    max_relative_step) if the iteration does not converge within maxiter
    iterations, and (only when compute_vectors is set)
    IllConditionedNormalizationError when some state is too close to an
    exceptional point for c-normalization, or when the coupling is so small
    that the normalization sums overflow.
    """
    lam = _as_lambda(coupling)
    n = model.n
    if warm_start is not None:
        warm_start = np.asarray(warm_start, dtype=complex)
        if warm_start.shape != (n,):
            raise ValueError("warm_start must have one entry per level")
        if not np.isfinite(warm_start).all():
            raise ValueError("warm_start entries must be finite")
        warm_start = warm_start[None, :]
    act, eps_a, v2_a = _active(model)
    act &= lam != 0  # at lambda = 0 every level is bare
    its = 0
    for stop in (max(tol, _HANDOVER), tol) if compute_vectors else (tol,):
        roots, k, ok, last = _roots(model, [lam], warm_start, maxiter, stop, tol)
        its += int(k[0])
        e_full, last, warm_start = roots[0], float(last[0]), roots
        if not ok[0]:
            diagnostics = {"n": eps_a.size, "lambda": complex(lam), "iterations": its, "max_relative_step": last}
            raise SolverFailureError("eigenvalue iteration did not converge", diagnostics=diagnostics)
        order = _sorted_order(e_full)
        e_sorted = e_full[order]
        if not compute_vectors:
            break
        cols = np.flatnonzero(act[order])
        e_act = e_sorted[cols]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sums, herm = _cauchy_sums(e_act, eps_a, v2_a, 1 + _AHEAD, mag=2)
            if not cols.size:
                break
            # the Newton step on S - i/Lambda from the norm pass's S = sums[0] and -S' = sums[1]
            newton = np.abs((sums[0] - 1j / lam) / sums[1]) / (_step_unit(eps_a) + np.abs(e_act))
        last = float(newton.max())
        if last < tol:  # false for a non-finite step too
            break
    warm_order = np.argsort(order)  # the inverse permutation: energies[warm_order] is e_full

    if not compute_vectors:
        return Spectrum(energies=e_sorted, iterations=its, residual=last, warm_order=warm_order)

    norms = np.ones(n)
    cond = np.full(n, np.inf)
    bil = sums[1]
    cond[cols] = _condition(cols, bil, herm)
    norms[cols] = 1.0 / cond[cols]
    return Spectrum(
        energies=e_sorted,
        iterations=its,
        residual=last,
        warm_order=warm_order,
        hermitian_norms=norms,
        condition=cond,
        _build_vectors=partial(_c_normalized_vectors, order, act, cols, e_act, eps_a, model.couplings[act], bil),
        _ahead=partial(_predicted, lam, order[cols], sums, eps_a, v2_a) if cols.size else None,
    )


def _predicted(
    lam: complex, levels: np.ndarray, sums: np.ndarray, eps: np.ndarray, v2: np.ndarray,
    warm: np.ndarray, lam_next: complex,
) -> np.ndarray:
    """warm with the roots of the levels moved from lam to lam_next, in place.

    sums[p] = sum v^2 r^(p+1) at each root E, r = 1/(E - eps), and the shift
    d keeps S(E + d) = i/lam_next.  The term of the pole eps_k nearest E
    stays exact: with w = v_k^2 and r_k = 1/(E - eps_k) it is
    w r_k/(1 + d r_k), and only the rest of S is expanded, by
    1/(E + d - eps) = sum_p (-r)^p r d^p, from rest[p] = sums[p] - w r_k^(p+1).
    So d solves

        w r_k/(1 + d r_k) + sum_{p=1.._AHEAD} (-1)^p rest[p] d^p = t + w r_k,

    t = i/lam_next - i/lam.  Below the transition, where E sits next to its
    own level at about |Lambda| v_k^2, the term of eps_k is nearly all of the
    move, and a plain Taylor series of S about E, whose radius is that
    distance, barely converges.  Newton runs on the equation times
    1 + d r_k (_shift), which is exact for the pole term alone, from the
    tangent d = -t/sums[1].  The rest's series converges only within the
    distance from E to the poles next to eps_k, so a root whose d is not
    inside it, or not finite, takes the plain Taylor shift of all of S
    instead, from the same start; a root whose plain shift is not finite
    either keeps its place.
    """
    e = warm[levels]
    ext = np.concatenate(([-np.inf], eps, [np.inf]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = np.searchsorted(ext, e.real)
        k -= e.real - ext[k - 1] < ext[k] - e.real  # ext[k] = eps[k - 1] is the pole nearest E
        r = 1.0 / (e - ext[k])
        wr2 = v2[k - 1] * r * r
        sign = (-1.0) ** np.arange(1, _AHEAD + 1)[:, None]
        t = 1j / lam_next - 1j / lam
        d = _shift(sign * (sums[1:] - wr2 * r ** np.arange(_AHEAD)[:, None]), wr2, r, t)
        plain = ~(np.abs(d) < np.minimum(np.abs(e - ext[k - 1]), np.abs(e - ext[k + 1])))
        if plain.any():
            d[plain] = _shift(sign * sums[1:, plain], 0.0, 0.0, t)
    warm[levels] += np.where(np.isfinite(d), d, 0.0)
    return warm


def _shift(a: np.ndarray, wr2, r, t: complex) -> np.ndarray:
    """_NEWTON Newton steps from the tangent on (1 + d r)(sum_p a_p d^p - t) - wr2 d = 0.

    a holds a_1.._AHEAD per root.  With wr2 = w r^2 of a pole kept exact and
    r its 1/(E - eps_k) this is _predicted's equation times 1 + d r; with
    wr2 = r = 0 it is the plain Taylor model sum_p a_p d^p = t.
    """
    # Horner coefficients of P(d)/d = sum_p a_p d^(p-1) and of P'(d) = sum_p p a_p d^(p-1), side by side
    c = np.stack((a, a * np.arange(1, _AHEAD + 1)[:, None]), axis=1)
    d = t / (a[0] - wr2)
    for _ in range(_NEWTON):
        x = c[-1]
        for p in range(_AHEAD - 2, -1, -1):
            x = x * d + c[p]
        g = x[0] * d - t
        q = 1.0 + d * r
        d = d - (q * g - wr2 * d) / (r * g + q * x[1] - wr2)
    return d


def _broadest_root(model: EffectiveModel, coupling) -> complex | None:
    """The energy of the broadest state when one root certifies itself, else None.

    For Re Lambda > 0 the anti-Hermitian part of H is -Re Lambda * v v^T <= 0,
    so every width is >= 0, and the trace fixes their sum at
    2 Re Lambda * sum v^2.  A root wider than half that sum is therefore the
    unique broadest state.  Newton (one _aberth iterate) runs on
    h(E) = 1/S(E) + i*Lambda, whose zeros are the roots and which stays
    finite at the levels, from the collective seed c - i*Lambda*sum v^2,
    c = sum eps v^2 / sum v^2.  None when Re Lambda <= 0, when no level
    couples, or when the iterate does not converge within 30 steps to a root
    past that half by more than its distance from the root can account for:
    the caller then solves for all N roots.
    """
    lam = _as_lambda(coupling)
    _, eps, v2 = _active(model)
    if lam.real <= 0 or not eps.size:
        return None
    tot = v2.sum()
    il = 1j * lam
    w = v2.astype(complex)

    def logderiv(r, m):  # h'/h = sum v^2 r^2 / (S * (1 + i*Lambda*S))
        s = _power_sums(r, w, 2)
        return s[1] / (s[0] * (1.0 + il * s[0]))

    seed = [(eps * v2).sum() / tot - il * tot]
    root, _, ok, _ = _aberth(eps, logderiv, seed, floor=partial(_step_floor, eps, v2, 1), maxiter=30)
    top = complex(root[0])
    if not ok:
        return None
    # How far top may lie from the root: _aberth's stop does not bound it, since its test is
    # relative to min(1, span of eps) + |E| and it stops on any non-finite step, which h = 0
    # gives at a root but h' = 0 (or an overflow next to a level) anywhere.  One more Newton
    # step and its rounding bound do: the root is within |step| + bound of top, or twice that
    # for a double root (two states of half the width each, at an exceptional point), so a
    # width past half by twice that, with finite sums, is certified.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s, size = _cauchy_sums(np.array([top]), eps, v2, 2, mag=1)
        s, size = s[:, 0], size[0]
        step = s[0] * (1.0 + il * s[0]) / s[1]  # h/h'
        reach = 2.0 * (abs(step) + np.finfo(float).eps * size / abs(s[1]))
    wide = -2.0 * top.imag - 2.0 * reach > lam.real * tot * (1.0 + 1e-9)
    return top if wide and np.isfinite(s).all() else None


# ---------------------------------------------------------------------------
# closed forms

def two_level_closed_form(eps1: float, eps2: float, omega_deg: float, coupling) -> tuple[complex, complex]:
    """Exact pair of eigenvalues of the two-level model with channel angle omega_deg.

    Returns (E1, E2) on the principal square-root branch, which reproduces
    (eps1, eps2) at lambda = 0 when eps1 < eps2.
    """
    c2w = float(np.cos(2 * np.radians(float(omega_deg))))
    mean, root = _two_level_quadratic(float(eps1), float(eps2), c2w, _as_lambda(coupling))
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
