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
when its relative step falls below tol, or when rounding keeps it above:
its step stops shrinking after falling below 1e-12, or lies under the
rounding bound u*sum|v^2 r|/|S'| of the secular sum.

Cold seeds follow the collectivity transition, which splits the spectrum
into one collective state of width about |Lambda|*sum(v^2) and N-1 trapped
states whose widths shrink like 1/|Lambda|.  Below it (weak coupling) each
level k is seeded at its first-order root eps_k - i*Lambda*v_k^2.  Above it
each trapped state sits next to a zero of S between two adjacent levels,
so the seeds are the first-order trapped states m + (i/Lambda)/S'(m) at
the N-1 gap midpoints m, plus the collective root.  The strong seeds are
chosen when more than half of the levels have |Lambda|*v_k^2 >
spacing_k/pi, spacing_k being the distance to the nearest other level.
Either way a cold solve costs a few row evaluations per root.

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
seeds' S'(m) (_slope) and the eigenvector matrix keep their own forms.
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

    Raises PoleProximityError if any E sits within 1e-14 of a level (relative
    to the model's energy scale), and InvalidCouplingError for lambda = 0
    where i/Lambda is undefined, or for a NaN or infinite lambda.
    """
    lam = _as_lambda(coupling)
    if lam == 0:
        raise InvalidCouplingError("secular function needs lambda > 0 (H is diagonal at lambda = 0)")
    e = np.asarray(energy, dtype=complex)
    scalar = e.ndim == 0
    e = np.atleast_1d(e)
    eps = model.epsilons
    scale = max(1.0, float(np.max(np.abs(eps))))
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


def _nearest_gap(z: np.ndarray) -> np.ndarray:
    """Distance from each point to its nearest other one in its row (inf if alone).

    z is one row of points or a (B, N) stack of rows; memory stays O(N*_BLOCK).
    """
    zm = np.atleast_2d(z)
    n = zm.shape[1]
    flat = zm.reshape(-1)
    near = np.empty(flat.size)

    def run(blocks):
        for lo, hi in blocks:
            ib = np.arange(lo, hi)
            gap = zm[ib // n]
            np.subtract(flat[ib, None], gap, out=gap)
            gap = np.abs(gap)
            gap[np.arange(ib.size), ib % n] = np.inf  # a point's distance to itself
            near[lo:hi] = gap.min(axis=1)

    _over_shares(run, flat.size, n)
    return near.reshape(np.shape(z))


def _separate(z: np.ndarray, jitter: complex) -> np.ndarray:
    """Push apart iterates closer than 1e-12*scale, in place, so the repulsion term is finite.

    Up to three rounds; the k-th offending iterate moves by k*1e-6*scale*jitter.
    """
    scale = max(1.0, float(np.abs(z).max()))
    for _ in range(3):
        bad = np.flatnonzero(_nearest_gap(z) < 1e-12 * scale)
        if bad.size == 0:
            break
        z[bad] += (np.arange(bad.size) + 1) * 1e-6 * scale * jitter
    return z


def _aberth(eps, logderiv, z0, maxiter=500, tol=5e-14, floor=None):
    """Simultaneous root iteration; returns (roots, iterations, converged, last_step).

    The roots are those of p(E) = prod_k (E - eps_k) * q(E) for a rational q.
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

    An iterate converges when its relative step falls below tol, or when
    rounding keeps it from getting there: when its step stops shrinking
    after falling below 1e-12, or, given floor(z) (the absolute rounding
    bound of a step at the points z), when a step below 1e-7 that shrank by
    less than a factor of 10 is below that bound; floor is evaluated only
    for such iterates.
    Converged iterates are frozen, and last_step reports each member's
    largest relative step at the final evaluation of its iterates.  A
    deterministic index-asymmetric kick is applied to a member whose maximum
    step stops shrinking (the plain iteration can lock into a
    mirror-symmetric limit cycle when the true roots sit on the symmetry axis
    of the seed configuration).  Every member gets the iterates, iteration
    count, converged flag and last_step that it would get alone; for a
    (B, n) seed they come back as (B, n), (B,), (B,) and (B,) arrays.
    """
    zm = np.array(z0, dtype=complex, ndmin=2, order="C")
    nb, n = zm.shape
    z = zm.reshape(-1)
    member, pos = np.divmod(np.arange(z.size), n)
    width = max(n, eps.size)
    eps = eps.astype(complex)  # complex operands spare numpy a casting pass per block
    active = np.ones(z.size, dtype=bool)
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
                    del zz  # one block temporary at a time: the callback makes its own
                    r = zb[:, None] - eps[None, :]
                    np.reciprocal(r, out=r)
                    newt = 1.0 / logderiv(r, mb)
                    wa[lo:hi] = newt / (1.0 - newt * repel)

            _over_shares(run, idx.size, width)
            wa[~np.isfinite(wa)] = 0.0
            za = z[idx]
            sa = np.abs(wa) / (1.0 + np.abs(za))
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
                    if floor is not None and near.size:
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


def _step_floor(eps: np.ndarray, v2: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rounding bound u*sum|v^2 r|/|S'| of a secular Newton step at each point z, r = 1/(z - eps)."""
    s, size = _cauchy_sums(z, eps, v2, 2, mag=1)
    return np.finfo(float).eps * size / np.abs(s[1])


def _seeds(eps: np.ndarray, v2: np.ndarray, lam: complex) -> np.ndarray:
    """Cold seeds for the coupled levels eps (strictly increasing, v2 > 0), one per level.

    Strong regime, when more than half of the levels have
    |Lambda|*v_k^2 > spacing_k/pi (spacing_k: distance to the nearest other
    level): the collective root centroid - 1j*Lambda*sum(v^2) seeds the level
    nearest to it, level j say, and the trapped states m + (i/Lambda)/S'(m)
    at the gap midpoints m seed the rest, level k < j from the gap above it
    and level k > j from the gap below it.

    Weak regime otherwise: first-order onsite seeds eps_k - 1j*Lambda*v_k^2.
    Once |Lambda|*sum(v^2) is comparable to the level span, one eigenvalue
    separates from the cloud toward the collective root; the seed nearest it
    is swapped for it, which keeps the iteration from splitting a single
    deep root across two iterates.

    Seeds closer than 1e-12*scale are jittered apart deterministically so
    the Aberth repulsion term is finite.
    """
    n = eps.size
    tot = v2.sum()
    cen = (eps * v2).sum() / tot
    deep = cen - 1j * lam * tot
    gap = np.diff(eps)
    spacing = np.minimum(np.append(gap, np.inf), np.insert(gap, 0, np.inf))
    if 2 * np.count_nonzero(abs(lam) * v2 > spacing / np.pi) > n:
        mid = (eps[1:] + eps[:-1]) / 2.0
        z = np.insert(mid + (1j / lam) / _slope(mid, eps, v2), int(np.argmin(np.abs(eps - deep))), deep)
        return _separate(z, 0.7 + 0.7j)
    z = (eps - 1j * lam * v2).astype(complex)
    span = (eps.max() - eps.min()) if n > 1 else 1.0
    if n > 1 and abs(lam) * tot > span / (2 * n):
        j = int(np.argmin(np.abs(z - deep)))
        z[j] = deep
    return _separate(z, 0.7 + 0.7j)


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
    """

    energies: np.ndarray
    iterations: int
    residual: float
    warm_order: np.ndarray
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

    The roots come from one _aberth attempt, from warm_start or, on a cold
    solve, from _seeds.  residual is its largest last relative step; near an
    exceptional point, where a defective pair is defined only to about
    sqrt(machine eps), the rounding-bound stop leaves it up to 1e-7.

    compute_vectors fills hermitian_norms and condition and makes vectors
    available; the eigenvector matrix is only built if vectors is read.

    Raises InvalidCouplingError for a NaN or infinite coupling, ValueError
    for a warm_start of the wrong shape or with a NaN or infinite entry,
    SolverFailureError (with diagnostics n, lambda, iterations and
    max_relative_step) if the iteration does not converge within maxiter
    iterations, and (only when compute_vectors is set)
    IllConditionedNormalizationError when some state is too close to an
    exceptional point for c-normalization.
    """
    lam = _as_lambda(coupling)
    n = model.n
    eps = model.epsilons
    v = model.couplings
    act = (v != 0.0) if lam != 0 else np.zeros(n, dtype=bool)  # at lambda = 0 every level is bare
    e_full = eps.astype(complex)
    its = 0
    last = 0.0
    if warm_start is not None:
        warm_start = np.asarray(warm_start, dtype=complex)
        if warm_start.shape != (n,):
            raise ValueError("warm_start must have one entry per level")
        if not np.isfinite(warm_start).all():
            raise ValueError("warm_start entries must be finite")
    if act.any():
        eps_a = eps[act]
        v2_a = v[act] ** 2
        if eps_a.size == 1:
            roots = np.array([eps_a[0] - 1j * lam * v2_a[0]])
        else:
            z0 = _seeds(eps_a, v2_a, lam) if warm_start is None else _off_poles(warm_start[act], eps_a, v2_a, lam)
            roots, its, ok, last = _aberth(
                eps_a, _spectrum_logderiv(v2_a, lam), z0, maxiter=maxiter, tol=tol, floor=partial(_step_floor, eps_a, v2_a)
            )
            if not ok:
                diagnostics = {"n": eps_a.size, "lambda": complex(lam), "iterations": its, "max_relative_step": last}
                raise SolverFailureError("eigenvalue iteration did not converge", diagnostics=diagnostics)
        e_full[act] = roots

    order = _sorted_order(e_full)
    e_sorted = e_full[order]
    warm_order = np.argsort(order)  # the inverse permutation: energies[warm_order] is e_full

    if not compute_vectors:
        return Spectrum(energies=e_sorted, iterations=its, residual=last, warm_order=warm_order)

    cols = np.flatnonzero(act[order])
    e_act = e_sorted[cols]
    norms = np.ones(n)
    cond = np.full(n, np.inf)
    sums, herm = _cauchy_sums(e_act, eps[act], v[act] ** 2, 2, mag=2)
    bil = sums[1]  # psi^T psi = sum v^2 r^2, and herm = <psi|psi> = sum v^2 |r|^2
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
        warm_order=warm_order,
        hermitian_norms=norms,
        condition=cond,
        _build_vectors=partial(_c_normalized_vectors, order, act, cols, e_act, eps[act], v[act], bil),
    )


def _continue_batch(model: EffectiveModel, couplings: np.ndarray, seeds: np.ndarray):
    """Roots at B couplings from one batched _aberth call; returns (roots, ok).

    Row b of seeds is the warm start for couplings[b] in level order, read
    as eigen_spectrum reads warm_start, and roots[b] comes back in level
    order too: roots[b, k] continues seeds[b, k].  Only coupled levels are
    iterated; a split-off level keeps its own entry, at its bare energy.
    ok[b] says that member b converged at a nonzero coupling.  Each member
    gets one attempt, as an eigen_spectrum solve does; sweep solves the
    first member that is not ok again, from the last accepted row and with
    bisection.  Raises InvalidCouplingError for a NaN or infinite coupling,
    as eigen_spectrum does.
    """
    lam = np.array([_as_lambda(c) for c in couplings], dtype=complex)
    seeds = np.asarray(seeds, dtype=complex)
    eps = model.epsilons
    v = model.couplings
    act = v != 0.0
    e_full = np.repeat(eps.astype(complex)[None, :], lam.size, axis=0)
    ok = lam != 0
    if act.any():
        v2 = v[act] ** 2
        warm = _off_poles(seeds[:, act], eps[act], v2, lam[:, None])
        z, _, conv, _ = _aberth(eps[act], _spectrum_logderiv(v2, lam), warm, floor=partial(_step_floor, eps[act], v2))
        e_full[:, act] = z
        ok &= conv
    return e_full, ok


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
