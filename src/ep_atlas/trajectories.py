"""Eigenvalue motion along coupling sweeps and width bookkeeping.

A sweep follows all N complex eigenvalues along a grid of couplings
Lambda = lambda * exp(1j*phi).  The continuation is iterate identity: each
root is iterated from a seed that belongs to one column (column k holds
level k, in the order of Spectrum.warm_order, whatever order the energies
sort in), so no matching happens here.  After the first (cold) point,
grid points are solved in batches, one call per batch of the root stage
that eigen_spectrum uses too (secular._roots): every point's seed is the
linear (secant) extrapolation of the last two accepted rows, or the last
row alone when no second row continues it.  A point is accepted only if
every root moved by less than roughly half its distance to the nearest
other root (the balls are then disjoint and the continuation is unique);
a batch keeps its leading run of accepted points.  A point at lambda = 0
is the bare levels exactly and is tested like any other.  The batch size
doubles after a batch that is accepted whole, up to what half an engine
row block holds, and falls back to one point after a rejection.  The
first rejected point is re-solved from the last row alone, warm-starting
eigen_spectrum, and its step is bisected until it passes the same test.
An exceptional point crossed by the path makes the continuation genuinely
undefined (the two branches reconnect at equal distances), which surfaces
as TrajectoryAmbiguityError unless the caller opts into a restart from a
cold solve at such points.

The order parameter walks a grid too, but needs only the broadest width at
each point.  Past the collectivity transition one state holds more than half
of the total width 2 Re Lambda * sum v^2, which certifies it as the
broadest, so those points solve for that one root instead of all N; a full
solve after a certified point starts cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidCouplingError, TrajectoryAmbiguityError
from .models import EffectiveModel, phase_factor
from .secular import _BLOCK, _broadest_root, _crowded, _roots, _tie_order, eigen_spectrum

_MATCH_FACTOR = 0.45
_MAX_BISECT = 24  # halvings of a rejected step before it counts as ambiguous
_PROMINENCE = 1e-4  # least width prominence of a turning point


@dataclass(frozen=True)
class Trajectory:
    """Continuously matched spectrum along a coupling grid.

    energies has one row per grid point and one column per level; column k
    is a single analytic branch as long as ambiguous_intervals is empty.
    """

    lambdas: np.ndarray
    couplings: np.ndarray
    energies: np.ndarray
    phi_deg: float
    ambiguous_intervals: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    @property
    def widths(self) -> np.ndarray:
        """Gamma = -2 Im E, same layout as energies."""
        return -2.0 * self.energies.imag

    @property
    def n_states(self) -> int:
        return int(self.energies.shape[1])


def _matched(prev: np.ndarray, new: np.ndarray):
    """Whether each row of new continues the same row of prev (one bool per row of a stack).

    Every root must have moved by at most _MATCH_FACTOR of its nearest gap
    plus 1e-15, and every entry must be finite.
    """
    reach = (np.abs(new - prev) - 1e-15) / _MATCH_FACTOR
    return np.isfinite(reach).all(axis=-1) & ~_crowded(new, reach).any(axis=-1)


def _grid(lam_values) -> np.ndarray:
    """lam_values as floats, checked before any walk multiplies them by the phase."""
    lam = np.asarray(list(lam_values), dtype=float)
    if not np.isfinite(lam).all():
        raise InvalidCouplingError("coupling grid must be finite")
    return lam


def _advance(model, prev_roots, c_from, c_to, depth):
    """Continue the root set from coupling c_from to c_to, bisecting as needed."""
    spec = eigen_spectrum(model, c_to, warm_start=prev_roots)
    new = spec.energies[spec.warm_order]
    if _matched(prev_roots, new):
        return new, True
    if depth <= 0:
        return new, False
    mid = (c_from + c_to) / 2.0
    roots_mid, ok = _advance(model, prev_roots, c_from, mid, depth - 1)
    if not ok:
        return roots_mid, False
    return _advance(model, roots_mid, mid, c_to, depth - 1)


def sweep(
    model: EffectiveModel,
    lam_values,
    phi: float = 0.0,
    *,
    policy: str = "raise",
) -> Trajectory:
    """Track all eigenvalues over a lambda grid at fixed phase phi (degrees).

    Column k continues level k from the first point.  policy='raise'
    (default) raises TrajectoryAmbiguityError when a step cannot be matched
    even after bisection; policy='sorted' records the offending interval and
    restarts from a cold solve in level order, as a branch reconnection at an
    exceptional point requires.
    Grid points are solved in batches from secant-extrapolated seeds (see
    the module docstring); the rows agree with one warm solve per point up
    to the iteration's stopping tolerance.  A NaN or infinite lambda raises
    InvalidCouplingError before any solve.
    """
    if policy not in ("raise", "sorted"):
        raise ValueError("policy must be 'raise' or 'sorted'")
    lam = _grid(lam_values)
    if lam.size == 0:
        raise ValueError("empty coupling grid")
    phase = phase_factor(phi)
    cs = lam * phase
    n = model.n
    rows = np.empty((lam.size, n), dtype=complex)
    spec = eigen_spectrum(model, cs[0])
    rows[0] = spec.energies[spec.warm_order]
    bad: list[tuple[float, float]] = []
    # the engine holds two batch-sized temporaries at once (r and the callback's product):
    # half a row block each keeps the pair within one block
    cap = max(1, _BLOCK // (2 * n**2))
    size = 1
    fresh = 0  # first row of the current run of matched rows
    i = 1
    while i < lam.size:
        k = min(size, cap, lam.size - i)
        prev = rows[i - 1]
        if i - fresh >= 2 and lam[i - 1] != lam[i - 2]:
            t = (lam[i : i + k] - lam[i - 1]) / (lam[i - 1] - lam[i - 2])
            seeds = prev + t[:, None] * (prev - rows[i - 2])
        else:
            seeds = np.repeat(prev[None, :], k, axis=0)
        roots, _, ok, _ = _roots(model, cs[i : i + k], seeds)
        ok &= _matched(np.concatenate((prev[None, :], roots[:-1])), roots)
        good = k if ok.all() else int(np.argmin(ok))
        rows[i : i + good] = roots[:good]
        i += good
        if good == k:
            size = min(2 * size, cap)
            continue
        size = 1
        roots, ok = _advance(model, rows[i - 1], cs[i - 1], cs[i], _MAX_BISECT)
        if not ok:
            if policy == "raise":
                raise TrajectoryAmbiguityError(
                    "branch matching undefined in (%g, %g); an exceptional point "
                    "lies on or next to the path" % (lam[i - 1], lam[i]),
                    interval=(float(lam[i - 1]), float(lam[i])),
                )
            bad.append((float(lam[i - 1]), float(lam[i])))
            spec = eigen_spectrum(model, cs[i])
            roots = spec.energies[spec.warm_order]
            fresh = i
        rows[i] = roots
        i += 1
    return Trajectory(
        lambdas=lam,
        couplings=cs,
        energies=rows,
        phi_deg=float(phi),
        ambiguous_intervals=tuple(bad),
    )


@dataclass(frozen=True)
class TurningPoint:
    state: int
    lam: float
    width: float


def _find_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """Indices of interior local maxima of x with at least the given prominence.

    Same result as scipy.signal.find_peaks(x, prominence=prominence): a flat
    run of equal samples counts once, at its midpoint (rounded down), when
    both neighbouring runs are strictly lower; a run touching either end is
    never a peak.  A peak's base on each side is the minimum of x between it
    and the first strictly higher sample (or the array end), and its
    prominence is its height above the higher of the two bases.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        return np.empty(0, dtype=np.intp)
    starts = np.concatenate(([0], np.flatnonzero(x[1:] != x[:-1]) + 1))
    ends = np.append(starts[1:] - 1, x.size - 1)
    top = x[starts]
    k = np.flatnonzero((top[1:-1] > top[:-2]) & (top[1:-1] > top[2:])) + 1
    peaks = (starts[k] + ends[k]) // 2
    keep = []
    for p in peaks:
        lo = np.flatnonzero(~(x[:p] <= x[p]))
        hi = np.flatnonzero(~(x[p + 1 :] <= x[p]))
        left = x[(lo[-1] + 1 if lo.size else 0) : p + 1].min()
        right = x[p : (p + 1 + hi[0] if hi.size else x.size)].min()
        keep.append(x[p] - max(left, right) >= prominence)
    return peaks[np.array(keep, dtype=bool)]


def _vertex(x: np.ndarray, y: np.ndarray, i: int) -> float:
    """Abscissa of the vertex of the parabola through samples i-1, i, i+1.

    The offset from x[i] is clipped to half the bracket on either side; a
    triple with zero curvature keeps x[i].
    """
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = y0 - 2 * y1 + y2
    off = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
    off = float(np.clip(off, -1.0, 1.0))
    return float(x[i] + off * (x[i + 1] - x[i - 1]) / 2.0)


def turning_points(traj: Trajectory) -> list[TurningPoint]:
    """Interior maxima of each state's width along the sweep.

    A trapped state's width grows, turns over near the transition, and
    decays; the turnover location is refined by a parabola through the peak
    sample and its neighbors.  Only peaks with a prominence of at least
    _PROMINENCE are reported, so monotone branches contribute nothing.  The
    points come in order of lam; lam values within 1e-12 (relative) of each
    other are ties, ordered by state, so rounding noise cannot reorder a
    mirror pair.
    """
    out: list[TurningPoint] = []
    g = traj.widths
    for k in range(traj.n_states):
        for i in _find_peaks(g[:, k], _PROMINENCE):
            out.append(TurningPoint(state=k, lam=_vertex(traj.lambdas, g[:, k], i), width=float(g[i, k])))
    lam = np.array([t.lam for t in out])
    return [out[j] for j in _tie_order(lam, np.array([t.state for t in out]), np.maximum(1.0, np.abs(lam)))]


def broad_index(energies: np.ndarray) -> int:
    """Index of the short-lived collective state (largest width)."""
    e = np.asarray(energies)
    return int(np.argmin(e.imag))


@dataclass(frozen=True)
class WidthPartition:
    broad: int
    broad_share: float
    trapped: np.ndarray


def width_partition(energies: np.ndarray) -> WidthPartition:
    """Split one spectrum into its broadest state and the trapped remainder.

    broad_share is that state's fraction of the total width; near 1 deep in
    the collective regime.
    """
    e = np.asarray(energies)
    w = -2.0 * e.imag
    b = broad_index(e)
    total = float(w.sum())
    share = float(w[b] / total) if total > 0 else 0.0
    mask = np.ones(e.size, dtype=bool)
    mask[b] = False
    return WidthPartition(broad=b, broad_share=share, trapped=mask)


def central_band(energies: np.ndarray, fraction: float = 1.0 / 3.0) -> np.ndarray:
    """Mask selecting the central `fraction` of states by real energy rank.

    Edge states feel the finite ladder ends first; asymptotic width laws are
    cleanest in this band.
    """
    e = np.asarray(energies)
    n = e.size
    keep = max(1, int(round(n * fraction)))
    lo = (n - keep) // 2
    order = np.argsort(e.real)
    mask = np.zeros(n, dtype=bool)
    mask[order[lo : lo + keep]] = True
    return mask


@dataclass(frozen=True)
class OrderParameterCurve:
    lambdas: np.ndarray
    gamma0: np.ndarray
    gamma0_over_n: np.ndarray
    derivative_over_n: np.ndarray


def order_parameter(model: EffectiveModel, lam_values, phi: float = 0.0) -> OrderParameterCurve:
    """Collective width Gamma_0 (largest width) over a grid, and its slope.

    The reduced slope d(Gamma_0)/d(lambda) / N switches from near zero to
    order one across the collectivity transition, which is what makes
    Gamma_0/N an order parameter for it.  Past the transition Gamma_0 needs
    one root, not N: for Re Lambda > 0 every width is >= 0 and the widths sum
    to 2 Re Lambda * sum v^2, so a state holding more than half of that is
    the broadest, and secular._broadest_root finds it by Newton from the
    collective seed in O(N).  Every other point solves for all N roots,
    warm-started from the previous full solve, except where |lambda| more
    than doubles (a cold solve, seeded for the regime, costs less than a
    warm start across such a jump) or where the previous point was certified
    (it left no spectrum to start from), which start cold.  Raises
    InvalidCouplingError on a NaN or infinite lambda, and unless the grid is
    strictly monotonic with two or more points.
    """
    lam = _grid(lam_values)
    step = np.diff(lam)
    if lam.size < 2 or not ((step > 0).all() or (step < 0).all()):
        raise InvalidCouplingError("order parameter needs a strictly monotonic grid of at least two points")
    phase = phase_factor(phi)
    g0 = np.empty(lam.size)
    prev = None
    for i, s in enumerate(lam):
        if i and abs(s) > 2 * abs(lam[i - 1]):
            prev = None
        top = _broadest_root(model, s * phase)
        if top is not None:
            g0[i] = -2.0 * top.imag
            prev = None  # no full spectrum to warm-start from
            continue
        spec = eigen_spectrum(model, s * phase, warm_start=prev)
        prev = spec.energies[spec.warm_order]
        g0[i] = float(spec.widths.max())
    n = model.n
    deriv = np.gradient(g0, lam) / n
    return OrderParameterCurve(lambdas=lam, gamma0=g0, gamma0_over_n=g0 / n, derivative_over_n=deriv)
