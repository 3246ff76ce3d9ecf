"""Eigenvalue motion along coupling sweeps and width bookkeeping.

A sweep follows all N complex eigenvalues along a grid of couplings
Lambda = lambda * exp(1j*phi), warm-starting each solve from the previous
point so iterate identity provides the continuation.  A step is accepted
only if every root moved by less than roughly half its distance to the
nearest other root; otherwise the step is bisected.  An exceptional point
crossed by the path makes the continuation genuinely undefined (the two
branches reconnect at equal distances), which surfaces as
TrajectoryAmbiguityError unless the caller opts into canonical sorted order
at such points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrajectoryAmbiguityError
from .models import EffectiveModel, phase_factor
from .secular import eigen_spectrum

_MATCH_FACTOR = 0.45


@dataclass(frozen=True)
class Trajectory:
    """Continuously matched spectrum along a coupling grid.

    energies has one row per grid point and one column per state; column k
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


def _gaps(roots: np.ndarray) -> np.ndarray:
    d = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


def _assign(prev: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Greedy proximity assignment prev[i] -> new[idx[i]], confident rows first.

    Rows are served in order of their distance to the nearest new root, so a
    root that clearly continues one branch is matched before a root halfway
    between two branches can take its partner.
    """
    n = prev.size
    cost = np.abs(prev[:, None] - new[None, :])
    idx = np.empty(n, dtype=int)
    taken = np.zeros(n, dtype=bool)
    for i in np.argsort(cost.min(axis=1)):
        row = np.where(taken, np.inf, cost[i])
        j = int(np.argmin(row))
        idx[i] = j
        taken[j] = True
    return idx


def _matched(prev: np.ndarray, new: np.ndarray) -> bool:
    return bool(np.all(np.abs(new - prev) <= _MATCH_FACTOR * _gaps(new) + 1e-15))


def _advance(model, prev_roots, c_from, c_to, depth):
    """Continue the root set from coupling c_from to c_to, bisecting as needed."""
    spec = eigen_spectrum(model, c_to, warm_start=prev_roots)
    # restore iterate identity: greedy map from sorted output back to warm order
    new = spec.energies[_assign(prev_roots, spec.energies)]
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
    max_bisect: int = 24,
) -> Trajectory:
    """Track all eigenvalues over a lambda grid at fixed phase phi (degrees).

    policy='raise' (default) raises TrajectoryAmbiguityError when a step
    cannot be matched even after bisection; policy='sorted' records the
    offending interval and continues from the canonically sorted spectrum,
    which is what a branch reconnection at an exceptional point requires.
    """
    if policy not in ("raise", "sorted"):
        raise ValueError("policy must be 'raise' or 'sorted'")
    lam = np.asarray(list(lam_values), dtype=float)
    if lam.size == 0:
        raise ValueError("empty coupling grid")
    phase = phase_factor(phi)
    cs = lam * phase
    rows = np.empty((lam.size, model.n), dtype=complex)
    rows[0] = eigen_spectrum(model, cs[0]).energies
    bad: list[tuple[float, float]] = []
    for i in range(1, lam.size):
        roots, ok = _advance(model, rows[i - 1], cs[i - 1], cs[i], max_bisect)
        if not ok:
            if policy == "raise":
                raise TrajectoryAmbiguityError(
                    "branch matching undefined in (%g, %g); an exceptional point "
                    "lies on or next to the path" % (lam[i - 1], lam[i]),
                    interval=(float(lam[i - 1]), float(lam[i])),
                )
            bad.append((float(lam[i - 1]), float(lam[i])))
            roots = eigen_spectrum(model, cs[i]).energies
        rows[i] = roots
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


def turning_points(traj: Trajectory, *, prominence: float = 1e-4) -> list[TurningPoint]:
    """Interior maxima of each state's width along the sweep.

    A trapped state's width grows, turns over near the transition, and
    decays; the turnover location is refined by a parabola through the peak
    sample and its neighbors.  Only peaks with the requested prominence are
    reported, so monotone branches contribute nothing.
    """
    out: list[TurningPoint] = []
    g = traj.widths
    for k in range(traj.n_states):
        for i in _find_peaks(g[:, k], prominence):
            out.append(TurningPoint(state=k, lam=_vertex(traj.lambdas, g[:, k], i), width=float(g[i, k])))
    out.sort(key=lambda t: (t.lam, t.state))
    return out


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
    Gamma_0/N an order parameter for it.
    """
    lam = np.asarray(list(lam_values), dtype=float)
    phase = phase_factor(phi)
    g0 = np.empty(lam.size)
    prev = None
    for i, s in enumerate(lam):
        spec = eigen_spectrum(model, s * phase, warm_start=prev)
        prev = spec.energies
        g0[i] = float(spec.widths.max())
    n = model.n
    deriv = np.gradient(g0, lam) / n
    return OrderParameterCurve(lambdas=lam, gamma0=g0, gamma0_over_n=g0 / n, derivative_over_n=deriv)
