"""Collectivity of the eigenstates: the B measure and participation ratios.

Non-Hermitian mixing makes the c-normalized eigenstates (psi^T psi = 1)
carry Hermitian norm <psi|psi> >= 1, with equality only when the state is
real up to a phase.  The average over states,

    B = (1/N) sum_k <psi_k|psi_k>,

is 1 in both the weak and strong coupling limits and peaks near the
transition where eigenvectors mix most strongly; the peak location tracks
the accumulation point of the exceptional points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedNormalizationError
from .models import EffectiveModel, phase_factor
from .secular import eigen_spectrum
from .trajectories import _grid, _vertex

_PEAK_DESCENT = 0.25  # interior peak must account for this share of the curve's range


def b_measure(model: EffectiveModel, coupling) -> float:
    """Mean Hermitian norm of the c-normalized eigenstates at one coupling.

    Decoupled (v_k = 0) states contribute exactly 1.  Raises
    IllConditionedNormalizationError within ~1e-10 of an exceptional point,
    where c-normalization blows up.
    """
    spec = eigen_spectrum(model, coupling, compute_vectors=True)
    return float(spec.hermitian_norms.mean())


def participation(model: EffectiveModel, coupling) -> np.ndarray:
    """Participation ratio of each eigenstate over the unperturbed basis.

    PR = 1 / sum_j p_j^2 with p_j the normalized basis probabilities; 1 for
    a basis state, N for an equal-weight superposition.  The collective
    state's PR exceeding N/2 signals coherent participation of most levels.
    """
    spec = eigen_spectrum(model, coupling, compute_vectors=True)
    p = np.abs(spec.vectors) ** 2
    p /= p.sum(axis=0, keepdims=True)
    return 1.0 / (p**2).sum(axis=0)


@dataclass(frozen=True)
class BPeak:
    lam: float
    value: float
    descent_ratio: float


@dataclass(frozen=True)
class BCurve:
    lambdas: np.ndarray
    values: np.ndarray
    flagged: tuple[int, ...]
    peak: BPeak | None


def find_peak(lambdas: np.ndarray, values: np.ndarray) -> BPeak | None:
    """Interior maximum of a curve, or None if the curve has no real peak.

    A peak must sit strictly inside the grid and descend by at least 25% of
    the curve's total range toward the higher endpoint; that rejects both
    monotone curves and endpoint maxima dressed with noise-level bumps.  The
    location is refined with a parabola through the three samples around the
    maximum.
    """
    lam = np.asarray(lambdas, dtype=float)
    b = np.asarray(values, dtype=float)
    fin = np.isfinite(b)
    lam, b = lam[fin], b[fin]
    if b.size < 3:
        return None
    i = int(np.argmax(b))
    if i == 0 or i == b.size - 1:
        return None
    spread = float(b[i] - b.min())
    if spread <= 0:
        return None
    ratio = float((b[i] - max(b[0], b[-1])) / spread)
    if ratio < _PEAK_DESCENT:
        return None
    return BPeak(lam=_vertex(lam, b, i), value=float(b[i]), descent_ratio=ratio)


def b_curve(model: EffectiveModel, lam_values, phi: float = 0.0) -> BCurve:
    """B over a lambda grid at fixed phase (degrees), with peak detection.

    Each point is warm-started from the one before by Spectrum.toward, which
    moves every root to the new coupling along S, with the term of the
    root's nearest level exact and the rest of S as its Taylor series about
    the root; the first point, and a point after a flagged one, start cold.
    Below the transition a warm point then takes about one Aberth row per
    root (20.9 N rows for 20 points from 0.05 to 1.0 on the perturbed
    fence at N = 1001).
    Grid points too close to an exceptional point for stable normalization
    are recorded in `flagged` and carry NaN; the peak search skips them.  A
    NaN or infinite lambda raises InvalidCouplingError.
    """
    lam = _grid(lam_values)
    phase = phase_factor(phi)
    vals = np.empty(lam.size)
    flagged: list[int] = []
    spec = None
    for i, s in enumerate(lam):
        c = s * phase
        try:
            spec = eigen_spectrum(model, c, compute_vectors=True, warm_start=None if spec is None else spec.toward(c))
            vals[i] = float(spec.hermitian_norms.mean())
        except IllConditionedNormalizationError:
            vals[i] = np.nan
            flagged.append(i)
            spec = None
    return BCurve(lambdas=lam, values=vals, flagged=tuple(flagged), peak=find_peak(lam, vals))
