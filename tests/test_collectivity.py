"""Collectivity measures: B, participation, and peak detection."""

import math
import tracemalloc

import numpy as np
import pytest

from ep_atlas import (
    CouplingParameter,
    IllConditionedNormalizationError,
    b_curve,
    b_measure,
    build_perturbed_fence,
    build_picket_fence,
    build_power_law,
    build_two_level,
    eigen_spectrum,
    find_peak,
    participation,
    two_level_eps,
)
from ep_atlas import collectivity, secular
from helpers import count_aberth_rows

# Mean Hermitian norm of the 101-level unit ladder at coupling 1/pi, computed
# independently with dense LAPACK diagonalization at double precision.
B_101_AT_CRITICAL = 2.4867145987682777


def test_b_matches_dense_reference():
    got = b_measure(build_picket_fence(101), 1.0 / math.pi)
    assert abs(got - B_101_AT_CRITICAL) < 1e-8


def test_b_curve_from_zero_coupling_matches_cold_solves():
    # the warm solve after lambda = 0 starts on the bare levels and must leave them
    m = build_picket_fence(7)
    lam = [0.0, 0.1, 0.2, 0.3]
    curve = b_curve(m, lam)
    assert curve.flagged == ()
    np.testing.assert_allclose(curve.values, [b_measure(m, c) for c in lam], rtol=1e-12)
    assert curve.values[1] > 1.04


def _split_fence(n):
    """The picket fence with levels 7 and n // 2 split off (v_k = 0)."""
    f = build_picket_fence(n)
    v = f.couplings.copy()
    v[[7, n // 2]] = 0.0
    return secular.EffectiveModel(f.epsilons, v, f.recipe)


_PREDICTED_MODELS = {
    "fence": lambda: build_picket_fence(41),
    "perturbed": lambda: build_perturbed_fence(41, 0.1, 3),
    "power_law_1_4": lambda: build_power_law(41, 1.0, 4.0),
    "power_law_0_4": lambda: build_power_law(41, 0.0, 4.0),
    "split": lambda: _split_fence(41),
}


@pytest.mark.parametrize("phi", [0.0, 37.0])
@pytest.mark.parametrize("name", sorted(_PREDICTED_MODELS))
def test_predicted_warm_starts_keep_b(name, phi):
    # each point continues from Spectrum.toward; B must still be the per-point cold solve's,
    # on a fine grid from lambda = 0 and on a coarse one whose steps cross the transition
    m = _PREDICTED_MODELS[name]()
    for grid in (np.arange(0.0, 1.5001, 0.02), np.arange(0.05, 3.0, 0.25)):
        curve = b_curve(m, grid, phi=phi)
        assert curve.flagged == ()
        cold = [b_measure(m, CouplingParameter(s, phi)) for s in grid]
        np.testing.assert_allclose(curve.values, cold, rtol=1e-12)


def _spy_solves(monkeypatch):
    """Record (warm-started, iterations) of each solve b_curve makes."""
    calls = []

    def spy(model, coupling, **kw):
        try:
            spec = eigen_spectrum(model, coupling, **kw)
        except IllConditionedNormalizationError:
            calls.append((kw.get("warm_start") is not None, None))
            raise
        calls.append((kw.get("warm_start") is not None, spec.iterations))
        return spec

    monkeypatch.setattr(collectivity, "eigen_spectrum", spy)
    return calls


def test_point_after_a_flagged_point_starts_cold(monkeypatch):
    # phase 30 deg sends the ray through the two-level coalescence at modulus 1
    m = build_two_level(0.0, 1.0, 30.0)
    grid = [0.8, 0.9, 1.0, 1.1, 1.2]
    cold = [b_measure(m, CouplingParameter(s, 30.0)) for s in (0.8, 0.9, 1.1, 1.2)]
    calls = _spy_solves(monkeypatch)
    curve = b_curve(m, grid, phi=30.0)
    assert curve.flagged == (2,)
    assert math.isnan(curve.values[2])
    assert [warm for warm, _ in calls] == [False, True, True, False, True]
    np.testing.assert_allclose(curve.values[[0, 1, 3, 4]], cold, rtol=1e-12)


def test_predicted_warm_starts_save_iterations(monkeypatch):
    m = build_perturbed_fence(201, 0.1, 1)
    grid = np.arange(0.05, 1.0001, 0.05)
    calls = _spy_solves(monkeypatch)
    predicted = b_curve(m, grid)
    its = sum(i for _, i in calls)
    calls.clear()
    monkeypatch.setattr(secular.Spectrum, "toward", lambda self, c: self.energies[self.warm_order])
    plain = b_curve(m, grid)
    assert its < sum(i for _, i in calls)
    np.testing.assert_allclose(predicted.values, plain.values, rtol=1e-12)


def _rows_per_solve(monkeypatch):
    """Record the Aberth rows of each solve b_curve makes, one entry per solve."""
    rows = count_aberth_rows(monkeypatch)
    per_solve = []

    def solve(*args, **kw):
        before = sum(rows)
        spec = eigen_spectrum(*args, **kw)
        per_solve.append(sum(rows) - before)
        return spec

    monkeypatch.setattr(collectivity, "eigen_spectrum", solve)
    return per_solve


def test_newton_check_saves_aberth_rows(monkeypatch):
    # the norm pass confirms the roots that _aberth hands over at _HANDOVER, in place of the rows
    # that would take every step below tol
    m = build_perturbed_fence(201, 0.1, 1)
    grid = np.arange(0.05, 1.0001, 0.05)
    rows = count_aberth_rows(monkeypatch)
    handed = b_curve(m, grid)
    handed_rows = sum(rows)
    rows.clear()
    monkeypatch.setattr(secular, "_HANDOVER", 5e-14)
    full = b_curve(m, grid)
    assert handed_rows <= 0.75 * sum(rows)
    np.testing.assert_allclose(handed.values, full.values, rtol=1e-12)


@pytest.mark.parametrize(
    "model",
    [build_perturbed_fence(201, 0.1, 1), build_power_law(201, 1.0, 4.0), build_power_law(201, 0.0, 4.0)],
    ids=["perturbed", "r1_t4", "r0_t4"],
)
def test_b_curve_row_budget(model, monkeypatch):
    # Spectrum.toward keeps each root's nearest pole exact, so below the transition, where a
    # plain Taylor series about the root barely converges, a warm point takes one row per root
    grid = np.arange(0.05, 1.0001, 0.05)
    rows = _rows_per_solve(monkeypatch)
    curve = b_curve(model, grid)
    per_point = np.array(rows) / model.n
    assert per_point.size == grid.size
    assert per_point.sum() <= 25.0
    assert np.all(per_point[1:3] <= 1.1)  # lambda = 0.10 and 0.15
    np.testing.assert_allclose(curve.values, [b_measure(model, c) for c in grid], rtol=1e-12)


def test_b_is_at_least_one():
    m = build_picket_fence(21)
    for lam in (0.05, 0.3, 1.0, 5.0):
        assert b_measure(m, lam) >= 1.0
    # weak and strong coupling both approach the Hermitian floor
    assert b_measure(m, 1e-4) == pytest.approx(1.0, abs=1e-5)
    assert b_measure(m, 1e4) == pytest.approx(1.0, abs=1e-3)


def test_participation_bounds_and_collective_state():
    m = build_picket_fence(101)
    # at the transition the width is still shared: every state stays local
    # (largest spread 4.9256... basis states, cross-checked against LAPACK)
    pr_c = participation(m, 1.0 / math.pi)
    assert np.all(pr_c >= 1.0 - 1e-12)
    assert np.all(pr_c <= 101.0 + 1e-9)
    assert pr_c.max() == pytest.approx(4.9256298, abs=1e-5)
    # deep in the collective regime one state spreads over most of the basis
    pr_deep = participation(m, 10.0)
    assert pr_deep.max() > 50.5


def test_b_measure_raises_at_coalescence():
    ep = two_level_eps(0.0, 1.0, 30.0)
    with pytest.raises(IllConditionedNormalizationError):
        b_measure(build_two_level(0.0, 1.0, 30.0), ep.coupling)


def test_b_curve_peak_near_critical_coupling():
    m = build_picket_fence(101)
    curve = b_curve(m, np.arange(0.05, 1.0001, 0.005))
    assert curve.flagged == ()
    assert curve.peak is not None
    assert abs(curve.peak.lam - 1.0 / math.pi) < 0.05
    assert curve.peak.value > 2.0
    assert curve.peak.descent_ratio > 0.25


def test_b_curve_holds_no_eigenvector_matrix():
    # B comes from the blocked norm pass, so a warm-started curve never builds
    # an N x N eigenvector matrix (16 MB at N = 1001); half of one is the bound
    m = build_perturbed_fence(1001, 0.1, 1)
    one = 1001 * 1001 * 16
    tracemalloc.start()
    try:
        curve = b_curve(m, [0.3, 0.35, 0.4])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(curve.values).all()
    assert peak < one / 2


def test_b_curve_flags_coalescence_grid_point():
    # phase 30 deg sends the coupling ray straight through the two-level
    # coalescence at modulus 1, so that grid point cannot be normalized
    m = build_two_level(0.0, 1.0, 30.0)
    curve = b_curve(m, [0.9, 1.0, 1.1], phi=30.0)
    assert curve.flagged == (1,)
    assert math.isnan(curve.values[1])
    assert np.isfinite(curve.values[[0, 2]]).all()


def test_find_peak_rejects_monotone_and_endpoint():
    lam = np.linspace(0.1, 1.0, 50)
    assert find_peak(lam, lam**2) is None  # monotone rise
    assert find_peak(lam, -lam) is None  # monotone fall
    bump = 1.0 + 0.001 * np.exp(-((lam - 0.9) ** 2) / 0.001) + lam
    assert find_peak(lam, bump) is None  # noise bump on a rising background


def test_find_peak_parabolic_refinement():
    lam = np.linspace(0.0, 1.0, 21)
    y = -((lam - 0.512) ** 2)
    peak = find_peak(lam, y)
    assert peak is not None
    assert peak.lam == pytest.approx(0.512, abs=1e-12)
