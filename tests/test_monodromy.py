"""Eigenvector transport around coalescence points and mixing-angle limits."""

import math

import numpy as np
import pytest

from ep_atlas import monodromy, trajectories
from ep_atlas import (
    ContourError,
    InvalidCouplingError,
    ThetaSingularError,
    TrajectoryAmbiguityError,
    build_picket_fence,
    build_power_law,
    build_two_level,
    expand_ep_set,
    find_eps,
    loop_ep,
    omega_comparison,
    sweep,
    theta_along,
    theta_of,
    two_level_eps,
    two_level_loop,
)

# fourth-order monodromy of a square-root branch point, in the canonical
# gauge where the lower-labeled state of a swapped pair maps with +1
WINDING_TABLE = {
    1: ((1, 0), (1, -1)),
    2: ((0, 1), (-1, -1)),
    3: ((1, 0), (1, -1)),
    4: ((0, 1), (1, 1)),
    -1: ((1, 0), (1, -1)),
    -2: ((0, 1), (-1, -1)),
}


@pytest.mark.parametrize("windings", [1, 2, 3, 4, -1, -2])
def test_two_level_winding_table(windings):
    res = two_level_loop(0.0, 1.0, 30.0, windings=windings)
    perm, signs = WINDING_TABLE[windings]
    assert res.permutation == perm
    assert res.signs == signs
    assert res.matrix_error < 1e-8
    assert res.min_overlap > 0.999
    assert len(res.enclosed) == 1


def test_coarse_loop_is_refined():
    # 4 samples per winding cannot keep the step overlaps above 0.99; two doublings can
    coarse = two_level_loop(0.0, 1.0, 30.0, samples=4)
    fine = two_level_loop(0.0, 1.0, 30.0)
    assert coarse.samples == 16
    assert coarse.min_overlap >= 0.99
    assert (coarse.permutation, coarse.signs) == (fine.permutation, fine.signs)


def test_loop_composition_is_group_like():
    # transporting twice must square the one-winding matrix
    one = two_level_loop(0.0, 1.0, 30.0, windings=1)
    two = two_level_loop(0.0, 1.0, 30.0, windings=2)
    np.testing.assert_allclose(one.matrix @ one.matrix, two.matrix, atol=1e-10)


def test_empty_loop_is_identity():
    # a contour enclosing no coalescence point must return every state to itself
    m = build_two_level(0.0, 1.0, 30.0)
    res = loop_ep(m, center=0.05 + 0.0j, radius=0.02, windings=1)
    assert res.permutation == (0, 1)
    assert res.signs == (1, 1)
    assert res.enclosed == ()


@pytest.mark.parametrize(
    "k, perm, swapped",
    [(0, (1, 0, 2, 3, 4, 5, 6), 1), (1, (0, 1, 2, 3, 4, 6, 5), 6), (2, (0, 1, 4, 3, 2, 5, 6), 4)],
)
def test_loop_labels_states_by_level(k, perm, swapped):
    # the power law's centre level is bare; each loop swaps one coupled pair,
    # and the labels are level indices, whatever order the states sort in
    m = build_power_law(7, 1.0, 4.0)
    reps = find_eps(m)
    full = expand_ep_set(reps)
    c = reps[k].coupling
    others = np.append(full[np.abs(full - c) > 1e-12], reps[k].partner)
    res = loop_ep(m, c, 0.3 * np.abs(others - c).min(), samples=256)
    assert res.permutation == perm
    assert res.signs == tuple(-1 if i == swapped else 1 for i in range(7))
    assert res.matrix_error < 1e-10


def test_contour_guards():
    m = build_two_level(0.0, 1.0, 30.0)
    ep = two_level_eps(0.0, 1.0, 30.0)
    with pytest.raises(ContourError):
        loop_ep(m, center=complex(ep.coupling), radius=0.1, windings=0)
    for radius in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ContourError, match="radius"):
            loop_ep(m, center=complex(ep.coupling), radius=radius)
    with pytest.raises(ContourError):
        # an exceptional point sitting exactly on the circle
        loop_ep(m, center=complex(ep.coupling) + 0.1, radius=0.1)
    f = build_picket_fence(4)
    with pytest.raises(ContourError):
        # both conjugate points of the 4-ladder inside one circle
        loop_ep(f, center=0.3716105483597324 + 0.0j, radius=0.25)


def test_loop_needs_a_radius():
    ep = two_level_eps(0.0, 1.0, 30.0)
    with pytest.raises(TypeError):
        loop_ep(build_two_level(0.0, 1.0, 30.0), complex(ep.coupling))


def test_theta_ray_limits():
    assert theta_of(0.0, 1.0, 30.0, 0.0) == 0j
    th = theta_of(0.0, 1.0, 30.0, 100.0)
    # the lower-anchored branch approaches the channel angle from below 45 deg
    assert th.real == pytest.approx(math.radians(30.0), abs=1e-3)
    with pytest.raises(ThetaSingularError):
        theta_of(0.0, 1.0, 45.0, 1.0)  # ray ends exactly on the coalescence


def test_theta_quarter_turn_per_winding():
    ep = two_level_eps(0.0, 1.0, 30.0)
    c = complex(ep.coupling)
    rho = 0.3 * abs(c)
    t = np.arange(513) / 512.0
    th = theta_along(0.0, 1.0, 30.0, c + rho * np.exp(-2j * np.pi * t))
    step = (th[-1] - th[0]) / (np.pi / 2)
    assert abs(abs(step.real) - 1.0) < 1e-9
    assert abs(step.imag) < 1e-9
    t2 = np.arange(1025) / 512.0
    th2 = theta_along(0.0, 1.0, 30.0, c + rho * np.exp(-2j * np.pi * t2))
    assert abs((th2[-1] - th2[0]) - 2 * (th[-1] - th[0])) < 1e-9


def test_strong_coupling_angle_splits_at_45():
    # just below 45 deg the limit is -cot(omega), just above it is tan(omega)
    lo = omega_comparison(0.0, 1.0, 44.0)
    hi = omega_comparison(0.0, 1.0, 46.0)
    assert lo.prediction == "-cot(omega)"
    assert hi.prediction == "tan(omega)"
    assert lo.deviation < 1e-4
    assert hi.deviation < 1e-4
    assert lo.tan_theta_limit < 0 < hi.tan_theta_limit
    with pytest.raises(ThetaSingularError):
        omega_comparison(0.0, 1.0, 45.0)


def test_strong_coupling_angle_generic_channels():
    # the finite-coupling correction scales with the limit value itself,
    # so away from 45 deg the fair bound is relative
    for w in (20.0, 30.0, 60.0, 75.0):
        comp = omega_comparison(0.0, 1.0, w)
        rel = comp.deviation / abs(comp.predicted)
        assert rel < 1e-4, "omega=%g relative deviation %g" % (w, rel)


@pytest.mark.parametrize("levels", [(0.0, 1.0), (1.0, 0.0)])
@pytest.mark.parametrize("lam_factor", [2.0, 100.0])
@pytest.mark.parametrize("w", [20.0, 44.0, 46.0, 75.0])
def test_strong_coupling_angle_matches_a_sweep(levels, lam_factor, w):
    # reference: continue the state that starts at the upper level along the real ray
    # with sweep, then read tan(theta) = x_upper / x_lower off H = diag(eps) - i*lam*v v^T
    eps1, eps2 = levels
    m = build_two_level(eps1, eps2, w)
    lam = lam_factor * abs(eps2 - eps1)
    traj = sweep(m, np.linspace(0.0, lam, 2001))
    k = int(np.argmin(np.abs(traj.energies[0] - max(eps1, eps2))))
    e = traj.energies[-1, k]
    (e_lo, _), (v_lo, v_hi) = m.epsilons, m.couplings
    ref = (e - (e_lo - 1j * lam * v_lo * v_lo)) / (-1j * lam * v_lo * v_hi)
    comp = omega_comparison(eps1, eps2, w, lam_factor=lam_factor)
    assert comp.lam == lam
    assert abs(comp.tan_theta - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("levels", [(0.0, 1.0), (1.0, 0.0)])
@pytest.mark.parametrize("lam_factor", [2.0, 100.0])
@pytest.mark.parametrize("w", [20.0, 44.0, 44.999, 45.001, 46.0, 75.0])
def test_theta_of_matches_a_sweep(levels, lam_factor, w):
    # continue the state that starts at the lower level along the real ray with sweep and
    # read tan(theta) = x_upper / x_lower off its eigenvector; at 44.999 and 45.001 the ray
    # passes 3.5e-5*gap from the coalescence and the two eigenvalues come within 0.0084*gap,
    # where a coarse continuation takes the other state
    eps1, eps2 = levels
    m = build_two_level(eps1, eps2, w)
    lam = lam_factor * abs(eps2 - eps1)
    traj = sweep(m, np.linspace(0.0, lam, 2001))
    k = int(np.argmin(np.abs(traj.energies[0] - min(eps1, eps2))))
    e = traj.energies[-1, k]
    (e_lo, _), (v_lo, v_hi) = m.epsilons, m.couplings
    ref = (e - (e_lo - 1j * lam * v_lo * v_lo)) / (-1j * lam * v_lo * v_hi)
    got = np.tan(theta_of(eps1, eps2, w, lam))
    assert abs(got - ref) <= 1e-14 * abs(ref)


def _fine_ray(lam, gap):
    """4001 linear points to 2*gap, then 200 geometric points out to lam."""
    pivot = min(lam, 2.0 * gap)
    lin = np.linspace(0.0, pivot, 4001)
    return np.concatenate([lin, pivot * (lam / pivot) ** (np.arange(1, 201) / 200.0)]) if lam > pivot else lin


@pytest.mark.parametrize("levels", [(0.0, 1.0), (1.0, 0.0), (-0.5, 2.0)])
@pytest.mark.parametrize("w", [1.0, 20.0, 44.0, 44.999, 45.001, 46.0, 70.0, 89.0])
def test_theta_of_matches_a_fine_continuation(levels, w):
    eps1, eps2 = levels
    gap = abs(eps2 - eps1)
    for lam in (0.3 * gap, 2.0 * gap, 1e3 * gap):
        ref = theta_along(eps1, eps2, w, _fine_ray(lam, gap))[-1]
        got = theta_of(eps1, eps2, w, lam)
        assert abs(got - ref) <= 1e-12 * abs(ref), (lam, got, ref)


@pytest.mark.parametrize("lam", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_theta_of_rejects_a_negative_or_non_finite_coupling(lam):
    with pytest.raises(InvalidCouplingError):
        theta_of(0.0, 1.0, 30.0, lam)


@pytest.mark.parametrize("lam_factor", [0.0, -1.0, math.nan, math.inf])
def test_omega_comparison_rejects_a_ray_it_cannot_use(lam_factor):
    with pytest.raises(InvalidCouplingError):
        omega_comparison(0.0, 1.0, 30.0, lam_factor=lam_factor)


def test_theta_past_the_45_degree_coalescence_is_rejected():
    # at 45 deg the real ray meets the coalescence at lambda = gap; past it the branch is arbitrary
    assert abs(theta_of(0.0, 1.0, 45.0, 0.999).real) < 1e-9
    for lam in (1.001, 2.0, 100.0):
        with pytest.raises(ThetaSingularError):
            theta_of(0.0, 1.0, 45.0, lam)
        with pytest.raises(ThetaSingularError):
            theta_of(1.0, 0.0, 45.0, lam)


@pytest.mark.parametrize("samples", [-1, 0, 1, 2])
def test_loop_needs_three_samples_per_winding(samples):
    # a triangle is the smallest contour that can enclose a point
    ep = two_level_eps(0.0, 1.0, 30.0)
    with pytest.raises(ContourError):
        loop_ep(build_two_level(0.0, 1.0, 30.0), ep.coupling, 0.3, samples=samples)


@pytest.mark.parametrize("windings", [0.5, 1.5, -2.5])
def test_loop_needs_whole_windings(windings):
    ep = two_level_eps(0.0, 1.0, 30.0)
    with pytest.raises(ContourError):
        loop_ep(build_two_level(0.0, 1.0, 30.0), ep.coupling, 0.3, windings=windings)


def test_three_samples_per_winding_enclose_the_point():
    ep = two_level_eps(0.0, 1.0, 30.0)
    res = loop_ep(build_two_level(0.0, 1.0, 30.0), ep.coupling, 0.3, samples=3)
    assert (res.permutation, res.signs) == WINDING_TABLE[1]


def test_transport_walks_the_contour_in_batches(monkeypatch):
    calls = []
    for mod, name in ((trajectories, "_roots"), (trajectories, "eigen_spectrum"), (monodromy, "eigen_spectrum")):
        orig = getattr(mod, name)

        def spy(*args, _orig=orig, **kwargs):
            calls.append(1)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(mod, name, spy)
    res = two_level_loop(0.0, 1.0, 30.0, samples=512)
    assert res.samples == 512
    assert len(calls) < 40


# min_overlap of each loop as one warm eigen_spectrum solve per sample gave it, before the
# contour was walked in batches: (windings, min_overlap) on the two-level loop of WINDING_TABLE
TWO_LEVEL_OVERLAPS = {1: 0.9999926467364301, 2: 0.9999926467364298, -1: 0.9999926467364301, -2: 0.99999264673643}
# and (k, min_overlap) on the seven-level loops of test_loop_labels_states_by_level
POWER_LAW_OVERLAPS = {0: 0.9999749133009157, 1: 0.9999749133009155, 2: 0.9999761048982265}


@pytest.mark.parametrize("windings", sorted(TWO_LEVEL_OVERLAPS))
def test_batched_transport_keeps_the_two_level_overlaps(windings):
    res = two_level_loop(0.0, 1.0, 30.0, windings=windings)
    assert (res.permutation, res.signs) == WINDING_TABLE[windings]
    assert abs(res.min_overlap - TWO_LEVEL_OVERLAPS[windings]) <= 1e-12
    assert res.matrix_error < 1e-12


@pytest.mark.parametrize("k", sorted(POWER_LAW_OVERLAPS))
def test_batched_transport_keeps_the_power_law_overlaps(k):
    m = build_power_law(7, 1.0, 4.0)
    reps = find_eps(m)
    full = expand_ep_set(reps)
    c = reps[k].coupling
    others = np.append(full[np.abs(full - c) > 1e-12], reps[k].partner)
    res = loop_ep(m, c, 0.3 * np.abs(others - c).min(), samples=256)
    assert abs(res.min_overlap - POWER_LAW_OVERLAPS[k]) <= 1e-12
    assert res.matrix_error < 1e-12


def test_unmatched_step_refines_the_contour(monkeypatch):
    # a walk that cannot match a step counts as a failed resolution, as a low overlap does
    walk = monodromy._walk
    sizes = []

    def spy(model, t, contour, policy):
        sizes.append(contour.size)
        if len(sizes) == 1:
            raise TrajectoryAmbiguityError("forced", interval=(float(t[0]), float(t[1])))
        return walk(model, t, contour, policy)

    monkeypatch.setattr(monodromy, "_walk", spy)
    res = two_level_loop(0.0, 1.0, 30.0, samples=64)
    assert sizes == [65, 129]
    assert res.samples == 128
    assert (res.permutation, res.signs) == WINDING_TABLE[1]
