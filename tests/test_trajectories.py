"""Eigenvalue trajectories: continuity, turning points, order parameter."""

import numpy as np
import pytest

from ep_atlas import (
    CouplingParameter,
    TrajectoryAmbiguityError,
    build_picket_fence,
    build_perturbed_fence,
    central_band,
    eigen_spectrum,
    order_parameter,
    sweep,
    turning_points,
    width_partition,
)
from ep_atlas.trajectories import _assign, _find_peaks

# real-axis coalescence coupling of the 4-level unit ladder (exact resultant root)
FENCE4_REAL_EP = 0.412011997789875


def test_sweep_columns_are_continuous():
    m = build_picket_fence(9)
    lam = np.arange(0.01, 1.2, 0.01)
    traj = sweep(m, lam)
    steps = np.abs(np.diff(traj.energies, axis=0))
    assert traj.ambiguous_intervals == ()
    assert steps.max() < 0.2  # no branch jumps on a smooth fan
    assert traj.energies.shape == (lam.size, 9)
    assert traj.n_states == 9


def test_sweep_matches_pointwise_solves():
    m = build_picket_fence(7)
    lam = np.arange(0.05, 0.8, 0.05)
    traj = sweep(m, lam)
    for i, s in enumerate(lam):
        ref = eigen_spectrum(m, CouplingParameter(s, 0.0)).energies
        got = np.sort_complex(traj.energies[i])
        np.testing.assert_allclose(np.sort_complex(got), np.sort_complex(ref), atol=1e-10)


def test_central_state_remains_axial():
    # odd ladder: mirror symmetry pins one trajectory to the imaginary axis
    m = build_picket_fence(9)
    traj = sweep(m, np.arange(0.02, 2.0, 0.02))
    k = int(np.argmin(np.abs(traj.energies[0].real)))
    assert np.max(np.abs(traj.energies[:, k].real)) < 1e-12


def test_collision_grid_point_raises_or_records():
    m = build_picket_fence(4)
    lam = np.array([0.40, FENCE4_REAL_EP, 0.42])
    with pytest.raises(TrajectoryAmbiguityError) as err:
        sweep(m, lam, policy="raise")
    assert err.value.interval is not None
    traj = sweep(m, lam, policy="sorted")
    assert len(traj.ambiguous_intervals) >= 1


def test_turning_point_count_frozen():
    # one width maximum per trapped state of the 15-level ladder on the standard grid
    m = build_picket_fence(15)
    traj = sweep(m, np.arange(0.001, 2.0, 0.001), policy="sorted")
    tps = turning_points(traj)
    assert len(tps) == 14
    lams = [t.lam for t in tps]
    assert all(0.0 < x < 2.0 for x in lams)
    assert all(t.width > 0 for t in tps)


def test_width_partition_deep_collective():
    m = build_picket_fence(15)
    spec = eigen_spectrum(m, CouplingParameter(10.0, 0.0))
    part = width_partition(spec.energies)
    assert part.broad_share > 0.95
    assert part.trapped.sum() == 14
    assert not part.trapped[part.broad]


def test_central_band_mask():
    e = np.arange(15, dtype=float) + 0j
    mask = central_band(e, fraction=1.0 / 3.0)
    assert mask.sum() == 5
    assert np.array_equal(np.flatnonzero(mask), np.arange(5, 10))


def test_order_parameter_transition():
    m = build_picket_fence(101)
    lam = np.arange(0.02, 1.0, 0.02)
    curve = order_parameter(m, lam)
    g = curve.gamma0
    assert np.all(np.diff(g) > -1e-9)  # the collective width only grows
    early = curve.derivative_over_n[lam < 0.15].max()
    late = curve.derivative_over_n.max()
    assert late > 10 * early  # slope jump across the transition
    assert curve.gamma0_over_n.shape == lam.shape


def test_sweep_perturbed_fence_strict_policy():
    m = build_perturbed_fence(9, 0.2, seed=3)
    traj = sweep(m, np.arange(0.05, 1.0, 0.05), policy="raise")
    assert traj.ambiguous_intervals == ()


def test_peak_finder_matches_scipy():
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(3)
    cases = [np.arange(30.0), -np.arange(30.0), np.ones(12), np.array([0.0, 1, 1, 1, 0]), np.array([1.0, 1, 0, 2, 2])]
    for n in range(0, 60, 3):
        cases.append(rng.normal(size=n))  # random
        cases.append(rng.integers(0, 4, size=n).astype(float))  # plateaus, ties between peaks
    for x in cases:
        for prom in (0.0, 1e-4, 0.5, 2.0):
            want, _ = signal.find_peaks(x, prominence=prom)
            np.testing.assert_array_equal(_find_peaks(x, prom), want)


def test_assign_undoes_a_shuffle():
    rng = np.random.default_rng(5)
    prev = rng.normal(size=40) + 1j * rng.normal(size=40)
    perm = rng.permutation(40)
    new = prev[perm] + 1e-9 * (1 + 1j)
    idx = _assign(prev, new)
    np.testing.assert_array_equal(perm[idx], np.arange(40))


def test_assign_serves_the_most_confident_row_first():
    # row order would give prev 0 its nearest root 0.9; but 0.9 sits much
    # closer to prev 1, which is served first and keeps it
    prev = np.array([0.0, 1.0 + 0j])
    new = np.array([0.9, 3.0 + 0j])
    np.testing.assert_array_equal(_assign(prev, new), [1, 0])


def test_assign_single_root():
    np.testing.assert_array_equal(_assign(np.array([1.0 + 1j]), np.array([5j])), [0])
