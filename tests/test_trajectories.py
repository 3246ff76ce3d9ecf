"""Eigenvalue trajectories: continuity, turning points, order parameter."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from ep_atlas import (
    CouplingParameter,
    InvalidCouplingError,
    TrajectoryAmbiguityError,
    b_curve,
    build_picket_fence,
    build_perturbed_fence,
    build_power_law,
    central_band,
    eigen_spectrum,
    order_parameter,
    sweep,
    turning_points,
    width_partition,
)
from ep_atlas import secular, trajectories
from ep_atlas.trajectories import _advance, _find_peaks
from helpers import assert_complex_sets_close

# real-axis coalescence coupling of the 4-level unit ladder (exact resultant root)
FENCE4_REAL_EP = 0.412011997789875


@pytest.mark.parametrize("model", [build_picket_fence(5), build_power_law(15, 1.0, 4.0)], ids=["fence", "power_law"])
def test_sweep_from_zero_coupling_leaves_the_bare_levels(model):
    # every warm solve after lambda = 0 starts on the poles; each row must match a cold solve
    lam = np.linspace(0.0, 0.6, 7)
    traj = sweep(model, lam)
    assert traj.ambiguous_intervals == ()
    for row, c in zip(traj.energies[1:], lam[1:]):
        assert_complex_sets_close(row, eigen_spectrum(model, c).energies, atol=1e-12)


@pytest.mark.parametrize("model", [build_picket_fence(7), build_power_law(15, 1.0, 4.0)], ids=["fence", "power_law"])
def test_sweep_through_zero_coupling_keeps_the_bare_row_exact(model):
    # a batch that holds lambda = 0 after the first point: that member is the bare levels exactly,
    # and the walk leaves them again on the far side
    lam = np.array([0.3, 0.2, 0.1, 0.0, 0.1, 0.2])
    traj = sweep(model, lam)
    assert traj.ambiguous_intervals == ()
    np.testing.assert_array_equal(traj.energies[3], model.epsilons.astype(complex))
    for i in (0, 1, 2, 4, 5):
        assert_complex_sets_close(traj.energies[i], eigen_spectrum(model, lam[i]).energies, atol=1e-12)


def test_sweep_keeps_the_bare_level_in_its_column():
    # the bare level sorts to position 49 at lambda = 0.7 and has index 50;
    # a first row in sorted order would be seeded off level order and stop at (0.7, 0.705)
    m = build_power_law(101, 1.0, 4.0)
    lam = np.arange(0.70, 0.80, 0.005)
    traj = sweep(m, lam, policy="raise")
    bare = m.epsilons[m.couplings == 0][0]
    col = np.flatnonzero(traj.energies[0] == bare)
    assert col.size == 1 and np.all(traj.energies[:, col[0]] == bare)
    for row, c in zip(traj.energies, lam):
        assert_complex_sets_close(row, eigen_spectrum(m, c).energies, atol=1e-10)


def test_sweep_rows_do_not_depend_on_the_sort(monkeypatch):
    # mirror states on the imaginary axis sort by the sign of rounding noise;
    # continuation reads the level order, so another valid sort moves no row
    m = build_power_law(43, 1.0, 4.0)
    lam = np.arange(5.0, 6.0, 0.01)
    ref = sweep(m, lam, policy="sorted")
    monkeypatch.setattr(secular, "_sorted_order", lambda e: np.lexsort((-e.imag, np.round(e.real, 9))))
    got = sweep(m, lam, policy="sorted")
    np.testing.assert_array_equal(got.energies, ref.energies)
    assert got.ambiguous_intervals == ref.ambiguous_intervals


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


def test_turning_rows_ignore_rounding_noise():
    # the mirror pairs of the default `sweep` (fence N=15) turn at lam values that
    # agree to about 1e-15, so a 1-ulp change of the energies must not reorder them
    traj = sweep(build_picket_fence(15), 0.001 + 0.001 * np.arange(2000), policy="sorted")
    want = turning_points(traj)
    assert len(want) == 14
    # every energy moves by one ulp; the two halves of the ladder, and neighbouring
    # grid points, move in opposite directions
    flip = (np.arange(2000)[:, None] % 2 == 0) == (np.arange(15)[None, :] < 7)
    for up in (flip, ~flip):
        e = traj.energies
        nudged = e.real + 1j * np.nextafter(e.imag, np.where(up, np.inf, -np.inf))
        got = turning_points(dataclasses.replace(traj, energies=nudged))
        assert [t.state for t in got] == [t.state for t in want]
        np.testing.assert_allclose([t.lam for t in got], [t.lam for t in want], rtol=1e-12)


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


@pytest.mark.parametrize("lam", [[], [0.5], [0.5, 0.5], [0.3, 0.5, 0.3]])
def test_order_parameter_needs_two_points(lam):
    # the slope is undefined on fewer than two grid points, and np.gradient
    # divides by each step, so a repeated or revisited point gives NaN slopes
    with pytest.raises(ValueError):
        order_parameter(build_picket_fence(11), lam)


@pytest.mark.parametrize("lam", [[0.5, 0.5], [0.3, 0.5, 0.3], [0.5, 0.4, 0.45]])
def test_order_parameter_rejects_a_non_monotonic_grid(lam):
    # a coupling error, so the CLI exits 2 on it without a check of its own
    with pytest.raises(InvalidCouplingError):
        order_parameter(build_picket_fence(11), lam)


def test_sweep_rejects_an_empty_grid_and_an_unknown_policy():
    m = build_picket_fence(5)
    with pytest.raises(ValueError):
        sweep(m, [])
    with pytest.raises(ValueError):
        sweep(m, [0.1, 0.2], policy="nearest")


def test_no_interior_width_maximum_gives_no_turning_points():
    # every width still grows at these weak couplings
    traj = sweep(build_picket_fence(5), [0.01, 0.02, 0.03])
    assert turning_points(traj) == []


def test_sweep_perturbed_fence_strict_policy():
    m = build_perturbed_fence(9, 0.2, seed=3)
    traj = sweep(m, np.arange(0.05, 1.0, 0.05), policy="raise")
    assert traj.ambiguous_intervals == ()


def test_sweep_memory_is_bounded():
    # the step test scans nearest-root gaps in order of real part: no N x N matrix
    # (one real 3001 x 3001 array alone would take 72 MB)
    m = build_perturbed_fence(3001, 0.1, 1)
    tracemalloc.start()
    try:
        traj = sweep(m, [0.05, 0.06])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.energies.shape == (2, 3001)
    assert traj.ambiguous_intervals == ()
    assert peak < 32 * 2**20


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


def _stepwise(model, lam, policy):
    """Reference sweep: one warm solve per grid point through _advance, with its bisection."""
    rows = [eigen_spectrum(model, lam[0]).energies]
    bad = []
    for i in range(1, lam.size):
        roots, ok = _advance(model, rows[-1], lam[i - 1], lam[i], 24)
        if not ok:
            if policy == "raise":
                raise TrajectoryAmbiguityError("reference", interval=(float(lam[i - 1]), float(lam[i])))
            bad.append((float(lam[i - 1]), float(lam[i])))
            roots = eigen_spectrum(model, lam[i]).energies
        rows.append(roots)
    return np.array(rows), tuple(bad)


_FIG1_GRID = 0.001 + 0.001 * np.arange(2000)


@pytest.mark.parametrize(
    "model, lam, policy, intervals",
    [
        (build_picket_fence(15), _FIG1_GRID, "sorted", ()),
        (build_picket_fence(43), _FIG1_GRID, "sorted", ()),
        (build_perturbed_fence(15, 0.1, 1), _FIG1_GRID, "sorted", ()),
        (build_power_law(43, 1.0, 4.0), 0.001 + 0.005 * np.arange(400), "sorted", ((0.651, 0.656),)),
        (build_perturbed_fence(9, 0.2, 3), np.arange(0.05, 1.0, 0.05), "raise", ()),
    ],
    ids=["fig1_n15", "fig1_n43", "perturbed_n15", "power_law_n43", "strict_perturbed"],
)
def test_batched_sweep_follows_the_stepwise_reference(model, lam, policy, intervals):
    ref, ref_bad = _stepwise(model, lam, policy)
    traj = sweep(model, lam, policy=policy)
    assert ref_bad == traj.ambiguous_intervals == intervals
    assert traj.energies.shape == ref.shape
    # the same branch in every column, up to the iteration's stopping tolerance
    assert np.abs(traj.energies - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize(
    "model, lam",
    [
        (build_power_law(43, 1.0, 4.0), 0.001 + 0.005 * np.arange(400)),
        (build_picket_fence(4), np.array([0.40, FENCE4_REAL_EP, 0.42])),
    ],
    ids=["power_law_n43", "fence4_collision"],
)
def test_batched_sweep_raises_where_the_reference_raises(model, lam):
    with pytest.raises(TrajectoryAmbiguityError) as want:
        _stepwise(model, lam, "raise")
    with pytest.raises(TrajectoryAmbiguityError) as got:
        sweep(model, lam, policy="raise")
    assert got.value.interval == want.value.interval


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "grid", [[0.1, None], [0.1, 0.2, 0.3, 0.4, None], [0.1, None, 0.3]], ids=["last", "batched", "inner"]
)
def test_sweep_rejects_a_non_finite_coupling(grid, bad):
    # a point that no iteration can converge on must raise, not copy its neighbour's row
    with pytest.raises(InvalidCouplingError):
        sweep(build_picket_fence(15), [bad if x is None else x for x in grid])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("walk", [b_curve, order_parameter])
def test_grid_walks_reject_a_non_finite_coupling(walk, bad):
    # the grid is checked before it meets the phase, so no numpy warning comes first
    with pytest.raises(InvalidCouplingError):
        walk(build_picket_fence(7), [0.1, 0.2, bad, 0.4])


def test_batched_sweep_memory_is_bounded():
    # batches of up to _BLOCK // (2 N^2) points keep the engine's two live temporaries
    # within one row block; the 2000 x 43 result array alone takes 1.376 MB
    m = build_picket_fence(43)
    tracemalloc.start()
    try:
        traj = sweep(m, _FIG1_GRID, policy="sorted")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.energies.shape == (2000, 43)
    assert peak < 4_000_000


def _full_solves(monkeypatch):
    """Record, for each eigen_spectrum call order_parameter makes, whether it was warm-started."""
    calls = []

    def spy(model, coupling, **kw):
        calls.append(kw.get("warm_start") is not None)
        return eigen_spectrum(model, coupling, **kw)

    monkeypatch.setattr(trajectories, "eigen_spectrum", spy)
    return calls


def test_order_parameter_goes_cold_when_lambda_more_than_doubles(monkeypatch):
    # no point of this under-compensated power law passes the broadest-state certificate, so every
    # point is a full solve: 0.05 -> 1.025 is a jump, 1.025 -> 2.0 is not
    calls = _full_solves(monkeypatch)
    order_parameter(build_power_law(101, 0.0, 4.0), [0.05, 1.025, 2.0, 4.0, 8.5])
    assert calls == [False, False, True, True, False]


def test_order_parameter_certifies_the_broadest_state_past_the_transition(monkeypatch):
    # the order_n3001 grid at a smaller N: only the weak first point needs all N roots
    calls = _full_solves(monkeypatch)
    order_parameter(build_perturbed_fence(101, 0.1, 1), [0.05, 1.025, 2.0, 4.0, 8.5])
    assert calls == [False]


def test_a_full_solve_after_a_certified_point_starts_cold(monkeypatch):
    calls = _full_solves(monkeypatch)
    monkeypatch.setattr(trajectories, "_broadest_root", lambda m, c: None if abs(c) < 0.1 or abs(c) > 1.5 else 0.1 - 5j)
    curve = order_parameter(build_picket_fence(21), [0.05, 0.07, 1.0, 1.2, 1.6, 1.8])
    assert calls == [False, True, False, True]
    np.testing.assert_array_equal(curve.gamma0[2:4], [10.0, 10.0])


@pytest.mark.parametrize(
    "model",
    [build_picket_fence(101), build_perturbed_fence(101, 0.1, 1), build_power_law(101, 1.0, 4.0)],
    ids=["fence", "perturbed", "power_law"],
)
def test_order_parameter_agrees_with_full_solves_everywhere(model, monkeypatch):
    # the CLI's default order grid; the reference solves all N roots at every point
    lam = 0.05 + 0.005 * np.arange(191)
    certified = []
    broadest = trajectories._broadest_root

    def spy(m, c):
        top = broadest(m, c)
        certified.append(top is not None)
        return top

    monkeypatch.setattr(trajectories, "_broadest_root", spy)
    curve = order_parameter(model, lam)
    monkeypatch.setattr(trajectories, "_broadest_root", lambda m, c: None)
    ref = order_parameter(model, lam)
    first = certified.index(True)
    assert all(certified[first:])  # past the transition every point is certified
    np.testing.assert_array_equal(curve.gamma0[:first], ref.gamma0[:first])
    np.testing.assert_allclose(curve.gamma0, ref.gamma0, rtol=5e-15, atol=0)
    np.testing.assert_allclose(curve.gamma0_over_n, ref.gamma0_over_n, rtol=5e-15, atol=0)
    slope = np.abs(ref.derivative_over_n).max()
    np.testing.assert_allclose(curve.derivative_over_n, ref.derivative_over_n, rtol=0, atol=1e-12 * slope)
