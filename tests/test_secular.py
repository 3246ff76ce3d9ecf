"""Secular-equation spectra against closed forms and a high-precision oracle."""

import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest

from ep_atlas import (
    CouplingParameter,
    find_eps,
    IllConditionedNormalizationError,
    InvalidCouplingError,
    PoleProximityError,
    SolverFailureError,
    build_perturbed_fence,
    build_picket_fence,
    build_power_law,
    build_spacing_ensemble,
    build_two_level,
    dense_oracle,
    eigen_spectrum,
    secular_eval,
    sweep,
    two_level_closed_form,
    two_level_eps,
)
from ep_atlas import exceptional, secular
from ep_atlas.trajectories import _matched
from helpers import assert_complex_sets_close

# Frozen reference spectrum for eps=(-0.5, 1.0), omega=25 deg, Lambda=0.8*exp(40j deg),
# evaluated from the quadratic closed form at 30 significant digits.
TWO_LEVEL_CASE = dict(eps1=-0.5, eps2=1.0, omega_deg=25.0, lam=0.8, phi=40.0)
TWO_LEVEL_REF = (
    -0.042902803589174786 - 0.43175287869699079j,
    1.0571328913384062 - 0.18108267579819164j,
)


def test_two_level_matches_frozen_reference():
    m = build_two_level(TWO_LEVEL_CASE["eps1"], TWO_LEVEL_CASE["eps2"], TWO_LEVEL_CASE["omega_deg"])
    spec = eigen_spectrum(m, CouplingParameter(TWO_LEVEL_CASE["lam"], TWO_LEVEL_CASE["phi"]))
    np.testing.assert_allclose(spec.energies, TWO_LEVEL_REF, atol=1e-13)


def test_closed_form_matches_frozen_reference():
    got = two_level_closed_form(
        TWO_LEVEL_CASE["eps1"],
        TWO_LEVEL_CASE["eps2"],
        TWO_LEVEL_CASE["omega_deg"],
        coupling=CouplingParameter(TWO_LEVEL_CASE["lam"], TWO_LEVEL_CASE["phi"]),
    )
    np.testing.assert_allclose(sorted(got, key=lambda z: z.real), TWO_LEVEL_REF, atol=1e-14)


def test_closed_form_takes_no_model():
    # a model's channel vector need not have unit weight, so the closed form takes the angle only
    with pytest.raises(TypeError):
        two_level_closed_form(build_two_level(0.0, 1.0, 30.0), coupling=0.3 + 0.1j)


@pytest.mark.parametrize("lam", [0.3 + 0.1j, 0.8, 2.5 - 1.0j])
def test_single_coupled_level_is_solved_in_closed_form(lam):
    # channel vector (1, 0): level 0 alone couples, at eps_0 - i*Lambda*v_0^2, with no iteration
    m = build_two_level(0.0, 1.0, 0.0)
    np.testing.assert_array_equal(m.couplings, [1.0, 0.0])
    ref = np.linalg.eigvals(np.diag(m.epsilons) - 1j * lam * np.outer(m.couplings, m.couplings))
    cold = eigen_spectrum(m, lam)
    warm = eigen_spectrum(m, lam, warm_start=cold.energies[::-1] + 0.01)
    for spec in (cold, warm):
        assert spec.iterations == 0
        assert_complex_sets_close(spec.energies, ref, 1e-14)


def test_single_coupled_level_sweep_matches_lapack():
    m = build_two_level(0.0, 1.0, 0.0)
    traj = sweep(m, np.linspace(0.05, 3.0, 60), 30.0)
    h = np.diag(m.epsilons)
    vv = np.outer(m.couplings, m.couplings)
    for row, lam in zip(traj.energies, traj.couplings):
        assert_complex_sets_close(row, np.linalg.eigvals(h - 1j * lam * vv), 1e-12)


def test_warm_start_of_the_wrong_length_is_rejected():
    with pytest.raises(ValueError):
        eigen_spectrum(build_picket_fence(5), 0.5, warm_start=np.zeros(4, dtype=complex))


def test_separate_pushes_coincident_seeds_apart():
    seeds = np.array([0.5, 0.5, 0.5, 2.0 + 1.0j, 2.0 + 1.0j])
    a = secular._separate(seeds.copy(), 0.7 + 0.3j)
    b = secular._separate(seeds.copy(), 0.7 + 0.3j)
    np.testing.assert_array_equal(a, b)  # deterministic
    scale = np.abs(seeds).max()
    gaps = np.abs(a[:, None] - a[None, :]) + np.diag(np.full(a.size, np.inf))
    assert gaps.min() >= 1e-12 * scale
    apart = np.array([0.0, 1.0, 1.0 + 1e-9j, -2.0])
    np.testing.assert_array_equal(secular._separate(apart.copy(), 0.7 + 0.3j), apart)


def _nearest_gap(z):
    """All-pairs distance from each point to the nearest other one of its row (inf if alone)."""
    gap = np.abs(z[..., :, None] - z[..., None, :])
    i = np.arange(z.shape[-1])
    gap[..., i, i] = np.inf
    return gap.min(axis=-1, initial=np.inf)


def test_crowded_points_match_the_nearest_gap_rule():
    # the sorted scan finds exactly the points the all-pairs distance finds, ties in real part
    # included, for one row or a stack and for one reach or one per point
    rng = np.random.default_rng(20)
    hits = 0
    for _ in range(400):
        n = int(rng.integers(1, 40))
        b = int(rng.integers(1, 4))
        z = rng.normal(size=(b, n)) + 1j * rng.normal(size=(b, n)) * rng.choice([0.0, 1e-13, 1.0])
        k = int(rng.integers(0, n // 2 + 1))
        src, dst = rng.integers(0, n, size=(2, k))
        z[:, dst] = z[:, src] + rng.normal(size=(b, k)) * rng.choice([0.0, 3e-13, 1e-12, 1e-6])
        tol = 1e-12 * max(1.0, float(np.abs(z).max()))
        reach = tol * rng.choice([0.0, 0.5, 1.0, 2.0], size=(b, n))
        for row, r in ((z[0], tol), (z, tol), (z[0], reach[0]), (z, reach)):
            want = _nearest_gap(row) < r
            np.testing.assert_array_equal(secular._crowded(row, r), want)
        hits += want.any()
    assert hits > 100


def test_matched_makes_the_nearest_gap_decisions():
    # a row continues when every root moved by at most 0.45 of its nearest gap, plus 1e-15;
    # stacks hold duplicate points, ties in real part and steps on both sides of the bound
    rng = np.random.default_rng(21)
    decided = {True: 0, False: 0}
    for _ in range(10_000):
        b, n = int(rng.integers(1, 5)), int(rng.integers(1, 12))
        new = np.round(rng.normal(size=(b, n)), 1) + 1j * np.round(rng.normal(size=(b, n)), 1) * rng.choice([0, 1])
        step = rng.normal(size=(b, n)) + 1j * rng.normal(size=(b, n))
        prev = new - step * rng.choice([0.0, 1e-16, 1e-3, 0.02, 0.1, 1.0])
        want = np.all(np.abs(new - prev) <= 0.45 * _nearest_gap(new) + 1e-15, axis=-1)
        np.testing.assert_array_equal(_matched(prev, new), want)
        np.testing.assert_array_equal(_matched(prev[0], new[0]), want[0])
        for flag in want:
            decided[bool(flag)] += 1
        bad = new.copy()
        bad[0, int(rng.integers(n))] = rng.choice([np.nan, np.inf, complex(np.inf, np.nan)])
        assert not _matched(prev, bad)[0]
    assert min(decided.values()) > 2_000


_CERTIFIED_MODELS = {
    "fence": build_picket_fence(101),
    "perturbed": build_perturbed_fence(101, 0.1, 1),
    "power_1_4": build_power_law(101, 1.0, 4.0),
    "power_1_3": build_power_law(101, 1.0, 3.0),
    "power_0_4": build_power_law(101, 0.0, 4.0),
    "power_2_6": build_power_law(101, 2.0, 6.0),
    "two_level": build_two_level(0.0, 1.0, 30.0),
    "poisson": build_spacing_ensemble(101, "poisson", 3),
    "wigner": build_spacing_ensemble(101, "wigner", 3),
}


@pytest.mark.parametrize("phi", [0.0, 30.0, -60.0])
@pytest.mark.parametrize("model", list(_CERTIFIED_MODELS.values()), ids=list(_CERTIFIED_MODELS))
def test_broadest_root_is_the_widest_state_of_the_full_solve(model, phi):
    certified = 0
    for lam in np.geomspace(0.01, 100.0, 12):
        c = lam * np.exp(1j * np.radians(phi))
        top = secular._broadest_root(model, c)
        if top is None:
            continue
        certified += 1
        widest = eigen_spectrum(model, c).widths.max()
        assert abs(-2.0 * top.imag - widest) <= 1e-13 * widest
    assert certified  # the grid reaches past the transition of every model


def test_broadest_root_declines_where_it_cannot_certify():
    fence = build_picket_fence(101)
    assert secular._broadest_root(fence, 2.0) is not None
    assert secular._broadest_root(fence, 0.0) is None
    assert secular._broadest_root(fence, -2.0) is None  # Re Lambda < 0: widths may be negative
    assert secular._broadest_root(fence, 2.0 * np.exp(1j * np.radians(120.0))) is None
    assert secular._broadest_root(fence, 2j) is None  # Re Lambda = 0: H is Hermitian up to a sign
    assert secular._broadest_root(fence, 0.02) is None  # below the transition no state holds half the width
    bare = secular.EffectiveModel(np.array([0.0, 1.0, 2.0]), np.zeros(3), build_picket_fence(3).recipe)
    assert secular._broadest_root(bare, 2.0) is None


def test_trace_is_conserved():
    m = build_picket_fence(11)
    lam = CouplingParameter(0.7, 20.0)
    spec = eigen_spectrum(m, lam)
    want = m.epsilons.sum() - 1j * lam.value * m.coupling_strength
    assert abs(spec.energies.sum() - want) < 1e-12 * max(1.0, abs(want))


def test_agrees_with_high_precision_oracle():
    m = build_picket_fence(5)
    lam = CouplingParameter(0.9, 15.0)
    got = eigen_spectrum(m, lam).energies
    ref = dense_oracle(m, lam)
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_real_spectrum_at_ninety_degrees():
    # Lambda = i*lam makes H real symmetric, so every eigenvalue is real
    m = build_picket_fence(9)
    spec = eigen_spectrum(m, CouplingParameter(1.3, 90.0))
    assert np.max(np.abs(spec.energies.imag)) < 1e-12


def test_zero_coupling_returns_bare_levels():
    m = build_picket_fence(7)
    spec = eigen_spectrum(m, CouplingParameter(0.0, 0.0))
    np.testing.assert_array_equal(spec.energies, m.epsilons.astype(complex))
    assert spec.residual == 0.0


def test_decoupled_level_stays_bare():
    # power law with r>0 and odd n pins the central level with zero coupling
    m = build_power_law(5, 1.0, 4.0)
    assert m.couplings[2] == 0.0
    spec = eigen_spectrum(m, CouplingParameter(0.5, 0.0), compute_vectors=True)
    k = int(np.argmin(np.abs(spec.energies)))
    assert spec.energies[k] == 0.0 + 0.0j
    # its eigenvector is the bare basis state and its norm is exactly 1
    np.testing.assert_array_equal(spec.vectors[:, k], np.eye(5, dtype=complex)[:, 2])
    assert spec.hermitian_norms[k] == pytest.approx(1.0)


def test_energies_sorted_and_widths_sign():
    m = build_picket_fence(15)
    spec = eigen_spectrum(m, CouplingParameter(0.4, 0.0))
    r = spec.energies.real
    assert np.all(np.diff(r) >= -1e-12)
    # decaying states only: widths Gamma = -2 Im E >= 0
    assert np.all(spec.widths >= -1e-12)


def test_roots_satisfy_secular_equation():
    m = build_picket_fence(9)
    lam = CouplingParameter(0.8, 10.0)
    spec = eigen_spectrum(m, lam)
    vals = secular_eval(m, spec.energies, lam)
    assert np.max(np.abs(vals)) < 1e-10


def test_vectors_are_c_normalized():
    m = build_picket_fence(9)
    spec = eigen_spectrum(m, CouplingParameter(0.6, 30.0), compute_vectors=True)
    bil = np.einsum("ki,ki->i", spec.vectors, spec.vectors)
    np.testing.assert_allclose(bil, np.ones(9), atol=1e-10)
    assert np.all(spec.hermitian_norms >= 1.0 - 1e-12)


def test_warm_start_reproduces_cold_solve():
    m = build_picket_fence(13)
    cold = eigen_spectrum(m, CouplingParameter(0.52, 0.0))
    warm = eigen_spectrum(m, CouplingParameter(0.52, 0.0), warm_start=eigen_spectrum(m, CouplingParameter(0.5, 0.0)).energies)
    np.testing.assert_allclose(cold.energies, warm.energies, atol=1e-12)


def test_pole_guard_and_zero_coupling_eval():
    m = build_picket_fence(5)
    with pytest.raises(PoleProximityError):
        secular_eval(m, m.epsilons[2] + 1e-16, CouplingParameter(0.3, 0.0))
    with pytest.raises(InvalidCouplingError):
        secular_eval(m, 0.25, CouplingParameter(0.0, 0.0))


@pytest.mark.parametrize("build", [lambda: build_picket_fence(9), lambda: build_power_law(15, 1.0, 4.0)])
def test_secular_eval_pole_check_finds_the_nearest_level(build):
    m = build()
    eps = m.epsilons
    scale = max(1.0, float(np.max(np.abs(eps))))
    turn = np.exp(0.7j)
    # below the first level, next to the central one, above the last
    for level, way in ((eps[0], -turn.conjugate()), (eps[eps.size // 2], turn), (eps[-1], turn)):
        with pytest.raises(PoleProximityError):
            secular_eval(m, level + 0.5e-14 * scale * way, 0.3)
        with pytest.raises(PoleProximityError):
            secular_eval(m, [0.5 * (eps[0] + eps[1]), level + 0.5e-14 * scale * way], 0.3)
        assert np.isfinite(secular_eval(m, level + 1e-13 * scale * way, 0.3))


def test_normalization_blows_up_at_coalescence():
    # exactly at the two-level exceptional coupling psi^T psi -> 0
    ep = two_level_eps(0.0, 1.0, 30.0)
    m = build_two_level(0.0, 1.0, 30.0)
    with pytest.raises(IllConditionedNormalizationError) as err:
        eigen_spectrum(m, ep.coupling, compute_vectors=True)
    assert len(err.value.state_indices) >= 1


def test_oracle_matches_across_sizes():
    for n in (2, 3, 6, 8):
        m = build_picket_fence(n)
        lam = CouplingParameter(0.45, 25.0)
        np.testing.assert_allclose(eigen_spectrum(m, lam).energies, dense_oracle(m, lam), atol=1e-10)


# One model of each family but the fence, against the 40-digit oracle; the
# power law's central level decouples and stays at exactly zero.
ORACLE_MODELS = {
    "power_law": lambda: build_power_law(15, 1.0, 4.0),
    "perturbed_fence": lambda: build_perturbed_fence(15, 0.3, 11),
    "poisson_ensemble": lambda: build_spacing_ensemble(15, "poisson", 5),
    "two_level": lambda: build_two_level(-0.5, 1.0, 25.0),
}


@pytest.mark.parametrize("coupling", [CouplingParameter(0.5, 20.0), CouplingParameter(2.0, 0.0)])
@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_every_model_family_agrees_with_the_dense_oracle(name, coupling):
    m = ORACLE_MODELS[name]()
    scale = max(1.0, float(np.abs(m.epsilons).max()), abs(coupling.value) * m.coupling_strength)
    assert_complex_sets_close(eigen_spectrum(m, coupling).energies, dense_oracle(m, coupling), atol=1e-12 * scale)


# Beyond the fence: a power law whose odd-n central level decouples, a Poisson
# spacing ensemble and a perturbed fence, each checked against LAPACK.
CROSS_MODELS = {
    "power_law_decoupled_centre": lambda: build_power_law(199, 1.0, 4.0),
    "poisson_ensemble": lambda: build_spacing_ensemble(200, "poisson", 5),
    "perturbed_fence": lambda: build_perturbed_fence(200, 0.3, 11),
}


@pytest.mark.parametrize("phi", [0.0, 45.0])
@pytest.mark.parametrize("name", sorted(CROSS_MODELS))
def test_cold_and_warm_solves_match_dense_eigvals(name, phi):
    m = CROSS_MODELS[name]()
    prev = None
    for lam in (0.1, 0.3, 0.33, 2.0):
        c = CouplingParameter(lam, phi)
        ref = np.linalg.eigvals(m.hamiltonian(c))
        scale = max(1.0, float(np.abs(m.epsilons).max()), abs(c.value) * m.coupling_strength)
        cold = eigen_spectrum(m, c)
        assert_complex_sets_close(cold.energies, ref, atol=1e-11 * scale)
        if prev is not None:
            warm = eigen_spectrum(m, c, warm_start=prev)
            assert_complex_sets_close(warm.energies, ref, atol=1e-11 * scale)
        prev = cold.energies


def test_cold_solve_memory_is_bounded():
    # the root iteration works in fixed-size row blocks: no N x N temporaries
    # (one complex 3001 x 3001 array alone would take 144 MB)
    m = build_perturbed_fence(3001, 0.1, 1)
    tracemalloc.start()
    try:
        spec = eigen_spectrum(m, CouplingParameter(0.05, 0.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.n == 3001
    assert peak < 32 * 2**20


@pytest.mark.parametrize("phi", [0.0, 45.0])
@pytest.mark.parametrize("name", sorted(CROSS_MODELS))
def test_norms_match_dense_eigenvectors(name, phi):
    m = CROSS_MODELS[name]()
    for lam in (0.1, 0.33, 2.0):
        c = CouplingParameter(lam, phi)
        spec = eigen_spectrum(m, c, compute_vectors=True)
        w, vr = np.linalg.eig(m.hamiltonian(c))
        vr = vr / np.sqrt(np.einsum("ki,ki->i", vr, vr))  # c-normalize: psi^T psi = 1
        herm = np.sum(np.abs(vr) ** 2, axis=0)
        raw = vr / np.linalg.norm(vr, axis=0)  # any scale: condition is scale-invariant
        cond = np.abs(np.einsum("ki,ki->i", raw, raw))
        # pair each LAPACK eigenvalue with the nearest secular one
        j = np.abs(w[:, None] - spec.energies[None, :]).argmin(axis=1)
        assert np.unique(j).size == m.n
        coupled = m.couplings[np.argmax(np.abs(vr), axis=0)] != 0
        np.testing.assert_allclose(spec.hermitian_norms[j], herm, rtol=1e-9)
        np.testing.assert_allclose(spec.condition[j[coupled]], cond[coupled], rtol=1e-9)
        assert np.all(np.isinf(spec.condition[j[~coupled]]))
        live = np.isfinite(spec.condition)
        np.testing.assert_array_equal(spec.hermitian_norms[live], 1.0 / spec.condition[live])
        from_vectors = np.sum(np.abs(spec.vectors) ** 2, axis=0)
        np.testing.assert_allclose(from_vectors, spec.hermitian_norms, rtol=1e-13)


def test_vectors_are_built_only_when_read():
    # norms and condition need no N x N matrix; one complex 3001 x 3001 array is 144 MB
    m = build_perturbed_fence(3001, 0.1, 1)
    tracemalloc.start()
    try:
        spec = eigen_spectrum(m, CouplingParameter(0.05, 0.0), compute_vectors=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert np.all(spec.hermitian_norms >= 1.0 - 1e-12)
    assert "vectors" not in vars(spec)
    vec = spec.vectors
    assert vec.shape == (3001, 3001)
    assert spec.vectors is vec  # cached after the first read


def test_secular_eval_memory_is_bounded():
    m = build_perturbed_fence(3001, 0.1, 1)
    c = CouplingParameter(0.3, 0.0)
    roots = eigen_spectrum(m, c).energies
    tracemalloc.start()
    try:
        vals = secular_eval(m, roots, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert np.max(np.abs(vals)) < 1e-8 * float(np.abs(1j / c.value))


def test_row_blocks_do_not_change_results(monkeypatch):
    # one row per block must reproduce the single-block iteration bit for bit
    m = build_perturbed_fence(40, 0.3, 2)
    c = CouplingParameter(0.33, 20.0)
    whole = eigen_spectrum(m, c)
    eps_whole = [p.coupling for p in find_eps(m)]
    monkeypatch.setattr(secular, "_BLOCK", 1)
    split = eigen_spectrum(m, c)
    np.testing.assert_array_equal(split.energies, whole.energies)
    assert split.iterations == whole.iterations
    assert [p.coupling for p in find_eps(m)] == eps_whole


def _split_run(monkeypatch, threads):
    # a cold and a warm N=1001 solve with vectors, an N=301 EP search with its iteration count and
    # residuals, and the secular function at the 1001 warm roots
    monkeypatch.setattr(secular, "_THREADS", threads)
    m = build_perturbed_fence(1001, 0.1, 3)
    cold = eigen_spectrum(m, CouplingParameter(0.3, 10.0))
    warm = eigen_spectrum(m, CouplingParameter(0.32, 10.0), warm_start=cold.energies, compute_vectors=True)
    its = []

    def spy(*args, **kw):
        out = secular._aberth(*args, **kw)
        its.append(out[1])
        return out

    monkeypatch.setattr(exceptional, "_aberth", spy)
    eps = find_eps(build_picket_fence(301))
    assert warm.n * m.n > secular._BLOCK  # secular_eval splits its rows
    return (
        cold.energies, cold.iterations, warm.energies, warm.iterations, warm.hermitian_norms, warm.condition,
        np.array([p.coupling for p in eps]), np.array([p.energy for p in eps]), np.array([p.residual for p in eps]),
        its, secular_eval(m, warm.energies, 0.3),
    )


def test_thread_shares_do_not_change_results(monkeypatch):
    # each row keeps its arithmetic whatever the split: one thread, two, and more threads
    # than cores with frequent switches, where a lost or misplaced row would show
    secular._drop_pool()
    ref = _split_run(monkeypatch, 1)
    assert secular._pool is None
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = {threads: _split_run(monkeypatch, threads) for threads in (2, 3)}
    finally:
        sys.setswitchinterval(interval)
    for threads, got in runs.items():
        for a, b in zip(got, ref):
            assert np.array_equal(a, b), threads
    assert secular._pool is not None  # the split really ran in the pool


@pytest.mark.parametrize(
    "build, lams",
    [
        (lambda: build_picket_fence(15), np.arange(0.001, 2.0, 0.001)),  # the fig1 grid
        (lambda: build_power_law(43, 1.0, 4.0), np.arange(0.01, 2.0, 0.005)),
        (lambda: build_power_law(43, 1.0, 4.0), np.arange(5.0, 6.0, 0.01)),  # the bare level sorts off its index
        (lambda: build_perturbed_fence(41, 0.2, 7), np.arange(0.01, 1.5, 0.005)),
    ],
)
def test_warm_order_is_the_greedy_order_on_accepted_steps(build, lams):
    m = build()
    bare = np.flatnonzero(m.couplings == 0)
    spec = eigen_spectrum(m, lams[0])
    prev = spec.energies[spec.warm_order]
    accepted = 0
    for lam in lams[1:]:
        spec = eigen_spectrum(m, lam, warm_start=prev)
        new = spec.energies[spec.warm_order]
        np.testing.assert_array_equal(new[bare], m.epsilons[bare])  # bare levels keep their index
        if _matched(prev, new):  # the step test sweep applies before bisecting
            nearest = np.argmin(np.abs(prev[:, None] - new[None, :]), axis=1)
            np.testing.assert_array_equal(nearest, np.arange(new.size))
            accepted += 1
        prev = new
    assert accepted >= 0.95 * (lams.size - 1)


@pytest.mark.parametrize("n", [5, 101])
@pytest.mark.parametrize(
    "coupling",
    [complex(np.nan, 0.0), complex(0.5, np.nan), complex(np.inf, 0.0), complex(0.5, -np.inf), CouplingParameter(np.nan)],
)
def test_non_finite_coupling_is_rejected(n, coupling):
    m = build_picket_fence(n)
    with pytest.raises(InvalidCouplingError):
        eigen_spectrum(m, coupling)
    with pytest.raises(InvalidCouplingError):
        secular_eval(m, 0.3 - 0.1j, coupling)


@pytest.mark.parametrize("n", [15, 101])
@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.1, np.nan), complex(np.inf, 0.0), complex(0.1, -np.inf)])
def test_non_finite_warm_start_is_rejected(n, bad):
    m = build_picket_fence(n)
    warm = eigen_spectrum(m, 0.30).energies
    warm[n // 3] = bad
    with pytest.raises(ValueError, match="finite"):
        eigen_spectrum(m, 0.31, warm_start=warm)


@pytest.mark.parametrize("n", [15, 101])
@pytest.mark.parametrize("maxiter", [1, 2])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_unconverged_solve_raises_with_diagnostics(n, maxiter, warm):
    # one attempt per solve: nothing retries from other seeds or accepts a stalled run
    m = build_picket_fence(n)
    start = eigen_spectrum(m, 0.30).energies if warm else None
    with pytest.raises(SolverFailureError) as err:
        eigen_spectrum(m, 0.31, warm_start=start, maxiter=maxiter)
    diag = err.value.diagnostics
    assert set(diag) == {"n", "lambda", "iterations", "max_relative_step"}
    assert diag["n"] == n and diag["lambda"] == 0.31 and diag["iterations"] == maxiter
    assert diag["max_relative_step"] > 5e-14


@pytest.mark.parametrize(
    "model, coupling, warm",
    [
        (build_two_level(0.0, 1.0, 20.0), 0.2, [0.0, 1.0]),
        (build_picket_fence(15), CouplingParameter(0.3, 30.0), None),
        (build_power_law(15, 1.0, 4.0), 0.5, None),
        (build_two_level(0.0, 1.0, 20.0), 0.2, [1.0, 0.0]),  # each entry on the other level's pole
        (build_picket_fence(15), 0.3, build_picket_fence(15).epsilons[::-1]),
    ],
    ids=["two_level", "fence_complex", "power_law_split_off", "two_level_swapped", "fence_reversed"],
)
def test_warm_start_on_the_bare_levels_leaves_them(model, coupling, warm):
    # an iterate on a pole has a non-finite step; it must be reseeded, not frozen there
    warm = model.epsilons if warm is None else warm
    got = eigen_spectrum(model, coupling, warm_start=warm)
    cold = eigen_spectrum(model, coupling)
    assert_complex_sets_close(got.energies, cold.energies, atol=1e-12)
    assert got.residual < 1e-12


def test_warm_seeds_are_the_level_ordered_entries(monkeypatch):
    # fig3's compensated chain: from lambda = 0.65 the bare level sorts off its
    # index, and every coupled level k still starts from entry k of the level order
    m = build_power_law(101, 1.0, 4.0)
    act = m.couplings != 0
    d = np.flatnonzero(~act)[0]
    aberth = secular._aberth
    seeds = []

    def spy(eps, logderiv, z0, **kw):
        seeds.append(np.array(z0))
        return aberth(eps, logderiv, z0, **kw)

    monkeypatch.setattr(secular, "_aberth", spy)
    spec = eigen_spectrum(m, 0.6)
    prev = spec.energies[spec.warm_order]
    sorted_off = 0
    for lam in np.arange(0.605, 0.75, 0.005):
        seeds.clear()
        spec = eigen_spectrum(m, lam, warm_start=prev)
        np.testing.assert_array_equal(np.ravel(seeds[0]), prev[act])
        prev = spec.energies[spec.warm_order]
        assert prev[d] == m.epsilons[d]
        sorted_off += spec.energies[d] != m.epsilons[d]
    assert sorted_off > 0


@pytest.mark.parametrize(
    "model",
    [build_picket_fence(15), build_perturbed_fence(15, 0.2, 1), build_power_law(15, 1.0, 4.0)],
    ids=["fence", "perturbed", "power_law"],
)
@pytest.mark.parametrize("maxiter", [500, 4])
def test_batched_aberth_members_match_single_calls(monkeypatch, model, maxiter):
    # 64-entry row blocks hold four 15-column rows, so members both share
    # and split blocks; the power law's decoupled centre is left out as
    # eigen_spectrum leaves it out
    monkeypatch.setattr(secular, "_BLOCK", 64)
    act = model.couplings != 0
    eps, v2 = model.epsilons[act], model.couplings[act] ** 2
    lams = np.array([0.05, 0.3, 0.31, 1 / np.pi, 0.9 + 0.2j, 3.0, 10.0, 0.3])
    seeds = [secular._seeds(eps, v2, lam) for lam in lams[:-2]]
    floor = partial(secular._step_floor, eps, v2, 1)
    seeds[2] = secular._aberth(eps, secular._spectrum_logderiv(v2, 0.3), seeds[1], floor=floor)[0]  # a warm start
    # iterates on the imaginary axis lock into a mirror-symmetric cycle and need the stall kick
    seeds += [-1j * lam * np.linspace(0.1, 2.0, eps.size) for lam in lams[-2:]]
    z, its, ok, last = secular._aberth(
        eps, secular._spectrum_logderiv(v2, lams), np.array(seeds), floor=floor, maxiter=maxiter
    )
    assert z.shape == (lams.size, eps.size) and its.shape == ok.shape == last.shape == (lams.size,)
    for b, lam in enumerate(lams):
        z1, its1, ok1, last1 = secular._aberth(
            eps, secular._spectrum_logderiv(v2, lam), seeds[b], floor=floor, maxiter=maxiter
        )
        assert (its[b], ok[b]) == (its1, ok1)
        np.testing.assert_array_equal(z[b], z1)
        assert last[b] == last1
    if maxiter == 500:
        assert ok.all()
        monkeypatch.setattr(secular, "_GOLDEN", 0.3)  # another kick direction
        z2 = secular._aberth(eps, secular._spectrum_logderiv(v2, lams), np.array(seeds), floor=floor)[0]
        kicked = np.flatnonzero(np.any(z2 != z, axis=1))
        assert kicked.size and set(kicked) <= {lams.size - 2, lams.size - 1}
    else:
        assert not ok.all()


# Every model family, on both sides of the transition; the under-compensated
# power law (r=0, t=4) has no transition and stays in the weak regime.
FAMILIES = {
    "fence": lambda n: build_picket_fence(n),
    "perturbed_fence": lambda n: build_perturbed_fence(n, 0.3, 11),
    "power_law_1_4": lambda n: build_power_law(n, 1.0, 4.0),
    "power_law_0_4": lambda n: build_power_law(n, 0.0, 4.0),
    "power_law_1_3": lambda n: build_power_law(n, 1.0, 3.0),
    "poisson_ensemble": lambda n: build_spacing_ensemble(n, "poisson", 5),
}


@pytest.mark.parametrize("phi", [0.0, 30.0])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_cold_solves_match_lapack_in_both_regimes(name, phi):
    m = FAMILIES[name](101)
    for lam in (0.3, 0.5, 1.0, 3.0, 10.0):
        c = CouplingParameter(lam, phi)
        scale = max(1.0, float(np.abs(m.epsilons).max()), lam * m.coupling_strength)
        ref = np.linalg.eigvals(m.hamiltonian(c))
        assert_complex_sets_close(eigen_spectrum(m, c).energies, ref, atol=5e-14 * scale)


def test_seeds_follow_the_regime():
    # weak: onsite seeds eps - i*Lambda*v^2; strong: one seed per gap midpoint
    # plus the collective seed, which takes the level nearest to it
    m = build_picket_fence(101)
    eps, v2 = m.epsilons, m.couplings**2
    weak = secular._seeds(eps, v2, 0.3)
    np.testing.assert_array_equal(weak.real, eps)
    strong = secular._seeds(eps, v2, 0.35)
    deep = -1j * 0.35 * 101
    assert strong[50] == deep
    np.testing.assert_allclose(np.delete(strong, 50).real, (eps[1:] + eps[:-1]) / 2, atol=1e-12)
    assert np.all(np.delete(strong, 50).imag < 0)


@pytest.mark.parametrize("name", ["fence", "perturbed_fence", "power_law_1_4", "power_law_1_3", "poisson_ensemble"])
def test_strong_cold_solve_iteration_budget(name):
    # onsite seeds took 10-317 iterations here (the fence at Lambda = 3: 27)
    m = FAMILIES[name](1001)
    for lam in (1.0, 3.0, 10.0):
        assert eigen_spectrum(m, lam).iterations <= 8, lam


# find_eps(build_power_law(1001, 1, 4))[990].coupling
PAIR_990 = complex(0.6378377672042315, 0.0017482890788018495)


@pytest.mark.parametrize("delta", [1e-4, 1e-3])
def test_solve_stops_at_the_rounding_floor(delta):
    # one iterate's relative step cannot fall below tol there: it hovers at
    # about 1e-13, under the rounding bound of the secular sum, and used to
    # run all 500 iterations before a stall acceptance
    m = build_power_law(1001, 1.0, 4.0)
    c = PAIR_990 * (1 + delta)
    spec = eigen_spectrum(m, c)
    assert spec.iterations <= 10
    assert 5e-14 < spec.residual < 1e-12  # above tol, reported as it is
    act = m.couplings != 0
    eps, v2 = m.epsilons[act], m.couplings[act] ** 2
    # without the bound (a zero floor), a step that stops shrinking below 1e-12 ends the iteration
    zero = lambda z: np.zeros(z.size)
    _, its, ok, last = secular._aberth(eps, secular._spectrum_logderiv(v2, c), secular._seeds(eps, v2, c), floor=zero)
    assert ok and its <= 12 and last < 1e-12


@pytest.mark.parametrize("name", ["fence_43", "power_law_1_4_101"])
def test_solves_at_exceptional_points_stop_at_the_rounding_floor(name):
    # the root pair is defective there, so no iterate gets below sqrt(u) and
    # the rounding bound ends the solve; these used to run 500 iterations and
    # stall-accept, or raise SolverFailureError (fence: 5 of 42 EPs)
    m = build_picket_fence(43) if name == "fence_43" else build_power_law(101, 1.0, 4.0)
    for p in find_eps(m):
        c = p.coupling
        scale = max(1.0, float(np.abs(m.epsilons).max()), abs(c) * m.coupling_strength)
        ref = np.linalg.eigvals(m.hamiltonian(c))
        for warm in (None, eigen_spectrum(m, c * (1 - 1e-3)).energies):
            spec = eigen_spectrum(m, c, warm_start=warm)
            assert spec.iterations <= 40 and spec.residual < 1e-7
            assert_complex_sets_close(spec.energies, ref, atol=2e-8 * scale)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12])
@pytest.mark.parametrize("lam", [0.05, 0.3, 2.0])
def test_roots_keep_their_precision_at_any_energy_scale(scale, lam):
    # scaling eps and v^2 by s scales every root by s; a step measured against 1 + |E| stopped
    # the 1e-12 fence at 7.2e-5 of its spacing
    f = build_picket_fence(7)
    m = secular.EffectiveModel(f.epsilons * scale, f.couplings * np.sqrt(scale), f.recipe)
    ref = np.linalg.eigvals(m.hamiltonian(lam))
    assert_complex_sets_close(eigen_spectrum(m, lam).energies, ref, atol=1e-12 * scale)


def test_toward_its_own_coupling_returns_the_roots():
    m = build_perturbed_fence(41, 0.1, 2)
    for c in (0.3, CouplingParameter(0.8, 30.0)):
        spec = eigen_spectrum(m, c, compute_vectors=True)
        np.testing.assert_array_equal(spec.toward(c), spec.energies[spec.warm_order])


def test_toward_predicts_the_next_roots():
    # the local model moves each root closer to its continuation than the plain warm start
    m = build_power_law(41, 1.0, 4.0)
    spec = eigen_spectrum(m, 0.3, compute_vectors=True)
    nxt = eigen_spectrum(m, 0.32, warm_start=spec.toward(0.32))
    new = nxt.energies[nxt.warm_order]
    plain = spec.energies[spec.warm_order]
    moved = np.abs(plain - new) > 0
    assert moved.sum() == 40  # the bare centre level stays
    assert np.all(np.abs(spec.toward(0.32) - new)[moved] < 0.01 * np.abs(plain - new)[moved])
    # without the norm pass, or toward lambda = 0, the plain warm start is what there is
    np.testing.assert_array_equal(eigen_spectrum(m, 0.3).toward(0.32), plain)
    np.testing.assert_array_equal(spec.toward(0.0), plain)
    bare = eigen_spectrum(m, 0.0, compute_vectors=True)
    np.testing.assert_array_equal(bare.toward(0.1), m.epsilons.astype(complex))
