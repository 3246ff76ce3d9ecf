"""Secular-equation spectra against closed forms and a high-precision oracle."""

import tracemalloc

import numpy as np
import pytest

from ep_atlas import (
    CouplingParameter,
    find_eps,
    IllConditionedNormalizationError,
    InvalidCouplingError,
    PoleProximityError,
    build_perturbed_fence,
    build_picket_fence,
    build_power_law,
    build_spacing_ensemble,
    build_two_level,
    dense_oracle,
    eigen_spectrum,
    secular_eval,
    two_level_closed_form,
    two_level_eps,
)
from ep_atlas import secular
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
