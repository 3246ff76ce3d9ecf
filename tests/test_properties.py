"""Randomized invariants of the spectral solver."""

import numpy as np
from hypothesis import given, settings, strategies as st

from ep_atlas import (
    CouplingParameter,
    build_perturbed_fence,
    build_picket_fence,
    build_power_law,
    build_two_level,
    eigen_spectrum,
    two_level_closed_form,
)
from ep_atlas.secular import _broadest_root
from helpers import assert_complex_sets_close

finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=16),
    lam=st.floats(min_value=0.0, max_value=4.0, **finite),
    phi=st.floats(min_value=0.0, max_value=90.0, **finite),
)
def test_trace_conservation(n, lam, phi):
    m = build_picket_fence(n)
    c = CouplingParameter(lam, phi)
    spec = eigen_spectrum(m, c)
    want = m.epsilons.sum() - 1j * c.value * m.coupling_strength
    assert abs(spec.energies.sum() - want) <= 1e-11 * (1.0 + abs(want))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    eps1=st.floats(min_value=-3.0, max_value=3.0, **finite),
    gap=st.floats(min_value=0.05, max_value=4.0, **finite),
    omega=st.floats(min_value=1.0, max_value=89.0, **finite),
    lam=st.floats(min_value=0.0, max_value=5.0, **finite),
    phi=st.floats(min_value=0.0, max_value=90.0, **finite),
)
def test_two_level_solver_equals_closed_form(eps1, gap, omega, lam, phi):
    m = build_two_level(eps1, eps1 + gap, omega)
    c = CouplingParameter(lam, phi)
    got = eigen_spectrum(m, c).energies
    ref = two_level_closed_form(eps1, eps1 + gap, omega, coupling=c)
    assert_complex_sets_close(got, ref, atol=1e-10 * (1.0 + abs(eps1) + gap))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=3, max_value=21),
    lam=st.floats(min_value=0.01, max_value=4.0, **finite),
)
def test_mirror_symmetry_of_ladder_spectra(n, lam):
    # symmetric levels with real coupling: the spectrum maps to itself under
    # E -> -conj(E)
    spec = eigen_spectrum(build_picket_fence(n), CouplingParameter(lam, 0.0))
    assert_complex_sets_close(-spec.energies.conj(), spec.energies, atol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=16),
    lam=st.floats(min_value=0.01, max_value=3.0, **finite),
)
def test_norms_never_below_hermitian_floor(n, lam):
    spec = eigen_spectrum(build_picket_fence(n), CouplingParameter(lam, 25.0), compute_vectors=True)
    assert np.all(spec.hermitian_norms >= 1.0 - 1e-12)
    bil = np.einsum("ki,ki->i", spec.vectors, spec.vectors)
    np.testing.assert_allclose(bil, np.ones(n), atol=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["fence", "perturbed", "power"]),
    n=st.integers(min_value=2, max_value=40),
    lam=st.floats(min_value=0.0, max_value=10.0, **finite),
    phi=st.floats(min_value=-89.0, max_value=89.0, **finite),
)
def test_a_certified_root_holds_more_than_half_the_total_width(kind, n, lam, phi):
    m = {
        "fence": lambda: build_picket_fence(n),
        "perturbed": lambda: build_perturbed_fence(n, 0.2, n),
        "power": lambda: build_power_law(n, 1.0, 3.0),
    }[kind]()
    c = lam * np.exp(1j * np.radians(phi))
    half = c.real * m.coupling_strength
    top = _broadest_root(m, c)
    if top is not None:
        widths = eigen_spectrum(m, c).widths
        assert -2.0 * top.imag > half
        assert abs(widths.sum() - 2.0 * half) <= 1e-9 * 2.0 * half  # the trace fixes the total
        assert abs(-2.0 * top.imag - widths.max()) <= 1e-12 * widths.max()
