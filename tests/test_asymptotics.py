"""Infinite-ladder limits, compensation classes, and the coupling integral."""

import cmath
import math

import numpy as np
import pytest

from ep_atlas import (
    LADDER_CRITICAL,
    BranchPointError,
    DivergentModelError,
    InvalidModelError,
    PoleProximityError,
    classify_compensation,
    critical_coupling,
    infinite_fence_energy,
    ladder_resultant,
    secular_integral,
    trapped_width,
    weak_coupling_width,
)

# Frozen infinite-ladder eigenvalues (25-digit evaluation of the closed form,
# approaching the real coupling axis from above).
LADDER_REF = {
    (0, 2.0): 0.5 - 0.051094962080607455j,
    (5, 2.0): 5.5 - 0.051094962080607455j,
    (0, 0.1): 0.0 - 0.10349956763891745j,
    (3, 0.1): 3.0 - 0.10349956763891745j,
}


def test_infinite_ladder_frozen_values():
    for (k, lam), want in LADDER_REF.items():
        got = infinite_fence_energy(k, lam)
        assert got == pytest.approx(want, abs=1e-14)


def test_ladder_branch_is_continuous_from_above():
    # for lam*pi > 1 the log argument is negative real; the value must match
    # the limit taken with a small positive imaginary coupling part
    lam = 2.0
    above = infinite_fence_energy(0, lam + 1e-9j)
    onax = infinite_fence_energy(0, lam)
    assert abs(above - onax) < 1e-7


def test_ladder_real_parts_shift_past_critical():
    # below the critical coupling levels keep integer positions, above they
    # sit at half-integers
    assert infinite_fence_energy(2, 0.1).real == pytest.approx(2.0)
    assert infinite_fence_energy(2, 2.0).real == pytest.approx(2.5)


def test_ladder_branch_point_guard():
    with pytest.raises(BranchPointError):
        infinite_fence_energy(0, LADDER_CRITICAL)
    with pytest.raises(BranchPointError):
        infinite_fence_energy(0, -LADDER_CRITICAL)


def test_ladder_resultant_square_root():
    assert ladder_resultant(LADDER_CRITICAL) == pytest.approx(0.0, abs=1e-12)
    for lam in (0.1, 0.2 + 0.1j, 0.5j):
        want = cmath.sqrt(1 - math.pi**2 * lam**2)
        assert ladder_resultant(lam) == pytest.approx(want, abs=1e-12)


def test_compensation_classes():
    assert classify_compensation(0, 2) == "compensated"
    assert classify_compensation(1, 4) == "compensated"
    assert classify_compensation(0.5, 3.0) == "compensated"
    assert classify_compensation(0, 4) == "undercompensated"
    assert classify_compensation(1, 3) == "overcompensated"


def test_compensation_guards():
    with pytest.raises(InvalidModelError):
        classify_compensation(-0.5, 2)
    with pytest.raises(DivergentModelError):
        classify_compensation(1, 2)


def test_critical_coupling_values():
    assert critical_coupling(0, 2) == pytest.approx(LADDER_CRITICAL)
    assert critical_coupling(1, 4) == pytest.approx(2.0 / math.pi)
    with pytest.raises(InvalidModelError):
        critical_coupling(0, 4)


def test_width_laws():
    assert weak_coupling_width(0.1) == pytest.approx(0.2)
    assert weak_coupling_width(0.1, v=2.0) == pytest.approx(0.8)
    assert trapped_width(2.0) == pytest.approx(2.0 / (math.pi**2 * 2.0))


def test_secular_integral_exact_uniform_case():
    # (r, t) = (0, 2): the integral evaluates to -2i*(pi/2 - atan(1/z))
    for z in (100.0, 500.0, 3000.0):
        got = secular_integral(z, 0, 2)
        want = -2j * (math.pi / 2 - math.atan(1.0 / z))
        assert abs(got - want) < 1e-9 * abs(want)


def test_secular_integral_guards():
    with pytest.raises(PoleProximityError):
        secular_integral(2j, 0, 2)  # z^2 = -4 puts a pole on the integration path
    with pytest.raises(DivergentModelError):
        secular_integral(10.0, 1, 2)


def test_secular_integral_has_no_cutoff():
    # the integral always runs to infinity; a finite ladder is solved by eigen_spectrum
    with pytest.raises(TypeError):
        secular_integral(1.0, 0, 2, cutoff=10.0)


def test_secular_integral_scaling_flat_for_compensated():
    v1 = abs(secular_integral(1e2, 1, 4))
    v2 = abs(secular_integral(1e4, 1, 4))
    slope = math.log(v2 / v1) / math.log(1e2)
    assert abs(slope) < 0.05
