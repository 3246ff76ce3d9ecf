"""Exceptional-point location against exact resultants and closed forms."""

import cmath
import math

import numpy as np
import pytest

from ep_atlas import (
    OracleRangeError,
    accumulation_scan,
    build_picket_fence,
    build_power_law,
    build_two_level,
    eigen_spectrum,
    expand_ep_set,
    find_eps,
    resultant_oracle,
    two_level_eps,
)
from helpers import assert_complex_sets_close

# Exact coalescence couplings of the 3-level unit ladder (energies -1, 0, 1).
# The stationary points of the level-shift function sit at E = (+-1 +- 1j) * c
# with c = sqrt(2) * 3**(3/4) / 6, so E^4 = -1/3; the associated couplings were
# evaluated from Lambda = 1j / S(E) at 25 significant digits.
FENCE3_REPS = (
    0.423743292806235 - 0.113541673105536j,
    0.423743292806235 + 0.113541673105536j,
)

# 4-level unit ladder; roots in Lambda of the exact resultant of the
# characteristic polynomial and its derivative (computed symbolically).
FENCE4_REPS = (
    0.371610548359732 - 0.157230222328986j,
    0.371610548359732 + 0.157230222328986j,
    0.412011997789875 + 0.0j,
)


def test_fence3_matches_exact_values():
    reps = find_eps(build_picket_fence(3))
    assert_complex_sets_close([p.coupling for p in reps], FENCE3_REPS, atol=1e-12)
    # the coalescence energies satisfy E^4 = -1/3 exactly
    for p in reps:
        assert abs(p.energy**4 + 1.0 / 3.0) < 1e-12


def test_fence4_matches_exact_values():
    got = [p.coupling for p in find_eps(build_picket_fence(4))]
    assert_complex_sets_close(got, FENCE4_REPS, atol=1e-12)


def test_representative_count_is_n_minus_one():
    for n in (3, 4, 5, 7, 43):
        reps = find_eps(build_picket_fence(n))
        assert len(reps) == n - 1
        assert expand_ep_set(reps).size == 2 * (n - 1)


def test_canonical_half_plane():
    for p in find_eps(build_picket_fence(6)):
        assert p.coupling.real > 0 or (abs(p.coupling.real) < 1e-12 and p.coupling.imag >= 0)
        assert p.residual <= 1e-10


def test_partner_reflection():
    for p in find_eps(build_picket_fence(5)):
        assert p.partner == pytest.approx(-p.coupling.conjugate())


def test_agrees_with_exact_resultant():
    for n in (3, 5, 6):
        m = build_picket_fence(n)
        assert_complex_sets_close(expand_ep_set(find_eps(m)), resultant_oracle(m), atol=1e-9)


def test_resultant_oracle_range_guard():
    with pytest.raises(OracleRangeError):
        resultant_oracle(build_picket_fence(8))


def test_two_level_closed_form_ep():
    for w in (20.0, 30.0, 60.0, 75.0):
        ep = two_level_eps(0.0, 1.0, w)
        reps = find_eps(build_two_level(0.0, 1.0, w))
        assert len(reps) == 1
        assert abs(reps[0].coupling - ep.coupling) < 1e-11
        assert abs(reps[0].energy - ep.energy) < 1e-11
        # closed form: Lambda = i * gap * exp(-2i*omega), on the canonical side
        want = 1j * 1.0 * cmath.exp(-2j * math.radians(w))
        if want.real < 0:
            want = -want.conjugate()
        assert abs(ep.coupling - want) < 1e-14


def test_decoupled_level_reduces_count():
    # r > 0 with odd n decouples the central level: N_active = n - 1
    m = build_power_law(5, 1.0, 4.0)
    reps = find_eps(m)
    assert len(reps) == (5 - 1) - 1


def test_spectrum_coalesces_at_representative():
    # at the exceptional coupling two eigenvalues agree to the defective-pair limit
    reps = find_eps(build_picket_fence(4))
    real_rep = [p for p in reps if abs(p.coupling.imag) < 1e-12][0]
    spec = eigen_spectrum(build_picket_fence(4), real_rep.coupling)
    gaps = np.abs(spec.energies[:, None] - spec.energies[None, :])
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() < 1e-6


def test_accumulation_toward_critical_coupling():
    res = accumulation_scan([5, 7, 9])
    d = [row.min_distance for row in res.rows]
    assert d[0] > d[1] > d[2]
    assert res.target == pytest.approx(1.0 / math.pi)
    assert abs(res.lambda_c_estimate - 1.0 / math.pi) < 0.08


@pytest.mark.parametrize("n", [21, 51, 101, 201])
def test_compensated_power_law_has_full_set(n):
    # mirror-symmetric levels make distinct pairs tie in Re Lambda to the last
    # bit; the search must still pair every root of R with its own partner
    m = build_power_law(n, 1.0, 4.0)
    act = m.couplings != 0.0
    eps, v2 = m.epsilons[act], m.couplings[act] ** 2
    reps = find_eps(m)
    assert len(reps) == int(act.sum()) - 1
    for p in reps:
        d = p.energy - eps
        s = (v2 / d).sum()
        sp = (v2 / d**2).sum()
        assert abs(s - 1j / p.coupling) <= 1e-8 * abs(s)
        assert abs(sp) <= 1e-8 * (v2 / np.abs(d) ** 2).sum()

