"""Exceptional-point location against exact resultants and closed forms."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from ep_atlas import (
    IncompleteSearchError,
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
from ep_atlas import exceptional
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


def test_one_coupled_level_has_no_exceptional_point():
    assert find_eps(build_two_level(0.0, 1.0, 0.0)) == []


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




# Models whose search for the roots of R runs past iteration 25, where the stall kick of _aberth fires.
STALL_KICK_MODELS = [(2.0, 6.0, n) for n in (15, 43, 101, 201)] + [(0.0, 1.5, n) for n in (43, 101, 201)]


@pytest.mark.parametrize("r, t, n", STALL_KICK_MODELS)
def test_every_ep_solves_the_double_root_equations(monkeypatch, r, t, n):
    # S = i/Lambda and S' = 0 by direct summation, to rounding of the sums
    calls = _spy_aberth(monkeypatch, lambda roots, ok: (roots, ok))
    m = build_power_law(n, r, t)
    act = m.couplings != 0.0
    eps, v2 = m.epsilons[act], m.couplings[act] ** 2
    reps = find_eps(m)
    assert calls[0] > 25
    assert len(reps) == eps.size - 1
    for p in reps:
        d = p.energy - eps
        assert abs((v2 / d).sum() - 1j / p.coupling) <= 1e-12 * (v2 / np.abs(d)).sum()
        assert abs((v2 / d**2).sum()) <= 1e-12 * (v2 / np.abs(d) ** 2).sum()
        assert p.residual <= 1e-12


def test_search_stops_at_its_rounding_floor_at_large_n(monkeypatch):
    # the step of the compensated r=2, t=6 search hovers at about 1e-12 from N = 2501 on, above
    # the 1e-12 stall rule; without the rounding bound of S' it ran all 600 iterations and raised
    calls = _spy_aberth(monkeypatch, lambda roots, ok: (roots, ok))
    m = build_power_law(2501, 2.0, 6.0)
    reps = find_eps(m)
    assert len(reps) == np.count_nonzero(m.couplings) - 1 == 2499
    assert calls[0] <= 60


def _tied(lam):
    """Indices k where lam[k] and lam[k + 1] tie in Re Lambda."""
    return [k for k in range(lam.size - 1) if abs(lam[k + 1].real - lam[k].real) <= 1e-12 * max(1.0, abs(lam[k + 1]))]


def test_tied_couplings_come_out_with_im_ascending():
    reps = find_eps(build_picket_fence(43))
    for lam in (np.array([p.coupling for p in reps]), expand_ep_set(reps)):
        ties = _tied(lam)
        assert len(ties) >= 10
        for k in ties:
            assert lam[k].imag < lam[k + 1].imag


def _nudged(reps, j, direction):
    """reps with Re of representative j's coupling moved by one ulp toward direction."""
    lam = reps[j].coupling
    lam = complex(np.nextafter(lam.real, direction), lam.imag)
    return reps[:j] + [dataclasses.replace(reps[j], coupling=lam, partner=-np.conj(lam))] + reps[j + 1 :]


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
def test_one_ulp_in_re_lambda_keeps_the_order(direction):
    reps = find_eps(build_picket_fence(43))
    lam = np.array([p.coupling for p in reps])
    want = expand_ep_set(reps)
    for k in _tied(lam):
        for j in (k, k + 1):
            nudged = _nudged(reps, j, direction)
            got = np.array([p.coupling for p in nudged])
            np.testing.assert_array_equal(exceptional._coupling_order(got), np.arange(lam.size))
            full = expand_ep_set(nudged)
            np.testing.assert_array_equal(full.imag, want.imag)
            np.testing.assert_allclose(full.real, want.real, rtol=1e-15)


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
def test_accumulation_closest_point_ignores_one_ulp(monkeypatch, direction):
    reps = find_eps(build_picket_fence(27))
    row = accumulation_scan([27]).rows[0]
    dist = np.abs(np.array([p.coupling for p in reps]) - 1.0 / math.pi)
    pair = np.flatnonzero(dist - row.min_distance <= 1e-12)
    assert pair.size == 2  # a mirror pair, Lambda and conj(Lambda), is closest
    assert row.closest.imag < 0  # its first member in find_eps order
    for j in pair:
        nudged = _nudged(reps, int(j), direction)
        monkeypatch.setattr(exceptional, "find_eps", lambda model: nudged)
        assert accumulation_scan([27]).rows[0].closest.imag == row.closest.imag


def _spy_aberth(monkeypatch, alter):
    """Pass every root search of find_eps through alter(roots, ok); returns the list of calls."""
    calls = []
    aberth = exceptional._aberth

    def spy(*args, **kwargs):
        roots, its, ok, last = aberth(*args, **kwargs)
        calls.append(its)
        roots, ok = alter(roots.copy(), ok)
        return roots, its, ok, last

    monkeypatch.setattr(exceptional, "_aberth", spy)
    return calls


def test_unconverged_search_raises_after_one_attempt(monkeypatch):
    calls = _spy_aberth(monkeypatch, lambda roots, ok: (roots, False))
    with pytest.raises(IncompleteSearchError) as err:
        find_eps(build_picket_fence(7))
    assert len(calls) == 1
    assert err.value.found == []


def test_unpaired_root_keeps_the_pairs_that_formed(monkeypatch):
    full = find_eps(build_picket_fence(7))

    def duplicate(roots, ok):
        # overwrite a root other than the mirror partner of roots[0] with roots[0]:
        # the copy leaves one point with two partners and another with none
        k = next(k for k in range(1, roots.size) if abs(roots[k] - roots[0].conjugate()) > 1e-6)
        roots[k] = roots[0]
        return roots, ok

    calls = _spy_aberth(monkeypatch, duplicate)
    with pytest.raises(IncompleteSearchError) as err:
        find_eps(build_picket_fence(7))
    assert len(calls) == 1
    assert len(err.value.found) == 5
    for p in err.value.found:
        assert min(abs(p.coupling - q.coupling) for q in full) < 1e-12
