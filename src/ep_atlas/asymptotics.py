"""Infinite-ladder references and coupling-compensation analysis.

For the infinite equidistant ladder (unit spacing, unit couplings) the
secular equation sums in closed form and every eigenvalue is known exactly:

    E_k(Lambda) = k + (i / 2 pi) * ln[(1 - pi Lambda) / (1 + pi Lambda)].

The log argument passes through 0 and infinity at Lambda = +-1/pi, the
accumulation points of the finite-ladder exceptional points; for real
lambda beyond 1/pi the branch is fixed by Im Lambda -> 0+, which places the
trapped states at half-integer positions k + 1/2.

For power-law families (|v_k|^2 = |k|^r over eps_k = sign(k)|k|^(t/2)) the
continuum limit of the secular sum at energy E = i z is

    I(z) = -2 i z * integral_1^inf k^r / (z^2 + k^t) dk,

valid for t > r + 1, with |I| ~ z^(2(1+r)/t - 1) at large z.  The balance
exponent 2(1+r) versus t decides whether a collective state can keep
absorbing width as it dives into the complex plane: compensated families
(t = 2(1+r)) behave like the ladder with a rescaled critical coupling,
undercompensated ones (t > 2(1+r)) never develop a collective state.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import BranchPointError, DivergentModelError, InvalidModelError, PoleProximityError

LADDER_CRITICAL = 1.0 / math.pi
_REL_TOL = 1e-10  # secular_integral stops once its tail bound is this share of the sum


def infinite_fence_energy(k: int, lam) -> complex:
    """Exact eigenvalue of the infinite unit ladder attached to level k.

    Accepts real or complex coupling; real couplings beyond the critical
    value take the Im Lambda -> 0+ branch.  Raises BranchPointError at
    Lambda = +-1/pi where the closed form degenerates.
    """
    lam_c = complex(lam)
    num = 1.0 - math.pi * lam_c
    den = 1.0 + math.pi * lam_c
    scale = 1.0 + abs(lam_c) * math.pi
    if abs(num) < 1e-13 * scale or abs(den) < 1e-13 * scale:
        raise BranchPointError("coupling at +-1/pi: infinite-ladder closed form degenerates there")
    z = num / den
    if lam_c.imag == 0.0 and z.real < 0.0 and z.imag == 0.0:
        z = complex(z.real, -0.0)  # Im Lambda -> 0+ sends the log argument below the cut
    # cmath.log honors the sign of a zero imaginary part, which carries the branch
    return k + (1j / (2.0 * math.pi)) * cmath.log(z)


def ladder_resultant(lam) -> complex:
    """Infinite-ladder limit of the normalized spectral discriminant.

    sqrt(1 - pi^2 Lambda^2): real and positive below the critical coupling,
    zero exactly at +-1/pi, imaginary beyond.  Its zeros are where the
    finite-ladder exceptional points accumulate.
    """
    lam_c = complex(lam)
    val = 1.0 - (math.pi * lam_c) ** 2
    if lam_c.imag == 0.0:
        v = val.real
        return complex(math.sqrt(v)) if v >= 0 else 1j * math.sqrt(-v)
    return complex(val) ** 0.5


def classify_compensation(r, t) -> str:
    """Compare coupling growth against level dilution, exactly.

    Returns 'compensated' when t = 2(1+r), 'undercompensated' when the
    levels spread faster (t larger), 'overcompensated' otherwise.  Exact
    rational comparison, so nearby floats are classified by their true
    binary values.  Requires the convergent regime t > r + 1.
    """
    fr, ft = Fraction(float(r)), Fraction(float(t))
    if fr < 0:
        raise InvalidModelError("coupling exponent r must be >= 0")
    if ft <= fr + 1:
        raise DivergentModelError("need t > r + 1, got r=%r t=%r" % (r, t))
    balance = 2 * (1 + fr)
    if ft == balance:
        return "compensated"
    return "undercompensated" if ft > balance else "overcompensated"


def critical_coupling(r, t) -> float:
    """Critical coupling of a compensated family: t / (2 pi).

    The ladder case (r=0, t=2) gives 1/pi and the quartic compensated case
    (r=1, t=4) gives 2/pi; other classes have no finite transition point and
    raise InvalidModelError.
    """
    if classify_compensation(r, t) != "compensated":
        raise InvalidModelError("only compensated families have a critical coupling")
    return float(t) / (2.0 * math.pi)


def weak_coupling_width(lam: float, v: float = 1.0) -> float:
    """First-order width 2*lambda*v^2 of a level at small real coupling."""
    return 2.0 * lam * v * v


def trapped_width(lam: float) -> float:
    """Ladder trapped-state width 2/(pi^2 lambda) far above the transition.

    The collective state has absorbed almost the whole total width; what
    remains is shared equally by the trapped states and shrinks as 1/lambda.
    """
    if lam <= 0:
        raise ValueError("trapped-state law needs lambda > 0")
    return 2.0 / (math.pi**2 * lam)


def _adaptive_simpson(f, a, b, tol, fa, fm, fb, whole, depth):
    m = (a + b) / 2.0
    flm = f((a + m) / 2.0)
    frm = f((m + b) / 2.0)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) < 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(f, a, m, tol / 2.0, fa, flm, fm, left, depth - 1) + _adaptive_simpson(
        f, m, b, tol / 2.0, fm, frm, fb, right, depth - 1
    )


def _simpson(f, a, b, tol):
    fa, fb = f(a), f(b)
    m = (a + b) / 2.0
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, tol, fa, fm, fb, whole, 50)


def secular_integral(z, r, t) -> complex:
    """Continuum secular sum -2iz * int_1^inf k^r/(z^2+k^t) dk.

    z parametrizes the probe energy E = i z; for a collective state of width
    Gamma use z = Gamma/2.  The infinite tail is truncated adaptively once
    the analytic remainder bound drops below _REL_TOL of the accumulated
    value.  Raises PoleProximityError when z^2 is a negative real <= -1,
    which puts a pole of the integrand on the integration path.
    """
    z = complex(z)
    fr, ft = float(r), float(t)
    if ft <= fr + 1:
        raise DivergentModelError("need t > r + 1 for a convergent integral")
    z2 = z * z
    if abs(z2.imag) <= 1e-12 * (1.0 + abs(z2)) and z2.real <= -1.0 + 1e-12:
        raise PoleProximityError("z^2 on (-inf, -1]: integrand pole sits on the path")

    def f(k):
        return k**fr / (z2 + k**ft)

    total = 0.0 + 0.0j
    a = 1.0
    # beyond k^t >= 2|z|^2 the tail is bounded by 2*K^(r-t+1)/(t-r-1)
    safe = max(2.0, (2.0 * abs(z2)) ** (1.0 / ft) * 1.5)
    while True:
        b = 2.0 * a
        # panel errors add up across ~log2(range) dyadic panels; budget each
        # one a 1/512 share so the end-to-end error stays below _REL_TOL
        total += _simpson(f, a, b, _REL_TOL * (abs(total) + 1.0) / 512.0)
        a = b
        if a >= safe:
            bound = 2.0 * a ** (fr - ft + 1.0) / (ft - fr - 1.0)
            if bound <= _REL_TOL * abs(total):
                break
    return -2j * z * total
