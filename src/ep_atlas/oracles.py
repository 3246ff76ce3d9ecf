"""Independent references that the test suite checks the solvers against.

dense_oracle builds H explicitly and diagonalizes it in multiprecision
(mpmath); resultant_oracle eliminates the energy exactly (sympy).  Neither
shares a code path with the Ehrlich-Aberth engine, and neither runs in the
CLI: mpmath and sympy come with the package's `test` extra and are imported
only when an oracle is called.
"""

from __future__ import annotations

import numpy as np

from .errors import OracleRangeError
from .exceptional import _active
from .models import EffectiveModel
from .secular import _as_lambda, _sorted_order


def dense_oracle(model: EffectiveModel, coupling, dps: int = 40) -> np.ndarray:
    """Eigenvalues of the dense Hamiltonian in 40-digit arithmetic.

    Independent route: builds H explicitly and diagonalizes it with mpmath's
    eigensolver (Hessenberg reduction and shifted QR).  Shares no code path
    with the secular iteration.  Intended for cross checks at modest N; cost
    grows like N^3 multiprecision multiplies.
    """
    from mpmath import mp

    lam = _as_lambda(coupling)
    n = model.n
    with mp.workdps(dps):
        lam_mp = mp.mpc(lam.real, lam.imag)
        h = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                h[i, j] = -1j * lam_mp * mp.mpf(float(model.couplings[i])) * mp.mpf(float(model.couplings[j]))
            h[i, i] += mp.mpf(float(model.epsilons[i]))
        out = np.array([complex(x) for x in mp.eig(h, left=False, right=False)], dtype=complex)
    return out[_sorted_order(out)]


def resultant_oracle(model: EffectiveModel, *, digits: int = 30) -> np.ndarray:
    """Exceptional couplings by exact elimination; independent cross check.

    Builds the characteristic polynomial symbolically, eliminates the energy
    with a Sylvester resultant against its derivative, and root-solves the
    resulting coupling polynomial of degree 2(N-1) at high precision.  Exact
    rational arithmetic throughout the elimination, so the only error is in
    the final root extraction.  Limited to N <= 6 coupled levels; raises
    OracleRangeError beyond that.
    """
    import sympy as sp

    eps, v2 = _active(model)
    m = eps.size
    if m > 6:
        raise OracleRangeError("exact elimination is limited to 6 coupled levels, got %d" % m)
    if m < 2:
        return np.zeros(0, dtype=complex)
    E, L = sp.symbols("E L")
    epsr = [sp.Rational(float(x)) for x in eps]
    v2r = [sp.Rational(float(x)) for x in v2]
    base = [sp.prod([(E - epsr[j]) for j in range(m) if j != k]) for k in range(m)]
    p = sp.expand(sp.prod([(E - e) for e in epsr]) + sp.I * L * sum(w * b for w, b in zip(v2r, base)))
    res = sp.resultant(p, sp.diff(p, E), E)
    poly = sp.Poly(sp.expand(res), L)
    roots = sp.nroots(poly, n=digits, maxsteps=200)
    out = np.array([complex(r) for r in roots], dtype=complex)
    return out[np.lexsort((out.imag, out.real))]
