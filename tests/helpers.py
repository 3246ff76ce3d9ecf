"""Small shared assertions for the test suite."""

import numpy as np

from ep_atlas import secular


def assert_complex_sets_close(got, ref, atol):
    """Match two unordered complex sets pairwise within atol.

    Lexicographic sorting is unstable when points differ only at roundoff
    level (conjugate pairs share a real part), so compare as multisets via
    greedy nearest-neighbour matching instead.
    """
    got = list(np.asarray(got, dtype=complex))
    ref = list(np.asarray(ref, dtype=complex))
    assert len(got) == len(ref), "size mismatch: %d vs %d" % (len(got), len(ref))
    for r in ref:
        j = int(np.argmin([abs(g - r) for g in got]))
        d = abs(got[j] - r)
        assert d < atol, "no partner for %s within %g (closest %g)" % (r, atol, d)
        got.pop(j)


def count_aberth_rows(monkeypatch) -> list:
    """Patch the spectrum callback to count the rows _aberth evaluates: one list entry per block."""
    rows = []
    logderiv = secular._spectrum_logderiv

    def counted(v2, lam):
        inner = logderiv(v2, lam)

        def call(r, m):
            rows.append(r.shape[0])
            return inner(r, m)

        return call

    monkeypatch.setattr(secular, "_spectrum_logderiv", counted)
    return rows
