"""Model construction for rank-one non-Hermitian effective Hamiltonians.

Conventions
-----------
A model is the pair (epsilons, couplings): real unperturbed energies
``eps_k`` (strictly increasing) and real channel amplitudes ``v_k``.  The
effective Hamiltonian studied everywhere else in the package is

    H(Lambda) = diag(eps) - 1j * Lambda * outer(v, v),

with a single decay channel, so the anti-Hermitian part has rank one.  The
complex coupling is Lambda = lambda * exp(1j * phi), entered in degrees and
restricted to lambda >= 0, 0 <= phi <= 90.

Families
--------
picket fence      eps_k = -(N-1)/2 + k,  v_k = 1
perturbed fence   fence diagonal plus i.i.d. uniform shifts in [-a, a]
power law         eps_k = sign(k)|k|^(t/2),  |v_k|^2 = |k|^r
two level         eps = (eps1, eps2),  v = (cos w, sin w)

The perturbed fence draws its shifts from a PCG64 generator seeded with the
user's seed; the full vector is drawn in one call in index order, so a given
(N, amplitude, seed) triple is reproducible across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentModelError, InvalidCouplingError, InvalidModelError


@dataclass(frozen=True)
class CouplingParameter:
    """Polar form of the complex coupling Lambda = lam * exp(1j*phi).

    ``phi`` is given in degrees and stored in radians; the complex value is
    always computed on demand, never cached.
    """

    lam: float
    phi_rad: float = 0.0

    def __init__(self, lam: float, phi: float = 0.0):
        if lam < 0:
            raise InvalidCouplingError("coupling modulus must be nonnegative, got %r" % (lam,))
        if not 0.0 <= phi <= 90.0:
            raise InvalidCouplingError("coupling phase must lie in [0, 90] degrees, got %r" % (phi,))
        object.__setattr__(self, "lam", float(lam))
        object.__setattr__(self, "phi_rad", math.radians(float(phi)))

    @property
    def phi_deg(self) -> float:
        return math.degrees(self.phi_rad)

    @property
    def value(self) -> complex:
        return self.lam * _unit(self.phi_rad)


def _unit(rad: float) -> complex:
    return complex(math.cos(rad), math.sin(rad))


def phase_factor(phi: float) -> complex:
    """exp(1j*phi) for phi in degrees; the coupling ray Lambda = lam * phase_factor(phi)."""
    return _unit(math.radians(phi))


# ---------------------------------------------------------------------------
# declarative recipes: the parameters each model was built from

@dataclass(frozen=True)
class PicketFence:
    n: int


@dataclass(frozen=True)
class PerturbedPicketFence:
    n: int
    amplitude: float
    seed: int


@dataclass(frozen=True)
class PowerLaw:
    n: int
    r: float
    t: float


@dataclass(frozen=True)
class TwoLevel:
    eps1: float
    eps2: float
    omega_deg: float


@dataclass(frozen=True)
class SpacingEnsemble:
    n: int
    kind: str
    seed: int


ModelRecipe = PicketFence | PerturbedPicketFence | PowerLaw | TwoLevel | SpacingEnsemble


@dataclass(frozen=True, eq=False)
class EffectiveModel:
    """Concrete model: level positions, channel amplitudes, and the recipe used."""

    epsilons: np.ndarray
    couplings: np.ndarray
    recipe: ModelRecipe

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        v = np.asarray(self.couplings, dtype=float)
        if eps.ndim != 1 or v.shape != eps.shape:
            raise InvalidModelError("epsilons and couplings must be 1-d arrays of equal length")
        if eps.size < 1:
            raise InvalidModelError("a model needs at least one level")
        if eps.size > 1 and not np.all(np.diff(eps) > 0):
            raise InvalidModelError("unperturbed energies must be strictly increasing")
        eps.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "couplings", v)

    @property
    def n(self) -> int:
        return int(self.epsilons.size)

    @property
    def coupling_strength(self) -> float:
        """Total channel weight sum(v_k^2); the trace of the rank-one part."""
        return float(np.dot(self.couplings, self.couplings))

    def hamiltonian(self, coupling: CouplingParameter | complex) -> np.ndarray:
        """Dense H(Lambda); intended for small N and cross checks."""
        lam = coupling.value if isinstance(coupling, CouplingParameter) else complex(coupling)
        v = self.couplings
        return np.diag(self.epsilons).astype(complex) - 1j * lam * np.outer(v, v)


def build_picket_fence(n: int) -> EffectiveModel:
    """Equidistant levels with unit spacing centered on zero, unit couplings.

    n=3 gives eps=(-1,0,1); n=2 gives eps=(-1/2,1/2).
    """
    if n < 2:
        raise InvalidModelError("picket fence needs n >= 2, got %d" % n)
    eps = np.arange(n, dtype=float) - (n - 1) / 2.0
    return EffectiveModel(eps, np.ones(n), PicketFence(n))


def build_perturbed_fence(n: int, amplitude: float, seed: int) -> EffectiveModel:
    """Picket fence with i.i.d. uniform diagonal shifts in [-amplitude, amplitude].

    amplitude must stay below half the spacing (0.5) so the level order is
    preserved for every draw.  amplitude=0 reproduces the clean fence exactly,
    independent of the seed.
    """
    if n < 2:
        raise InvalidModelError("perturbed fence needs n >= 2, got %d" % n)
    if not 0.0 <= amplitude < 0.5:
        raise InvalidModelError("perturbation amplitude must lie in [0, 0.5), got %r" % (amplitude,))
    eps = np.arange(n, dtype=float) - (n - 1) / 2.0
    if amplitude > 0.0:
        gen = np.random.Generator(np.random.PCG64(seed))
        eps = eps + gen.uniform(-amplitude, amplitude, size=n)
    return EffectiveModel(eps, np.ones(n), PerturbedPicketFence(n, float(amplitude), int(seed)))


def build_power_law(n: int, r: float, t: float) -> EffectiveModel:
    """Power-law family: |v_k|^2 = |k|^r over levels eps_k = sign(k)|k|^(t/2).

    The index k runs symmetrically about zero: -n/2..n/2 without 0 for even n,
    -(n-1)/2..(n-1)/2 for odd n.  The odd-n central level is pinned at zero
    energy; its coupling is 1 for r=0 (continuity with the uniform case) and 0
    for r>0 (the power law vanishes at k=0, which decouples that level).

    Requires t > r + 1; otherwise the continuum limit of the coupling integral
    diverges and no finite transition point exists to study.
    """
    if n < 2:
        raise InvalidModelError("power-law model needs n >= 2, got %d" % n)
    if r < 0:
        raise InvalidModelError("coupling exponent r must be >= 0, got %r" % (r,))
    if t <= r + 1:
        raise DivergentModelError("need t > r + 1 for a convergent family, got r=%r t=%r" % (r, t))
    half = n // 2
    if n % 2 == 0:
        ks = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    else:
        ks = np.arange(-half, half + 1)
    eps = np.sign(ks) * np.abs(ks) ** (t / 2.0)
    v2 = np.abs(ks).astype(float) ** float(r)
    if n % 2 == 1:
        v2[half] = 1.0 if r == 0 else 0.0
    return EffectiveModel(eps.astype(float), np.sqrt(v2), PowerLaw(n, float(r), float(t)))


def build_two_level(eps1: float, eps2: float, omega_deg: float) -> EffectiveModel:
    """Two levels with channel vector (cos w, sin w), w in degrees.

    eps1 == eps2 is rejected.  If eps1 > eps2 the two basis states are stored
    in swapped order (with their amplitudes) so the level array is increasing;
    the physics is unchanged.
    """
    if eps1 == eps2:
        raise InvalidModelError("two-level model needs distinct energies")
    w = math.radians(omega_deg)
    eps = np.array([eps1, eps2], dtype=float)
    v = np.array([math.cos(w), math.sin(w)])
    if eps1 > eps2:
        eps = eps[::-1].copy()
        v = v[::-1].copy()
    return EffectiveModel(eps, v, TwoLevel(float(eps1), float(eps2), float(omega_deg)))


def build_spacing_ensemble(n: int, kind: str, seed: int) -> EffectiveModel:
    """Random-spacing ladder with unit couplings and unit mean spacing.

    kind='poisson' draws exponential spacings; kind='wigner' draws from the
    surmise distribution p(s) = (pi/2) s exp(-pi s^2 / 4) by inverse CDF.
    Levels are centered so the ladder is comparable with the fence.
    """
    if n < 2:
        raise InvalidModelError("spacing ensemble needs n >= 2, got %d" % n)
    gen = np.random.Generator(np.random.PCG64(seed))
    u = gen.uniform(0.0, 1.0, size=n - 1)
    if kind == "poisson":
        s = -np.log1p(-u)
    elif kind == "wigner":
        s = np.sqrt(-4.0 * np.log1p(-u) / math.pi)
    else:
        raise InvalidModelError("unknown spacing ensemble %r (use 'poisson' or 'wigner')" % (kind,))
    eps = np.concatenate([[0.0], np.cumsum(s)])
    eps -= eps.mean()
    return EffectiveModel(eps, np.ones(n), SpacingEnsemble(n, kind, int(seed)))
