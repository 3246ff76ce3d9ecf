"""Exception types raised by the library.

Every error carries enough context to reproduce the failing call; solver
failures additionally carry numerical diagnostics.
"""


class EpAtlasError(Exception):
    """Base class for all library errors."""


class InvalidModelError(EpAtlasError, ValueError):
    """Model parameters violate a documented precondition."""


class DivergentModelError(InvalidModelError):
    """Power-law family with t <= r + 1; the continuum coupling integral diverges."""


class InvalidCouplingError(EpAtlasError, ValueError):
    """Coupling parameter out of its admissible range."""


class PoleProximityError(EpAtlasError):
    """Secular function evaluated too close to an unperturbed level."""


class SolverFailureError(EpAtlasError):
    """Root search did not converge; carries diagnostics.

    Attributes
    ----------
    diagnostics : dict
        n (the number of coupled levels iterated), lambda, iterations
        (the iteration budget spent, maxiter) and max_relative_step (the
        largest last relative step of an iterate that did not converge).
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class IllConditionedNormalizationError(EpAtlasError):
    """Bilinear norm vanishes; eigenvector normalization undefined (coalescence)."""

    def __init__(self, message, state_indices=()):
        super().__init__(message)
        self.state_indices = tuple(state_indices)


class OracleRangeError(EpAtlasError, ValueError):
    """Cross-check oracle asked to run outside its validated size range."""


class IncompleteSearchError(EpAtlasError):
    """Degenerate-point search found fewer classes than the count law requires.

    Attributes
    ----------
    found : list
        The representatives of the pairs the attempt formed.
    """

    def __init__(self, message, found=()):
        super().__init__(message)
        self.found = list(found)


class TrajectoryAmbiguityError(EpAtlasError):
    """Path matching stayed ambiguous after maximal grid refinement.

    Attributes
    ----------
    interval : tuple
        The (lambda_left, lambda_right) interval that could not be resolved.
    """

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class ContourError(EpAtlasError, ValueError):
    """Loop contour badly placed: hits a degeneracy or encloses a second one."""


class ResolutionError(EpAtlasError):
    """Contour sampling too coarse to keep the eigenvector gauge continuous."""


class BranchPointError(EpAtlasError, ValueError):
    """Closed-form expression evaluated exactly at its logarithmic branch point."""


class ThetaSingularError(EpAtlasError):
    """Mixing angle undefined: its defining denominator vanished."""


class ConfigError(EpAtlasError, ValueError):
    """Run configuration file or flag set is invalid."""
