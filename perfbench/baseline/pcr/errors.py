"""Exception types shared across the package."""


class RegistrationError(Exception):
    """Base class for every error this package raises deliberately."""


class ParseError(RegistrationError):
    """Malformed or inconsistent input file.

    Carries the path plus a 1-based line number (text formats) or a byte
    offset (binary bodies) when the location is known.
    """

    def __init__(self, message, path=None, line=None, offset=None):
        loc = str(path) if path is not None else ""
        if line is not None:
            loc += f":{line}"
        if offset is not None:
            loc += f" (byte {offset})"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line
        self.offset = offset


class DegenerateGeometryError(RegistrationError):
    """Input configuration leaves the problem rank deficient or unobservable."""


class InsufficientMatchesError(RegistrationError):
    """Fewer correspondences than the minimal sample requires."""


class NoConsensusError(RegistrationError):
    """RANSAC finished without a model supported by enough inliers."""


class AmbiguousDecompositionError(RegistrationError):
    """Candidate poses cannot be told apart (tied cheirality or tied score)."""


class GimbalLockError(RegistrationError):
    """Euler parameterization evaluated too close to pitch = +/-90 degrees."""


class TooFewPairsError(RegistrationError):
    """Distance trimming left fewer correspondence pairs than the solver needs."""


class StageError(RegistrationError):
    """Pipeline stage failure; carries the stage name and its exit code."""

    def __init__(self, stage, exit_code, cause):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.exit_code = exit_code
        self.cause = cause
