"""Exception types shared across the package, and the CLI exit code of
each pipeline stage's failure."""

# Exit code 2 is left to argparse: it means a usage or flag error.
EXIT_CODES = {"io": 1, "scale": 6, "relpose": 3, "icp": 4, "covariance": 5}


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
    """Pipeline stage failure: the stage name (a key of ``EXIT_CODES``) and
    its cause; ``exit_code`` is the stage's CLI exit code."""

    def __init__(self, stage, cause):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.stage]
