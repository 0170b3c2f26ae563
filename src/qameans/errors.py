"""Exception hierarchy shared by all qameans modules."""


class QameansError(Exception):
    """Base class for all library errors."""


class UsageError(QameansError):
    """A call violated an operation's contract (bad arguments, mismatched domains)."""


class DomainError(QameansError):
    """An argument lies outside the working interval of a generator or mean."""


class RangeError(QameansError):
    """A target value lies outside the range of the function being inverted."""


class NotMonotone(QameansError):
    """A generator's first derivative changes sign or vanishes on the grid."""


class SignChange(QameansError):
    """Raised only by an envelope, when the sign of f'' (of rho) rules the
    envelope out but no grid pair of the values confirms that: the
    curvature data contradicts the values.  witness names a grid point x
    and rho there: for a closed form, an end of the interval."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NonpositiveM(QameansError):
    """A profile handed to the generator reconstruction is zero or changes sign."""


class CandidateRejected(QameansError):
    """A randomly sampled candidate profile failed to dominate the target profile
    even after re-sampling."""
