"""Exception hierarchy shared by all optikit modules."""


class OptikitError(Exception):
    """Base class for every error raised by optikit."""


class DomainError(OptikitError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SingularTransform(OptikitError):
    """Moebius denominator C*q + D vanished."""


class InvalidSystem(OptikitError):
    """An optical system contains at least one invalid element."""


class InvalidResonator(OptikitError):
    """A resonator violates its validity constraints."""


class NonUnimodular(OptikitError):
    """Round-trip matrix determinant is not 1; the half-trace criterion does not apply."""


class UnphysicalBeam(OptikitError):
    """Gaussian beam with non-positive imaginary part of q (spot size would not be real)."""


class OffPlanePoint(OptikitError):
    """A boundary-condition sample point does not lie on the interface plane."""


class TotalInternalReflection(OptikitError):
    """No real transmitted angle: n1*sin(theta_i) exceeds n2."""


class DimensionMismatch(OptikitError):
    """Operands live in spaces of different dimension."""
