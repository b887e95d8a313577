"""Exception hierarchy for screwalg.

Every domain error derives from ScrewAlgError so callers (and the CLI) can
distinguish "the input violates a geometric precondition" from programming
errors. The class names follow the library vocabulary: a NullVector is an
element of the pure-dual submodule eps*M, which has no resultant, no norm
and no axis.
"""


class ScrewAlgError(ValueError):
    """Base class for all screwalg domain errors."""


# -- dual scalars ------------------------------------------------------------

class NotFinite(ScrewAlgError):
    """A component is infinite or NaN, as when a magnitude overflows."""


class NotInvertible(ScrewAlgError):
    """Dual number with zero real part has no inverse."""


class DomainError(ScrewAlgError):
    """Real part of the argument is outside the domain of the function."""


# -- dual linear algebra -----------------------------------------------------

class NullVector(ScrewAlgError):
    """Operation undefined on pure-dual screws (zero resultant)."""


class DegenerateBasis(ScrewAlgError):
    """Resultants are dependent (linalg._coplanar at DEFAULT_TOL); inputs are not a basis."""


class NotAntisymmetric(ScrewAlgError):
    """Matrix is not antisymmetric within tolerance."""


class NotAFrame(ScrewAlgError):
    """Matrix fails the orthogonality or positive-orientation frame check."""


class ProjectionMismatch(ScrewAlgError):
    """Frames do not project to the same real basis."""


# -- screw geometry ----------------------------------------------------------

class NotUnit(ScrewAlgError):
    """Direction vector is not unit length within tolerance."""


class NotALine(ScrewAlgError):
    """Screw is not a unit zero-pitch screw within tolerance."""


class ParallelResultants(ScrewAlgError):
    """Resultants are parallel; the common normal direction is undefined."""


# -- classical oracle --------------------------------------------------------

class NotEquiprojective(ScrewAlgError):
    """Sampled field violates the equiprojective condition beyond tolerance."""


class DegenerateSamples(ScrewAlgError):
    """Too few samples, or sample points are collinear."""


# -- theorem suite -----------------------------------------------------------

class DegenerateTriangle(ScrewAlgError):
    """Equilibrium triple with a pair of proportional resultants."""


class NonGeneric(ScrewAlgError):
    """Inputs violate the genericity assumptions of the theorem."""


class NotOnSphere(ScrewAlgError):
    """Screw modulus differs from the requested radius beyond tolerance."""


class NotAntipodal(ScrewAlgError):
    """The pair is not opposite (x != -y) within tolerance."""


class NotClassifiable(ScrewAlgError):
    """Triple fits none of the supported dependence classes."""
