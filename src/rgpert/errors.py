"""Exception hierarchy shared across the package."""


class RgpertError(Exception):
    """Base class for all engine errors."""


class CapMismatch(RgpertError):
    """Arithmetic on truncated series with different truncation orders."""


class ParseError(RgpertError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotInClass(RgpertError):
    """Potential falls outside the admissible class (e.g. bare t-dependence)."""


class TrivialLinear(RgpertError):
    """Potential is of the removable linear/driving-only form."""


class BudgetExceeded(RgpertError):
    """An input would cost more than a fixed budget allows."""


class DegenerateRoot(RgpertError):
    """Leading-order root is absent or not simple."""


class NonRationalRoot(RgpertError):
    """A required root is not certifiably rational."""


class NotPolarizable(RgpertError):
    """Polar form would need negative powers of the radius."""


class ThetaDependent(RgpertError):
    """Radial equation mixes the phase; no phase-free limit cycle."""


class NotLinear(RgpertError):
    """Amplitude equation is not linear where linearity is required."""


class NotScalar(RgpertError):
    """Squared amplitude matrix is not scalar."""


class Underdetermined(RgpertError):
    """An equation has no unknown left to solve for, or variables besides
    its unknown."""


class RootNotBracketed(RgpertError):
    """Numeric root search found no sign change in the bracket."""


class SeriesOverflow(RgpertError):
    """A truncated series or a Hill determinant overflows a float where it
    is evaluated."""


class ComplexPotential(RgpertError):
    """Numerically bound potential is not real on real states."""


class NotReal(RgpertError):
    """Reconstructed signal has a non-negligible imaginary residue."""


class GridMismatch(RgpertError):
    """Trajectories to compare were sampled on different grids."""


class Diverged(RgpertError):
    """A trajectory left the divergence box and was truncated."""
