"""Exception taxonomy. Every domain failure raises a subclass of HsderivError."""


class HsderivError(Exception):
    """Base class for all library errors."""


class ContextMismatch(HsderivError):
    """Operands live over different field contexts or rings."""


class DivisionByZero(HsderivError):
    """Zero denominator or inversion of the zero field element."""


class ParseError(HsderivError, ValueError):
    """Text out of the canonical syntax: a stray token, an unclosed bracket, a bad exponent."""


class UnknownVariable(HsderivError):
    """A substitution or parse referenced a variable the ring does not have."""


class NonNilpotentImage(HsderivError):
    """A substitution image has a nonzero constant term where a nilpotent is required."""


class NotAUnit(HsderivError):
    """invert_unit was called on an element with non-invertible constant term."""


class FractionalExponent(HsderivError):
    """evp_point met a p-series exponent not divisible by p."""


class TruncationOrder(HsderivError):
    """Requested truncation order is not below the current one, or out of range."""


class LawAxiomFailure(HsderivError):
    """A formal group law failed its construction-time axiom checks."""


class IndexRange(HsderivError):
    """A derivation component index lies outside [0, p^m)^e."""


class RequiresCommutative(HsderivError):
    """The operation is only defined for commutative formal group laws."""


class NotInvertible(HsderivError):
    """The substitution map is not an automorphism (linear part singular)."""


class ReconstructionMismatch(HsderivError):
    """Recombining p-power components contradicted the given family."""


class NoSolution(HsderivError):
    """A linear preimage problem has no solution in the requested subspace."""


class HypothesisFailure(HsderivError):
    """A runtime structural hypothesis (kernel/image/dimension) does not hold."""


class CorrectionUnsolvable(HsderivError):
    """A basis-finding correction step has no solution; input outside the envelope."""


class FactorUnsupported(HsderivError):
    """Product basis assembly met a factor law with no known finder."""


class AssemblyMismatch(HsderivError):
    """Assembled product basis failed verification."""


class TooManyElements(HsderivError):
    """p-independence test got more elements than the derivation has directions."""


class MalformedConfig(HsderivError):
    """A job config file violates the config schema."""


class ResourceGuard(HsderivError):
    """A job config exceeds the guard bounds (m out of range, p^(e*m) too
    large, or a prime p past the int64 kernels)."""
