"""Exception types shared across the package."""


class CnprojError(Exception):
    """Base class for all package errors."""


# -- algebra construction


class MalformedRelation(CnprojError):
    """A relation is not a composable arrow path of length >= 2."""


class InfiniteDimensional(CnprojError):
    """Path enumeration exceeded the cap without closing."""


class IncomposableElements(CnprojError):
    """Product of algebra elements with mismatched endpoints."""


class ShapeMismatch(CnprojError):
    """Matrix or module shapes do not line up."""


# -- complexes


class PositionOutOfRange(CnprojError):
    """Cell position outside the window."""


class WindowMismatch(CnprojError):
    """Operands live in windows of different sizes."""


class NotAnExtension(CnprojError):
    """Extension data violates the nonzero / zero-composite conditions."""


class SupportOverflow(CnprojError):
    """Shifted support does not fit the requested window."""


class NotAChainMap(CnprojError):
    """Component matrices do not commute with the differentials."""


# -- hom spaces


class ZeroComplex(CnprojError):
    """Operation undefined on the zero complex."""


class InvalidClass(CnprojError):
    """Extension class does not satisfy the cocycle equations."""


class DecompositionFailure(CnprojError):
    """Could not produce a splitting idempotent with exact arithmetic."""


class IncompleteUniverse(CnprojError):
    """A universe-quantified computation was asked to run on an unclosed universe."""


# -- enumeration


class CapExceeded(CnprojError):
    """An enumeration cap tripped before closure."""


class SearchSpaceTooLarge(CnprojError):
    """Brute-force search refused; the size estimate is in args[0]."""


class NotClosed(CnprojError):
    """The universe is not certified closed."""


# -- AR quiver


class CertificationFailure(CnprojError):
    """A conflation candidate failed almost-split verification."""


class NoCandidateFound(CnprojError):
    """No almost split conflation found ending at the given class."""


class NoAnchorFound(CnprojError):
    """No class extends in neither direction."""


class AmbiguousAnchor(CnprojError):
    """Non-extendable classes sit in several connected components."""


class EtaZero(CnprojError):
    """Semisimple special case; the generic construction does not apply."""


class ShapeViolation(CnprojError):
    """A morphism fails the section/retraction component shape."""


class CharacteristicUnsupported(CnprojError):
    """The computation needs a field of characteristic zero."""


# -- files / cli


class AlgebraFileError(CnprojError):
    """The algebra description file does not parse."""
