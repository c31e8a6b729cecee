"""Exact scalar fields: arbitrary-precision rationals and small prime fields.

Every coefficient in the package is either an ``int`` or
``fractions.Fraction``, or a ``PrimeFieldElement``; all support ``+ - *`` and
truthiness (zero is falsy), so downstream code never branches on the field
except through the field objects defined here.

Rationals are integer-first: almost every coefficient is a small integer, and
Python's ``int``/``Fraction`` mixing keeps every result exact, so a
``Fraction`` appears only once a real denominator does.  ``str(1)`` and
``str(Fraction(1))`` agree, so serial keys do not depend on which one a
coefficient happens to be.
"""

from __future__ import annotations

from fractions import Fraction


class PrimeFieldElement:
    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def __add__(self, other):
        return PrimeFieldElement(self.val + other.val, self.p)

    def __sub__(self, other):
        return PrimeFieldElement(self.val - other.val, self.p)

    def __neg__(self):
        return PrimeFieldElement(-self.val, self.p)

    def __mul__(self, other):
        return PrimeFieldElement(self.val * other.val, self.p)

    def __truediv__(self, other):
        if other.val == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return PrimeFieldElement(self.val * pow(other.val, -1, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return str(self.val)


class RationalField:
    """The field of exact rationals (characteristic zero)."""

    char = 0
    tag = "rational"

    zero = 0
    one = 1

    def of(self, n) -> int | Fraction:
        if type(n) is int:
            return n
        q = Fraction(n)
        return q.numerator if q.denominator == 1 else q

    def inv(self, x: int | Fraction) -> int | Fraction:
        # never 1 / int: that is a float
        if x == 1 or x == -1:
            return int(x)
        return Fraction(1) / x

    def elements(self):
        raise ValueError("rational field is infinite")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a small prime p."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError("p must be prime, got %r" % (p,))
        self.p = p
        self.char = p
        self.tag = "gf%d" % p
        self.zero = PrimeFieldElement(0, p)
        self.one = PrimeFieldElement(1, p)

    def of(self, n) -> PrimeFieldElement:
        if isinstance(n, PrimeFieldElement):
            return n
        if isinstance(n, Fraction):
            return PrimeFieldElement(n.numerator, self.p) / PrimeFieldElement(n.denominator, self.p)
        return PrimeFieldElement(int(n), self.p)

    def inv(self, x: PrimeFieldElement) -> PrimeFieldElement:
        return self.one / x

    def elements(self):
        return [PrimeFieldElement(i, self.p) for i in range(self.p)]

    def __repr__(self):
        return "GF(%d)" % self.p


_CACHE: dict[str, object] = {}


def field_from_tag(tag: str):
    """Map a scalar-field tag (``rational``, ``gf2``, ``gf3``, ...) to a field object."""
    if tag not in _CACHE:
        if tag == "rational":
            _CACHE[tag] = RationalField()
        elif tag.startswith("gf"):
            _CACHE[tag] = PrimeField(int(tag[2:]))
        else:
            raise ValueError("unknown field tag %r" % tag)
    return _CACHE[tag]
