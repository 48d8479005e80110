"""Exact complex scalars built from Gaussian rationals and the constant 2*pi*i.

An exact scalar is a rational function N(s)/D(s) with Gaussian-rational
coefficients, where the indeterminate s stands for the number 2*pi*i.  Since
2*pi*i is transcendental over the rationals, two such expressions denote the
same complex number exactly when they are equal as rational functions, so
equality, realness, rationality and integrality are all decidable without
floating point.  This is the engine behind the package's exact track: the
conjugacy criteria mix rational-integer tests with the marking constant
2*pi*i, and both survive any sequence of +, -, *, / and conjugation.

Representation is canonical (numerator and denominator coprime, denominator
monic), so structural equality coincides with value equality.  Conversion to
a Python complex substitutes s = 2*pi*i in double precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import DomainError

RationalLike = Union[int, str, Fraction]

# Evaluation point for the indeterminate: s = 2*pi*i.
S_NUMERIC = complex(0.0, 2.0 * math.pi)

_set = object.__setattr__
_new = object.__new__


class GaussianRational:
    """A Gaussian rational (a + b*i)/d stored as three integers.

    The triple is canonical: d > 0 and gcd(a, b, d) == 1, so two values are
    equal exactly when their triples are, and the hash is that of the
    triple.  Each arithmetic operation works on the integers directly and
    restores the canonical form with a single ``math.gcd``.  ``re`` and
    ``im`` give the components as Fractions; instances are immutable.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        d = p * q // math.gcd(p, q)
        # d is the lcm of the reduced denominators, so gcd(a, b, d) == 1
        _set(self, "a", re.numerator * (d // p))
        _set(self, "b", im.numerator * (d // q))
        _set(self, "d", d)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_one(self) -> bool:
        return self.a == self.d and not self.b

    def conjugate(self) -> "GaussianRational":
        return _gr(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """|a + bi|^2 as an exact rational."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __neg__(self) -> "GaussianRational":
        return _gr(-self.a, -self.b, self.d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        a, b, c, e, f = self.a, self.b, other.a, other.b, other.d
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __complex__(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _gr(a: int, b: int, d: int) -> GaussianRational:
    """The Gaussian rational (a + b*i)/d from a triple already canonical."""
    out = _new(GaussianRational)
    _set(out, "a", a)
    _set(out, "b", b)
    _set(out, "d", d)
    return out


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The Gaussian rational (a + b*i)/d for any d > 0, in canonical form."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _gr(a, b, d)


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)

# ---- dense polynomials over the Gaussian rationals ----
#
# A polynomial in s is a tuple of GaussianRational coefficients, lowest degree
# first, with no trailing zero.  The empty tuple is the zero polynomial.

Poly = tuple

P_ZERO: Poly = ()
P_ONE: Poly = (GR_ONE,)


def p_trim(cs) -> Poly:
    cs = tuple(cs)
    n = len(cs)
    while n and cs[n - 1].is_zero():
        n -= 1
    return cs if n == len(cs) else cs[:n]


def p_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return p_trim(out)


def p_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def p_sub(a: Poly, b: Poly) -> Poly:
    return p_add(a, p_neg(b))


def p_scale(k: GaussianRational, a: Poly) -> Poly:
    if k.is_zero():
        return P_ZERO
    return p_trim(k * c for c in a)


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return P_ZERO
    out = [GR_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_zero():
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return p_trim(out)


def p_divmod(a: Poly, b: Poly) -> tuple:
    """Quotient and remainder of a by b over the Gaussian-rational field."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    if len(rem) - 1 < db:
        return P_ZERO, p_trim(rem)
    quot = [GR_ZERO] * (len(rem) - db)
    for i in range(len(rem) - db - 1, -1, -1):
        c = rem[i + db] / lead
        if c.is_zero():
            continue
        quot[i] = c
        for j, bc in enumerate(b):
            rem[i + j] = rem[i + j] - c * bc
    return p_trim(quot), p_trim(rem[:db])


def p_gcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, p_divmod(a, b)[1]
    if not a:
        return P_ZERO
    return p_scale(GR_ONE / a[-1], a)  # monic


def p_conj(a: Poly) -> Poly:
    """Coefficient-wise conjugate combined with s -> -s.

    The evaluation point satisfies conj(s) = -s, so this returns the
    polynomial whose value at s is the complex conjugate of a's value.
    """
    return p_trim(
        c.conjugate() if i % 2 == 0 else -c.conjugate() for i, c in enumerate(a)
    )


def p_eval(a: Poly, z: complex) -> complex:
    out = 0j
    for c in reversed(a):
        out = out * z + complex(c)
    return out


class FieldElement:
    """An element of Q(i)(s) in canonical reduced form, s denoting 2*pi*i.

    ``num`` and ``den`` are coefficient tuples, lowest degree first.  They may
    carry trailing zero coefficients; these are trimmed before reduction, so
    ``FieldElement((g, 0))`` and ``FieldElement((g,))`` are the same element.
    A denominator that is zero after trimming raises ``DomainError``.

    The constructor cancels the polynomial gcd of numerator and denominator
    and makes the denominator monic.  When either side is a nonzero
    constant, the gcd is 1 and is not computed: only the monic scaling runs.
    A constant element therefore always has denominator ``P_ONE``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = P_ONE):
        num, den = p_trim(num), p_trim(den)
        if not den:
            raise DomainError("field element with zero denominator")
        if not num:
            den = P_ONE
        else:
            # a nonzero constant is coprime to every polynomial
            if len(num) > 1 and len(den) > 1:
                g = p_gcd(num, den)
                if len(g) > 1:
                    num = p_divmod(num, g)[0]
                    den = p_divmod(den, g)[0]
            lead = den[-1]
            if not lead.is_one():
                inv = GR_ONE / lead
                num = p_scale(inv, num)
                den = p_scale(inv, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FieldElement is immutable")

    # -- constructors --

    @staticmethod
    def from_rational(re: RationalLike, im: RationalLike = 0) -> "FieldElement":
        g = GaussianRational(re, im)
        return FieldElement((g,) if not g.is_zero() else P_ZERO)

    @staticmethod
    def from_gaussian(g: GaussianRational) -> "FieldElement":
        return FieldElement((g,) if not g.is_zero() else P_ZERO)

    @staticmethod
    def two_pi_i() -> "FieldElement":
        return FieldElement((GR_ZERO, GR_ONE))

    # -- predicates --

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def constant_value(self) -> "GaussianRational | None":
        """The value as a Gaussian rational, or None if s does not cancel."""
        if not self.is_constant():
            return None
        if not self.num:
            return GR_ZERO
        return self.num[0]  # the monic constant denominator is 1

    def is_rational_integer(self) -> bool:
        c = self.constant_value()
        return c is not None and not c.b and c.d == 1

    def is_real(self) -> bool:
        return self == self.conjugate()

    # -- arithmetic --

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(
            p_add(p_mul(self.num, other.den), p_mul(other.num, self.den)),
            p_mul(self.den, other.den),
        )

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(
            p_sub(p_mul(self.num, other.den), p_mul(other.num, self.den)),
            p_mul(self.den, other.den),
        )

    def __neg__(self) -> "FieldElement":
        return FieldElement(p_neg(self.num), self.den)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(p_mul(self.num, other.num), p_mul(self.den, other.den))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        if other.is_zero():
            raise DomainError("division by exact zero")
        return FieldElement(p_mul(self.num, other.den), p_mul(self.den, other.num))

    def conjugate(self) -> "FieldElement":
        return FieldElement(p_conj(self.num), p_conj(self.den))

    def real(self) -> "FieldElement":
        return (self + self.conjugate()) * _HALF

    def imag(self) -> "FieldElement":
        return (self - self.conjugate()) * _HALF_OVER_I

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __complex__(self) -> complex:
        val = p_eval(self.num, S_NUMERIC) / p_eval(self.den, S_NUMERIC)
        return val

    def __repr__(self) -> str:
        return f"FieldElement({complex(self):.6g} ~ {self.num!r}/{self.den!r})"


_HALF = FieldElement.from_rational(Fraction(1, 2))
_HALF_OVER_I = FieldElement.from_rational(0, Fraction(-1, 2))  # 1/(2i)
