"""Dual-track complex arithmetic and rank-2 lattice primitives.

Every scalar is a :class:`ComplexValue` on one of two tracks:

* exact: a Gaussian-rational rational function of the constant 2*pi*i
  (see :mod:`affinelab.exactfield`); closed under +, -, *, / and
  conjugation, with decidable equality/realness/integrality;
* approximate: a pair of finite doubles.

Exact values survive any field operation; they drop to the approximate
track as soon as a transcendental operation (``principal_log``) or an
approximate operand enters.  Tolerance-based predicates use absolute
comparisons with a single eps; on the exact track they ignore eps and
decide exactly.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from . import exactfield as xf
from .errors import DomainError, InvariantError, ParseError

__all__ = [
    "ComplexValue",
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "Lattice",
    "as_complex_value",
    "parse_complex",
    "principal_log",
    "is_near_integer",
    "reduce_basis",
    "covolume",
    "lattice_member",
    "enumerate_norm_shell",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute comparison tolerance used by every approximate predicate."""

    eps: float = 1e-9

    def __post_init__(self):
        if not (isinstance(self.eps, float) and math.isfinite(self.eps) and self.eps > 0):
            raise InvariantError(f"tolerance must be a positive finite float, got {self.eps!r}")


DEFAULT_TOLERANCE = Tolerance()


def _tol(tol) -> Tolerance:
    if tol is None:
        return DEFAULT_TOLERANCE
    if isinstance(tol, Tolerance):
        return tol
    return Tolerance(float(tol))


def round_half_even(x: float) -> int:
    """Nearest integer with banker's rounding on ties."""
    return int(round(x))


class ComplexValue:
    """A complex scalar carrying its exactness.

    ``ComplexValue(re, im)`` with int/Fraction/str components builds an exact
    value; float components build an approximate one.  Mixing the two kinds
    of component in a single constructor call is rejected: use arithmetic to
    combine values across tracks (the result is approximate).
    """

    __slots__ = ("field", "_z")

    def __init__(self, re=0, im=0):
        # a bare int 0 adapts to the other component's track, so that
        # ComplexValue(1.5) is the approximate value 1.5 rather than an error
        if isinstance(re, float) and type(im) is int and im == 0:
            im = 0.0
        elif isinstance(im, float) and type(re) is int and re == 0:
            re = 0.0
        exact_re = not isinstance(re, float)
        exact_im = not isinstance(im, float)
        if exact_re != exact_im:
            raise InvariantError("components must be both exact or both floats")
        if exact_re:
            field = xf.FieldElement.from_rational(Fraction(re), Fraction(im))
            object.__setattr__(self, "field", field)
            object.__setattr__(self, "_z", complex(field))
        else:
            self._init_approx(float(re), float(im))

    def _init_approx(self, re: float, im: float):
        if not (math.isfinite(re) and math.isfinite(im)):
            raise InvariantError(f"approximate value must be finite, got {re!r}, {im!r}")
        if re == 0.0:
            re = 0.0  # normalise -0.0
        if im == 0.0:
            im = 0.0
        object.__setattr__(self, "field", None)
        object.__setattr__(self, "_z", complex(re, im))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ComplexValue is immutable")

    # -- constructors --

    @classmethod
    def approx(cls, re: float, im: float = 0.0) -> "ComplexValue":
        out = object.__new__(cls)
        out._init_approx(float(re), float(im))
        return out

    @classmethod
    def from_field(cls, field: xf.FieldElement) -> "ComplexValue":
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "_z", complex(field))
        return out

    @classmethod
    def two_pi_i(cls) -> "ComplexValue":
        return cls.from_field(xf.FieldElement.two_pi_i())

    # -- views --

    @property
    def is_exact(self) -> bool:
        return self.field is not None

    @property
    def re(self) -> float:
        return self._z.real

    @property
    def im(self) -> float:
        return self._z.imag

    def __complex__(self) -> complex:
        return self._z

    def is_zero(self) -> bool:
        """Exact zero test on the exact track, float zero otherwise."""
        if self.field is not None:
            return self.field.is_zero()
        return self._z == 0

    def conjugate(self) -> "ComplexValue":
        if self.field is not None:
            return ComplexValue.from_field(self.field.conjugate())
        return ComplexValue.approx(self._z.real, -self._z.imag)

    def real_part(self) -> "ComplexValue":
        if self.field is not None:
            return ComplexValue.from_field(self.field.real())
        return ComplexValue.approx(self._z.real)

    def imag_part(self) -> "ComplexValue":
        if self.field is not None:
            return ComplexValue.from_field(self.field.imag())
        return ComplexValue.approx(self._z.imag)

    def as_rational_pair(self) -> "tuple[Fraction, Fraction] | None":
        """(re, im) as Fractions if the value is an exact Gaussian rational."""
        if self.field is None:
            return None
        c = self.field.constant_value()
        if c is None:
            return None
        return (c.re, c.im)

    def as_real_fraction(self) -> "Fraction | None":
        pair = self.as_rational_pair()
        if pair is None or pair[1]:
            return None
        return pair[0]

    # -- arithmetic --

    def _binary(self, other, field_op, float_op) -> "ComplexValue":
        other = as_complex_value(other)
        if self.field is not None and other.field is not None:
            return ComplexValue.from_field(field_op(self.field, other.field))
        z = float_op(self._z, other._z)
        return ComplexValue.approx(z.real, z.imag)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b, lambda a, b: a - b)

    def __rsub__(self, other):
        return as_complex_value(other) - self

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_complex_value(other)
        if other.is_zero():
            raise DomainError("division by zero")
        return self._binary(other, lambda a, b: a / b, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return as_complex_value(other) / self

    def __neg__(self):
        if self.field is not None:
            return ComplexValue.from_field(-self.field)
        return ComplexValue.approx(-self._z.real, -self._z.imag)

    def __abs__(self) -> float:
        return abs(self._z)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ComplexValue, int, Fraction, float, complex)):
            return NotImplemented
        other = as_complex_value(other)
        if (self.field is None) != (other.field is None):
            return False
        if self.field is not None:
            return self.field == other.field
        return self._z == other._z

    def __hash__(self):
        if self.field is not None:
            return hash(self.field)
        return hash(self._z)

    def __repr__(self) -> str:
        tag = "exact" if self.is_exact else "approx"
        return f"ComplexValue({self._z!r}, {tag})"


def as_complex_value(x) -> ComplexValue:
    """Coerce a number to a ComplexValue; floats land on the approximate track."""
    if isinstance(x, ComplexValue):
        return x
    if isinstance(x, bool):
        raise InvariantError("booleans are not scalars")
    if isinstance(x, (int, Fraction)):
        return ComplexValue(x)
    if isinstance(x, float):
        return ComplexValue.approx(x)
    if isinstance(x, complex):
        return ComplexValue.approx(x.real, x.imag)
    raise InvariantError(f"cannot interpret {x!r} as a complex scalar")


# ---- scalar operations ----


def principal_log(w: ComplexValue | complex) -> ComplexValue:
    """Principal branch of log with the argument in (-pi, pi].

    Always returns an approximate value: logarithms leave the exact track.
    """
    w = as_complex_value(w)
    if w.is_zero():
        raise DomainError("principal_log is undefined at zero")
    z = cmath.log(complex(w))
    return ComplexValue.approx(z.real, z.imag)


def is_near_integer(x: ComplexValue | complex, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Whether x is a rational integer.

    Exact inputs are decided exactly, ignoring the tolerance.  Approximate
    inputs pass when |Im x| <= eps and the real part is within eps of the
    nearest integer (ties rounded half-even).
    """
    x = as_complex_value(x)
    tol = _tol(tol)
    if x.is_exact:
        return x.field.is_rational_integer()
    if abs(x.im) > tol.eps:
        return False
    return abs(x.re - round_half_even(x.re)) <= tol.eps


# ---- lattices ----


class Lattice:
    """A rank-2 lattice mu*Z + nu*Z with an R-independent basis."""

    __slots__ = ("mu", "nu", "_reduced", "_solver")

    def __init__(self, mu, nu, tol: Tolerance = DEFAULT_TOLERANCE):
        mu = as_complex_value(mu)
        nu = as_complex_value(nu)
        tol = _tol(tol)
        pairing = (mu.conjugate() * nu).imag_part()
        if pairing.is_exact:
            degenerate = pairing.is_zero()
        else:
            degenerate = abs(pairing.re) <= tol.eps
        if degenerate:
            raise InvariantError("lattice basis is not R-independent")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "_reduced", None)
        object.__setattr__(self, "_solver", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Lattice is immutable")

    @property
    def is_exact(self) -> bool:
        return self.mu.is_exact and self.nu.is_exact

    def generators(self) -> "tuple[ComplexValue, ComplexValue]":
        return (self.mu, self.nu)

    def reduced(self) -> "Lattice":
        cached = self._reduced
        if cached is None:
            cached = reduce_basis(self)
            object.__setattr__(self, "_reduced", cached)
        return cached

    def coordinate_solver(self):
        """Inverse of the real 2x2 matrix (Re/Im of mu, nu), as floats."""
        cached = self._solver
        if cached is None:
            a, c = self.mu.re, self.mu.im
            b, d = self.nu.re, self.nu.im
            det = a * d - b * c
            cached = (d / det, -b / det, -c / det, a / det)
            object.__setattr__(self, "_solver", cached)
        return cached

    def coordinates_of(self, z: complex) -> "tuple[float, float]":
        i00, i01, i10, i11 = self.coordinate_solver()
        return (i00 * z.real + i01 * z.imag, i10 * z.real + i11 * z.imag)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.mu == other.mu and self.nu == other.nu

    def __hash__(self):
        return hash((self.mu, self.nu))

    def __repr__(self) -> str:
        return f"Lattice({self.mu!r}, {self.nu!r})"


_MAX_REDUCTION_STEPS = 512


def reduce_basis(lat: Lattice) -> Lattice:
    """Gauss-reduced basis of the same lattice.

    Postconditions: |mu'| <= |nu'| and |Re(conj(mu') * nu')| <= |mu'|^2 / 2.
    The coefficient updates are integral, so exact bases stay exact and the
    covolume is preserved.
    """
    mu, nu = lat.mu, lat.nu
    for _ in range(_MAX_REDUCTION_STEPS):
        if abs(nu) < abs(mu):
            mu, nu = nu, mu
        m = round_half_even((nu / mu).re)
        if m == 0:
            break
        nu = nu - mu * m
    else:  # pragma: no cover - defensive
        raise InvariantError("basis reduction did not converge")
    return Lattice(mu, nu)


def covolume(lat: Lattice) -> float:
    """Area of a fundamental cell: |Im(conj(mu) * nu)|."""
    return abs((lat.mu.conjugate() * lat.nu).im)


def lattice_member(
    z, lat: Lattice, tol: Tolerance = DEFAULT_TOLERANCE
) -> "tuple[int, int] | None":
    """Integer coordinates (a, b) with z = a*mu + b*nu, or None.

    Solves the real 2x2 system, rounds, and verifies the residual within eps.
    When z and the basis are exact, the coordinates are computed in the exact
    field and membership is decided exactly.
    """
    z = as_complex_value(z)
    tol = _tol(tol)
    mu, nu = lat.mu, lat.nu
    if z.is_exact and lat.is_exact:
        a_val = (nu.conjugate() * z).imag_part().field / (nu.conjugate() * mu).imag_part().field
        b_val = (mu.conjugate() * z).imag_part().field / (mu.conjugate() * nu).imag_part().field
        if not (a_val.is_rational_integer() and b_val.is_rational_integer()):
            return None
        a = int(a_val.constant_value().re)
        b = int(b_val.constant_value().re)
        return (a, b)
    x, y = lat.coordinates_of(complex(z))
    a = round_half_even(x)
    b = round_half_even(y)
    residual = complex(z) - (a * complex(mu) + b * complex(nu))
    if abs(residual) <= tol.eps:
        return (a, b)
    return None


def enumerate_norm_shell(
    lat: Lattice, r: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> "list[ComplexValue]":
    """All lattice points lam with ||lam| - r| <= eps * max(1, r).

    Complete by construction: coefficients are bounded through the smallest
    eigenvalue of the Gram matrix of a reduced basis, and every candidate in
    that box is tested.  Points are returned sorted by (Re, Im).
    """
    tol = _tol(tol)
    r = float(r)
    if not (math.isfinite(r) and r > 0):
        raise DomainError(f"shell radius must be positive and finite, got {r!r}")
    red = lat.reduced()
    m1, m2 = complex(red.mu), complex(red.nu)
    g11 = abs(m1) ** 2
    g22 = abs(m2) ** 2
    g12 = (m1.conjugate() * m2).real
    trace = g11 + g22
    gap = math.sqrt((g11 - g22) ** 2 + 4.0 * g12 * g12)
    lam_min = (trace - gap) / 2.0
    if lam_min <= 0:  # pragma: no cover - excluded by the lattice invariant
        raise InvariantError("degenerate Gram matrix")
    delta = tol.eps * max(1.0, r)
    reach = r + delta
    bound = int(math.floor(reach / math.sqrt(lam_min))) + 1
    hits = []
    for a in range(-bound, bound + 1):
        base = a * m1
        for b in range(-bound, bound + 1):
            w = base + b * m2
            if abs(abs(w) - r) <= delta:
                hits.append((w.real, w.imag, a, b))
    hits.sort()
    return [red.mu * a + red.nu * b for (_, _, a, b) in hits]


# ---- complex literal grammar ----
#
# Literals:  R | Ri | R+Ri | R-Ri  with R a decimal or p/q rational, plus
# pi-multiples `pi`, `2pi`, `4pi*i`, ... for exact transcendental input;
# +, -, *, /, parentheses and the bare imaginary unit i combine
# subexpressions.  Decimal-point literals (including decimal coefficients on
# pi) produce approximate values; integers, rationals, i and integer or
# rational pi-multiples are exact.

_TOKEN_RE = re.compile(
    r"""(?P<pinum>(?:\d+/\d+|\d+\.\d+|\d+)?pi)
      | (?P<rat>\d+/\d+)
      | (?P<dec>\d+\.\d+)
      | (?P<int>\d+)
      | (?P<imag>i)
      | (?P<op>[+\-*/()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> "list[tuple[str, str]]":
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} in {text!r}")
        tokens.append((m.lastgroup, m.group()))
        pos = m.end()
    return tokens


# Parentheses and unary signs each recurse once; past this depth a literal
# is rejected before it can exhaust the interpreter's stack.
_MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> "str | None":
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def peek_text(self) -> "str | None":
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> ComplexValue:
        value = self.term()
        while self.peek() == "op" and self.peek_text() in "+-":
            op = self.take()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> ComplexValue:
        value = self.factor()
        while self.peek() == "op" and self.peek_text() in "*/":
            op = self.take()[1]
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero in literal")
                value = value / rhs
        return value

    def factor(self) -> ComplexValue:
        if self.depth == _MAX_NESTING:
            raise ParseError(f"literal nested deeper than {_MAX_NESTING} levels")
        self.depth += 1
        if self.peek() == "op" and self.peek_text() == "-":
            self.take()
            value = -self.factor()
        elif self.peek() == "op" and self.peek_text() == "+":
            self.take()
            value = self.factor()
        else:
            value = self.atom()
        self.depth -= 1
        return value

    def atom(self) -> ComplexValue:
        kind = self.peek()
        if kind is None:
            raise ParseError("unexpected end of literal")
        if kind == "op" and self.peek_text() == "(":
            self.take()
            value = self.expr()
            if not (self.peek() == "op" and self.peek_text() == ")"):
                raise ParseError("unbalanced parenthesis in literal")
            self.take()
            return value
        kind, text = self.take()
        if kind == "pinum":
            return _pi_multiple(text[:-2])
        if kind == "imag":
            return ComplexValue(0, 1)
        if kind == "rat":
            p, q = text.split("/")
            if int(q) == 0:
                raise ParseError("division by zero in literal")
            value = ComplexValue(Fraction(int(p), int(q)))
        elif kind == "int":
            value = ComplexValue(int(text))
        elif kind == "dec":
            value = ComplexValue.approx(float(text))
        else:
            raise ParseError(f"unexpected token {text!r}")
        # tight Ri form: a numeric literal directly followed by i
        if self.peek() == "imag":
            self.take()
            value = value * ComplexValue(0, 1)
        return value


# pi lives in the exact field: with s = 2*pi*i, pi = s / 2i
_PI = ComplexValue.two_pi_i() / ComplexValue(0, 2)


def _pi_multiple(coef: str) -> ComplexValue:
    if not coef:
        return _PI
    if "/" in coef:
        p, q = coef.split("/")
        if int(q) == 0:
            raise ParseError("division by zero in literal")
        return _PI * ComplexValue(Fraction(int(p), int(q)))
    if "." in coef:
        return _PI * ComplexValue.approx(float(coef))
    return _PI * ComplexValue(int(coef))


def parse_complex(text: str) -> ComplexValue:
    """Parse a complex literal such as ``1-2/3i`` or ``2pi*i/(2pi*i-1)``."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty complex literal")
    parser = _Parser(tokens)
    try:
        value = parser.expr()
    except DomainError as exc:
        raise ParseError(f"invalid literal {text!r}: {exc}") from exc
    if parser.pos != len(tokens):
        raise ParseError(f"trailing input in literal {text!r}")
    return value
