"""Exact scalar engine: Gaussian rationals and rational functions of 2*pi*i."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affinelab import exactfield as xf


def gr(a, b=0):
    return xf.GaussianRational(Fraction(a), Fraction(b))


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)

gaussians = st.builds(xf.GaussianRational, small_fractions, small_fractions)


# ---- GaussianRational against the Fraction model ----


@given(gaussians, gaussians)
def test_gaussian_add_mul_match_fraction_model(x, y):
    s = x + y
    assert (s.re, s.im) == (x.re + y.re, x.im + y.im)
    p = x * y
    assert (p.re, p.im) == (x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)


@given(gaussians, gaussians)
def test_gaussian_division_inverts_multiplication(x, y):
    if y.is_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    q = x / y
    assert q * y == x


@given(gaussians)
def test_gaussian_norm_and_conjugate(x):
    n = x.norm()
    assert n == x.re * x.re + x.im * x.im
    c = x.conjugate()
    assert (c.re, c.im) == (x.re, -x.im)
    prod = x * c
    assert (prod.re, prod.im) == (n, Fraction(0))


def test_gaussian_complex_view():
    assert complex(gr(Fraction(1, 2), Fraction(-3, 4))) == complex(0.5, -0.75)


# ---- polynomial helpers ----


def poly(*coeffs):
    return xf.p_trim(tuple(gr(c) for c in coeffs))


def test_p_divmod_reconstructs():
    a = poly(1, 0, 2, 5)  # 1 + 2 s^2 + 5 s^3
    b = poly(-1, 1)  # s - 1
    q, r = xf.p_divmod(a, b)
    assert xf.p_add(xf.p_mul(q, b), r) == a
    assert len(r) < len(b)


polys = st.lists(gaussians, min_size=0, max_size=4).map(
    lambda cs: xf.p_trim(tuple(cs))
)


@given(polys, polys)
@settings(max_examples=60)
def test_p_divmod_identity_property(a, b):
    if not b:
        return
    q, r = xf.p_divmod(a, b)
    assert xf.p_add(xf.p_mul(q, b), r) == a
    assert len(r) < len(b)


def test_p_gcd_recovers_common_factor():
    common = poly(1, 1)  # s + 1
    a = xf.p_mul(common, poly(2, 0, 1))
    b = xf.p_mul(common, poly(-3, 1))
    g = xf.p_gcd(a, b)
    # monic normalisation: gcd is exactly s + 1
    assert g == common


def test_p_conj_flips_the_variable():
    # conj of s^2 + i*s + 1 is s^2 - (-i)*s + 1 = s^2 + i s + 1? work it out:
    # coefficients c_k -> conj(c_k) * (-1)^k
    p = (gr(1), gr(0, 1), gr(1))
    c = xf.p_conj(p)
    assert c == (gr(1), gr(0, 1), gr(1))
    p2 = (gr(0, 1), gr(2), gr(0, -3))
    assert xf.p_conj(p2) == (gr(0, -1), gr(-2), gr(0, 3))


# ---- FieldElement ----


S = xf.FieldElement.two_pi_i()
ONE = xf.FieldElement.from_rational(Fraction(1))


def test_canonical_form_collapses_common_factors():
    # s/(s-1) * (s-1)/s == 1 must hold structurally
    a = S / (S - ONE)
    b = (S - ONE) / S
    assert a * b == ONE
    assert (a * b).is_rational_integer()


def test_equality_is_value_equality():
    x = (S * S - ONE) / (S - ONE)  # = s + 1 after cancellation
    y = S + ONE
    assert x == y
    assert hash(x) == hash(y)


def test_realness_and_integrality():
    assert not S.is_real()
    assert (S * S).is_real()  # (2 pi i)^2 = -4 pi^2 is real
    assert not (S * S).is_rational_integer()
    two = xf.FieldElement.from_rational(Fraction(2))
    assert two.is_real() and two.is_rational_integer()
    # (s - 1) - s = -1 is an integer even though both operands involve s
    assert ((S - ONE) - S).is_rational_integer()
    half = xf.FieldElement.from_rational(Fraction(1, 2))
    assert half.is_real() and not half.is_rational_integer()


def test_real_imag_decomposition():
    v = S / (S - ONE)
    assert v.real() + v.imag() * xf.FieldElement.from_rational(Fraction(0), Fraction(1)) == v
    assert v.real().is_real()
    assert v.imag().is_real()


def test_division_by_zero_raises():
    from affinelab.errors import DomainError

    with pytest.raises(DomainError):
        ONE / (S - S)


def test_numeric_view_matches_mpmath():
    # evaluate s/(s-1) at s = 2*pi*i with 50-digit arithmetic
    with mpmath.workdps(50):
        s = mpmath.mpc(0, 2) * mpmath.pi
        expected = s / (s - 1)
        got = complex(S / (S - ONE))
        assert abs(complex(expected) - got) < 1e-15


field_elems = st.builds(
    lambda a, b, c, d: xf.FieldElement((a, b), (c, d)) if not (c.is_zero() and d.is_zero()) else xf.FieldElement((a, b)),
    gaussians,
    gaussians,
    gaussians,
    gaussians,
)


# A zero leading denominator coefficient (d == 0 in field_elems) must be
# trimmed by the constructor; run that case on every invocation.
D_ZERO_X = xf.FieldElement((gr(1), gr(2)), (gr(3), gr(0)))
D_ZERO_Y = xf.FieldElement((gr(0, 1), gr(-1)), (gr(2, -1), gr(0)))


@given(field_elems, field_elems)
@example(D_ZERO_X, D_ZERO_Y)
@settings(max_examples=80)
def test_field_ops_match_numeric_evaluation(x, y):
    zx, zy = complex(x), complex(y)
    scale = max(1.0, abs(zx), abs(zy))
    assert abs(complex(x + y) - (zx + zy)) < 1e-9 * scale
    assert abs(complex(x * y) - (zx * zy)) < 1e-9 * scale * scale
    if not y.is_zero() and abs(zy) > 1e-6:
        assert abs(complex(x / y) - (zx / zy)) < 1e-6 * max(1.0, abs(zx / zy))


@given(field_elems)
@example(D_ZERO_Y)
@settings(max_examples=80)
def test_conjugate_matches_numeric_conjugate(x):
    assert abs(complex(x.conjugate()) - complex(x).conjugate()) < 1e-9 * max(
        1.0, abs(complex(x))
    )


def test_constant_value_detection():
    assert (S / S).constant_value() == xf.GaussianRational(Fraction(1), Fraction(0))
    assert S.constant_value() is None
    v = xf.FieldElement.from_rational(Fraction(3, 7), Fraction(-2))
    assert v.constant_value() == xf.GaussianRational(Fraction(3, 7), Fraction(-2))


def test_trailing_zero_coefficients_are_trimmed():
    from affinelab.errors import DomainError

    # zero leading denominator coefficient: (1 + 2s) / (3 + 0s) = (1 + 2s)/3
    v = xf.FieldElement((gr(1), gr(2)), (gr(3), gr(0)))
    third = xf.FieldElement.from_rational(Fraction(1, 3))
    assert v == (ONE + S + S) * third
    assert v.num == (gr(Fraction(1, 3)), gr(Fraction(2, 3))) and v.den == xf.P_ONE

    padded = xf.FieldElement((gr(1), gr(0)))
    assert padded == xf.FieldElement((gr(1),))
    assert hash(padded) == hash(xf.FieldElement((gr(1),)))

    assert xf.FieldElement((gr(0), gr(0))).is_zero()

    with pytest.raises(DomainError):
        xf.FieldElement((gr(1),), (gr(0), gr(0)))


# ---- differential test against sympy's Q(i)(s) ----


@pytest.fixture(scope="module")
def sympy_field():
    """sympy's Q(i)(s), imported once outside the timed examples."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.fields import field

    return field("s", sympy.QQ_I)[0]


def _to_sympy(K, num, den):
    """N(s)/D(s) in sympy's fraction field, from GaussianRational coefficients."""
    ring, qq_i = K.ring, K.domain

    def poly(cs):
        return ring.from_dict(
            {(k,): qq_i(c.re, c.im) for k, c in enumerate(cs) if not c.is_zero()}
        )

    return K(poly(num)) / K(poly(den))


def _sympy_conjugate(K, f):
    # conj(c) * (-1)^k on the s^k coefficient, as conj(s) = -s
    ring, qq_i = K.ring, K.domain

    def poly(p):
        return ring.from_dict(
            {m: qq_i(c.x, -c.y) * (-1) ** m[0] for m, c in p.terms()}
        )

    return K(poly(f.numer)) / K(poly(f.denom))


def _sympy_canonical(f):
    """(numerator, denominator) coefficient pairs, lowest degree first, with
    the denominator made monic; sympy cancels the gcd but keeps the scale."""
    lead = f.denom.LC

    def coeffs(p):
        p = p.quo_ground(lead)
        terms = dict(p.terms())
        n = p.degree() + 1 if p else 0
        out = []
        for k in range(n):
            c = terms.get((k,), p.ring.domain.zero)
            out.append((Fraction(int(c.x.numerator), int(c.x.denominator)),
                        Fraction(int(c.y.numerator), int(c.y.denominator))))
        return tuple(out)

    return coeffs(f.numer), coeffs(f.denom)


def _canonical(x):
    return (tuple((c.re, c.im) for c in x.num), tuple((c.re, c.im) for c in x.den))


small_polys = st.lists(gaussians, max_size=3).map(lambda cs: xf.p_trim(tuple(cs)))
rational_functions = st.tuples(small_polys, small_polys.filter(bool))

# the constant short cut in FieldElement: constant/constant, constant over
# degree >= 1, degree >= 1 over constant, with non-monic denominators
CONST = ((gr(3, -2),), (gr(0, 5),))
CONST_OVER_LINEAR = ((gr(2),), (gr(1), gr(0, 2)))
QUADRATIC_OVER_CONST = ((gr(1), gr(-1, 1), gr(2)), (gr(3, 1),))


@given(rational_functions, rational_functions)
@example(CONST, CONST)
@example(CONST, CONST_OVER_LINEAR)
@example(CONST_OVER_LINEAR, QUADRATIC_OVER_CONST)
@example(QUADRATIC_OVER_CONST, CONST)
@settings(max_examples=60)
def test_field_ops_match_sympy_canonical_form(sympy_field, xp, yp):
    K = sympy_field
    x, y = xf.FieldElement(*xp), xf.FieldElement(*yp)
    sx, sy = _to_sympy(K, *xp), _to_sympy(K, *yp)
    assert _canonical(x) == _sympy_canonical(sx)
    assert _canonical(y) == _sympy_canonical(sy)
    assert _canonical(x + y) == _sympy_canonical(sx + sy)
    assert _canonical(x - y) == _sympy_canonical(sx - sy)
    assert _canonical(x * y) == _sympy_canonical(sx * sy)
    assert _canonical(x.conjugate()) == _sympy_canonical(_sympy_conjugate(K, sx))
    if not y.is_zero():
        assert _canonical(x / y) == _sympy_canonical(sx / sy)
