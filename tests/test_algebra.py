import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pqgeom.algebra import (EPS, I, J, K, ONE, NullQuaternionError,
                            SplitQuaternion, scalar_product)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
quaternions = st.builds(SplitQuaternion, rationals, rationals, rationals,
                        rationals)


def circle_point(t) -> SplitQuaternion:
    """Rational point cos + i sin of the unit circle, parametrised by
    the tangent half-angle: ((1-t^2) + 2t i) / (1+t^2)."""
    t = Fraction(t)
    den = 1 + t * t
    return SplitQuaternion((1 - t * t) / den, 2 * t / den, 0, 0)


def hyperbola_point(t) -> SplitQuaternion:
    """Rational point cosh + j sinh of the unit hyperbola:
    t -> ((1+t^2) + 2t j)/(1-t^2)."""
    t = Fraction(t)
    den = 1 - t * t
    if den == 0:
        raise ValueError("parameter on the asymptote")
    return SplitQuaternion((1 + t * t) / den, 0, 2 * t / den, 0)


def test_product_table():
    assert I * I == SplitQuaternion(-1)
    assert J * J == SplitQuaternion(1)
    assert K * K == SplitQuaternion(1)
    assert I * J == K and J * I == -K
    assert J * K == -I and K * J == I
    assert K * I == J and I * K == -J


def test_zero_divisors():
    assert (ONE + J) * (ONE - J) == 0


def test_float_operands_raise_type_error():
    # an int or a Fraction is a scalar operand; a float is not coerced
    q = SplitQuaternion(1, 2, 3, 4)
    for op in (lambda: q * 0.5, lambda: q + 0.5, lambda: 0.5 + q,
               lambda: q - 0.5):
        with pytest.raises(TypeError):
            op()
    assert q != 1.0 and SplitQuaternion(1) != 1.0
    assert q * Fraction(1, 2) == SplitQuaternion(Fraction(1, 2), 1,
                                                 Fraction(3, 2), 2)


@settings(max_examples=200, deadline=None)
@given(quaternions, quaternions)
def test_norm_multiplicative(a, b):
    assert (a * b).square_norm() == a.square_norm() * b.square_norm()


@settings(max_examples=200, deadline=None)
@given(quaternions, quaternions)
def test_conjugation_anti_automorphism(a, b):
    assert (a * b).conj() == b.conj() * a.conj()


@settings(max_examples=100, deadline=None)
@given(quaternions)
def test_conjugation_involution(q):
    assert q.conj().conj() == q


@settings(max_examples=100, deadline=None)
@given(quaternions, quaternions)
def test_scalar_product_is_real_part(a, b):
    assert scalar_product(a, b) == (a * b.conj()).a
    assert a.square_norm() == scalar_product(a, a)


def test_conj_norm_examples():
    assert ONE.conj() == ONE and ONE.square_norm() == 1
    assert J.conj() == -J and J.square_norm() == -1
    # coefficient pattern a a' + b b' - c c' - d d'
    q = SplitQuaternion(1, 2, 3, 4)
    qp = SplitQuaternion(5, 6, 7, 8)
    assert scalar_product(q, qp) == 5 + 12 - 21 - 32


def test_division_by_scalar():
    # q p^-1 stays exact for int and Fraction divisors p
    q = SplitQuaternion(1, 2, Fraction(3, 2), 4)
    for divisor in (3, Fraction(3)):
        r = q * SplitQuaternion(divisor).inverse()
        assert all(type(c) is Fraction for c in r.coefficients())
        assert r == SplitQuaternion(Fraction(1, 3), Fraction(2, 3),
                                    Fraction(1, 2), Fraction(4, 3))


def test_inverse():
    assert ONE.inverse() == ONE
    # j squares to +1, so it is its own inverse
    assert J.inverse() == J
    assert J * J.inverse() == ONE
    with pytest.raises(NullQuaternionError):
        (ONE + J).inverse()


@settings(max_examples=150, deadline=None)
@given(quaternions)
def test_inverse_roundtrip(q):
    if q.square_norm() == 0:
        with pytest.raises(NullQuaternionError):
            q.inverse()
    else:
        assert q * q.inverse() == ONE
        assert q.inverse() * q == ONE


def test_complex_rep_examples():
    assert ONE.complex_rep_exact() == ((1, 0), (0, 0))
    assert J.complex_rep_exact() == ((0, 0), (1, 0))
    assert K.complex_rep_exact() == ((0, 0), (0, -1))


@settings(max_examples=100, deadline=None)
@given(quaternions)
def test_complex_rep_roundtrip(q):
    (r1, i1), (r2, i2) = q.complex_rep_exact()
    # q = z1 + j z2 with z1 = r1 + i1 i and z2 = r2 + i2 i
    assert SplitQuaternion(r1, i1, r2, -i2) == q


@settings(max_examples=60, deadline=None)
@given(quaternions, quaternions)
def test_complex_rep_real_linear(a, b):
    (ar1, ai1), (ar2, ai2) = a.complex_rep_exact()
    (br1, bi1), (br2, bi2) = b.complex_rep_exact()
    (sr1, si1), (sr2, si2) = (a + b).complex_rep_exact()
    assert (sr1, si1) == (ar1 + br1, ai1 + bi1)
    assert (sr2, si2) == (ar2 + br2, ai2 + bi2)


def test_rational_curve_points_exact():
    # tangent half-angle addition gives the group law with no rounding
    for t, s in [(Fraction(1, 3), Fraction(1, 7)), (Fraction(-2, 5), Fraction(3, 4))]:
        a, b = circle_point(t), circle_point(s)
        assert a.square_norm() == 1 and b.square_norm() == 1
        assert a * b == circle_point((t + s) / (1 - t * s))
    for t, s in [(Fraction(1, 3), Fraction(1, 2)), (Fraction(-1, 4), Fraction(2, 5))]:
        a, b = hyperbola_point(t), hyperbola_point(s)
        assert a.square_norm() == 1 and b.square_norm() == 1
        assert a * b == hyperbola_point((t + s) / (1 + t * s))
    assert hyperbola_point(Fraction(1, 3)) == SplitQuaternion(
        Fraction(5, 4), 0, Fraction(3, 4), 0)


def test_center():
    rng = random.Random(4)
    for _ in range(200):
        q = SplitQuaternion(*[Fraction(rng.randint(-5, 5)) for _ in range(4)])
        central = all(q * u - u * q == 0 for u in (I, J, K))
        assert central == (q.b == 0 and q.c == 0 and q.d == 0)


@settings(max_examples=60, deadline=None)
@given(rationals, quaternions)
def test_real_line_is_central(r, q):
    p = SplitQuaternion(r)
    assert p * q - q * p == 0


def test_parse_print_roundtrip():
    rng = random.Random(9)
    for _ in range(200):
        q = SplitQuaternion(*[Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                              for _ in range(4)])
        assert SplitQuaternion.parse(str(q)) == q


wide_rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                              max_denominator=10 ** 6)


@settings(max_examples=150)
@given(st.builds(SplitQuaternion, wide_rationals, wide_rationals,
                 wide_rationals, wide_rationals))
def test_parse_print_roundtrip_drawn(q):
    assert SplitQuaternion.parse(str(q)) == q


@pytest.mark.parametrize("text", [
    "1 2", "ij", "i2", "2 j 3", "3 4 i",   # juxtaposed terms
    "1 + 2 3", "i - j k", "1/2 1/3 i",
])
def test_parse_rejects_juxtaposed_terms(text):
    # each used to parse: "1 2" as 3, "ij" as i + j, "i2" as 2 + i
    with pytest.raises(ValueError):
        SplitQuaternion.parse(text)


@pytest.mark.parametrize("text", ["1/0", "0/0 i", "1 + 2/0 k"])
def test_parse_rejects_zero_denominator(text):
    # used to raise ZeroDivisionError from Fraction
    with pytest.raises(ValueError):
        SplitQuaternion.parse(text)


def test_parse_variants():
    assert SplitQuaternion.parse("1/2 - 3 i + 0 j + 5/4 k") == \
        SplitQuaternion(Fraction(1, 2), -3, 0, Fraction(5, 4))
    assert SplitQuaternion.parse("j") == J
    assert SplitQuaternion.parse("-k + i") == SplitQuaternion(0, 1, 0, -1)
    assert SplitQuaternion.parse("2") == SplitQuaternion(2)
    with pytest.raises(ValueError):
        SplitQuaternion.parse("")
    with pytest.raises(ValueError):
        SplitQuaternion.parse("1 + x")
    # repeated units joined by a sign still accumulate
    assert SplitQuaternion.parse("i + i") == SplitQuaternion(0, 2)
    assert SplitQuaternion.parse("1 - 2 j + 3 * j") == \
        SplitQuaternion(1, 0, 1, 0)


def test_eps_constants():
    assert EPS == (1, -1, -1)
    for idx, u in enumerate((I, J, K)):
        assert u * u == SplitQuaternion(-EPS[idx])
