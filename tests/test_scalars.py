from fractions import Fraction

from subsym.scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    gr,
    rat,
    rat_str,
)
from support import parse_rat


def test_i_squared():
    assert GR_I * GR_I == gr(-1)


def test_arithmetic():
    a = gr(rat(1, 2), rat(-3, 4))
    b = gr(2, 1)
    assert a + b == gr(rat(5, 2), rat(1, 4))
    assert a - a == GR_ZERO
    assert a * GR_ONE == a
    assert (a * b) / b == a
    assert a * gr(a.re, -a.im) == gr(a.re * a.re + a.im * a.im)


def test_division_by_zero():
    import pytest

    with pytest.raises(ZeroDivisionError):
        GR_ONE / GR_ZERO


def test_normal_form_via_backend():
    # the one rational type is Fraction: positive denominators, lowest terms
    assert rat is Fraction
    x = rat(6, -4)
    assert x.numerator == -3 and x.denominator == 2
    assert rat_str(x) == "-3/2"


def test_serialize_roundtrip():
    # ring coefficients are rationals, written with rat_str and read by parse_rat
    for v in [rat(0), rat(5), rat(-1, 2), rat(3, 7), rat(-2, 9)]:
        assert parse_rat(rat_str(v)) == v
    assert str(gr(rat(3, 7), rat(-2, 9))) == "3/7-2/9*i"


def test_hash_consistency():
    assert hash(gr(3)) == hash(rat(3))
    d = {gr(1, 2): "a"}
    assert d[gr(1, 2)] == "a"


def test_parse_rejects_malformed():
    import pytest

    with pytest.raises(ValueError):
        parse_rat("*i")
    with pytest.raises(ValueError):
        parse_rat("1/2+i*")
