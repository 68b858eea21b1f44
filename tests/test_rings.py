from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from subsym.rings import LaurentPoly, Ring, RingMismatchError, UnknownGeneratorError
from subsym.scalars import GR_I, gr, rat
from support import GaussianRing, to_gaussian


@pytest.fixture
def R():
    return Ring(["x", "y"], laurent=["x"])


def test_product_difference_of_squares(R):
    x = R.gen("x")
    assert (x + 1) * (x - 1) == x * x - 1


def test_additive_identity(R):
    p = R.gen("x") * R.gen("y") + R.const(3)
    assert p + R.zero() == p


def test_i_squared_in_ring():
    # the Gaussian-rational oracle ring; the rational ring refuses i (below)
    G = GaussianRing(["x", "y"], laurent=["x"])
    assert G.const(GR_I) * G.const(GR_I) == G.const(-1)


def test_rational_ring_rejects_complex_coefficients(R):
    with pytest.raises(TypeError):
        R.const(GR_I)
    with pytest.raises(TypeError):
        R.gen("x").scale(gr(0, 1))
    assert all(type(c) is type(rat(0)) for c in (R.gen("x").scale(3) + R.const(rat(1, 2))).terms.values())


def test_diff_examples(R):
    x = R.gen("x")
    assert (x**3).diff("x") == (x * x).scale(3)
    assert R.gen("x", -1).diff("x") == R.gen("x", -2).scale(-1)
    assert (x**3).diff("y") == R.zero()


def test_diff_unknown_generator(R):
    with pytest.raises(UnknownGeneratorError):
        R.gen("x").diff("z")


def test_substitute_examples(R):
    S = Ring(["z"])
    z = S.gen("z")
    assert (R.gen("x") ** 2).substitute({"x": z + 1, "y": S.zero()}, S) == z * z + z.scale(2) + 1
    assert R.gen("x", -1).substitute({"x": R.one()}) == R.one()
    assert (R.gen("x") * R.gen("y")).substitute({"x": R.zero()}) == R.zero()


def test_substitute_rejects_noninvertible_image(R):
    with pytest.raises(ValueError):
        R.gen("x", -1).substitute({"x": R.gen("y") + 1})


def test_ring_mismatch(R):
    S = Ring(["x", "y"])
    with pytest.raises(RingMismatchError):
        R.gen("x") + S.gen("x")


def test_laurent_guard():
    R = Ring(["x", "y"], laurent=["x"])
    with pytest.raises(ValueError):
        R.gen("y", -1)


def test_conjugation_involution():
    # holomorphic/antiholomorphic relabeling plus coefficient conjugation, on
    # the Gaussian-rational oracle ring (conjugation means nothing over Q)
    R = GaussianRing(["z", "zb"])
    p = R.gen("z").scale(GR_I) + R.gen("zb").scale(gr(2, -1))
    q = p.relabel({"z": "zb", "zb": "z"}, conjugate_coeffs=True)
    assert q == R.gen("zb").scale(gr(0, -1)) + R.gen("z").scale(gr(2, 1))
    assert q.relabel({"z": "zb", "zb": "z"}, conjugate_coeffs=True) == p


def test_serialization_sorted_and_roundtrip(R):
    p = R.gen("y") ** 2 + R.gen("x").scale(rat(-3, 2)) + R.const(5) + R.gen("x", -2)
    s = p.dumps()
    assert LaurentPoly.loads(R, s) == p
    # graded-lex order: dumping twice is byte-identical
    assert p.dumps() == (p + R.zero()).dumps()


# property tests -------------------------------------------------------------

coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw, ring):
    terms = draw(
        st.lists(
            st.tuples(
                st.tuples(st.integers(-2, 3), st.integers(0, 3)), coeffs
            ),
            max_size=4,
        )
    )
    p = ring.zero()
    for (ex, ey), c in terms:
        p = p + ring.monomial({"x": ex, "y": ey}, c)
    return p


RING = Ring(["x", "y"], laurent=["x"])


@settings(max_examples=40, deadline=None)
@given(polys(RING), polys(RING), polys(RING))
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p


@settings(max_examples=40, deadline=None)
@given(polys(RING), polys(RING))
def test_leibniz(p, q):
    assert (p * q).diff("x") == p.diff("x") * q + p * q.diff("x")


@settings(max_examples=25, deadline=None)
@given(polys(RING), polys(RING))
def test_substitution_is_ring_hom(p, q):
    S = Ring(["u", "v"], laurent=["u"])
    images = {"x": S.gen("u", 1), "y": S.gen("v") + 1}
    assert (p * q).substitute(images, S) == p.substitute(images, S) * q.substitute(images, S)
    assert (p + q).substitute(images, S) == p.substitute(images, S) + q.substitute(images, S)


# differential tests: the rational ring against the Gaussian-rational ring it
# replaced, and against sympy --------------------------------------------------

ORACLE = GaussianRing(["x", "y"], laurent=["x"])
TARGET = Ring(["u", "v"], laurent=["u"])
ORACLE_TARGET = GaussianRing(["u", "v"], laurent=["u"])
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def term_lists(draw, min_x=-2):
    return draw(
        st.lists(
            st.tuples(st.tuples(st.integers(min_x, 3), st.integers(0, 3)), rationals),
            max_size=5,
        )
    )


def build(ring, names, terms):
    p = ring.zero()
    for (e1, e2), c in terms:
        p = p + ring.monomial({names[0]: e1, names[1]: e2}, c)
    return p


def both(terms):
    return build(RING, "xy", terms), build(ORACLE, "xy", terms)


def same(p, oracle_p):
    return to_gaussian(p, oracle_p.ring) == oracle_p


@settings(max_examples=60, deadline=None)
@given(term_lists(), term_lists(), rationals)
def test_arithmetic_matches_gaussian_oracle(tp, tq, c):
    (p, gp), (q, gq) = both(tp), both(tq)
    assert same(p + q, gp + gq)
    assert same(p - q, gp - gq)
    assert same(p * q, gp * gq)
    assert same(p.scale(c), gp.scale(c))
    assert same(p ** 2, gp ** 2)
    for name in "xy":
        assert same(p.diff(name), gp.diff(name))


@settings(max_examples=40, deadline=None)
@given(term_lists(), st.integers(-2, 2), rationals.filter(bool), term_lists(min_x=-1))
def test_substitute_matches_gaussian_oracle(tp, k, c, ty):
    # x carries negative exponents, so its image is an invertible monomial
    p, gp = both(tp)
    images = {"x": TARGET.monomial({"u": k}, c), "y": build(TARGET, "uv", ty)}
    oracle_images = {"x": ORACLE_TARGET.monomial({"u": k}, c), "y": build(ORACLE_TARGET, "uv", ty)}
    assert same(p.substitute(images, TARGET), gp.substitute(oracle_images, ORACLE_TARGET))


SX, SY, SU, SV = sympy.symbols("x y u v")


def to_sympy(p, symbols):
    return sum(
        (sympy.Rational(int(c.numerator), int(c.denominator))
         * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
         for exps, c in p.terms.items()),
        sympy.Integer(0),
    )


def sympy_equal(a, b):
    return sympy.expand(a - b) == 0


@settings(max_examples=30, deadline=None)
@given(term_lists(), term_lists(), st.integers(-2, 2), rationals.filter(bool), term_lists(min_x=-1))
def test_mul_diff_substitute_match_sympy(tp, tq, k, c, ty):
    p, q = build(RING, "xy", tp), build(RING, "xy", tq)
    P, Q = to_sympy(p, (SX, SY)), to_sympy(q, (SX, SY))
    assert sympy_equal(to_sympy(p * q, (SX, SY)), P * Q)
    for name, sym in (("x", SX), ("y", SY)):
        assert sympy_equal(to_sympy(p.diff(name), (SX, SY)), sympy.diff(P, sym))
    img_x, img_y = TARGET.monomial({"u": k}, c), build(TARGET, "uv", ty)
    got = p.substitute({"x": img_x, "y": img_y}, TARGET)
    want = P.subs({SX: to_sympy(img_x, (SU, SV)), SY: to_sympy(img_y, (SU, SV))}, simultaneous=True)
    assert sympy_equal(to_sympy(got, (SU, SV)), want)
