from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from subsym.rings import LaurentPoly, Ring, RingMismatchError, Substitution, UnknownGeneratorError
from subsym.scalars import GR_I, gr, rat
from subsym.weyl import WeylOperator
from support import FractionPoly, GaussianRing, to_gaussian


def d(ring, name):
    """The partial derivative in `name`, as weyl's falling-factorial kernel."""
    return WeylOperator.derivative(ring, name).apply


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
    assert all(type(c) is Fraction for c in (R.gen("x").scale(3) + R.const(rat(1, 2))).terms.values())


def test_diff_examples(R):
    x = R.gen("x")
    assert d(R, "x")(x**3) == (x * x).scale(3)
    assert d(R, "x")(R.gen("x", -1)) == R.gen("x", -2).scale(-1)
    assert d(R, "y")(x**3) == R.zero()


def test_diff_unknown_generator(R):
    with pytest.raises(UnknownGeneratorError):
        WeylOperator.derivative(R, "z")


def test_substitute_examples(R):
    S = Ring(["z"])
    z = S.gen("z")
    assert (R.gen("x") ** 2).substitute(Substitution(R, {"x": z + 1, "y": S.zero()}, S)) == z * z + z.scale(2) + 1
    assert R.gen("x", -1).substitute(Substitution(R, {"x": R.one()})) == R.one()
    assert (R.gen("x") * R.gen("y")).substitute(Substitution(R, {"x": R.zero()})) == R.zero()


def test_substitute_rejects_noninvertible_image(R):
    with pytest.raises(ValueError):
        R.gen("x", -1).substitute(Substitution(R, {"x": R.gen("y") + 1}))


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
    dx = d(RING, "x")
    assert dx(p * q) == dx(p) * q + p * dx(q)


@settings(max_examples=25, deadline=None)
@given(polys(RING), polys(RING))
def test_substitution_is_ring_hom(p, q):
    S = Ring(["u", "v"], laurent=["u"])
    sub = Substitution(RING, {"x": S.gen("u", 1), "y": S.gen("v") + 1}, S)
    assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
    assert (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)


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
        assert same(d(RING, name)(p), gp.diff(name))


@settings(max_examples=40, deadline=None)
@given(term_lists(), st.integers(-2, 2), rationals.filter(bool), term_lists(min_x=-1))
def test_substitute_matches_gaussian_oracle(tp, k, c, ty):
    # x carries negative exponents, so its image is an invertible monomial
    p, gp = both(tp)
    images = {"x": TARGET.monomial({"u": k}, c), "y": build(TARGET, "uv", ty)}
    oracle_images = {"x": ORACLE_TARGET.monomial({"u": k}, c), "y": build(ORACLE_TARGET, "uv", ty)}
    assert same(p.substitute(Substitution(RING, images, TARGET)), gp.substitute(oracle_images, ORACLE_TARGET))


@settings(max_examples=40, deadline=None)
@given(st.lists(term_lists(), min_size=1, max_size=4), st.integers(-2, 2), rationals.filter(bool), term_lists(min_x=-1))
def test_one_substitution_equals_a_fresh_one_per_polynomial(tps, k, c, ty):
    # one Substitution maps polynomials with negative x exponents as a fresh
    # substitution per polynomial does; each power it keeps is its image's
    images = {"x": TARGET.monomial({"u": k}, c), "y": build(TARGET, "uv", ty)}
    sub = Substitution(RING, images, TARGET)
    for terms in tps:
        p = build(RING, "xy", terms)
        assert p.substitute(sub) == p.substitute(Substitution(RING, images, TARGET))
    assert all(power == sub.images[i] ** m for (i, m), power in sub.powers.items())


def test_substitution_rejects_what_substitute_rejects(R):
    S = Ring(["z"])
    with pytest.raises(UnknownGeneratorError):
        Substitution(R, {"z": R.one()})
    with pytest.raises(UnknownGeneratorError):
        Substitution(R, {"x": S.gen("z")}, S)  # no image of y under a ring change
    with pytest.raises(RingMismatchError):
        Substitution(R, {"x": S.gen("z")})
    sub = Substitution(R, {"y": R.gen("x")})
    for other in (Ring(["x", "y"]).gen("x"), S.gen("z")):
        with pytest.raises(RingMismatchError):
            other.substitute(sub)


def test_a_failed_power_is_not_kept(R):
    # x -> y + 1 has no inverse: every negative power of x raises, each time,
    # and leaves the power table without it
    sub = Substitution(R, {"x": R.gen("y") + 1})
    for _ in range(2):
        with pytest.raises(ValueError):
            R.gen("x", -1).substitute(sub)
        assert (0, -1) not in sub.powers
    assert (R.gen("x", 2) * R.gen("y")).substitute(sub) == (R.gen("y") + 1) ** 2 * R.gen("y")
    assert set(sub.powers) == {(0, 2), (1, 1)}


SX, SY, SU, SV = sympy.symbols("x y u v")


def to_sympy(p, symbols):
    return sum(
        (sympy.Rational(c.numerator, c.denominator)
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
        assert sympy_equal(to_sympy(d(RING, name)(p), (SX, SY)), sympy.diff(P, sym))
    img_x, img_y = TARGET.monomial({"u": k}, c), build(TARGET, "uv", ty)
    got = p.substitute(Substitution(RING, {"x": img_x, "y": img_y}, TARGET))
    want = P.subs({SX: to_sympy(img_x, (SU, SV)), SY: to_sympy(img_y, (SU, SV))}, simultaneous=True)
    assert sympy_equal(to_sympy(got, (SU, SV)), want)


# the integer-numerator layout against the Fraction-dict layout it replaced ----

# denominators up to 6 so that sums and products cancel common factors
fractions_ = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def rational_terms(draw, min_x=-2):
    return draw(
        st.lists(
            st.tuples(st.tuples(st.integers(min_x, 3), st.integers(0, 2)), fractions_),
            max_size=4,
        )
    )


def pair(terms):
    """The same polynomial as a LaurentPoly and as a FractionPoly."""
    p = build(RING, "xy", terms)
    fp = FractionPoly.zero(RING)
    for (ex, ey), c in terms:
        fp = fp + FractionPoly.monomial(RING, {"x": ex, "y": ey}, c)
    return p, fp


def canonical(p):
    """den >= 1, int numerators, gcd(den, *num) == 1, and den == 1 when zero."""
    nums = list(p.num.values())
    return (
        type(p.den) is int
        and p.den >= 1
        and all(type(c) is int and c for c in nums)
        and gcd(p.den, *nums) == 1
        and (p.num or p.den == 1)
    )


def results(tp, tq, c, k):
    """(LaurentPoly, FractionPoly) results of every operation on p and q."""
    (p, fp), (q, fq) = pair(tp), pair(tq)
    images = {"x": TARGET.monomial({"u": k}, c), "y": TARGET.gen("v") + TARGET.const(c)}
    f_images = {"x": FractionPoly.monomial(TARGET, {"u": k}, c),
                "y": FractionPoly.gen(TARGET, "v") + c}
    out = [
        (p + q, fp + fq), (p - q, fp - fq), (p - p, fp - fp), (-p, -fp), (p * q, fp * fq),
        (p.scale(c), fp.scale(c)), (p.scale(3), fp.scale(3)),
        (p ** 0, fp ** 0), (p ** 3, fp ** 3),
        (d(RING, "x")(p), fp.diff("x")), (d(RING, "y")(p), fp.diff("y")),
        (p.substitute(Substitution(RING, images, TARGET)), fp.substitute(f_images, TARGET)),
        (LaurentPoly.sum(RING, [p, q, -(p + q)]), FractionPoly.zero(RING)),
        (LaurentPoly.sum(RING, [p, q, p], [2, -1, 3], 6),
         (fp.scale(2) - fq + fp.scale(3)).scale(Fraction(1, 6))),
        (LaurentPoly.sum(RING, []), FractionPoly.zero(RING)),
    ]
    if len(p.num) == 1 and next(iter(p.num))[1] == 0:  # a unit: x^m times a constant
        out.append((p ** -2, fp ** -2))
    return out


@settings(max_examples=80, deadline=None)
@given(rational_terms(), rational_terms(), fractions_.filter(bool), st.integers(-2, 2))
def test_integer_layout_matches_fraction_oracle(tp, tq, c, k):
    for got, want in results(tp, tq, c, k):
        assert want == got
        assert canonical(got)


@settings(max_examples=40, deadline=None)
@given(rational_terms(), rational_terms(), fractions_.filter(bool), st.integers(-2, 2))
def test_equal_values_share_form_hash_and_bytes(tp, tq, c, k):
    (p, _), (q, _) = pair(tp), pair(tq)
    routes = [
        (p * q, q * p),
        ((p + q) - q, p),
        (p.scale(c).scale(1 / c), p),
        (LaurentPoly.sum(RING, [p, q]), p + q),
        (LaurentPoly.sum(RING, [p], [3], 3), p),
        (LaurentPoly(RING, dict(p.terms)), p),
    ]
    for a, b in routes:
        assert (a.den, a.num) == (b.den, b.num)
        assert a == b and hash(a) == hash(b)


def test_cancelling_denominators():
    x = RING.gen("x")
    half = x.scale(Fraction(1, 2))
    assert x.scale(Fraction(1, 6)) + x.scale(Fraction(1, 3)) == half
    assert (half.den, half.num) == (2, {(1, 0): 1})
    assert (half * 2).den == 1 and half * 2 == x
    assert half.scale(2) == x and LaurentPoly.sum(RING, [half, half]) == x
    assert d(RING, "x")((x ** 2).scale(Fraction(1, 2))) == x
    assert RING.gen("x", -1).scale(Fraction(-2, 3)) ** -1 == x.scale(Fraction(-3, 2))
    z = half - half
    assert (z.den, z.num) == (1, {}) and z == 0 and str(z) == "0"
    assert LaurentPoly(RING, {(1, 0): Fraction(2, 4), (0, 1): 0}) == half


def test_canonical_check_fails_without_the_reduction(monkeypatch):
    # negative control: a copy that skips the gcd leaves x/6 + x/3 as 3x/6
    import subsym.rings as rings

    monkeypatch.setattr(rings, "_canonical", lambda ring, num, den: rings._new(ring, num, den))
    x = RING.gen("x")
    third = x.scale(Fraction(1, 3))
    assert not canonical(x.scale(Fraction(1, 6)) + third)
    assert not canonical(third * RING.const(3))


def test_hot_operations_need_no_rationals(monkeypatch):
    import subsym.rings as rings
    import subsym.weyl as weyl

    p = build(RING, "xy", [((1, 0), Fraction(1, 6)), ((-1, 2), Fraction(-3, 4)), ((0, 0), 2)])
    q = build(RING, "xy", [((2, 1), Fraction(5, 3)), ((0, 0), Fraction(1, 2))])
    dx = d(RING, "x")
    expected = (p * q, p + q, dx(p), LaurentPoly.sum(RING, [p, q, p * q], [1, 2, 3], 5))

    def no_rationals(*args):
        raise AssertionError("a rational was built")

    monkeypatch.setattr(rings, "rat", no_rationals)
    monkeypatch.setattr(weyl, "rat", no_rationals)
    got = (p * q, p + q, dx(p), LaurentPoly.sum(RING, [p, q, p * q], [1, 2, 3], 5))
    assert [(g.den, g.num) for g in got] == [(e.den, e.num) for e in expected]


def test_terms_view_is_read_only():
    p = RING.gen("x").scale(Fraction(1, 2))
    with pytest.raises(TypeError):
        p.terms[(0, 0)] = rat(1)
    assert dict(p.terms) == {(1, 0): rat(1, 2)}
