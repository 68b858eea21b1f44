import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from subsym.rings import Ring
from subsym.weyl import WeylOperator
from support import FractionPoly, operator_order, principal_part, weyl_apply, weyl_compose

R = Ring(["x", "y"])


def dx():
    return WeylOperator.derivative(R, "x")


def x_mul():
    return WeylOperator.mul_by(R.gen("x"))


def test_euler_eigenvalue():
    E = x_mul().compose(dx())
    x = R.gen("x")
    assert E.apply(x**3) == (x**3).scale(3)


def test_derivative_of_constant():
    assert dx().apply(R.const(7)) == R.zero()


def test_mixed_partial():
    op = dx().compose(WeylOperator.derivative(R, "y"))
    assert op.apply(R.gen("x") * R.gen("y")) == R.one()


def test_canonical_commutation():
    assert dx().compose(x_mul()) == x_mul().compose(dx()) + WeylOperator.identity(R)
    assert dx().commutator(x_mul()) == WeylOperator.identity(R)


def test_euler_squared_by_application():
    E = x_mul().compose(dx())
    EE = E.compose(E)
    # x^2 dx^2 + x dx, checked by applying both sides to x^m, m <= 5
    for mdeg in range(6):
        f = R.gen("x", mdeg) if mdeg else R.one()
        assert EE.apply(f) == E.apply(E.apply(f))
    explicit = WeylOperator.term(R.gen("x") ** 2, {"x": 2}) + WeylOperator.term(
        R.gen("x"), {"x": 1}
    )
    assert EE == explicit


def test_compose_identity():
    a = WeylOperator.term(R.gen("x") * R.gen("y"), {"x": 1, "y": 2})
    assert a.compose(WeylOperator.identity(R)) == a
    assert WeylOperator.identity(R).compose(a) == a


def test_self_commutator_zero():
    a = WeylOperator.term(R.gen("x"), {"y": 1}) + dx()
    assert not a.commutator(a)


def test_principal_part():
    op = WeylOperator.term(R.gen("x"), {"x": 2}) + dx()
    assert principal_part(op, 2) == WeylOperator.term(R.gen("x"), {"x": 2})
    assert principal_part(op, 1) == dx()
    assert operator_order(op) == 2


def test_apply_matches_composition():
    a = WeylOperator.term(R.gen("x"), {"y": 1}) + WeylOperator.term(R.gen("y"), {"x": 1})
    b = dx().compose(dx()) + WeylOperator.mul_by(R.gen("y"))
    ab = a.compose(b)
    for ex, ey in itertools.product(range(4), repeat=2):
        f = R.monomial({"x": ex, "y": ey})
        assert ab.apply(f) == a.apply(b.apply(f))


def test_order_bounds():
    a = WeylOperator.term(R.gen("x"), {"x": 2})
    b = WeylOperator.term(R.gen("y"), {"y": 1, "x": 1})
    assert operator_order(a.compose(b)) <= 4
    # constant-coefficient top parts: the commutator drops order
    c = dx().compose(dx()) + WeylOperator.term(R.gen("x"), {"y": 1})
    d = WeylOperator.derivative(R, "y").compose(dx())
    comm = c.commutator(d)
    assert operator_order(comm) is None or operator_order(comm) < 4


def ops():
    base = [
        WeylOperator.term(R.gen("x"), {"x": 1}),
        WeylOperator.term(R.gen("y"), {"x": 1, "y": 1}),
        dx(),
        WeylOperator.mul_by(R.gen("y")),
        WeylOperator.derivative(R, "y"),
    ]
    return st.lists(st.sampled_from(base), min_size=1, max_size=2).map(
        lambda parts: sum(parts[1:], parts[0])
    )


@settings(max_examples=25, deadline=None)
@given(ops(), ops(), ops())
def test_jacobi_identity(a, b, c):
    lhs = (
        a.commutator(b.commutator(c))
        + b.commutator(c.commutator(a))
        + c.commutator(a.commutator(b))
    )
    assert not lhs


@settings(max_examples=25, deadline=None)
@given(ops(), ops(), ops())
def test_associativity_on_monomials(a, b, c):
    left = a.compose(b).compose(c)
    right = a.compose(b.compose(c))
    assert left == right


def test_ring_mismatch_guard():
    import pytest
    from subsym.rings import RingMismatchError

    S = Ring(["x", "z"])
    with pytest.raises(RingMismatchError):
        dx().compose(WeylOperator.derivative(S, "x"))
    with pytest.raises(RingMismatchError):
        dx().apply(S.gen("x"))


def test_from_action_roundtrip():
    from subsym.weyl import from_action

    op = (
        WeylOperator.term(R.gen("x") * R.gen("y"), {"x": 2})
        + WeylOperator.term(R.gen("y"), {"y": 1})
        + WeylOperator.identity(R).scale(3)
    )
    rec = from_action(R, op.apply, 2)
    assert rec == op


# apply, compose and commutator against the Fraction-dict oracles ---------------
# Three generators, x and y Laurent: derivative orders up to 3 meet exponents
# down to -3, so falling factorials run through negative exponents and hit the
# zeros at 0 <= e < alpha.

L = Ring(["x", "y", "z"], laurent=["x", "y"])
fractions_ = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3))
poly_terms = st.lists(st.tuples(exponents, fractions_), max_size=3)
op_terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), poly_terms, max_size=3)


def poly_pair(terms):
    p, fp = L.zero(), FractionPoly.zero(L)
    for e, c in terms:
        exps = dict(zip(L.names, e))
        p = p + L.monomial(exps, c)
        fp = fp + FractionPoly.monomial(L, exps, c)
    return p, fp


def op_pair(terms):
    pairs = {alpha: poly_pair(t) for alpha, t in terms.items()}
    return (
        WeylOperator(L, {alpha: p for alpha, (p, _) in pairs.items()}),
        {alpha: fp for alpha, (_, fp) in pairs.items() if fp},
    )


def assert_matches(op, oracle):
    assert set(op.terms) == set(oracle)
    assert all(oracle[idx] == p for idx, p in op.terms.items())


@settings(max_examples=40, deadline=None)
@given(op_terms, op_terms, poly_terms)
def test_apply_and_compose_match_fraction_oracle(ta, tb, tf):
    (a, fa), (b, fb), (f, ff) = op_pair(ta), op_pair(tb), poly_pair(tf)
    assert weyl_apply(fa, ff) == a.apply(f)
    assert_matches(a.compose(b), weyl_compose(fa, fb, L))
    fab, fba = weyl_compose(fa, fb, L), weyl_compose(fb, fa, L)
    zero = FractionPoly.zero(L)
    comm = {idx: d for idx in fab.keys() | fba.keys() if (d := fab.get(idx, zero) - fba.get(idx, zero))}
    assert_matches(a.commutator(b), comm)


def test_falling_factorials_through_negative_exponents():
    x = L.gen("x")
    d3 = WeylOperator.derivative(L, "x", 3)
    assert d3.apply(x**-2) == L.monomial({"x": -5}, -24)
    assert d3.apply(x**2) == L.zero()
    assert d3.apply(x**3) == L.const(6)
