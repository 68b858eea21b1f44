import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from subsym.rings import Ring, RingMismatchError
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


# nonvanishing: the one integer sweep against one apply per monomial -----------
# Monomials run over L with exponents down to -3 on the Laurent generators and
# rational coefficients, so the sweep meets negative falling factorials, the
# zeros at 0 <= e < alpha, and coefficient denominators of every term.

monomial_terms = st.lists(st.tuples(exponents, fractions_.filter(bool)), max_size=12)


def monomials_of(terms):
    return [L.monomial(dict(zip(L.names, e)), c) for e, c in terms]


def witnesses(op, fs):
    return [f"{f} -> {op.apply(f)}" for f in op.nonvanishing(fs)]


def applied_witnesses(op, fs):
    return [f"{f} -> {r}" for f in fs if (r := op.apply(f))]


@settings(max_examples=60, deadline=None)
@given(op_terms, monomial_terms)
def test_nonvanishing_matches_apply_per_monomial(ta, tf):
    op, _ = op_pair(ta)
    fs = monomials_of(tf)
    assert op.nonvanishing(fs) == [f for f in fs if op.apply(f)]
    assert witnesses(op, fs) == applied_witnesses(op, fs)


def euler_shift(d):
    """x d_x + y d_y + z d_z - d: annihilates every monomial of degree d."""
    return sum(
        (WeylOperator.mul_by(L.gen(name)).compose(WeylOperator.derivative(L, name)) for name in L.names),
        WeylOperator.identity(L).scale(-d),
    )


def degree_monomials(d, rng, count=40):
    """Seeded monomials of degree d with Laurent exponents down to -3 and
    rational coefficients (denominators up to 4)."""
    out = []
    while len(out) < count:
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        if d - x - y >= 0:
            c = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
            out.append(L.monomial({"x": x, "y": y, "z": d - x - y}, c))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_nonvanishing_lists_the_failures_of_a_perturbed_operator(seed):
    # E - d kills every degree-d monomial; a seeded term p D^alpha of order up
    # to 3 breaks it on some monomials only (those outside 0 <= e < alpha)
    rng = random.Random(seed)
    d = rng.randint(0, 3)
    fs = degree_monomials(d, rng)
    assert euler_shift(d).nonvanishing(fs) == []
    alpha = {name: rng.randint(0, 3) for name in L.names}
    c = Fraction(rng.randint(1, 5), rng.randint(2, 4))
    p = L.monomial({"x": rng.randint(-2, 2), "y": rng.randint(-2, 2)}, c)
    op = euler_shift(d) + WeylOperator.term(p, alpha)
    failing = [f for f in fs if op.apply(f)]
    assert 0 < len(failing) < len(fs)
    assert op.nonvanishing(fs) == failing
    assert witnesses(op, fs) == applied_witnesses(op, fs)


def test_nonvanishing_of_the_zero_operator_and_of_no_monomials():
    fs = degree_monomials(2, random.Random(0))
    assert WeylOperator.zero(L).nonvanishing(fs) == []
    assert euler_shift(1).nonvanishing([]) == []
    assert WeylOperator.identity(L).nonvanishing(fs) == fs


def test_nonvanishing_rejects_a_non_monomial_and_another_ring():
    x, y = L.gen("x"), L.gen("y")
    with pytest.raises(ValueError):
        WeylOperator.derivative(L, "x").nonvanishing([x, x + y])
    with pytest.raises(ValueError):
        WeylOperator.derivative(L, "x").nonvanishing([L.zero()])
    with pytest.raises(RingMismatchError):
        WeylOperator.derivative(L, "x").nonvanishing([R.gen("x")])
