import itertools
import math
import random

from hypothesis import given, settings, strategies as st

from subsym.classalg import (
    ClassElement,
    _basis_product_convolution,
    center_convolution,
    central_idempotent,
    char_dim,
    class_elements,
    class_multiply,
    conjugacy_classes,
    conjugate_partition,
    convolve,
    hook_length_dim,
    mn_character,
    partitions,
    z_lambda,
)
from subsym.scalars import accumulate, rat
from subsym.tensor import SparseTensor, perm_sign
from support import (
    basis_product_convolution_averaged,
    mn_character_by_border_strips,
    perm_sign_by_cycle_walk,
    standard_tableaux,
    young_projector_sum,
    young_symmetrizer,
)


def is_class_function(x, k) -> bool:
    """Whether the map x: S_k -> coefficients is constant on every conjugacy class."""
    return all(len({x.get(p, 0) for p in elems}) == 1 for elems in class_elements(k).values())


def test_classes_k3():
    assert dict(conjugacy_classes(3)) == {(1, 1, 1): 1, (2, 1): 3, (3,): 2}


def test_classes_k1():
    assert conjugacy_classes(1) == [((1,), 1)]


def test_class_sizes_sum():
    for k in range(1, 7):
        assert sum(s for _, s in conjugacy_classes(k)) == math.factorial(k)


def test_k2_table():
    x = ClassElement.basis(2, (2,))
    assert class_multiply(x, x) == ClassElement.one(2)
    assert class_multiply(ClassElement.one(2), x) == x


def test_k3_table():
    x = ClassElement.basis(3, (2, 1))
    y = ClassElement.basis(3, (3,))
    one = ClassElement.one(3)
    assert class_multiply(x, x) == one.scale(rat(1, 3)) + y.scale(rat(2, 3))
    assert class_multiply(x, y) == x
    assert class_multiply(y, x) == x
    assert class_multiply(y, y) == one.scale(rat(1, 2)) + y.scale(rat(1, 2))


def test_identity_class_is_unit():
    for k in (2, 3, 4):
        one = ClassElement.one(k)
        for lam in partitions(k):
            u = ClassElement.basis(k, lam)
            assert class_multiply(one, u) == u


def test_oracle_equivalence_k_le_5():
    for k in range(1, 6):
        for lam in partitions(k):
            for mu in partitions(k):
                a = class_multiply(ClassElement.basis(k, lam), ClassElement.basis(k, mu))
                b = center_convolution(ClassElement.basis(k, lam), ClassElement.basis(k, mu))
                assert a == b, (k, lam, mu)


def test_integer_convolution_matches_the_averaged_rational_one():
    # the oracle counts products of class members in integers and divides once;
    # the code it replaced convolved the averaged class sums as rationals
    for k in range(1, 6):
        for lam in partitions(k):
            for mu in partitions(k):
                ours = _basis_product_convolution(k, lam, mu)
                assert ours == basis_product_convolution_averaged(k, lam, mu), (k, lam, mu)


def test_structure_constants_are_probabilities():
    for k in (3, 4, 5):
        for lam in partitions(k):
            for mu in partitions(k):
                prod = class_multiply(ClassElement.basis(k, lam), ClassElement.basis(k, mu))
                assert sum(prod.coeffs.values()) == 1
                assert all(c > 0 for c in prod.coeffs.values())


def test_commutativity():
    for k in (3, 4):
        for lam in partitions(k):
            for mu in partitions(k):
                u, v = ClassElement.basis(k, lam), ClassElement.basis(k, mu)
                assert class_multiply(u, v) == class_multiply(v, u)


def test_basis_count_is_p_of_k():
    assert [len(partitions(k)) for k in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]


def test_trivial_and_sign_characters():
    for k in (3, 4, 5):
        for mu in partitions(k):
            assert mn_character((k,), mu) == 1
            rep = class_elements(k)[mu][0]
            assert mn_character((1,) * k, mu) == perm_sign(rep)


def test_characters_match_the_border_strip_oracle():
    for k in range(1, 11):
        for lam in partitions(k):
            for mu in partitions(k):
                assert mn_character(lam, mu) == mn_character_by_border_strips(lam, mu), (lam, mu)


def test_perm_sign_matches_the_cycle_walk():
    for k in range(8):
        for p in itertools.permutations(range(k)):
            assert perm_sign(p) == perm_sign_by_cycle_walk(p), p


def test_dimension_against_hooks():
    for k in range(1, 7):
        for lam in partitions(k):
            assert char_dim(lam) == hook_length_dim(lam)


def test_column_orthogonality():
    for k in range(2, 7):
        for mu in partitions(k):
            for nu in partitions(k):
                s = sum(mn_character(l, mu) * mn_character(l, nu) for l in partitions(k))
                assert s == (z_lambda(mu) if mu == nu else 0)


def test_central_idempotents():
    for k in (1, 2, 3, 4, 5):
        idems = {lam: central_idempotent(lam) for lam in partitions(k)}
        total = {}
        for lam, e in idems.items():
            for p, c in e.items():
                accumulate(total, p, c)
            for mu, f in idems.items():
                expected = e if lam == mu else {}
                assert convolve(e, f) == expected
        assert total == {tuple(range(k)): 1}


def test_k1_idempotent_is_identity():
    assert central_idempotent((1,)) == {(0,): 1}


def test_k2_symmetrizer():
    e2 = central_idempotent((2,))
    expected = {(0, 1): rat(1, 2), (1, 0): rat(1, 2)}
    assert e2 == expected


def test_idempotents_are_central():
    for lam in partitions(4):
        assert is_class_function(central_idempotent(lam), 4)


def test_standard_tableaux_counts():
    assert len(standard_tableaux((2, 1))) == 2
    for k in (2, 3, 4):
        for lam in partitions(k):
            assert len(standard_tableaux(lam)) == char_dim(lam)


def test_young_symmetrizer_extremes():
    # single row: the row symmetrizer; single column: the antisymmetrizer
    row = young_symmetrizer(((1, 2, 3),))
    assert row == {p: rat(1) for p in class_elements(3)[(1, 1, 1)] + class_elements(3)[(2, 1)] + class_elements(3)[(3,)]}, "row symmetrizer is the full sum"
    col = young_symmetrizer(((1,), (2,), (3,)))
    expected = {p: rat(perm_sign(p)) for p in itertools.permutations(range(3))}
    assert col == expected


def test_young_quasi_idempotency():
    for k in (2, 3, 4):
        for lam in partitions(k):
            for tab in standard_tableaux(lam):
                p = young_symmetrizer(tab)
                scale = rat(math.factorial(k), char_dim(lam))
                assert convolve(p, p) == {q: c * scale for q, c in p.items()}


def test_central_idempotent_contains_the_young_projector_image():
    # e_lam * Y_lam = Y_lam, so the image of the Young projector sum lies in
    # that of e_lam, and skew vanishing on the e_lam image covers it
    for k in (1, 2, 3, 4, 5):
        for lam in partitions(k):
            young = young_projector_sum(lam)
            assert convolve(central_idempotent(lam), young) == young, lam


def test_conjugate_partition():
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    assert conjugate_partition((2, 2)) == (2, 2)


def test_enumeration_rep_invariance():
    # pinning the first factor to any representative gives the same constants
    from subsym.classalg import _basis_product_enumeration, compose_perm, cycle_type

    k = 4
    lam, mu = (3, 1), (2, 2)
    base = _basis_product_enumeration(k, lam, mu)
    for rep in class_elements(k)[lam][:5]:
        counts = {}
        elems = class_elements(k)[mu]
        for q in elems:
            t = cycle_type(compose_perm(rep, q))
            counts[t] = counts.get(t, 0) + 1
        probs = {t: rat(c, len(elems)) for t, c in counts.items()}
        assert probs == base


def test_class_multiply_enumerates_at_k8(monkeypatch):
    # k = 8 is the largest k that class_elements admits; the product there must
    # still come from enumeration, never from the convolution oracle
    import subsym.classalg as classalg

    def refuse(*args, **kwargs):
        raise AssertionError("class_multiply called the convolution oracle")

    oracle = classalg._basis_product_convolution
    monkeypatch.setattr(classalg, "center_convolution", refuse)
    monkeypatch.setattr(classalg, "_basis_product_convolution", refuse)
    lam, mu = (2, 1, 1, 1, 1, 1, 1), (3, 1, 1, 1, 1, 1)
    prod = class_multiply(ClassElement.basis(8, lam), ClassElement.basis(8, mu))
    assert prod.coeffs == oracle(8, lam, mu)


# -- convolution against the action on tensors ------------------------------------


def seeded_tensor(k, N=2, seed=0):
    """A tensor with k upper and k lower slots, every entry drawn from -2..2."""
    rng = random.Random(seed)
    entries = {}
    for U in itertools.product(range(N), repeat=k):
        for L in itertools.product(range(N), repeat=k):
            entries[(U, L)] = rat(rng.randint(-2, 2))
    return SparseTensor(k, N, entries)


@st.composite
def element_pairs(draw):
    k = draw(st.sampled_from([3, 4]))
    perms = st.sampled_from(list(itertools.permutations(range(k))))
    coeffs = st.builds(rat, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    a, b = (draw(st.dictionaries(perms, coeffs, max_size=4)) for _ in range(2))
    return k, a, b


@settings(max_examples=60, deadline=None)
@given(element_pairs())
def test_convolution_is_the_composite_action(pair):
    # acting by a * b is acting by b, then by a, on either index group
    k, a, b = pair
    T = seeded_tensor(k)
    for upper in (True, False):
        assert T.act(convolve(a, b), upper) == T.act(b, upper).act(a, upper)


def test_convolution_order_is_not_reversed():
    # two transpositions that do not commute: the reverse order differs
    a, b = {(1, 0, 2): rat(1)}, {(0, 2, 1): rat(1)}
    T = seeded_tensor(3)
    for upper in (True, False):
        assert T.act(convolve(a, b), upper) == T.act(b, upper).act(a, upper)
        assert T.act(convolve(a, b), upper) != T.act(a, upper).act(b, upper)
