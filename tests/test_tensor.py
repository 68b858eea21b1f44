"""The one sparse tensor type against the two classes it replaced, and its
one seeded draw against the five loops it replaced.

`OldAmbientTensor` and `OldMixedTensor` are the former ambient column-tensor
and decomposition mixed-tensor classes, kept here unchanged in substance as
differential oracles.
"""

import itertools
import random
from functools import partial
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from subsym.classalg import act_on_tuple, central_idempotent, partitions
from subsym.ambient import random_traceless
from subsym.scalars import GR_ZERO, RZERO, gr, rat
from subsym.tensor import SparseTensor, invert_perm, perm_sign, stabilizer_order
from support import (
    column_symmetric,
    conjugation_tensor_by_loops,
    disjoint_trace_free,
    plain_tensor,
    random_column_symmetric_by_loops,
    random_disjoint_trace_free_by_loops,
    random_plain_tensor_by_loop,
    random_traceless_by_loop,
    skew_slots_rational,
    standard_tableaux,
    symmetrized_by_orbit_means,
    symmetrized_by_permutations,
    symmetrized_rational,
    young_symmetrizer,
)


class OldAmbientTensor:
    """The former ambient tensor V^{B_1..B_d}_{A_1..A_d} (pullback convention)."""

    def __init__(self, d, N, entries=None):
        self.d = d
        self.N = N
        self.entries = {k: v for k, v in (entries or {}).items() if v}

    def __bool__(self):
        return bool(self.entries)

    def __eq__(self, other):
        return (self.d, self.N) == (other.d, other.N) and self.entries == other.entries

    def __add__(self, other):
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k, GR_ZERO) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return OldAmbientTensor(self.d, self.N, out)

    def scale(self, c):
        return OldAmbientTensor(self.d, self.N, {k: c * v for k, v in self.entries.items()})

    def column_permuted(self, perm):
        out = {}
        for (B, A), v in self.entries.items():
            key = (
                tuple(B[perm[i]] for i in range(self.d)),
                tuple(A[perm[i]] for i in range(self.d)),
            )
            out[key] = out.get(key, GR_ZERO) + v
        return OldAmbientTensor(self.d, self.N, out)

    def is_column_symmetric(self):
        for t in range(self.d - 1):
            perm = list(range(self.d))
            perm[t], perm[t + 1] = perm[t + 1], perm[t]
            if self.column_permuted(perm) != self:
                return False
        return True

    def symmetrize_columns(self):
        acc = OldAmbientTensor(self.d, self.N, {})
        for perm in itertools.permutations(range(self.d)):
            acc = acc + self.column_permuted(perm)
        return acc.scale(gr(rat(1, factorial(self.d))))

    def skew_slots(self, slots, upper=True):
        out = {}
        slots = list(slots)
        norm = rat(1, factorial(len(slots)))
        for arr in itertools.permutations(slots):
            p = list(range(self.d))
            for s_, a_ in zip(slots, arr):
                p[s_] = a_
            sign = perm_sign(tuple(p))
            for (B, A), v in self.entries.items():
                if upper:
                    key = (tuple(B[p[i]] for i in range(self.d)), A)
                else:
                    key = (B, tuple(A[p[i]] for i in range(self.d)))
                s = out.get(key, GR_ZERO) + v * gr(sign * norm)
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return OldAmbientTensor(self.d, self.N, out)

    def contraction(self, b_slot, a_slot):
        out = {}
        for (B, A), v in self.entries.items():
            if B[b_slot] != A[a_slot]:
                continue
            key = (B[:b_slot] + B[b_slot + 1 :], A[:a_slot] + A[a_slot + 1 :])
            s = out.get(key, GR_ZERO) + v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return out

    def is_totally_trace_free(self):
        return not any(self.contraction(b, a) for b in range(self.d) for a in range(self.d))


class OldMixedTensor:
    """The former mixed tensor of (V (x) V*)^(x)k (act_on_tuple convention)."""

    def __init__(self, k, N, entries=None):
        self.k = k
        self.N = N
        self.entries = {key: v for key, v in (entries or {}).items() if v}

    def __bool__(self):
        return bool(self.entries)

    def __add__(self, other):
        out = dict(self.entries)
        for key, v in other.entries.items():
            s = out.get(key, RZERO) + v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return OldMixedTensor(self.k, self.N, out)

    def scale(self, c):
        return OldMixedTensor(self.k, self.N, {key: v * c for key, v in self.entries.items()})

    def __sub__(self, other):
        return self + other.scale(rat(-1))

    def pair_symmetrize(self):
        out = {}
        norm = rat(1, factorial(self.k))
        for (U, L), v in self.entries.items():
            for p in itertools.permutations(range(self.k)):
                key = (act_on_tuple(p, U), act_on_tuple(p, L))
                s = out.get(key, RZERO) + v * norm
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return OldMixedTensor(self.k, self.N, out)

    def is_pair_symmetric(self):
        for (U, L), v in self.entries.items():
            for t in range(self.k - 1):
                p = list(range(self.k))
                p[t], p[t + 1] = p[t + 1], p[t]
                key = (act_on_tuple(tuple(p), U), act_on_tuple(tuple(p), L))
                if self.entries.get(key, RZERO) != v:
                    return False
        return True

    def contraction(self, up_slot, lo_slot):
        out = {}
        for (U, L), v in self.entries.items():
            if U[up_slot] != L[lo_slot]:
                continue
            key = (U[:up_slot] + U[up_slot + 1 :], L[:lo_slot] + L[lo_slot + 1 :])
            s = out.get(key, RZERO) + v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return OldMixedTensor(self.k - 1, self.N, out)

    def is_trace_free(self):
        return not any(self.contraction(p, q) for p in range(self.k) for q in range(self.k))


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def tensor_data(draw, k=None, N=None, values=rationals):
    """(k, N, entries) with values drawn from ``values`` (default rational).
    Half the draws keep upper indices at 0 and lower ones above it, so every
    contraction vanishes."""
    k = draw(st.integers(1, 3)) if k is None else k
    N = draw(st.integers(2, 3)) if N is None else N
    if draw(st.booleans()):
        ups, los = range(N), range(N)
    else:
        ups, los = range(1), range(1, N)
    index = st.tuples(
        st.tuples(*[st.sampled_from(ups)] * k), st.tuples(*[st.sampled_from(los)] * k)
    )
    entries = draw(st.dictionaries(index, values, max_size=10))
    return k, N, entries


def triple(data):
    k, N, entries = data
    return SparseTensor(k, N, entries), OldAmbientTensor(k, N, entries), OldMixedTensor(k, N, entries)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arithmetic_matches_both_old_types(data):
    k, N, first = data.draw(tensor_data())
    _, _, second = data.draw(tensor_data(k, N))
    c = data.draw(rationals)
    new, amb, mix = triple((k, N, first))
    new2, amb2, mix2 = triple((k, N, second))
    assert (new + new2).entries == (amb + amb2).entries == (mix + mix2).entries
    assert (new - new2).entries == (mix - mix2).entries
    assert new.scale(c).entries == amb.scale(c).entries == mix.scale(c).entries
    assert bool(new) == bool(amb) == bool(mix)


@settings(max_examples=150, deadline=None)
@given(tensor_data())
def test_symmetry_and_traces_match_both_old_types(data):
    new, amb, mix = triple(data)
    k = new.k
    sym = new.symmetrized()
    assert sym.entries == amb.symmetrize_columns().entries == mix.pair_symmetrize().entries
    assert new.is_symmetric() == amb.is_column_symmetric() == mix.is_pair_symmetric()
    assert sym.is_symmetric()
    for p in range(k):
        for q in range(k):
            con = new.contraction(p, q)
            assert (con.k, con.N) == (k - 1, new.N)
            assert con.entries == amb.contraction(p, q) == mix.contraction(p, q).entries
    assert new.is_trace_free() == amb.is_totally_trace_free() == mix.is_trace_free()
    assert sym.is_trace_free() == amb.symmetrize_columns().is_totally_trace_free()


@settings(max_examples=150, deadline=None)
@given(st.one_of(tensor_data(), tensor_data(values=st.integers(-4, 4))))
def test_integer_symmetrization_matches_the_rational_average(data):
    T = SparseTensor(*data)
    sym = T.symmetrized()
    assert sym == symmetrized_rational(T)
    assert sym.is_symmetric() and sym.symmetrized() == sym
    assert T.is_symmetric() == (sym == T)


@pytest.mark.parametrize("d", range(6))
def test_orbit_symmetrization_matches_the_permutation_average(d):
    """Dense draws with repeated columns, rational entries, and an orbit
    whose entries cancel, against the average of all d! permutations."""
    rng = random.Random(60 + d)
    dense = SparseTensor.random(d, 4, rng, 2, upper=(1, 3), lower=(0, 2))
    sparse = SparseTensor.random(d, 3, rng, 3, density=(None, None, 0.5, 0.2, 0.05, 0.01)[d])
    cases = [dense, dense.scale(rat(2, 3)) + sparse.scale(rat(-1, 5)), sparse]
    if d >= 2:
        first = next(iter(dense.entries))
        cancel = SparseTensor(d, 4, {first: rat(1, 7)})
        cases.append(cancel - cancel.permuted(tuple(range(1, d)) + (0,)) + sparse)
        assert any(len(set(zip(U, L))) < d for U, L in dense.entries)
    for T in cases:
        sym = T.symmetrized()
        assert sym == symmetrized_by_permutations(T)
        assert sym.is_symmetric()


@pytest.mark.parametrize("k", range(5))
def test_column_orbits_read_the_permutation_average_at_sorted_keys(k):
    """column_orbits against the sorted-column entries of the average of all
    k! permutations, and symmetrized against the former orbit-mean loop, for
    N = 2..5: a dense draw over two values on each side (repeated columns
    from k = 2), a sparse draw over all N values, a rational combination and
    their symmetrizations."""
    for N in range(2, 6):
        rng = random.Random(10 * k + N)
        dense = SparseTensor.random(k, N, rng, 2, upper=(0, 1), lower=(0, N - 1))
        sparse = SparseTensor.random(k, N, rng, 3, density=min(1, 40 / N ** (2 * k)))
        mixed = dense.scale(rat(2, 3)) + sparse.scale(rat(-1, 5))
        if k >= 2:
            assert any(stabilizer_order(tuple(zip(U, L))) > 1 for U, L in dense.entries)
        for T in (dense, sparse, mixed, dense.symmetrized(), mixed.symmetrized()):
            average = symmetrized_by_permutations(T)
            sorted_keys = {tuple(zip(U, L)): v for (U, L), v in average.entries.items()
                           if list(zip(U, L)) == sorted(zip(U, L))}
            den, orbits = T.column_orbits()
            assert {cols: rat(w, den) for cols, w in orbits.items()} == sorted_keys
            assert T.symmetrized() == symmetrized_by_orbit_means(T) == average


def test_is_symmetric_sees_one_changed_or_missing_entry():
    T = SparseTensor(3, 3, {((0, 1, 2), (2, 0, 1)): rat(1, 3), ((1, 1, 0), (0, 2, 2)): rat(-2)}).symmetrized()
    assert T.is_symmetric()
    key = ((2, 1, 0), (1, 0, 2))
    assert key in T.entries
    changed = dict(T.entries)
    changed[key] = changed[key] * 2
    missing = dict(T.entries)
    del missing[key]
    assert not SparseTensor(3, 3, changed).is_symmetric()
    assert not SparseTensor(3, 3, missing).is_symmetric()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_skew_slots_with_integer_signs_match_rational_signs(data):
    T = SparseTensor(*data.draw(tensor_data()))
    slots = data.draw(st.lists(st.sampled_from(range(T.k)), min_size=1, unique=True))
    for upper in (True, False):
        assert T.skew_slots(slots, upper) == skew_slots_rational(T, slots, upper)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_skew_slots_match_the_old_ambient_type(data):
    new, amb, _ = triple(data.draw(tensor_data()))
    slots = data.draw(st.lists(st.sampled_from(range(new.k)), min_size=1, unique=True))
    for upper in (True, False):
        assert new.skew_slots(slots, upper).entries == amb.skew_slots(slots, upper).entries


def reference_act(element, T, upper):
    """sum_p element[p] p on one index group, spelled out with act_on_tuple."""
    out = {}
    for p, c in element.items():
        for (U, L), v in T.entries.items():
            key = (act_on_tuple(p, U), L) if upper else (U, act_on_tuple(p, L))
            out[key] = out.get(key, RZERO) + c * v
    return {key: v for key, v in out.items() if v}


@settings(max_examples=100, deadline=None)
@given(tensor_data(k=3, N=3))
def test_group_algebra_action_is_act_on_tuple(data):
    # A Young symmetrizer is not central: acting by p^-1 instead of p, or
    # reading the permutation as a pullback, gives a different tensor.  The
    # central idempotents carry rational coefficients, and a single
    # permutation is the one-term element.
    new, _, _ = triple(data)
    elements = [young_symmetrizer(tab) for tab in standard_tableaux((2, 1))]
    elements += [central_idempotent(lam) for lam in partitions(3)]
    elements += [{p: rat(1)} for p in itertools.permutations(range(3))]
    for element in elements:
        for upper in (True, False):
            assert new.act(element, upper).entries == reference_act(element, new, upper)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_permuted_is_act_on_tuple_on_both_index_groups(data):
    new, amb, _ = triple(data.draw(tensor_data()))
    p = tuple(data.draw(st.permutations(range(new.k))))
    expected = {(act_on_tuple(p, U), act_on_tuple(p, L)): v for (U, L), v in new.entries.items()}
    assert new.permuted(p).entries == expected
    # the old ambient type reads its permutation as a pullback
    assert new.permuted(p).entries == amb.column_permuted(invert_perm(p)).entries


def test_outer_product_and_pair_swap():
    V = SparseTensor(1, 2, {((0,), (1,)): rat(2), ((1,), (1,)): rat(1, 3)})
    W = SparseTensor(1, 2, {((1,), (0,)): rat(3)})
    VW = V.outer(W)
    assert VW == SparseTensor(2, 2, {((0, 1), (1, 0)): rat(6), ((1, 1), (1, 0)): rat(1)})
    assert VW.permuted((1, 0)) == W.outer(V)



# every shape a suite or a test draws at: (name, the draw, the loop it replaced)
DRAWS = (
    [(f"traceless n={n}", partial(random_traceless, n), partial(random_traceless_by_loop, n))
     for n in (1, 2, 3)]
    + [(f"plain k={k} N={N}", partial(plain_tensor, k, N), partial(random_plain_tensor_by_loop, k, N))
       for k, N in ((2, 3), (3, 3), (3, 4))]
    + [(f"column-symmetric d={d} N={N} density={p}",
        partial(column_symmetric, d, N, density=p),
        partial(random_column_symmetric_by_loops, d, N, density=p))
       for d, N, p in ((2, 3, 0.4), (2, 4, 0.05), (2, 4, 0.3), (2, 4, 0.4), (3, 4, 0.05), (3, 5, 0.05))]
    + [(f"disjoint trace-free d={d} N={N}", partial(disjoint_trace_free, d, N),
        partial(random_disjoint_trace_free_by_loops, d, N))
       for d, N in ((1, 4), (2, 4), (3, 4), (3, 5), (4, 4))]
    + [(f"conjugation k={k} N={N}", lambda rng, k=k, N=N: SparseTensor.random(k, N, rng, 2).symmetrized(),
        partial(conjugation_tensor_by_loops, k, N))
       for k, N in ((2, 3), (2, 4), (3, 3))]
)


@pytest.mark.parametrize("draw, loop", [d[1:] for d in DRAWS], ids=[d[0] for d in DRAWS])
def test_random_draws_what_the_former_loops_drew(draw, loop):
    # the same tensor from the same rng state, and the rng left in the same state
    for seed in range(100):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert draw(ours) == loop(theirs), seed
        assert ours.random() == theirs.random(), seed

