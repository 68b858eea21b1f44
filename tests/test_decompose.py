import itertools
import random
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from subsym.classalg import (
    ClassElement,
    act_on_tuple,
    central_idempotent,
    char_dim,
    class_elements,
    class_multiply,
    compose_perm,
    cycle_type,
    mn_character,
    partitions,
)
from support import (
    _class_sum,
    _perm_preimages,
    gather_class_sum,
    gather_tables,
    highest_weight_vector_by_idempotent_terms,
    isotypic_rank_by_span,
    pair_multisets,
    plain_tensor,
    stable_dim_formula,
    weight_blocks,
    weight_orbit_sizes,
    young_projector_sum,
)
import subsym.decompose as dec
from subsym.decompose import (
    _class_table,
    _perm_lower_multiset,
    _scatter,
    ad_conjugate,
    apply_c_s,
    basis_operator_rank,
    commutant_mult_crosscheck,
    conjugation_lemmas_check,
    embed_even,
    embed_odd,
    highest_weight_vector,
    interchanging_reps,
    isotypic_rank,
    isotypic_table,
    kostka,
    lambda_plus_dual,
    multiset_weight,
    seven_pieces_check,
    skew_vanishing_check,
    trace_free_block_kernel,
    trace_free_dimension,
    weight_block,
    weight_multiplicity_check,
    weight_orbits,
    weyl_dim,
)
from subsym.linalg import rank
from subsym.scalars import RZERO, rat
from subsym.tensor import SparseTensor, stabilizer_order


def class_product(k):
    def cp(lam, mu):
        return class_multiply(ClassElement.basis(k, lam), ClassElement.basis(k, mu)).coeffs

    return cp


# -- test-only constructions ----------------------------------------------------


def from_cycles(k, cycles):
    """Permutation of {0..k-1} from disjoint cycles given in 1-based notation."""
    img = list(range(k))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a - 1] = b - 1
    return tuple(img)


def sym_to_mixed(k, N, f) -> SparseTensor:
    """Expand a multiset function to full entries (small sizes only)."""
    out = {}
    for M, v in f.items():
        for p in itertools.permutations(M):
            out[(tuple(x[0] for x in p), tuple(x[1] for x in p))] = v
    return SparseTensor(k, N, out)


def mixed_to_sym(T: SparseTensor):
    """Read a pair-symmetric tensor back into a multiset function."""
    f = {}
    for (U, L), v in T.entries.items():
        M = tuple(sorted(zip(U, L)))
        assert f.setdefault(M, v) == v, "tensor is not pair-symmetric"
    return f


def block_vector(f, block):
    return [f.get(M, RZERO) for M in block]


def averaged_class(k, tau):
    """The averaged class sum c_tau as class coefficients."""
    return {tau: rat(1, len(class_elements(k)[tau]))}


def idempotent_classes(lam):
    """The central idempotent e_lam as class coefficients dim(lam) chi^lam(mu) / k!."""
    k = sum(lam)
    return {mu: rat(char_dim(lam) * mn_character(lam, mu), factorial(k)) for mu in partitions(k)}


def block_apply(f, class_coeffs, k, N):
    """sum_mu class_coeffs[mu] K_mu applied to the multiset function f, K_mu the
    unnormalised class sum, scattered through the class table of each weight
    block."""
    out = {}
    for w in {multiset_weight(M, N) for M in f}:
        block = weight_block(k, N, w)
        v = {j: f[M] for j, M in enumerate(block) if M in f}
        img = {}
        for mu, c in class_coeffs.items():
            for j, x in _scatter(_class_table(k, N, w, mu), v, c).items():
                img[j] = img.get(j, 0) + x
        out.update((block[j], x) for j, x in img.items() if x)
    return out


def trace_free_symmetric_basis(k, N):
    """Exact basis of symmetric totally trace-free tensors as (block, vector)
    pairs; every weight block is materialized by relabeling the index values
    of its orbit representative."""
    out = []
    for pat, (wrep, _) in weight_orbits(k, N).items():
        rep_block, kern = trace_free_block_kernel(k, N, wrep)
        for w, block in weight_blocks(k, N).items():
            if not kern or tuple(sorted(w, reverse=True)) != pat:
                continue
            # a value permutation taking wrep to w
            pools = {}
            for i, x in enumerate(w):
                pools.setdefault(x, []).append(i)
            perm = [pools[x].pop() for x in wrep]
            index = {M: j for j, M in enumerate(block)}
            for v in kern:
                vec = [RZERO] * len(block)
                for j, c in v.items():
                    M = rep_block[j]
                    vec[index[tuple(sorted((perm[u], perm[l]) for u, l in M))]] = rat(c)
                out.append((block, vec))
    return out


def averaged_c_s(s, T: SparseTensor) -> SparseTensor:
    """(1/(k!)^2) sum over S^1_k x S^2_k of C_{Ad_sigma s} applied to T."""
    k = T.k
    acc = SparseTensor(k, T.N)
    for p1 in itertools.permutations(range(k)):
        for p2 in itertools.permutations(range(k)):
            sig = compose_perm(embed_odd(p1, k), embed_even(p2, k))
            acc = acc + apply_c_s(ad_conjugate(sig, s), T)
    return acc.scale(rat(1, factorial(k) ** 2))


def gl_action_sym(a, b, f, k, N):
    """Action of the elementary matrix E_ab on a pair-symmetric tensor fn.

    Pullback form: (X f)(M) = sum over slots t of M with upper value a of
    f(M[t -> (b, l_t)]) minus sum over slots with lower value b of
    f(M[t -> (u_t, a)]).
    """
    candidates = set()
    for M in f:
        for t in range(k):
            u, l = M[t]
            if u == b:
                candidates.add(tuple(sorted(M[:t] + ((a, l),) + M[t + 1 :])))
            if l == a:
                candidates.add(tuple(sorted(M[:t] + ((u, b),) + M[t + 1 :])))
    out = {}
    for M in candidates:
        s = RZERO
        for t in range(k):
            u, l = M[t]
            if u == a:
                s = s + f.get(tuple(sorted(M[:t] + ((b, l),) + M[t + 1 :])), RZERO)
            if l == b:
                s = s - f.get(tuple(sorted(M[:t] + ((u, a),) + M[t + 1 :])), RZERO)
        if s:
            out[M] = s
    return out


# -- C_s operators -----------------------------------------------------------


def test_k1_transposition_is_identity():
    T = SparseTensor(1, 3, {((0,), (1,)): rat(2), ((2,), (2,)): rat(1)})
    assert apply_c_s((1, 0), T) == T


def test_k1_identity_perm_is_trace():
    # s fixing parities computes traces: kills trace-free tensors
    tf = SparseTensor(1, 3, {((0,), (1,)): rat(1)})
    assert not apply_c_s((0, 1), tf)
    # and maps e_0 (x) eps^0 to the full trace tensor
    t0 = SparseTensor(1, 3, {((0,), (0,)): rat(1)})
    out = apply_c_s((0, 1), t0)
    assert out == SparseTensor(1, 3, {((x,), (x,)): rat(1) for x in range(3)})


def test_k2_transposition_class_closed_form():
    # the two 4-cycles induce the simultaneous swap operator
    s3 = from_cycles(4, [(1, 2, 3, 4)])
    s4 = from_cycles(4, [(1, 4, 3, 2)])
    N = 3
    rng = random.Random(7)
    ent = {}
    for U in itertools.product(range(N), repeat=2):
        for L in itertools.product(range(N), repeat=2):
            c = rng.randint(-2, 2)
            if c:
                ent[(U, L)] = rat(c)
    T = SparseTensor(2, N, ent).symmetrized()
    lhs = (apply_c_s(s3, T) + apply_c_s(s4, T)).scale(rat(2, 4))
    exp = {}
    for (U, L), v in T.entries.items():
        for key in [(tuple(reversed(U)), L), (U, tuple(reversed(L)))]:
            exp[key] = exp.get(key, rat(0)) + v * rat(1, 2)
    assert lhs == SparseTensor(2, N, {k: v for k, v in exp.items() if v})


def test_averaged_definition_matches_simple_action():
    # full (1/(k!)^2)-averaged definition == class-averaged lower permutation,
    # applied honestly on the full tensor
    N = 3
    for k in (2, 3):
        rng = random.Random(5 + k)
        ent = {}
        for U in itertools.product(range(N), repeat=k):
            for L in itertools.product(range(N), repeat=k):
                c = rng.randint(-1, 1)
                if c:
                    ent[(U, L)] = rat(c)
        T = SparseTensor(k, N, ent).symmetrized()
        for lam, s in interchanging_reps(k).items():
            elems = class_elements(k)[lam]
            fast = T.act({p: rat(1, len(elems)) for p in elems}, upper=False)
            assert averaged_c_s(s, T) == fast, (k, lam)


def test_interchanging_reps_swap_parities_and_realise_their_class():
    # s swaps the even and odd slots; sigma_1 and sigma_2 are read off them
    for k in (1, 2, 3, 4, 5):
        reps = interchanging_reps(k)
        assert list(reps) == list(partitions(k))
        for lam, s in reps.items():
            assert sorted(s) == list(range(2 * k))
            assert all((p + s[p]) % 2 == 1 for p in range(2 * k)), lam
            sigma1 = tuple(s[2 * m] // 2 for m in range(k))
            sigma2 = tuple(s[2 * m + 1] // 2 for m in range(k))
            assert cycle_type(compose_perm(sigma2, sigma1)) == lam


def test_conjugation_lemmas():
    for (k, N) in [(2, 3), (2, 4), (3, 3)]:
        res = conjugation_lemmas_check(k, N, seed=1, samples=3)
        # three lemmas per interchanging representative and per sigma in S_k
        assert not res and res.cases == 3 * len(partitions(k)) * factorial(k), (k, N)


def test_identity_class_acts_as_identity():
    f = {M: rat(1 + i) for i, M in enumerate(pair_multisets(2, 3))}
    assert block_apply(f, averaged_class(2, (1, 1)), 2, 3) == f


# -- the block-table action against a dict pullback ------------------------------


def _perm_upper_multiset(M, sigma):
    U = tuple(x[0] for x in M)
    L = tuple(x[1] for x in M)
    return tuple(sorted(zip(act_on_tuple(sigma, U), L)))


def reference_apply_group_algebra_sym(f, weights, k, upper=False):
    """Dict pullback (op f)(M) = sum_sigma w_sigma f(M^sigma) over the
    multisets reachable from the support of f, moving the lower or the upper
    indices; correct for class-closed weights, and the oracle of the
    block-table action."""
    mover = _perm_upper_multiset if upper else _perm_lower_multiset
    candidates = set()
    for M in f:
        for sigma in weights:
            candidates.add(mover(M, sigma))
    out = {}
    for M in candidates:
        s = RZERO
        for sigma, c in weights.items():
            v = f.get(mover(M, sigma))
            if v is not None:
                s = s + c * v
        if s:
            out[M] = s
    return out


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool).map(
    lambda q: rat(q.numerator, q.denominator)
)


@st.composite
def spread_tensors(draw, k, N):
    """A rational multiset function supported on two to four weight blocks."""
    blocks = weight_blocks(k, N)
    weights = draw(st.lists(st.sampled_from(sorted(blocks)), min_size=2, max_size=4, unique=True))
    f = {}
    for w in weights:
        for M in draw(st.lists(st.sampled_from(blocks[w]), min_size=1, max_size=4, unique=True)):
            f[M] = draw(rationals)
    return f


@pytest.mark.parametrize("upper", [False, True])
@pytest.mark.parametrize("k, N", [(k, N) for k in (2, 3) for N in (2, 3, 4)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_block_action_matches_dict_pullback(k, N, upper, data):
    # The block action moves lower indices only.  On a multiset, moving the
    # upper indices by sigma is moving the lower ones by sigma^-1, which lies
    # in the same class, so a class-closed element acts the same either way:
    # the upper oracle checks that transpose fact.
    f = data.draw(spread_tensors(k, N))
    central = [averaged_class(k, tau) for tau in partitions(k)]
    central += [idempotent_classes(lam) for lam in partitions(k)]
    central.append({mu: data.draw(rationals) for mu in partitions(k)})
    for coeffs in central:
        weights = {p: c for mu, c in coeffs.items() for p in class_elements(k)[mu]}
        assert block_apply(f, coeffs, k, N) == reference_apply_group_algebra_sym(
            f, weights, k, upper
        )


# -- trace-free symmetric subspace -------------------------------------------


def test_adjoint_dimension():
    assert trace_free_dimension(1, 3) == 8
    assert trace_free_dimension(1, 5) == 24
    assert isotypic_rank((1,), 1, 4) == 15


def test_dim_104_and_ranks():
    assert trace_free_dimension(2, 4) == 104
    tab = isotypic_table(2, 4)
    assert tab[(2,)] == 84 and tab[(1, 1)] == 20


def test_weyl_dim_values():
    assert weyl_dim((1, 0, 0, -1), 4) == 15
    assert weyl_dim((2, 0, 0, -2), 4) == 84
    assert weyl_dim((1, 1, -1, -1), 4) == 20


def test_weyl_dim_rejects_nonmonotone():
    with pytest.raises(ValueError):
        weyl_dim((0, 1, 0, -1), 4)


def test_lambda_plus_dual():
    assert lambda_plus_dual((1,), 5) == (1, 0, 0, 0, -1)
    assert lambda_plus_dual((2, 1), 4) == (2, 1, -1, -2)
    assert lambda_plus_dual((1, 1, 1), 4) == (1, 0, 0, -1)


def test_stable_range_formula_agreement():
    assert stable_dim_formula(2, 4) == 104
    assert trace_free_dimension(2, 5) == stable_dim_formula(2, 5)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_weight_orbits_and_blocks_match_the_sorted_multisets(k):
    # the orbits built from pairs of partitions have the patterns and sizes
    # of the orbits of all sorted multisets, each representative's block is
    # the block of all multisets at its weight, and the dimension is the
    # closed-form sum of the law
    for N in range(1, 8):
        orbits = weight_orbits(k, N)
        assert {pat: cnt for pat, (_, cnt) in orbits.items()} == weight_orbit_sizes(k, N)
        blocks = weight_blocks(k, N)
        for pat, (w, _) in orbits.items():
            assert w == pat and weight_block(k, N, w) == blocks[w], (k, N, w)
        assert trace_free_dimension(k, N) == stable_dim_formula(k, N), (k, N)


def test_kostka_numbers_sum_to_the_weyl_dimension():
    # every weight of V(lambda + lambda*) lies in a weight orbit of the
    # blocks, so the orbit-weighted multiplicities add up to its dimension
    for k, N in [(1, 3), (2, 4), (3, 4), (3, 6), (4, 5)]:
        for lam in partitions(k):
            if 2 * len(lam) <= N:
                shape = tuple(x + k for x in lambda_plus_dual(lam, N))
                total = sum(cnt * kostka(shape, tuple(x + k for x in w)) for w, cnt in weight_orbits(k, N).values())
                assert total == weyl_dim(lambda_plus_dual(lam, N), N), (k, N, lam)
    assert kostka((2, 1), (1, 1, 1)) == 2 and kostka((2, 1, 0), (0, 1, 2)) == 1


@pytest.mark.parametrize("k, N", [(1, 3), (2, 1), (2, 4), (3, 3), (3, 5), (3, 6), (4, 5), (4, 7)])
def test_kernel_sizes_are_the_weight_multiplicities(k, N):
    res = weight_multiplicity_check(k, N)
    assert not res and res.cases == len(weight_orbits(k, N))


@pytest.mark.parametrize("k, N", [(2, 4), (3, 5), (4, 5)])
def test_weight_multiplicities_without_the_symmetric_piece_fail_every_orbit(k, N, monkeypatch):
    top = tuple(x + k for x in lambda_plus_dual((k,), N))
    full = dec.kostka
    monkeypatch.setattr(dec, "kostka", lambda shape, content: 0 if shape == top else full(shape, content))
    res = weight_multiplicity_check(k, N)
    assert len(res) == res.cases == len(weight_orbits(k, N))


@pytest.fixture
def fresh_traces():
    """Traces computed inside the test, and none of its mutants kept."""
    dec._class_traces.cache_clear()
    yield
    dec._class_traces.cache_clear()


@pytest.mark.parametrize("k, N", [(3, 6), (4, 5), (4, 6)])
def test_trace_ranks_equal_the_span_ranks(k, N):
    for lam in partitions(k):
        assert isotypic_rank(lam, k, N) == isotypic_rank_by_span(lam, k, N), lam


def test_trace_ranks_catch_a_changed_kernel_entry(monkeypatch, fresh_traces):
    # raise, in one kernel vector v_f, the entry that a transposition moves
    # M_f to: the transposition trace moves, and so do the ranks, except that
    # of (2, 1), whose character vanishes on transpositions
    k, N = 3, 6
    oracle = {lam: isotypic_rank_by_span(lam, k, N) for lam in partitions(k)}
    kernels = dec._orbit_kernels(k, N)
    w, cnt, rows = kernels[-1]
    block = weight_block(k, N, w)
    v = dict(rows[0])
    f = max(v)
    moved = {_perm_lower_multiset(block[f], s) for s in class_elements(k)[(2, 1)]} - {block[f]}
    i = block.index(min(moved))
    v[i] = v.get(i, 0) + 1
    monkeypatch.setattr(dec, "_orbit_kernels", lambda k, N: kernels[:-1] + [(w, cnt, (v,) + rows[1:])])
    ranks = isotypic_table(k, N)
    assert ranks != oracle and ranks[(2, 1)] == oracle[(2, 1)]


def test_trace_ranks_catch_a_dropped_permutation(monkeypatch, fresh_traces):
    k, N = 4, 5
    oracle = {lam: isotypic_rank_by_span(lam, k, N) for lam in partitions(k)}
    elems = dict(class_elements(k))
    elems[(2, 1, 1)] = elems[(2, 1, 1)][1:]
    monkeypatch.setattr(dec, "class_elements", lambda k: elems)
    assert isotypic_table(k, N) != oracle


def test_basis_elements_killed_by_every_contraction():
    for (k, N) in [(1, 3), (2, 3)]:
        basis = trace_free_symmetric_basis(k, N)
        assert len(basis) == trace_free_dimension(k, N)
        for block, vec in basis:
            f = {M: c for M, c in zip(block, vec) if c}
            T = sym_to_mixed(k, N, f)
            assert T.is_symmetric()
            assert T.is_trace_free()


def test_isotypic_transpose_closure():
    # the idempotent acting on the upper index group, through the dict
    # oracle, cuts out subspaces of the same ranks as the lower-index action
    basis = trace_free_symmetric_basis(2, 4)
    index = {M: j for j, M in enumerate(pair_multisets(2, 4))}
    for lam in partitions(2):
        idem = {p: c for mu, c in idempotent_classes(lam).items() for p in class_elements(2)[mu]}
        images = []
        for block, vec in basis:
            f = {M: c for M, c in zip(block, vec) if c}
            row = [RZERO] * len(index)
            for M, c in reference_apply_group_algebra_sym(f, idem, 2, upper=True).items():
                row[index[M]] = c
            images.append(row)
        assert rank(images) == isotypic_rank(lam, 2, 4) > 0


def test_isotypic_ranks_sum_below_stable_range():
    for (k, N) in [(2, 3), (3, 3), (3, 4)]:
        tab = isotypic_table(k, N)
        assert sum(tab.values()) == trace_free_dimension(k, N)


def test_nonzero_component_count_stable():
    for k in (1, 2, 3):
        tab = isotypic_table(k, 2 * k)
        assert sum(1 for v in tab.values() if v) == len(partitions(k))


def test_commutant_ops_preserve_trace_free_and_commute_with_gl():
    k, N = 2, 3
    for pat, (w, cnt) in weight_orbits(k, N).items():
        block, kern = trace_free_block_kernel(k, N, w)
        for v in kern[:2]:
            f = {block[j]: rat(c) for j, c in v.items()}
            for lam in partitions(k):
                out = block_apply(f, averaged_class(k, lam), k, N)
                T = sym_to_mixed(k, N, out)
                assert T.is_trace_free()
    # gl-equivariance on random symmetric tensors
    rng = random.Random(3)
    f = {}
    for M in pair_multisets(3, 3):
        c = rng.randint(-2, 2)
        if c:
            f[M] = rat(c)
    for (a, b) in [(0, 1), (1, 2), (2, 0), (1, 1)]:
        for lam in partitions(3):
            op = averaged_class(3, lam)
            lhs = gl_action_sym(a, b, block_apply(f, op, 3, 3), 3, 3)
            rhs = block_apply(gl_action_sym(a, b, f, 3, 3), op, 3, 3)
            assert lhs == rhs, (a, b, lam)


def test_gl_action_is_a_representation():
    rng = random.Random(8)
    k, N = 2, 3
    f = {}
    for M in pair_multisets(k, N):
        c = rng.randint(-2, 2)
        if c:
            f[M] = rat(c)

    def act(a, b, g):
        return gl_action_sym(a, b, g, k, N)

    # [E_01, E_12] = E_02 on tensors
    lhs = act(0, 1, act(1, 2, f))
    rhs = act(1, 2, act(0, 1, f))
    diff = dict(lhs)
    for M, c in rhs.items():
        s = diff.get(M, rat(0)) - c
        if s:
            diff[M] = s
        else:
            diff.pop(M, None)
    assert diff == act(0, 2, f)


# -- commutant multiplication --------------------------------------------------


def kernel_vector_count(k, N):
    return sum(len(trace_free_block_kernel(k, N, w)[1]) for w, _ in weight_orbits(k, N).values())


def test_sparse_class_sums_match_the_dense_gather_3_6():
    # The merged class tables scatter through preimages: on sorted
    # representatives M -> M^sigma is not a bijection of a block, so an
    # inverse-permutation scatter would be wrong.  Each table row is the
    # former preimage lists merged over the class, and class sums of class
    # sums are what the commutant cross-check forms, so they are compared too.
    k, N = 3, 6
    elems = class_elements(k)
    cases, merges = 0, 0
    for w, _ in weight_orbits(k, N).values():
        block, kern = trace_free_block_kernel(k, N, w)
        pre, tables = _perm_preimages(k, N, w), gather_tables(k, N, w)
        merges += any(len(set(t)) < len(t) for t in tables.values())
        merged = {tau: _class_table(k, N, w, tau) for tau in elems}
        for tau, perms in elems.items():
            for i, row in enumerate(merged[tau]):
                lists = sorted(j for p in perms for j in pre[p][i])
                assert sorted(j for j, m in row for _ in range(m)) == lists
        for sparse in kern:
            cases += 1
            dense = [sparse.get(j, 0) for j in range(len(block))]
            for tau, perms in elems.items():
                once = _scatter(merged[tau], sparse)
                ref = gather_class_sum(dense, tables, perms)
                assert [once.get(j, 0) for j in range(len(block))] == ref
                assert {j: x for j, x in once.items() if x} == _class_sum(sparse, pre, perms)
                twice = _scatter(merged[(2, 1)], once)
                assert [twice.get(j, 0) for j in range(len(block))] == gather_class_sum(
                    ref, tables, elems[(2, 1)]
                )
    assert cases == kernel_vector_count(k, N) == 206 and merges


def test_kernel_entries_stay_small_4_6():
    # content division keeps the (4,6) weight-0 kernel at 6-bit entries; the
    # guard is 16 bits
    block, kern = trace_free_block_kernel(4, 6, (0,) * 6)
    assert len(block) == 891 and kern
    assert max(abs(c).bit_length() for v in kern for c in v.values()) < 16


def test_commutant_crosscheck_2_4():
    res = commutant_mult_crosscheck(2, 4, class_product(2))
    assert not res
    assert res.cases == kernel_vector_count(2, 4) > 0


def test_commutant_crosscheck_3_4_below_stable():
    res = commutant_mult_crosscheck(3, 4, class_product(3))
    assert not res
    assert res.cases == kernel_vector_count(3, 4) > 0


def test_commutant_crosscheck_reports_zero_cases_on_zero_space():
    res = commutant_mult_crosscheck(2, 1, class_product(2))
    assert res.cases == 0 and not res


@pytest.mark.parametrize(
    "k, N, pair, src, dst",
    [(2, 4, ((2,), (2,)), (1, 1), (2,)), (3, 6, ((2, 1), (3,)), (2, 1), (1, 1, 1))],
)
def test_crosscheck_catches_a_moved_class_constant(k, N, pair, src, dst):
    """Moving 1/100 of one structure constant to another class fails exactly that pair."""
    true_product = class_product(k)

    def perturbed(lam, mu):
        coeffs = dict(true_product(lam, mu))
        if (lam, mu) == pair:
            delta = coeffs[src] / 100
            coeffs[src] -= delta
            coeffs[dst] = coeffs.get(dst, RZERO) + delta
        return coeffs

    res = commutant_mult_crosscheck(k, N, perturbed)
    assert res == [str(pair)] and res.cases == kernel_vector_count(k, N)


def test_crosscheck_catches_a_spurious_fractional_constant():
    # |C_lam||C_mu|/|C_tau| = 1 here, so the constant stays 1/100: only the
    # common integer scale of the pair keeps it from being dropped
    def spurious(lam, mu):
        coeffs = dict(class_product(2)(lam, mu))
        if (lam, mu) == ((1, 1), (2,)):
            coeffs[(1, 1)] = rat(1, 100)
        return coeffs

    res = commutant_mult_crosscheck(2, 4, spurious)
    assert res == ["((1, 1), (2,))"] and res.cases == kernel_vector_count(2, 4)


def test_basis_independence():
    for (k, N) in [(2, 4), (3, 6)]:
        assert basis_operator_rank(k, N) == (len(partitions(k)), kernel_vector_count(k, N))


def test_basis_independence_fails_below_the_stable_range():
    # p(3) = 3 operators, but S^3_0 sl(4) has only two nonzero isotypic parts
    assert isotypic_table(3, 4)[(1, 1, 1)] == 0
    assert basis_operator_rank(3, 4) == (2, kernel_vector_count(3, 4))


@pytest.mark.parametrize("k, N", [(2, 3), (3, 5), (4, 5)])
def test_basis_operator_rank_counts_the_nonzero_isotypic_parts(k, N):
    # below the stable range the operators span one dimension per nonzero
    # isotypic part, and those are the lambda with 2*depth(lambda) <= N
    nonzero = [lam for lam, r in isotypic_table(k, N).items() if r]
    assert nonzero == [lam for lam in partitions(k) if 2 * len(lam) <= N]
    assert basis_operator_rank(k, N) == (len(nonzero), kernel_vector_count(k, N))


def test_young_vs_idempotent_images():
    # The Young-projector sum and the central idempotent cut out the same
    # isotypic subspaces of S^k_0 (subspace equality by concatenated ranks).
    # The Young element is not central, so it is applied honestly on the full
    # tensor (lower slots) and the result re-symmetrized over slot pairs.
    for (k, N) in [(2, 3), (3, 3)]:
        cases = 0
        for w, _ in weight_orbits(k, N).values():
            block, kern = trace_free_block_kernel(k, N, w)
            fns = [{block[j]: rat(c) for j, c in v.items()} for v in kern]
            for lam in partitions(k):
                young = young_projector_sum(lam)
                eimgs = [block_vector(block_apply(f, idempotent_classes(lam), k, N), block) for f in fns]
                yimgs = [
                    block_vector(
                        mixed_to_sym(sym_to_mixed(k, N, f).act(young, upper=False).symmetrized()),
                        block,
                    )
                    for f in fns
                ]
                re_, ry = rank(eimgs), rank(yimgs)
                assert re_ == ry == rank([v for v in eimgs + yimgs if any(v)]), (k, N, w, lam)
                cases += bool(kern)
        assert cases


# -- highest weight vectors and skews ------------------------------------------


def test_hwv_adjoint():
    f = highest_weight_vector((1,), 3)
    assert f
    assert {multiset_weight(M, 3) for M in f} == {(1, 0, -1)}


def test_hwv_nonzero_in_range():
    for N in (3, 4, 5, 6):
        for k in (1, 2, 3):
            for lam in partitions(k):
                if 2 * len(lam) <= N:
                    assert highest_weight_vector(lam, N), (lam, N)


def test_hwv_is_the_pair_symmetrization_of_the_idempotent_terms():
    # the former accumulation over the idempotent's terms is k!/stab times
    # the pair symmetrization at each multiset, for every lambda of k <= 4
    cases = 0
    for N in range(2, 8):
        for k in range(1, 5):
            for lam in partitions(k):
                if 2 * len(lam) <= N:
                    new = highest_weight_vector(lam, N)
                    old = highest_weight_vector_by_idempotent_terms(lam, N)
                    assert new and {M: v * rat(factorial(k), stabilizer_order(M)) for M, v in new.items()} == old
                    cases += 1
    assert cases == 44


def test_hwv_rejects_out_of_range():
    with pytest.raises(ValueError):
        highest_weight_vector((1, 1), 3)


def test_skew_vanishing():
    # every trial alternates each (depth + 1)-subset of the k slots
    for lam, N, trials in [((2,), 3, 3), ((2, 1), 3, 5), ((3,), 3, 3)]:
        k = sum(lam)
        res = skew_vanishing_check(lam, k, N, trials=trials)
        assert not res and res.cases == trials * comb(k, len(lam) + 1), lam


def test_skew_vanishing_needs_depth_plus_one_slots():
    # the e_lam image of (2, 1) is killed by alternating 3 slots but not by
    # alternating depth(lam) = 2 of them, so the check can fail
    image = plain_tensor(3, 3, random.Random(0)).act(central_idempotent((2, 1)), upper=True)
    assert not image.skew_slots((0, 1, 2))
    assert all(image.skew_slots(slots) for slots in itertools.combinations(range(3), 2))


# -- seven pieces ---------------------------------------------------------------


def test_seven_pieces():
    for N in (3, 4):
        pieces, failures = seven_pieces_check(N)
        assert not failures and failures.cases == 7, failures
        # with the trace line and the two gl(V) (x) 1, 1 (x) gl(V) copies of sl
        assert sum(pieces.values()) + 2 * (N * N - 1) + 1 == N**4
    pieces4, _ = seven_pieces_check(4)
    assert pieces4 == {
        "cartan_sym": 84,
        "cartan_alt": 20,
        "adjoint_sym": 15,
        "killing": 1,
        "mixed_sym_skew": 45,
        "mixed_skew_sym": 45,
        "bracket": 15,
    }


def test_seven_pieces_killing_line_is_computed(monkeypatch):
    # The Killing form vanishes on the strictly upper-triangular subalgebra, so
    # there the full double contraction of the symmetric part is zero.
    import subsym.decompose as dec

    full = dec.sl_basis

    def strictly_upper(n):
        return [V for V in full(n) if all(B < A for (B,), (A,) in V.entries)]

    monkeypatch.setattr(dec, "sl_basis", strictly_upper)
    for N in (3, 4):
        pieces, failures = seven_pieces_check(N)
        assert pieces["killing"] == 0 and "Killing piece 0 is not a line" in failures


def test_materialized_basis_count_2_4():
    basis = trace_free_symmetric_basis(2, 4)
    assert len(basis) == 104


def test_k3_kernel_vector_killed_by_all_nine_contractions():
    # the per-block kernel uses two inequivalent contraction patterns; on
    # pair-symmetric tensors they imply all k^2 of them
    k, N = 3, 3
    for pat, (w, cnt) in weight_orbits(k, N).items():
        block, kern = trace_free_block_kernel(k, N, w)
        if kern:
            f = {block[j]: rat(c) for j, c in kern[0].items()}
            T = sym_to_mixed(k, N, f)
            for p in range(k):
                for q in range(k):
                    assert not T.contraction(p, q)
            break


def test_pinned_matrix_2_5():
    tab = isotypic_table(2, 5)
    assert sum(tab.values()) == trace_free_dimension(2, 5) == stable_dim_formula(2, 5)
    for lam, r in tab.items():
        assert r == weyl_dim(lambda_plus_dual(lam, 5), 5)
    assert basis_operator_rank(2, 5) == (2, kernel_vector_count(2, 5))
