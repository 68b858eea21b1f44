import itertools
import random
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from subsym.ambient import higher_symmetry_op, random_traceless
from subsym.tensor import SparseTensor
from subsym.boundary import BoundaryModel, induce, tangential_ops
from subsym.cli import three_column_skew_checks
from subsym.report import VerificationReport
from subsym.rings import LaurentPoly
from subsym.scalars import rat
from support import (
    build_prop1_tensor_by_placements,
    check_symbol_recursions_by_form,
    component,
    insertion_left_kernel_full_tuples,
    principal_part,
)
from subsym.symbols import (
    SymbolTensor,
    _insertion_left_kernel,
    a_coeff,
    add_symbols,
    a_matrix_det,
    build_prop1_tensor,
    check_bgg,
    check_symbol_recursions,
    _extract_symbols_reference,
    extract_all_symbols,
    label_keys,
    pascal_identity_check,
    prop1_system,
    symmetry_space_dim,
    trace_free_part_vanishes,
    type_count,
    verify_prop1,
)


# -- combinatorics -------------------------------------------------------------


def test_a_first_row_is_one():
    assert all(a_coeff(s, 1, i) == 1 for s in range(1, 9) for i in range(s + 1))


def test_a_small_values():
    assert a_coeff(1, 1, 1) == 1
    assert a_coeff(2, 2, 1) == 3
    assert a_coeff(2, 2, 2) == 2
    assert a_coeff(2, 2, 0) == 4


def test_a_values_nonnegative():
    # corner entries can vanish from s = 3 on (e.g. a^3_{3,3} = 0, forced by
    # the Pascal identity); within the acceptance range s <= 2 all are positive
    for s in range(1, 9):
        for r in range(1, s + 1):
            for i in range(s + 1):
                assert a_coeff(s, r, i) >= 0
    for s in (1, 2):
        for r in range(1, s + 1):
            for i in range(s + 1):
                assert a_coeff(s, r, i) > 0


def test_pascal_smallest_instance():
    assert a_coeff(2, 2, 0) - a_coeff(2, 2, 1) == a_coeff(1, 1, 0)


def test_pascal_sweep():
    assert not pascal_identity_check(8)


def test_determinants_unimodular_with_sign_recurrence():
    dets = {s: a_matrix_det(s) for s in range(1, 9)}
    assert dets[1] == 1
    for s in range(2, 9):
        assert dets[s] == (-1) ** (s + 1) * dets[s - 1]
        assert abs(dets[s]) == 1


def test_prop1_system_solutions():
    res = prop1_system(2, 1)
    assert res["solved"] and res["unique"] and len(res["x"]) == 1
    res42 = prop1_system(4, 2)
    assert res42["solved"] and res42["unique"]


def test_type_counts_nonzero():
    for d in range(2, 7):
        for s in range(1, d // 2 + 1):
            for i in range(s + 1):
                assert type_count(d, s, i) > 0


# -- extraction ----------------------------------------------------------------


@pytest.fixture(scope="module")
def m1():
    return BoundaryModel(1)


@pytest.fixture(scope="module")
def m2():
    return BoundaryModel(2)


def test_d1_symbols_hand_values(m1):
    T = SparseTensor(1, 3, {((0,), (0,)): rat(1), ((2,), (2,)): rat(-1)})
    syms = extract_all_symbols(m1, T)
    # one tau slot: the sigma-form symbol -2 sigma times the phase i, at sigma = -i tau
    assert component(syms[(0, 0)], (), ()) == m1.tau().scale(-2)
    assert component(syms[(1, 0)], (1,), ()) == m1.z(1).scale(-1)
    assert component(syms[(0, 1)], (), (1,)) == m1.z_low(1).scale(-1)


def test_d1_recursions_for_basis(m1):
    from subsym.ambient import sl_basis

    for V in sl_basis(3)[:4]:
        syms = extract_all_symbols(m1, V)
        rec = check_symbol_recursions(m1, syms, 1)
        assert all(ok for _, ok, _ in rec), V.entries


def test_d1_sigma_symbol_matches_induced_constant_term(m2):
    # the tau-coefficient (sigma-coefficient times i) of the induced operator
    # agrees with extraction
    rng = random.Random(4)
    V = random_traceless(2, rng)
    syms = extract_all_symbols(m2, V)
    dV = higher_symmetry_op(m2.ambient, V)
    # apply the induced operator to tau and subtract the lower-order parts:
    # induced(D_V) = V^a d_a + V_b d^b + V^tau d_tau + zeroth order;
    # evaluating on 1 and on the coordinates isolates the coefficients
    w1, w2 = -1, -1
    zero_part = induce(m2, dV, w1, w2, m2.ring.one())
    got_tau = induce(m2, dV, w1, w2, m2.tau()) - zero_part * m2.tau()
    d_hol, d_raised, _ = tangential_ops(m2)
    expected = component(syms[(0, 0)], (), ())
    for a in range(1, 3):
        expected = expected + component(syms[(1, 0)], (a,), ()) * d_hol[a - 1].apply(m2.tau())
        expected = expected + component(syms[(0, 1)], (), (a,)) * d_raised[a - 1].apply(m2.tau())
    assert got_tau == expected


def test_arity_guard(m2):
    T = SparseTensor(2, 4, {})
    with pytest.raises(ValueError):
        _extract_symbols_reference(m2, T, 2, 1)


def test_recursions_d2(m2):
    rng = random.Random(3)
    T = SparseTensor.random_disjoint_trace_free(2, 4, rng)
    assert T.is_symmetric() and T.is_trace_free()
    syms = extract_all_symbols(m2, T)
    rec = check_symbol_recursions(m2, syms, 2)
    assert all(ok for _, ok, _ in rec)


def test_perturbed_pure_tau_symbol_fails_only_its_recursion(m2):
    # a constant added to one component of syms[(k, 0)] or syms[(0, l)] is
    # killed by every tangential derivative, so only the pure-tau recursion
    # that has that symbol on its left side can see it
    T = SparseTensor.random_disjoint_trace_free(2, 4, random.Random(3))
    syms = extract_all_symbols(m2, T)
    for key, label in [
        ((1, 0), "tau recursion (upper) k=1"),
        ((2, 0), "tau recursion (upper) k=2"),
        ((0, 1), "tau recursion (lower) l=1"),
        ((0, 2), "tau recursion (lower) l=2"),
    ]:
        S = syms[key]
        comp = ((1,) * S.k, (2,) * S.l)
        bumped = dict(S.components)
        bumped[comp] = component(S, *comp) + m2.ring.one()
        bad = dict(syms)
        bad[key] = SymbolTensor(S.n, S.k, S.l, S.ring, bumped)
        failed = [lab for lab, ok, _ in check_symbol_recursions(m2, bad, 2) if not ok]
        assert failed == [label], key


def test_recursions_d2_general_tensor(m2):
    rng = random.Random(3)
    T = SparseTensor.random_column_symmetric(2, 4, rng, density=0.15)
    syms = extract_all_symbols(m2, T)
    rec = check_symbol_recursions(m2, syms, 2)
    assert all(ok for _, ok, _ in rec)


def test_recursions_d3_n3():
    m3 = BoundaryModel(3)
    rng = random.Random(9)
    T = SparseTensor.random_disjoint_trace_free(3, 5, rng)
    syms = extract_all_symbols(m3, T)
    rec = check_symbol_recursions(m3, syms, 3)
    assert all(ok for _, ok, _ in rec)


def recursion_families(n, g_diag, d):
    """Seeded symbol families of degree d on the model (n, g_diag): a
    column-symmetric tensor symmetrized from about 20 random entries and, for
    n >= 2, a disjoint-index trace-free one."""
    m = BoundaryModel(n, g_diag)
    rng = random.Random(100 * n + 10 * d + (g_diag is not None))
    density = min(0.3, 20 / (n + 2) ** (2 * d))
    tensors = [SparseTensor.random_column_symmetric(d, n + 2, rng, density=density)]
    if n >= 2:
        tensors.append(SparseTensor.random_disjoint_trace_free(d, n + 2, rng))
    return m, rng, [extract_all_symbols(m, T) for T in tensors]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n, g_diag", [(1, None), (2, None), (3, None), (2, (1, -1))])
def test_recursion_sweep_matches_the_form_by_form_oracle(n, g_diag, d):
    # the one-formula sweep and the five hand-written forms give the same
    # (label, ok, witness) set, on extracted families and on the same
    # families with one random (k, l) component perturbed
    m, rng, families = recursion_families(n, g_diag, d)
    for syms in families:
        key = rng.choice(sorted(syms))
        comp = tuple(rng.choice(list(label_keys(n, j))) for j in key)
        S = syms[key]
        bumped = dict(S.components)
        bumped[comp] = component(S, *comp) + m.ring.const(rng.randint(1, 3)) + (
            m.z(1).scale(rng.randint(-2, 2)) + m.tau().scale(rng.randint(-2, 2)))
        perturbed = {**syms, key: SymbolTensor(n, *key, m.ring, bumped)}
        for family in (syms, perturbed):
            got = check_symbol_recursions(m, family, d)
            assert len(got) == (d + 1) * (d + 4) // 2
            assert set(got) == set(check_symbol_recursions_by_form(m, family, d))
        assert not all(ok for _, ok, _ in check_symbol_recursions(m, perturbed, d))


def test_zero_symbols_pass_vacuously(m2):
    T = SparseTensor(2, 4, {})
    syms = extract_all_symbols(m2, T)
    rec = check_symbol_recursions(m2, syms, 2)
    assert all(ok for _, ok, _ in rec)


def test_skew_three_columns_kills_symbols(three_column_skew):
    # the double skew equals the upper skew, so it is column-symmetric and silent
    rep, _ = three_column_skew
    assert [(c.name, c.status) for c in rep.checks] == [
        (f"n={n}: {check}", "pass")
        for n in (2, 3)
        for check in (
            "three-column-skew tensor induces identically zero symbols",
            "double-skew (column-symmetric) tensor also induces zero",
        )
    ]


def test_skew_block_extracts_symbols_once(monkeypatch):
    import subsym.symbols

    calls = []

    def spy(m, T):
        calls.append(T)
        return extract_all_symbols(m, T)

    monkeypatch.setattr(subsym.symbols, "extract_all_symbols", spy)
    rep = VerificationReport(suite="symbols", parameters={})
    three_column_skew_checks(rep, BoundaryModel(2), random.Random(19))
    assert rep.passed and len(rep.checks) == 2
    assert len(calls) == 1


def test_skew_block_fails_a_wrong_double_skew(monkeypatch):
    # negative control: a lower skew that doubles its input must be caught
    import subsym.symbols

    skew = SparseTensor.skew_slots

    def doubling(self, slots, upper=True):
        return skew(self, slots, upper) if upper else self.scale(rat(2))

    monkeypatch.setattr(SparseTensor, "skew_slots", doubling)
    monkeypatch.setattr(subsym.symbols, "extract_all_symbols", lambda m, T: {})
    rep = VerificationReport(suite="symbols", parameters={})
    three_column_skew_checks(rep, BoundaryModel(2), random.Random(19))
    assert [c.status for c in rep.checks] == ["pass", "fail"]
    assert rep.checks[1].witness == "double skew differs from the upper skew"


def test_el2_elements_induce_zero():
    # the ideal generators: double-skew of U (x) V (x) W for traceless inputs
    n = 2
    m = BoundaryModel(n)
    rng = random.Random(23)
    mats = [random_traceless(n, rng) for _ in range(3)]
    entries = {}
    for (B1, A1), (B2, A2), (B3, A3) in itertools.product(*(M.entries for M in mats)):
        key = (B1 + B2 + B3, A1 + A2 + A3)
        entries[key] = mats[0].entries[B1, A1] * mats[1].entries[B2, A2] * mats[2].entries[B3, A3]
    T = SparseTensor(3, n + 2, entries)
    Tsk = T.skew_slots([0, 1, 2], upper=True).skew_slots([0, 1, 2], upper=False)
    assert Tsk
    syms = extract_all_symbols(m, Tsk)
    assert all(not s for s in syms.values())


# -- BGG checks -----------------------------------------------------------------


def test_bgg_constant_top_symbol(m2):
    comp = {((1,), (2,)): m2.ring.one()}
    top = SymbolTensor(2, 1, 1, m2.ring, comp)
    assert all(ok for _, ok, _ in check_bgg(m2, top, 2, 1))


def test_bgg_sigma_power_degree_bound(m2):
    # direct expansion oracle: sigma^m, a unit multiple of tau^m, lies in the
    # kernel of the (d+1)-fold symmetrized raised derivative exactly when m <= d
    for d in (1, 2):
        for mdeg in range(0, d + 2):
            top = SymbolTensor(2, 0, 0, m2.ring, {((), ()): m2.tau() ** mdeg})
            res = check_bgg(m2, top, d, 0)
            if mdeg <= d:
                assert all(ok for _, ok, _ in res), (d, mdeg)
            else:
                assert not all(ok for _, ok, _ in res), (d, mdeg)
    # pure holomorphic polynomials die at the first raised derivative
    ok_poly = SymbolTensor(2, 0, 0, m2.ring, {((), ()): m2.z(1) ** 2})
    assert all(ok for _, ok, _ in check_bgg(m2, ok_poly, 2, 0))


def test_trace_free_part_detects_insertion(m2):
    # a pure delta-insertion has vanishing trace-free part
    lam_poly = m2.z(1)
    comps = {}
    for a in range(1, 3):
        for b in range(1, 3):
            if a == b:
                comps[((a,), (b,))] = lam_poly
    S = SymbolTensor(2, 1, 1, m2.ring, comps)
    assert trace_free_part_vanishes(m2, S) is None
    # a generic symbol does not
    S2 = SymbolTensor(2, 1, 1, m2.ring, {((1,), (2,)): m2.ring.one()})
    assert trace_free_part_vanishes(m2, S2) is not None


# the (k, l) cases of the delta-insertion kernel checked against the
# full-tuple oracle
INSERTION_CASES = [
    (n, k, l)
    for n in (2, 3)
    for k, l in [(k, l) for k in (1, 2, 3) for l in (1, 2, 3)] + [(4, 1), (1, 4)]
]


def symmetric_insertion(m, k, l, lam):
    """delta^{(a}_{(b} lam^{...)}_{...)} summed over full index tuples and
    stored under sorted keys; lam maps sorted (k-1, l-1) keys to polynomials."""
    comps = {}
    for key in itertools.product(range(1, m.n + 1), repeat=k + l):
        a, b = key[:k], key[k:]
        terms = []
        for pa in itertools.permutations(range(k)):
            for pb in itertools.permutations(range(l)):
                if a[pa[0]] == b[pb[0]]:
                    rest = (tuple(sorted(a[i] for i in pa[1:])), tuple(sorted(b[i] for i in pb[1:])))
                    if rest in lam:
                        terms.append(lam[rest])
        val = LaurentPoly.sum(m.ring, terms, den=factorial(k) * factorial(l))
        skey = (tuple(sorted(a)), tuple(sorted(b)))
        assert comps.setdefault(skey, val) == val  # the insertion is symmetric
    return SymbolTensor(m.n, k, l, m.ring, comps)


def random_symbol(m, k, l, rng):
    """Symmetric (k, l) family with small random polynomial components."""
    labels = range(1, m.n + 1)
    return {
        (a, b): m.ring.const(rng.randint(-3, 3)) + m.z(1).scale(rng.randint(-2, 2))
        for a in itertools.combinations_with_replacement(labels, k)
        for b in itertools.combinations_with_replacement(labels, l)
    }


@pytest.mark.parametrize("n, k, l", INSERTION_CASES)
def test_insertion_kernel_matches_the_full_tuple_kernel(n, k, l, monkeypatch):
    import subsym.symbols

    m = BoundaryModel(n)
    rng = random.Random(100 * n + 10 * k + l)
    insertion = symmetric_insertion(m, k, l, random_symbol(m, k - 1, l - 1, rng))
    perturbed = add_symbols(insertion, SymbolTensor(n, k, l, m.ring, random_symbol(m, k, l, rng)))
    assert insertion
    verdicts = []
    for kernel in (_insertion_left_kernel, insertion_left_kernel_full_tuples):
        monkeypatch.setattr(subsym.symbols, "_insertion_left_kernel", kernel)
        verdicts.append((trace_free_part_vanishes(m, insertion),
                         trace_free_part_vanishes(m, perturbed) is not None))
    assert verdicts == [(None, True), (None, True)]
    # delta-insertion is multiplication by sum_x z_x w_x on bihomogeneous
    # polynomials, so it is injective: the image has dim Sym^(k-1) x Sym^(l-1)
    dim_sym = comb(n + k - 1, k) * comb(n + l - 1, l)
    rank_image = n ** (k + l) - len(insertion_left_kernel_full_tuples(n, k, l))
    assert rank_image == comb(n + k - 2, k - 1) * comb(n + l - 2, l - 1)
    assert len(_insertion_left_kernel(n, k, l)) == dim_sym - rank_image


# -- the type-based construction --------------------------------------------------


def test_prop1_s0():
    m = BoundaryModel(2)
    T = build_prop1_tensor(m, 1, 0, [])
    assert list(T.entries) == [((3,), (0,))]
    syms = extract_all_symbols(m, T)
    # the sigma-form symbol -i times the phase i of its one tau slot
    assert component(syms[(0, 0)], (), ()) == m.ring.const(1)
    assert all(ok for _, ok, _ in check_bgg(m, syms[(0, 0)], 1, 0))
    rec = check_symbol_recursions(m, syms, 1)
    assert all(ok for _, ok, _ in rec)


def test_prop1_2_1_zero_sigma_symbol():
    # the x_1 value kills the pure-sigma symbol
    m = BoundaryModel(3)
    res = prop1_system(2, 1)
    T = build_prop1_tensor(m, 2, 1, res["x"])
    assert T.is_symmetric()
    syms = extract_all_symbols(m, T)
    assert not syms[(0, 0)]


@pytest.mark.parametrize("d,s", [(2, 1), (3, 1), (4, 2)])
def test_prop1_tensor_is_column_symmetric(d, s):
    # the (d, s) the prop1 suite runs, on its default model
    m = BoundaryModel(3)
    assert build_prop1_tensor(m, d, s, prop1_system(d, s)["x"]).is_symmetric()


@pytest.mark.parametrize("d,s", [(2, 1), (3, 1)])
def test_prop1_end_to_end(d, s):
    m = BoundaryModel(3)
    ok, detail = verify_prop1(m, d, s)
    assert ok, detail


def test_prop1_seed_scaling_linearity():
    res = prop1_system(3, 1)
    # the solution is independent of the seed scale by construction
    assert len(res["x"]) == 1
    m = BoundaryModel(2)
    T1 = build_prop1_tensor(m, 3, 1, res["x"])
    T2 = build_prop1_tensor(m, 3, 1, [v * rat(7) for v in res["x"]])
    # scaling only the type coefficients scales the non-seed components
    assert T2.entries[((1, 3, 3), (2, 0, 0))] == T1.entries[((1, 3, 3), (2, 0, 0))] * 7


# -- symmetry space dimensions ----------------------------------------------------


def test_symmetry_space_dims():
    assert symmetry_space_dim(1, 2) == ([15], 15)
    assert symmetry_space_dim(2, 2) == ([84, 20], 104)
    assert symmetry_space_dim(2, 1) == ([27, 0], 27)


def test_symmetry_space_cross_check_with_isotypic():
    from subsym.decompose import isotypic_table

    # n=2 -> N=4 is stable for k=2; at n=1 -> N=3 the (1, 1) part is zero
    for n in (1, 2):
        dims, total = symmetry_space_dim(2, n)
        tab = isotypic_table(2, n + 2)
        assert dims == [tab[(2,)], tab[(1, 1)]]
        assert total == sum(tab.values())
    assert isotypic_table(2, 3) == {(2,): 27, (1, 1): 0}


def test_build_prop1_tensor_general_seed():
    from subsym.symbols import _seed_is_trace_free, default_prop1_seed

    m = BoundaryModel(3)
    res = prop1_system(2, 1)
    # a different constant trace-free seed: off-diagonal components only
    comp = {((1,), (2,)): m.ring.one(), ((2,), (1,)): m.ring.one().scale(-1)}
    seed = SymbolTensor(3, 1, 1, m.ring, comp)
    assert _seed_is_trace_free(seed)
    T = build_prop1_tensor(m, 2, 1, res["x"], seed=seed)
    assert T.is_symmetric()
    syms = extract_all_symbols(m, T)
    # the same type coefficients kill the lower diagonal symbols (linearity)
    assert not syms[(0, 0)]
    rec = check_symbol_recursions(m, syms, 2)
    assert all(ok for _, ok, _ in rec)
    # default seed path unchanged
    Tdef = build_prop1_tensor(m, 2, 1, res["x"])
    assert Tdef == build_prop1_tensor(m, 2, 1, res["x"], seed=default_prop1_seed(m, 1))


def test_build_prop1_rejects_bad_seed():
    m = BoundaryModel(2)
    # nonzero trace: single diagonal component
    bad = SymbolTensor(2, 1, 1, m.ring, {((1,), (1,)): m.ring.one()})
    with pytest.raises(ValueError):
        build_prop1_tensor(m, 2, 1, [1], seed=bad)
    # non-constant seed
    var = SymbolTensor(2, 1, 1, m.ring, {((1,), (2,)): m.z(1)})
    with pytest.raises(ValueError):
        build_prop1_tensor(m, 2, 1, [1], seed=var)


def constant_seed(m, s, comps):
    """The seed with s upper and s lower indices and the given constant components."""
    return SymbolTensor(m.n, s, s, m.ring, {key: m.ring.const(c) for key, c in comps.items()})


@pytest.mark.parametrize(
    "comps,ok",
    [
        # the two diagonal traces cancel
        ({((1,), (1,)): 1, ((2,), (2,)): -1}, True),
        ({((1,), (1,)): 1, ((2,), (2,)): 1}, False),
        # one common label: the trace at ((2,), (3,)) is 1
        ({((1, 2), (1, 3)): 1}, False),
        # ((2, 3), (3, 3)) meets ((2,), (3,)) once, through its one common label
        ({((1, 2), (1, 3)): 1, ((2, 3), (3, 3)): -1, ((1, 1), (2, 3)): 5}, True),
    ],
)
def test_seed_trace_check_reads_the_components(comps, ok):
    from subsym.symbols import _seed_is_trace_free

    m = BoundaryModel(3)
    s = len(next(iter(comps))[0])
    assert _seed_is_trace_free(constant_seed(m, s, comps)) == ok


@pytest.mark.parametrize("n,d,s", [(2, 2, 1), (3, 3, 1), (3, 4, 2), (2, 4, 2), (3, 5, 2), (4, 4, 2), (3, 6, 3)])
def test_prop1_tensor_is_the_sum_over_placements(n, d, s):
    m = BoundaryModel(n)
    x = prop1_system(d, s)["x"]
    assert build_prop1_tensor(m, d, s, x) == build_prop1_tensor_by_placements(m, d, s, x)


@pytest.mark.parametrize(
    "d,s,comps",
    [
        (3, 1, {
            ((1,), (2,)): 1, ((2,), (1,)): -1, ((1,), (1,)): rat(1, 2), ((3,), (3,)): rat(-1, 2), ((2,), (3,)): 4,
        }),
        (4, 2, {((1, 2), (1, 3)): rat(2, 3), ((2, 3), (3, 3)): rat(-2, 3), ((1, 1), (2, 3)): 5}),
    ],
)
def test_prop1_tensor_is_the_sum_over_placements_for_other_seeds_and_coefficients(d, s, comps):
    m = BoundaryModel(3)
    seed = constant_seed(m, s, comps)
    for x in (prop1_system(d, s)["x"], [rat(-3, 7) * (i + 2) for i in range(s)]):
        T = build_prop1_tensor(m, d, s, x, seed=seed)
        assert T and T == build_prop1_tensor_by_placements(m, d, s, x, seed=seed)


def random_entries(rng, d, N, count):
    """A tensor of ``count`` random rational entries, with no column symmetry."""
    return SparseTensor(d, N, {
        (tuple(rng.randrange(N) for _ in range(d)), tuple(rng.randrange(N) for _ in range(d))):
        rat(rng.randint(-5, 5), rng.randint(1, 4))
        for _ in range(count)
    })


def assert_matches_reference(m, T):
    syms = extract_all_symbols(m, T)
    assert sorted(syms) == [(k, l) for k in range(T.k + 1) for l in range(T.k + 1 - k)]
    for (k, l), S in syms.items():
        assert S == _extract_symbols_reference(m, T, k, l), (k, l)


def test_fast_extraction_matches_reference_transcription():
    m = BoundaryModel(2)
    rng = random.Random(31)
    cases = [
        SparseTensor.random_disjoint_trace_free(2, 4, rng),
        SparseTensor.random_column_symmetric(2, 4, rng, density=0.3),
        build_prop1_tensor(m, 3, 1, prop1_system(3, 1)["x"]),
        # no column symmetry, rational entries: role keys that merge and
        # tau factors read in different column orders
        random_entries(rng, 3, 4, 12),
        # the upper three-column skew of a column-symmetric tensor: cancels
        SparseTensor.random_column_symmetric(3, 4, rng, density=0.05).skew_slots([0, 1, 2]),
    ]
    for T in cases:
        assert_matches_reference(m, T)


def prop1_case(rng):
    m = BoundaryModel(2)
    return m, [build_prop1_tensor(m, 4, 2, prop1_system(4, 2)["x"])]


# name -> rng -> (model, tensors), past the n = 2, d <= 3 cases above
REFERENCE_CASES = {
    "nonsymmetric d=4": lambda rng: (BoundaryModel(2), [random_entries(rng, 4, 4, 10)]),
    "prop1 (4,2)": prop1_case,
    "n=1": lambda rng: (BoundaryModel(1), [SparseTensor.random_column_symmetric(3, 3, rng, density=0.1)]),
    "n=3": lambda rng: (
        BoundaryModel(3),
        [SparseTensor.random_disjoint_trace_free(3, 5, rng), random_entries(rng, 3, 5, 10)],
    ),
    "mixed signature": lambda rng: (
        BoundaryModel(2, (1, -1)),
        [SparseTensor.random_column_symmetric(3, 4, rng, density=0.01), random_entries(rng, 3, 4, 10)],
    ),
    "zero": lambda rng: (BoundaryModel(2), [SparseTensor(3, 4, {})]),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_extraction_matches_reference_beyond_n2_d3(case):
    m, tensors = REFERENCE_CASES[case](random.Random(41))
    for T in tensors:
        assert bool(T) == (case != "zero")
        assert_matches_reference(m, T)
        assert any(extract_all_symbols(m, T).values()) == bool(T)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.randoms(use_true_random=False))
def test_extraction_of_a_tensor_equals_that_of_its_symmetrization(d, rnd):
    """The identity extraction rests on: the symbols of T are those of its
    column symmetrization, on the reference transcription too."""
    m = BoundaryModel(2)
    T = random_entries(rnd, d, 4, 6)
    assume(not T.is_symmetric())
    S = T.symmetrized()
    assert extract_all_symbols(m, T) == extract_all_symbols(m, S)
    for k in range(d + 1):
        for l in range(d + 1 - k):
            assert _extract_symbols_reference(m, T, k, l) == _extract_symbols_reference(m, S, k, l)


def test_recursions_mixed_signature():
    m = BoundaryModel(2, (1, -1))
    rng = random.Random(37)
    T = SparseTensor.random_disjoint_trace_free(2, 4, rng)
    syms = extract_all_symbols(m, T)
    rec = check_symbol_recursions(m, syms, 2)
    assert all(ok for _, ok, _ in rec)


def _symbol_operator(m, syms, d):
    # assemble sum over (k, l) of V[k,l] components times the contact
    # derivative monomials; ordering inside each factor group is immaterial
    # at top order because the components are symmetric
    from subsym.weyl import WeylOperator

    d_hol, d_raised, dtau = tangential_ops(m)
    out = WeylOperator.zero(m.ring)
    for (k, l), S in syms.items():
        tau_power = d - k - l
        for (a_key, b_key), coeff in S.components.items():
            op = WeylOperator.mul_by(coeff)
            for a in a_key:
                op = op.compose(d_hol[a - 1])
            for b in b_key:
                op = op.compose(d_raised[b - 1])
            for _ in range(tau_power):
                op = op.compose(dtau)
            # distinct orderings of a repeated index multiply the count
            import math

            mult = 1
            seen = {}
            for a in a_key:
                seen[a] = seen.get(a, 0) + 1
            norm_a = math.factorial(k)
            for c in seen.values():
                norm_a //= math.factorial(c)
            seen = {}
            for b in b_key:
                seen[b] = seen.get(b, 0) + 1
            norm_b = math.factorial(l)
            for c in seen.values():
                norm_b //= math.factorial(c)
            out = out + op.scale(norm_a * norm_b)
    return out


def test_induced_operator_top_order_equals_symbols():
    # reconstruct the induced boundary operator from its action and compare
    # its leading part with the operator assembled from extracted symbols
    from subsym.boundary import induce
    from subsym.weyl import from_action

    import warnings

    m = BoundaryModel(2)
    rng = random.Random(12)
    w1, w2 = -1, -1

    # d = 1: a full sl basis element
    V = random_traceless(2, rng)
    D1 = higher_symmetry_op(m.ambient, V)
    syms1 = extract_all_symbols(m, V)
    induced = from_action(m.ring, lambda F: induce(m, D1, w1, w2, F), 1)
    assembled = _symbol_operator(m, syms1, 1)
    assert principal_part(induced, 1) == principal_part(assembled, 1)

    # d = 2: seeded trace-free column-symmetric tensor
    T = SparseTensor.random_disjoint_trace_free(2, 4, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        D2 = higher_symmetry_op(m.ambient, T)
    syms2 = extract_all_symbols(m, T)
    induced2 = from_action(m.ring, lambda F: induce(m, D2, w1, w2, F), 2)
    assembled2 = _symbol_operator(m, syms2, 2)
    assert principal_part(induced2, 2) == principal_part(assembled2, 2)
