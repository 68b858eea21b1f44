import itertools
import random
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from subsym.ambient import higher_symmetry_op, random_traceless
from subsym.tensor import SparseTensor
from subsym.boundary import BoundaryModel, column_factors, induce, tangential_ops
from subsym.report import VerificationReport
from subsym.rings import LaurentPoly, Substitution
from subsym.scalars import rat
from subsym.weyl import WeylOperator
from support import (
    SymbolTensor,
    _insertion_left_kernel,
    add_symbols,
    build_prop1_tensor_by_placements,
    extract_all_symbols_by_blocks,
    check_bgg_by_kernel,
    check_symbol_recursions_by_kernel,
    column_symmetric,
    component,
    disjoint_trace_free,
    generating_polynomial,
    generating_polynomials,
    label_coefficients,
    label_keys,
    principal_part,
    symbol_tensors,
    trace_free_part_vanishes,
)
from subsym.symbols import (
    PROP1_CHECKS,
    a_coeff,
    a_matrix_det,
    build_prop1_tensor,
    check_bgg,
    check_symbol_recursions,
    _extract_symbols_reference,
    extract_all_symbols,
    pascal_identity_check,
    prop1_system,
    symmetry_space_dim,
    three_column_skew_checks,
    trace_remainder,
    type_count,
    verify_prop1,
)


def recursion_count(d):
    """The number of symbol equations of degree d: k + l = t for 1 <= t <= d + 1."""
    return (d + 1) * (d + 4) // 2


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
    res = pascal_identity_check(8)
    assert not res and res.cases == sum((s + 1) ** 2 for s in range(1, 9))


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
    assert component(m1, syms[(0, 0)], (), ()) == m1.tau().scale(-2)
    assert component(m1, syms[(1, 0)], (1,), ()) == m1.z(1).scale(-1)
    assert component(m1, syms[(0, 1)], (), (1,)) == m1.z_low(1).scale(-1)


def test_d1_recursions_for_basis(m1):
    from subsym.tensor import sl_basis

    for V in sl_basis(3)[:4]:
        syms = extract_all_symbols(m1, V)
        rec = check_symbol_recursions(m1, syms, 1)
        assert not rec and rec.cases == recursion_count(1), V.entries


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
    expected = component(m2, syms[(0, 0)], (), ())
    for a in range(1, 3):
        expected = expected + component(m2, syms[(1, 0)], (a,), ()) * d_hol[a - 1].apply(m2.tau())
        expected = expected + component(m2, syms[(0, 1)], (), (a,)) * d_raised[a - 1].apply(m2.tau())
    assert got_tau == expected


def test_arity_guard(m2):
    T = SparseTensor(2, 4, {})
    with pytest.raises(ValueError):
        _extract_symbols_reference(m2, T, 2, 1)


def test_recursions_d2(m2):
    rng = random.Random(3)
    T = disjoint_trace_free(2, 4, rng)
    assert T.is_symmetric() and T.is_trace_free()
    syms = extract_all_symbols(m2, T)
    rec = check_symbol_recursions(m2, syms, 2)
    assert not rec and rec.cases == recursion_count(2)


def test_perturbed_pure_tau_symbol_fails_only_its_recursion(m2):
    # a constant added to one component of syms[(k, 0)] or syms[(0, l)] is
    # killed by every tangential derivative, so only the pure-tau recursion
    # that has that symbol on its left side can see it
    T = disjoint_trace_free(2, 4, random.Random(3))
    syms = extract_all_symbols(m2, T)
    L = column_factors(m2)[0].target
    for key, label in [
        ((1, 0), "tau recursion (upper) k=1"),
        ((2, 0), "tau recursion (upper) k=2"),
        ((0, 1), "tau recursion (lower) l=1"),
        ((0, 2), "tau recursion (lower) l=2"),
    ]:
        # the component with upper labels 1 and lower labels 2 is the
        # coefficient of u1^k v2^l, which has one ordering
        k, l = key
        bad = dict(syms)
        bad[key] = syms[key] + L.monomial({"u1": k, "v2": l})
        assert component(m2, bad[key], (1,) * k, (2,) * l) == component(m2, syms[key], (1,) * k, (2,) * l) + 1
        failed = check_symbol_recursions(m2, bad, 2)
        assert [f.split(": ")[0] for f in failed] == [label] and failed.cases == recursion_count(2), key


def test_recursions_d2_general_tensor(m2):
    rng = random.Random(3)
    T = column_symmetric(2, 4, rng, density=0.15)
    syms = extract_all_symbols(m2, T)
    rec = check_symbol_recursions(m2, syms, 2)
    assert not rec and rec.cases == recursion_count(2)


def test_recursions_d3_n3():
    m3 = BoundaryModel(3)
    rng = random.Random(9)
    T = disjoint_trace_free(3, 5, rng)
    syms = extract_all_symbols(m3, T)
    rec = check_symbol_recursions(m3, syms, 3)
    assert not rec and rec.cases == recursion_count(3)


def recursion_families(n, g_diag, d):
    """Seeded symbol families of degree d on the model (n, g_diag): a
    column-symmetric tensor symmetrized from about 20 random entries and, for
    n >= 2, a disjoint-index trace-free one."""
    m = BoundaryModel(n, g_diag)
    rng = random.Random(100 * n + 10 * d + (g_diag is not None))
    density = min(0.3, 20 / (n + 2) ** (2 * d))
    tensors = [column_symmetric(d, n + 2, rng, density=density)]
    if n >= 2:
        tensors.append(disjoint_trace_free(d, n + 2, rng))
    return m, rng, [extract_all_symbols(m, T) for T in tensors]


# the models (n, g_diag) of recursion_families
RECURSION_MODELS = [(1, None), (2, None), (3, None), (2, (1, -1))]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n, g_diag", RECURSION_MODELS)
def test_recursion_sweep_matches_the_kernel_sweep(n, g_diag, d):
    # the remainder check on the generating polynomials and the former sweep
    # over SymbolTensors examine the same equations and fail the same ones,
    # on extracted families and on the same families with one random (k, l)
    # component perturbed
    m, rng, families = recursion_families(n, g_diag, d)
    for syms in families:
        tensors = symbol_tensors(m, syms)
        assert generating_polynomials(m, tensors) == syms
        key = rng.choice(sorted(syms))
        comp = tuple(rng.choice(list(label_keys(n, j))) for j in key)
        S = tensors[key]
        bumped = dict(S.components)
        bumped[comp] = S.components.get(comp, m.ring.zero()) + m.ring.const(rng.randint(1, 3)) + (
            m.z(1).scale(rng.randint(-2, 2)) + m.tau().scale(rng.randint(-2, 2)))
        perturbed = {**tensors, key: SymbolTensor(n, *key, m.ring, bumped)}
        for family in (tensors, perturbed):
            got = check_symbol_recursions(m, generating_polynomials(m, family), d)
            former = check_symbol_recursions_by_kernel(m, family, d)
            assert got.cases == former.cases == recursion_count(d)
            assert sorted(f.split(": ")[0] for f in got) == sorted(f.split(": ")[0] for f in former)
        assert check_symbol_recursions(m, generating_polynomials(m, perturbed), d)


def plus_remainder(m, P):
    """trace_remainder with u1 v1 rewritten as +(u2 v2 + ... + un vn): the
    remainder conjugated by v1 -> -v1."""
    L = P.ring
    flip = Substitution(L, {"v1": -L.gen("v1")})
    return trace_remainder(m, P.substitute(flip)).substitute(flip)


REMAINDER_MUTANTS = {"plus": plus_remainder, "none": lambda m, P: P}


@pytest.mark.parametrize("mutant", sorted(REMAINDER_MUTANTS))
def test_a_wrong_remainder_fails_the_full_support_draws(mutant, monkeypatch):
    """Mutant control: the disjoint draws have no trace part, so only the
    full-support column-symmetric draws of recursion_families can see the
    remainder.  They all pass with it; with u1 v1 rewritten as
    +(u2 v2 + ...) every draw with n >= 2 fails (at n = 1 the sum is empty
    and the sign cannot show), and with nothing rewritten every draw but
    the one at n = d = 1."""
    import subsym.symbols

    models = [(n, g_diag, d) for n, g_diag in RECURSION_MODELS for d in (1, 2, 3)]
    draws = {model: recursion_families(*model) for model in models}
    assert not any(check_symbol_recursions(m, families[0], model[2]) for model, (m, _, families) in draws.items())
    monkeypatch.setattr(subsym.symbols, "trace_remainder", REMAINDER_MUTANTS[mutant])
    failed = [model for model, (m, _, families) in draws.items() if check_symbol_recursions(m, families[0], model[2])]
    expected = {"plus": [model for model in models if model[0] >= 2],
                "none": [model for model in models if model != (1, None, 1)]}
    assert failed == expected[mutant]


def test_zero_symbols_pass_vacuously(m2):
    T = SparseTensor(2, 4, {})
    syms = extract_all_symbols(m2, T)
    rec = check_symbol_recursions(m2, syms, 2)
    assert not rec and rec.cases == recursion_count(2)


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
    # the symbols of the zero tensor: a full family, and fast
    extract = subsym.symbols.extract_all_symbols
    monkeypatch.setattr(subsym.symbols, "extract_all_symbols", lambda m, T: extract(m, SparseTensor(T.k, T.N)))
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


def bgg(m, top, d, s):
    """check_bgg on the generating polynomial of the SymbolTensor ``top``,
    which fails the same equations as the former check on ``top``."""
    got = check_bgg(m, generating_polynomial(m, top), d, s)
    former = check_bgg_by_kernel(m, top, d, s)
    assert got.cases == former.cases
    assert [f.split(": ")[0] for f in got] == [f.split(": ")[0] for f in former]
    return got


def test_bgg_constant_top_symbol(m2):
    comp = {((1,), (2,)): m2.ring.one()}
    top = SymbolTensor(2, 1, 1, m2.ring, comp)
    res = bgg(m2, top, 2, 1)
    assert not res and res.cases == 2


def test_bgg_sigma_power_degree_bound(m2):
    # direct expansion oracle: sigma^m, a unit multiple of tau^m, lies in the
    # kernel of the (d+1)-fold symmetrized raised derivative exactly when m <= d
    for d in (1, 2):
        for mdeg in range(0, d + 2):
            top = SymbolTensor(2, 0, 0, m2.ring, {((), ()): m2.tau() ** mdeg})
            res = bgg(m2, top, d, 0)
            assert res.cases == 2
            if mdeg <= d:
                assert not res, (d, mdeg)
            else:
                assert res, (d, mdeg)
    # pure holomorphic polynomials die at the first raised derivative
    ok_poly = SymbolTensor(2, 0, 0, m2.ring, {((), ()): m2.z(1) ** 2})
    assert not bgg(m2, ok_poly, 2, 0)


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
    assert not trace_remainder(m2, generating_polynomial(m2, S))
    # a generic symbol does not
    S2 = SymbolTensor(2, 1, 1, m2.ring, {((1,), (2,)): m2.ring.one()})
    assert trace_free_part_vanishes(m2, S2) is not None
    assert trace_remainder(m2, generating_polynomial(m2, S2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trace_remainder_hand_values(n):
    m = BoundaryModel(n)
    L = column_factors(m)[0].target
    u = {x: L.gen(f"u{x}") for x in range(1, n + 1)}
    v = {x: L.gen(f"v{x}") for x in range(1, n + 1)}
    r = LaurentPoly.sum(L, [u[x] * v[x] for x in range(2, n + 1)])
    q = u[1] * v[1] + r
    z = m.z(1).substitute(column_factors(m)[0])
    assert trace_remainder(m, u[1] * v[1]) == -r
    assert trace_remainder(m, (u[1] * v[1]) ** 2 * z) == r * r * z
    assert trace_remainder(m, u[1] ** 3 * v[1] - v[1] ** 2) == -(u[1] ** 2) * r - v[1] ** 2
    # no u or no v: the remainder is the polynomial itself
    assert trace_remainder(m, u[1] ** 2 * z + z) == u[1] ** 2 * z + z
    # a multiple of q, whose rewritten terms cancel the terms without u1 v1
    P = q * (u[1] * v[1] + z - r)
    assert not trace_remainder(m, P)
    assert trace_remainder(m, P + z * v[1] ** 2) == z * v[1] ** 2


# the (k, l) cases of the delta-insertion kernel checked against the
# remainder
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
def test_insertion_kernel_matches_the_remainder(n, k, l):
    m = BoundaryModel(n)
    rng = random.Random(100 * n + 10 * k + l)
    insertion = symmetric_insertion(m, k, l, random_symbol(m, k - 1, l - 1, rng))
    perturbed = add_symbols(insertion, SymbolTensor(n, k, l, m.ring, random_symbol(m, k, l, rng)))
    assert insertion
    # the insertion left kernel and the remainder modulo q = sum_x u_x v_x
    verdicts = [(trace_free_part_vanishes(m, insertion), trace_free_part_vanishes(m, perturbed) is not None),
                (trace_remainder(m, generating_polynomial(m, insertion)) or None,
                 bool(trace_remainder(m, generating_polynomial(m, perturbed))))]
    assert verdicts == [(None, True)] * 2
    # delta-insertion is multiplication by sum_x z_x w_x on bihomogeneous
    # polynomials, so it is injective: the image has dim Sym^(k-1) x Sym^(l-1)
    dim_sym = comb(n + k - 1, k) * comb(n + l - 1, l)
    assert len(_insertion_left_kernel(n, k, l)) == dim_sym - comb(n + k - 2, k - 1) * comb(n + l - 2, l - 1)


# -- the type-based construction --------------------------------------------------


def test_prop1_s0():
    m = BoundaryModel(2)
    T = build_prop1_tensor(m, 1, 0, [])
    assert list(T.entries) == [((3,), (0,))]
    syms = extract_all_symbols(m, T)
    # the sigma-form symbol -i times the phase i of its one tau slot
    assert component(m, syms[(0, 0)], (), ()) == m.ring.const(1)
    res = check_bgg(m, syms[(0, 0)], 1, 0)
    assert not res and res.cases == 2
    rec = check_symbol_recursions(m, syms, 1)
    assert not rec and rec.cases == recursion_count(1)


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
    checks = verify_prop1(m, d, s)
    assert [label for label, _ in checks] == list(PROP1_CHECKS)
    assert not any(failures for _, failures in checks), checks
    assert [failures.cases for _, failures in checks] == [1, s, 1, 2, recursion_count(d)]


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
    m = BoundaryModel(3)
    res = prop1_system(2, 1)
    # a different constant trace-free seed: off-diagonal components only
    comp = {((1,), (2,)): m.ring.one(), ((2,), (1,)): m.ring.one().scale(-1)}
    seed = SymbolTensor(3, 1, 1, m.ring, comp)
    T = build_prop1_tensor_by_placements(m, 2, 1, res["x"], seed=seed)
    # the seed is trace-free, and so is the tensor built on it
    assert T.is_symmetric() and T.is_trace_free()
    syms = extract_all_symbols(m, T)
    # the same type coefficients kill the lower diagonal symbols (linearity)
    assert not syms[(0, 0)]
    rec = check_symbol_recursions(m, syms, 2)
    assert not rec and rec.cases == recursion_count(2)
    # the default seed u1 v2
    default = SymbolTensor(3, 1, 1, m.ring, {((1,), (2,)): m.ring.one()})
    assert build_prop1_tensor(m, 2, 1, res["x"]) == build_prop1_tensor_by_placements(m, 2, 1, res["x"], seed=default)


def test_prop1_top_witness_names_the_off_seed_keys(monkeypatch):
    import subsym.symbols

    m = BoundaryModel(3)
    seed = SymbolTensor(3, 1, 1, m.ring, {((1,), (2,)): m.ring.one(), ((2,), (1,)): m.ring.const(-1)})
    monkeypatch.setattr(subsym.symbols, "build_prop1_tensor",
                        lambda m, d, s, x: build_prop1_tensor_by_placements(m, d, s, x, seed=seed))
    checks = dict(verify_prop1(m, 2, 1))
    assert list(checks["top symbol is a nonzero seed multiple"]) == ["component ((2,), (1,)) off the seed"]
    assert [label for label, failures in checks.items() if failures] == ["top symbol is a nonzero seed multiple"]
    monkeypatch.setattr(subsym.symbols, "build_prop1_tensor", lambda m, d, s, x: SparseTensor(d, m.n + 2))
    assert list(dict(verify_prop1(m, 2, 1))["top symbol is a nonzero seed multiple"]) == ["seed component zero"]


@pytest.mark.parametrize("n,d,s", [(2, 2, 1), (3, 3, 1), (3, 4, 2), (2, 4, 2), (3, 5, 2), (4, 4, 2), (3, 6, 3)])
def test_prop1_tensor_is_the_sum_over_placements(n, d, s):
    m = BoundaryModel(n)
    for x in (prop1_system(d, s)["x"], [rat(-3, 7) * (i + 2) for i in range(s)]):
        T = build_prop1_tensor(m, d, s, x)
        assert T and T == build_prop1_tensor_by_placements(m, d, s, x)


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
        disjoint_trace_free(2, 4, rng),
        column_symmetric(2, 4, rng, density=0.3),
        build_prop1_tensor(m, 3, 1, prop1_system(3, 1)["x"]),
        # no column symmetry, rational entries: role keys that merge and
        # tau factors read in different column orders
        random_entries(rng, 3, 4, 12),
        # the upper three-column skew of a column-symmetric tensor: cancels
        column_symmetric(3, 4, rng, density=0.05).skew_slots([0, 1, 2]),
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
    "n=1": lambda rng: (BoundaryModel(1), [column_symmetric(3, 3, rng, density=0.1)]),
    "n=3": lambda rng: (
        BoundaryModel(3),
        [disjoint_trace_free(3, 5, rng), random_entries(rng, 3, 5, 10)],
    ),
    "mixed signature": lambda rng: (
        BoundaryModel(2, (1, -1)),
        [column_symmetric(3, 4, rng, density=0.01), random_entries(rng, 3, 4, 10)],
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


def orbit_draws(n, d, rng):
    """Draws over C^{n+2} with d columns for the orbit extraction: the
    symbols suite's dense disjoint draw (repeated columns from d = 2 on),
    and an unsymmetrized draw over the values 0, 1 and inf on both sides,
    which free, pin and kill labels of either kind."""
    three = (0, 1, n + 1)
    density = (None, None, None, 0.3, 0.03, 0.001)[d]
    return [
        SparseTensor.random(d, n + 2, rng, 2, upper=(1, n + 1), lower=(0, 2)).symmetrized(),
        SparseTensor.random(d, n + 2, rng, 2, upper=three, lower=three, density=density),
    ]


def assert_orbit_extraction_matches(m, T):
    """The extraction against the block extraction it replaced."""
    assert extract_all_symbols(m, T) == extract_all_symbols_by_blocks(m, T)


@pytest.mark.parametrize("d", range(6))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_extraction_matches_the_block_extraction(n, d):
    m = BoundaryModel(n)
    tensors = orbit_draws(n, d, random.Random(10 * n + d))
    if d >= 2:
        assert any(len(set(zip(U, L))) < d for U, L in tensors[0].entries)
    for T in tensors:
        assert_orbit_extraction_matches(m, T)
    if n + d <= 5:  # the transcription over all assignments is slow
        for T in tensors:
            assert_matches_reference(m, T)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_extraction_matches_on_skew_and_prop1_tensors(n):
    """The symbols suite's three-column skews and the prop1 tensors."""
    m = BoundaryModel(n)
    rng = random.Random(50 + n)
    tensors = [column_symmetric(3, n + 2, rng, density=0.05).skew_slots([0, 1, 2])]
    tensors += [build_prop1_tensor(m, d, s, prop1_system(d, s)["x"]) for d, s in [(2, 1), (3, 1), (4, 2), (5, 2)]]
    assert all(tensors)
    for T in tensors:
        assert_orbit_extraction_matches(m, T)


def unsigned_column_factors(m):
    """column_factors with +v_b in place of -v_b: the symbols lose (-1)^l."""
    lift, phi = column_factors(m)
    L = lift.target
    flip = Substitution(L, {f"v{b}": -L.gen(f"v{b}") for b in range(1, m.n + 1)})
    return lift, {col: p.substitute(flip) for col, p in phi.items()}


# name -> (name in subsym.symbols, its stand-in); the extraction's one
# stabilizer_order gives the d!/stab orderings of a column orbit
MUTANTS = {
    "no multiplicity": ("stabilizer_order", lambda cols: factorial(len(cols))),
    "unsigned v": ("column_factors", unsigned_column_factors),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_perturbed_generating_polynomial_fails_the_comparison(mutant, monkeypatch):
    """Mutant control: the extraction with the d!/stab orderings of each
    column orbit dropped, or with the v terms of the column factors
    unsigned, differs from the block extraction on the comparison's draws."""
    import subsym.symbols

    monkeypatch.setattr(subsym.symbols, *MUTANTS[mutant])
    m = BoundaryModel(2)
    with pytest.raises(AssertionError):
        for d in range(6):
            for T in orbit_draws(2, d, random.Random(20 + d)):
                assert_orbit_extraction_matches(m, T)


@pytest.mark.parametrize("n, N", [(2, 3), (3, 4), (2, 5), (3, 6)])
def test_extraction_rejects_a_tensor_of_another_dimension(n, N):
    m = BoundaryModel(n)
    T = SparseTensor.random(2, N, random.Random(N), 2, upper=(1, N - 1), lower=(0, 2)).symmetrized()
    with pytest.raises(ValueError, match="tensor dimension does not match the model"):
        extract_all_symbols(m, T)
    with pytest.raises(ValueError, match="tensor dimension does not match the model"):
        _extract_symbols_reference(m, T, 1, 1)


def test_recursions_mixed_signature():
    m = BoundaryModel(2, (1, -1))
    rng = random.Random(37)
    T = disjoint_trace_free(2, 4, rng)
    syms = extract_all_symbols(m, T)
    rec = check_symbol_recursions(m, syms, 2)
    assert not rec and rec.cases == recursion_count(2)


def _symbol_operator(m, syms, d):
    # sum over the terms c u^alpha v^beta of each (k, l) generating polynomial
    # of c d_hol^alpha d_raised^beta d_tau^(d-k-l): c already counts the
    # orderings of the labels, and the order of the factors is immaterial at
    # top order because the components are symmetric
    d_hol, d_raised, dtau = tangential_ops(m)
    out = WeylOperator.zero(m.ring)
    for (k, l), P in syms.items():
        for (alpha, beta), coeff in label_coefficients(m, P).items():
            op = WeylOperator.mul_by(coeff)
            for ops, exps in ((d_hol, alpha), (d_raised, beta)):
                for a, e in enumerate(exps):
                    for _ in range(e):
                        op = op.compose(ops[a])
            for _ in range(d - k - l):
                op = op.compose(dtau)
            out = out + op
    return out


def test_induced_operator_top_order_equals_symbols():
    # reconstruct the induced boundary operator from its action and compare
    # its leading part with the operator assembled from extracted symbols
    from subsym.weyl import from_action

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
    T = disjoint_trace_free(2, 4, rng)
    D2 = higher_symmetry_op(m.ambient, T)
    syms2 = extract_all_symbols(m, T)
    induced2 = from_action(m.ring, lambda F: induce(m, D2, w1, w2, F), 2)
    assembled2 = _symbol_operator(m, syms2, 2)
    assert principal_part(induced2, 2) == principal_part(assembled2, 2)
