import random

import pytest

import subsym.ambient
from subsym.ambient import (
    AmbientModel,
    ambient_laplacian,
    bidegree_monomials,
    central_action_check,
    central_element,
    compose_decompose,
    composition_operators,
    dual_quadric,
    dv_bracket,
    euler_ops,
    higher_symmetry_op,
    identity,
    quadric,
    uncorrected_vw0,
    r_poly,
    random_traceless,
    trace_projection_oracle,
    verify_composition_identity,
)
from subsym.scalars import RZERO, rat
from subsym.tensor import SparseTensor, sl_basis
from subsym.weyl import WeylOperator
from subsym.boundary import admissible_weights
from support import (
    TracelessMatrix,
    bidegree,
    compose_decompose_by_loops,
    dense,
    disjoint_trace_free,
    dv_bracket_matrix,
    higher_symmetry_op_by_composition,
    higher_symmetry_op_by_entries,
    mat_mul,
    mat_trace,
    operator_order,
    principal_part,
    sl_basis_matrix,
    to_tensor,
)


@pytest.fixture(scope="module")
def m1():
    return AmbientModel(1)


@pytest.fixture(scope="module")
def m2():
    return AmbientModel(2)


def test_r_poly_structure(m1):
    r = r_poly(m1)
    expected = (
        m1.up(0) * m1.dn(0) + m1.up(1) * m1.dn(1) + m1.up(2) * m1.dn(2)
    )
    assert r == expected
    assert bidegree(m1, r) == (1, 1)


def test_euler_eigenvalues(m1):
    E, Eb = euler_ops(m1)
    f = m1.ring.gen("x0", 3) * m1.dn(1)
    assert E.apply(f) == f.scale(3)
    assert Eb.apply(f) == f
    r = r_poly(m1)
    assert E.apply(r) == r and Eb.apply(r) == r


def test_laplacian_of_r_counts_dimensions(m1):
    # the h = 1 instance of the lap(r h) lemma: lap(r) = n + 2
    assert ambient_laplacian(m1).apply(r_poly(m1)) == m1.ring.const(m1.n + 2)


@pytest.mark.parametrize("n, g_diag", [(1, None), (2, (1, -1)), (3, None)])
def test_dual_quadric_of_a_quadric_is_the_trace_of_the_product(n, g_diag):
    # d^A' d_D' (x^A x_D) = delta^A_D' delta^A'_D, so the pairing is tr(S T);
    # at S = T = identity it is lap(r) = n + 2
    m = AmbientModel(n, g_diag)
    N = m.N
    rng = random.Random(70 + n)

    for _ in range(3):
        S, T = SparseTensor.random(1, N, rng, 3), SparseTensor.random(1, N, rng, 3)
        tr = sum(
            (S.entries.get(((A,), (D,)), RZERO) * T.entries.get(((D,), (A,)), RZERO) for A in range(N) for D in range(N)),
            RZERO,
        )
        assert dual_quadric(m, S).apply(quadric(m, T)) == m.ring.const(tr)
    assert quadric(m, identity(N)) == r_poly(m)
    assert dual_quadric(m, identity(N)) == ambient_laplacian(m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ambient_laplacian_is_the_sum_of_paired_derivatives(n):
    m = AmbientModel(n)
    written_out = WeylOperator.zero(m.ring)
    for A in range(m.N):
        written_out = written_out + m.d_up(A).compose(m.d_dn(A))
    assert ambient_laplacian(m) == written_out


def test_laplacian_kills_unpaired_monomials(m1):
    f = m1.ring.gen("x0", 3) * m1.ring.gen("x_inf", 2)
    assert ambient_laplacian(m1).apply(f) == m1.ring.zero()


def test_traceless_guard(m1):
    # compose_decompose takes trace-free one-column tensors over C^{n+2} only
    V = random_traceless(1, random.Random(0))
    traced = V + SparseTensor(1, 3, {((0,), (0,)): rat(1)})
    other_dim = random_traceless(2, random.Random(0))
    unit = SparseTensor(1, 3, {((0,), (1,)): rat(1)})
    two_columns = unit.outer(unit)
    assert two_columns.is_trace_free()
    for bad in (traced, other_dim, two_columns):
        with pytest.raises(ValueError):
            compose_decompose(m1, bad, V, 0, -1)
        with pytest.raises(ValueError):
            compose_decompose(m1, V, bad, 0, -1)


def test_dv_zero():
    m = AmbientModel(1)
    assert not higher_symmetry_op(m, SparseTensor(1, 3))


def test_commutation_full_basis():
    for n in (1, 2, 3):
        m = AmbientModel(n)
        lap = ambient_laplacian(m)
        rmul = WeylOperator.mul_by(r_poly(m))
        for V in sl_basis(m.N):
            dV = higher_symmetry_op(m, V)
            assert not lap.commutator(dV)
            assert not dV.commutator(rmul)


def test_mixed_signature_commutation():
    m = AmbientModel(2, (1, -1))
    lap = ambient_laplacian(m)
    for V in sl_basis(4)[:6]:
        assert not lap.commutator(higher_symmetry_op(m, V))


def test_bracket_closure_seeded(m2):
    rng = random.Random(42)
    for _ in range(5):
        V = random_traceless(2, rng)
        W = random_traceless(2, rng)
        DV, DW = higher_symmetry_op(m2, V), higher_symmetry_op(m2, W)
        assert DV.commutator(DW) == higher_symmetry_op(m2, dv_bracket(V, W))


def test_bracket_antisymmetry(m2):
    rng = random.Random(1)
    V = random_traceless(2, rng)
    W = random_traceless(2, rng)
    B1 = dv_bracket(V, W)
    B2 = dv_bracket(W, V)
    assert B1 and not B1 + B2
    assert not dv_bracket(V, V)


def test_central_action(m1):
    for w1, w2 in [(0, -1), (-1, 0), (-2, 2)]:
        res = central_action_check(m1, w1, w2, bound=2)
        assert not res and res.cases == len(list(bidegree_monomials(m1, w1, w2, 2))) > 0
    # w1 = w2: eigenvalue 0
    f = m1.up(1) * m1.dn(1)
    assert central_element(m1).apply(f) == m1.ring.zero()


def test_higher_symmetry_d1_reduces_to_dv(m2):
    rng = random.Random(3)
    V = random_traceless(2, rng)
    assert higher_symmetry_op(m2, V) == higher_symmetry_op_by_composition(m2, V)


def test_higher_symmetry_commutes(m2):
    rng = random.Random(7)
    for d in (2, 3):
        op = higher_symmetry_op(m2, disjoint_trace_free(d, 4, rng))
        assert op and operator_order(op) == d
        assert not ambient_laplacian(m2).commutator(op)
        assert not op.commutator(WeylOperator.mul_by(r_poly(m2)))


def test_higher_symmetry_column_invariance(m2):
    # the product of two disjoint-support draws is trace-free but not
    # column-symmetric; D_T only sees its symmetrization
    rng = random.Random(11)
    draw = disjoint_trace_free
    T = draw(1, 4, rng).outer(draw(1, 4, rng))
    assert T.is_trace_free() and not T.is_symmetric()
    op = higher_symmetry_op(m2, T)
    assert higher_symmetry_op(m2, T.permuted((1, 0))) == op == higher_symmetry_op(m2, T.symmetrized())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_higher_symmetry_op_matches_the_composed_generators(k):
    # a k-column disjoint-support draw at n = 2, and the sl(k + 2) basis at n = k
    m = AmbientModel(2)
    T = disjoint_trace_free(k, 4, random.Random(60 + k))
    assert T and higher_symmetry_op(m, T) == higher_symmetry_op_by_composition(m, T)
    m = AmbientModel(k)
    for V in sl_basis(k + 2):
        assert higher_symmetry_op(m, V) == higher_symmetry_op_by_composition(m, V)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_higher_symmetry_op_per_orbit_matches_the_entrywise_build(k):
    """D_V read per column orbit against the former loop over every ordered
    entry, at n = 2: a trace-free draw over upper values {1, 3} and lower
    values {0, 2} (repeated columns from k = 2), its symmetrization, a
    rational multiple, a column permutation of it (the draw and the
    permutation are not symmetric from k = 2) and its symmetrization."""
    m = AmbientModel(2)
    rng = random.Random(90 + k)
    T = SparseTensor.random(k, 4, rng, 2, upper=(1, 3), lower=(0, 2))
    cycle = tuple(range(1, k)) + (0,)
    cases = [T, T.symmetrized(), T.scale(rat(-3, 7)), T.permuted(cycle), T.permuted(cycle).symmetrized()]
    if k >= 2:
        assert not T.is_symmetric() and not T.permuted(cycle).is_symmetric()
    for V in cases:
        assert V.is_trace_free()
        assert higher_symmetry_op(m, V) == higher_symmetry_op_by_entries(m, V)


@pytest.mark.parametrize("n", [1, 2])
def test_higher_symmetry_op_matches_the_composed_generators_off_the_integers(n):
    # random_traceless divides the trace by n + 2, and the decomposition of a
    # composition carries the denominators of its closed forms; the seed draws
    # a traceless pair with a nonzero trace on both sides
    m = AmbientModel(n)
    rng = random.Random(74 + n)
    w1 = (-n + n % 2) // 2
    V, W = random_traceless(n, rng), random_traceless(n, rng)
    parts = compose_decompose(m, V, W, w1, -n - w1)
    for X in (V, W, parts.vw1, parts.T):
        dens = {int(v.denominator) for v in X.entries.values()}
        assert dens - {1}
        assert higher_symmetry_op(m, X) == higher_symmetry_op_by_composition(m, X)


def test_compose_decompose_trace_free(m2):
    rng = random.Random(42)
    for _ in range(5):
        V = random_traceless(2, rng)
        W = random_traceless(2, rng)
        parts = compose_decompose(m2, V, W, -1, -1)
        assert parts.T.is_trace_free()
        assert parts.T.symmetrized().is_symmetric()
        assert parts.T.symmetrized().is_trace_free()


def test_compose_decompose_n3():
    m3 = AmbientModel(3)
    rng = random.Random(2)
    V = random_traceless(3, rng)
    W = random_traceless(3, rng)
    parts = compose_decompose(m3, V, W, -1, -2)
    assert parts.T.is_trace_free()


def test_trace_oracle_matches_closed_form():
    # the oracle's rows carry N-dependent constants, so every n of 1..4
    for n in (1, 2, 3, 4):
        m = AmbientModel(n)
        w1, w2 = admissible_weights(n)[0]
        rng = random.Random(42)
        for _ in range(5 if n == 2 else 2):
            V = random_traceless(n, rng)
            W = random_traceless(n, rng)
            parts = compose_decompose(m, V, W, w1, w2)
            orc = trace_projection_oracle(m, V, W)
            assert orc is not None
            assert orc[0] == parts.U and orc[1] == parts.Utilde


def test_resolution_reconstructs_tensor_product(m2):
    # V (x) W equals T plus the delta terms, entry by entry
    rng = random.Random(9)
    N = 4
    for _ in range(5):
        V = random_traceless(2, rng)
        W = random_traceless(2, rng)
        parts = compose_decompose(m2, V, W, -1, -1)
        U, Ut = dense(parts.U), dense(parts.Utilde)
        upu = [[U[i][j] + Ut[i][j] for j in range(N)] for i in range(N)]
        tr = mat_trace(upu)
        for B in range(N):
            for D in range(N):
                for A in range(N):
                    for C in range(N):
                        val = parts.T.entries.get(((B, D), (A, C)), RZERO)
                        if B == C:
                            val = val + U[D][A]
                        if D == A:
                            val = val + Ut[B][C]
                        if B == A:
                            val = val - upu[D][C] * rat(1, N)
                        if D == C:
                            val = val - upu[B][A] * rat(1, N)
                        if B == A and D == C:
                            val = val + tr * rat(1, N * N)
                        assert val == dense(V)[B][A] * dense(W)[D][C]


def test_vw1_reduces_to_half_bracket_when_weights_equal(m2):
    rng = random.Random(13)
    V = random_traceless(2, rng)
    W = random_traceless(2, rng)
    parts = compose_decompose(m2, V, W, -1, -1)  # w1 = w2
    VW = mat_mul(dense(V), dense(W))
    WV = mat_mul(dense(W), dense(V))
    half = rat(-1, 2)
    expected = [[(VW[i][j] - WV[i][j]) * half for j in range(4)] for i in range(4)]
    assert dense(parts.vw1) == expected


def test_vw1_antisymmetric_part_vanishes_for_equal_matrices(m2):
    rng = random.Random(17)
    V = random_traceless(2, rng)
    parts = compose_decompose(m2, V, V, -1, -1)
    assert not parts.vw1


def test_composition_identity_seeded(m2):
    rng = random.Random(42)
    for _ in range(2):
        V = random_traceless(2, rng)
        W = random_traceless(2, rng)
        assert not verify_composition_identity(m2, V, W, -1, -1, degree_bound=2)


def test_composition_identity_other_weights():
    # every admissible weight at n = 1, 2, 3; the weight-dependent part of vw1,
    # beta = (n-2)(w1-w2)/(2n(n+4)), vanishes at n = 2, so the control that
    # drops it must fail at every weight of n = 1 and n = 3
    for n in (1, 2, 3):
        m = AmbientModel(n)
        rng = random.Random(5 + n)
        V = random_traceless(n, rng)
        W = random_traceless(n, rng)
        for w1, w2 in admissible_weights(n, 4):
            parts = compose_decompose(m, V, W, w1, w2)
            bad = verify_composition_identity(m, V, W, w1, w2, degree_bound=3, parts=parts)
            assert not bad and bad.cases > 0
            if n != 2:
                control = parts._replace(vw1=dv_bracket(V, W).scale(rat(1, 2)))
                assert control.vw1 != parts.vw1
                assert verify_composition_identity(m, V, W, w1, w2, degree_bound=3, parts=control)
    m = AmbientModel(1)
    rng = random.Random(5)
    V = random_traceless(1, rng)
    W = random_traceless(1, rng)
    # a decomposition passed in must be at the weights the monomials are
    parts = compose_decompose(m, V, W, 0, -1)
    assert not verify_composition_identity(m, V, W, 0, -1, degree_bound=2, parts=parts)
    with pytest.raises(ValueError):
        verify_composition_identity(m, V, W, -1, 0, degree_bound=2, parts=parts)


def test_weight_precondition(m2):
    rng = random.Random(1)
    V = random_traceless(2, rng)
    W = random_traceless(2, rng)
    with pytest.raises(ValueError):
        compose_decompose(m2, V, W, 0, 0)


def test_corrected_scalar_differs_from_printed(m2):
    rng = random.Random(42)
    V = random_traceless(2, rng)
    W = random_traceless(2, rng)
    parts = compose_decompose(m2, V, W, -1, -1)
    assert parts.vw0 != uncorrected_vw0(m2, V, W, -1, -1)


def test_principal_part_of_composition_is_top_quadratic_form(m2):
    # the order-2 part of D_V D_W is the quadratic form of the raw V (x) W
    rng = random.Random(21)
    V = random_traceless(2, rng)
    W = random_traceless(2, rng)
    N = 4
    v, w = dense(V), dense(W)
    raw = SparseTensor(
        2,
        N,
        {
            ((B, D), (A, C)): v[B][A] * w[D][C]
            for B in range(N)
            for D in range(N)
            for A in range(N)
            for C in range(N)
        },
    )
    comp = higher_symmetry_op(m2, V).compose(higher_symmetry_op(m2, W))
    assert not raw.is_trace_free()
    assert principal_part(comp, 2) == principal_part(higher_symmetry_op_by_composition(m2, raw), 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_t_part_operator_matches_the_composed_generators(n):
    m = AmbientModel(n)
    rng = random.Random(30 + n)
    w1 = (-n + n % 2) // 2
    for _ in range(2):
        V = random_traceless(n, rng)
        W = random_traceless(n, rng)
        parts = compose_decompose(m, V, W, w1, -n - w1)
        for T in (parts.T, parts.T.symmetrized()):
            assert higher_symmetry_op(m, T) == higher_symmetry_op_by_composition(m, T)


def test_uncorrected_scalar_fails_identity(m2, monkeypatch):
    # regression guard: the correction is load-bearing, and the one-residual
    # check reports the same monomials and residuals as lhs(f) - rhs(f)
    rng = random.Random(42)
    V = random_traceless(2, rng)
    W = random_traceless(2, rng)
    parts = compose_decompose(m2, V, W, -1, -1)
    shift = WeylOperator.identity(m2.ring).scale(uncorrected_vw0(m2, V, W, -1, -1) - parts.vw0)
    sides = subsym.ambient.composition_operators

    def shifted(*args):
        ambient, trivial = sides(*args)
        return ambient, trivial + shift

    monkeypatch.setattr(subsym.ambient, "composition_operators", shifted)
    bad = verify_composition_identity(m2, V, W, -1, -1, degree_bound=2)
    ambient, wrong = shifted(m2, V, W, parts)
    monomials = list(bidegree_monomials(m2, -1, -1, 2))
    expected = [f"{f} -> {res}" for f in monomials if (res := ambient.apply(f) - wrong.apply(f))]
    assert expected and bad == expected
    assert bad.cases == len(monomials)


def test_composition_check_sweeps_one_operator_over_every_monomial(m2, monkeypatch):
    # one residual operator, one sweep over all monomials, and no image formed
    # on a pass
    monomials = list(bidegree_monomials(m2, -1, -1, 3))
    swept, applied = [], []
    nonvanishing, apply = WeylOperator.nonvanishing, WeylOperator.apply

    def sweep(self, fs):
        swept.append(list(fs))
        return nonvanishing(self, swept[-1])

    def counting(self, f):
        applied.append(f)
        return apply(self, f)

    monkeypatch.setattr(WeylOperator, "nonvanishing", sweep)
    monkeypatch.setattr(WeylOperator, "apply", counting)
    rng = random.Random(42)
    bad = verify_composition_identity(
        m2, random_traceless(2, rng), random_traceless(2, rng), -1, -1, degree_bound=3
    )
    assert not bad and bad.cases == len(monomials) == 100
    assert swept == [monomials] and applied == []


def test_composition_parts_of_another_pair_fail_the_identity(m2):
    # the parts of (V, W) handed to the check of another pair do not fit, and
    # the check fails; the ambient side is built from V, W and the parts alone
    rng = random.Random(42)
    V, W, X = (random_traceless(2, rng) for _ in range(3))
    parts = compose_decompose(m2, V, W, -1, -1)
    assert not verify_composition_identity(m2, V, W, -1, -1, degree_bound=2, parts=parts)
    assert verify_composition_identity(m2, V, X, -1, -1, degree_bound=2, parts=parts)
    assert not verify_composition_identity(m2, V, W, -1, -1, degree_bound=2, parts=parts)
    fresh = (
        higher_symmetry_op(m2, V).compose(higher_symmetry_op(m2, W))
        - higher_symmetry_op(m2, parts.T.symmetrized())
        - higher_symmetry_op(m2, parts.vw1)
    )
    assert composition_operators(m2, V, W, parts)[0] == fresh


def test_composition_parts_are_immutable_and_a_replaced_vw0_fails(m2):
    # no field can change in place; a copy with vw0 + 1 keeps every other
    # part, and its check fails where the parts' own check passes
    rng = random.Random(42)
    V, W = random_traceless(2, rng), random_traceless(2, rng)
    parts = compose_decompose(m2, V, W, -1, -1)
    for name in parts._fields:
        with pytest.raises(AttributeError):
            setattr(parts, name, getattr(parts, name))
    assert not verify_composition_identity(m2, V, W, -1, -1, degree_bound=2, parts=parts)
    control = parts._replace(vw0=parts.vw0 + 1)
    assert (control.T, control.vw1, control.w1) == (parts.T, parts.vw1, parts.w1)
    assert verify_composition_identity(m2, V, W, -1, -1, degree_bound=2, parts=control)


def test_composition_suite_fails_an_empty_sweep(monkeypatch):
    from subsym.cli import run

    decompositions = []
    compose_decompose_ = subsym.ambient.compose_decompose

    def spy(*args):
        decompositions.append(args)
        return compose_decompose_(*args)

    monkeypatch.setattr(subsym.ambient, "bidegree_monomials", lambda *args: iter(()))
    monkeypatch.setattr(subsym.ambient, "compose_decompose", spy)
    (rep,) = run("composition", {"seed": 0})
    identity = [c for c in rep.checks if "composition identity exact" in c.name]
    assert len(identity) == 5
    assert all(c.status == "fail" and c.witness == "vacuous: 0 cases" for c in identity)
    # one decomposition per pair, which the suite passes to the right side;
    # the induced boundary check reuses pair 0's
    assert len(decompositions) == 5


def _matrix_path_mismatches(n, seed):
    """Names of the quantities on which the one-column tensor path differs
    from the former dense matrix path: sl_basis, the bracket over sl_basis,
    and the bracket and the parts of compose_decompose on three seeded pairs
    at every admissible weight."""
    m = AmbientModel(n)
    basis = sl_basis(m.N)
    mats = [TracelessMatrix(dense(V)) for V in basis]
    bad = set()
    if mats != sl_basis_matrix(m.N):
        bad.add("sl_basis")
    for V, M in zip(basis, mats):
        if any(dv_bracket(V, W) != to_tensor(dv_bracket_matrix(M, K).entries) for W, K in zip(basis, mats)):
            bad.add("bracket")
    rng = random.Random(seed)
    for _ in range(3):
        V, W = random_traceless(n, rng), random_traceless(n, rng)
        Vm, Wm = TracelessMatrix(dense(V)), TracelessMatrix(dense(W))
        if dv_bracket(V, W) != to_tensor(dv_bracket_matrix(Vm, Wm).entries):
            bad.add("bracket")
        for w1, w2 in admissible_weights(n):
            new = compose_decompose(m, V, W, w1, w2)
            old = compose_decompose_by_loops(m, Vm, Wm, w1, w2)
            bad.update(
                name
                for name, a, b in (
                    ("U", dense(new.U), old.U),
                    ("Utilde", dense(new.Utilde), old.Utilde),
                    ("T", new.T, old.T),
                    ("vw1", dense(new.vw1), old.vw1.entries),
                    ("vw0", new.vw0, old.vw0),
                )
                if a != b
            )
    return bad


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tensor_path_matches_the_matrix_path(n, monkeypatch):
    assert not _matrix_path_mismatches(n, 50 + n)
    # a mutant that swaps the two products P and Q must be told apart; it
    # swaps U and Utilde, which changes T only by a column-antisymmetric term,
    # so Sym T (and vw0, which reads tr P = tr Q) cannot see it
    products = subsym.ambient._products

    def swapped(V, W):
        P, Q, t = products(V, W)
        return Q, P, t

    monkeypatch.setattr(subsym.ambient, "_products", swapped)
    assert _matrix_path_mismatches(n, 50 + n) == {"U", "Utilde", "T", "vw1", "bracket"}


def fractional_traceless(n, rng):
    """Seeded trace-free V^B_A whose entries have denominators 3 and 4 (and
    N from the trace correction)."""
    N = n + 2
    V = SparseTensor(1, N, {((B,), (A,)): rat(rng.randint(-5, 5), rng.choice((1, 3, 4)))
                            for B in range(N) for A in range(N)})
    return V - identity(N).scale(V.contraction(0, 0).entries.get(((), ()), RZERO) / N)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integer_compose_decompose_matches_the_loops(n):
    # every part of the integer decomposition against the four-index loops,
    # on pairs with denominators 3 and 4, at every admissible weight
    m = AmbientModel(n)
    rng = random.Random(300 + n)
    for _ in range(2):
        V, W = fractional_traceless(n, rng), fractional_traceless(n, rng)
        assert {3, 4} <= {v.denominator for X in (V, W) for ((B,), (A,)), v in X.entries.items() if B != A}
        for w1, w2 in admissible_weights(n):
            new = compose_decompose(m, V, W, w1, w2)
            old = compose_decompose_by_loops(m, TracelessMatrix(dense(V)), TracelessMatrix(dense(W)), w1, w2)
            assert dense(new.U) == old.U and dense(new.Utilde) == old.Utilde
            assert new.T == old.T
            assert dense(new.vw1) == old.vw1.entries and new.vw0 == old.vw0
            assert new.T.is_trace_free() and new.T.nonzero_contractions() == []
