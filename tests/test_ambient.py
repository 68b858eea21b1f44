import random
import warnings

import pytest

import subsym.ambient
from subsym.ambient import (
    AmbientModel,
    ambient_laplacian,
    bidegree_monomials,
    central_action_check,
    central_element,
    compose_decompose,
    dv_bracket,
    euler_ops,
    higher_symmetry_op,
    uncorrected_vw0,
    r_poly,
    random_traceless,
    sl_basis,
    t_part_operator,
    trace_projection_oracle,
    verify_composition_identity,
)
from subsym.scalars import RZERO, rat
from subsym.tensor import SparseTensor
from subsym.weyl import WeylOperator
from subsym.boundary import admissible_weights
from support import (
    TracelessMatrix,
    bidegree,
    compose_decompose_by_loops,
    dense,
    dv_bracket_matrix,
    dv_matrix,
    mat_mul,
    mat_trace,
    principal_part,
    random_traceless_matrix,
    sl_basis_matrix,
    t_part_operator_termwise,
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
    assert not central_action_check(m1, 0, -1)
    assert not central_action_check(m1, -1, 0)
    assert not central_action_check(m1, -2, 2, bound=2)
    # w1 = w2: eigenvalue 0
    f = m1.up(1) * m1.dn(1)
    assert central_element(m1).apply(f) == m1.ring.zero()


def test_higher_symmetry_d1_reduces_to_dv(m2):
    rng = random.Random(3)
    V = random_traceless(2, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert higher_symmetry_op(m2, V) == dv_matrix(m2, TracelessMatrix(dense(V)))


def test_higher_symmetry_commutes(m2):
    rng = random.Random(7)
    T = SparseTensor.random_column_symmetric(2, 4, rng, density=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        op = higher_symmetry_op(m2, T)
    assert not ambient_laplacian(m2).commutator(op)
    assert not op.commutator(WeylOperator.mul_by(r_poly(m2)))


def test_higher_symmetry_column_invariance(m2):
    rng = random.Random(11)
    T = SparseTensor.random_column_symmetric(2, 4, rng, density=0.2)
    assert T.is_symmetric()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert higher_symmetry_op(m2, T.permuted((1, 0))) == higher_symmetry_op(m2, T)


def test_compose_decompose_trace_free(m2):
    rng = random.Random(42)
    for _ in range(5):
        V = random_traceless(2, rng)
        W = random_traceless(2, rng)
        parts = compose_decompose(m2, V, W, -1, -1)
        assert parts.T.is_trace_free()
        assert parts.vw2.is_symmetric()
        assert parts.vw2.is_trace_free()


def test_compose_decompose_n3():
    m3 = AmbientModel(3)
    rng = random.Random(2)
    V = random_traceless(3, rng)
    W = random_traceless(3, rng)
    parts = compose_decompose(m3, V, W, -1, -2)
    assert parts.T.is_trace_free()


def test_trace_oracle_matches_closed_form(m2):
    rng = random.Random(42)
    for _ in range(5):
        V = random_traceless(2, rng)
        W = random_traceless(2, rng)
        parts = compose_decompose(m2, V, W, -1, -1)
        orc = trace_projection_oracle(m2, V, W)
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
    m = AmbientModel(1)
    rng = random.Random(5)
    V = random_traceless(1, rng)
    W = random_traceless(1, rng)
    assert not verify_composition_identity(m, V, W, 0, -1, degree_bound=2)
    assert not verify_composition_identity(m, V, W, -1, 0, degree_bound=2)
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
    assert principal_part(comp, 2) == principal_part(t_part_operator(m2, raw), 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_t_part_operator_matches_the_termwise_sum(n):
    m = AmbientModel(n)
    rng = random.Random(30 + n)
    w1 = (-n + n % 2) // 2
    for _ in range(2):
        V = random_traceless(n, rng)
        W = random_traceless(n, rng)
        parts = compose_decompose(m, V, W, w1, -n - w1)
        for T in (parts.T, parts.vw2):
            assert t_part_operator(m, T) == t_part_operator_termwise(m, T)


def test_uncorrected_scalar_fails_identity(m2, monkeypatch):
    # regression guard: the correction is load-bearing, and the one-residual
    # check reports the same (monomial, residual) pairs as lhs(f) - rhs(f)
    rng = random.Random(42)
    V = random_traceless(2, rng)
    W = random_traceless(2, rng)
    parts = compose_decompose(m2, V, W, -1, -1)
    shift = WeylOperator.identity(m2.ring).scale(uncorrected_vw0(m2, V, W, -1, -1) - parts.vw0)
    rhs = subsym.ambient.composition_rhs_operator
    monkeypatch.setattr(subsym.ambient, "composition_rhs_operator", lambda *args: rhs(*args) + shift)
    bad = verify_composition_identity(m2, V, W, -1, -1, degree_bound=2)
    lhs = higher_symmetry_op(m2, V).compose(higher_symmetry_op(m2, W))
    wrong = subsym.ambient.composition_rhs_operator(m2, V, W, parts)
    monomials = list(bidegree_monomials(m2, -1, -1, 2))
    expected = [(str(f), str(lhs.apply(f) - wrong.apply(f))) for f in monomials]
    expected = [(f, res) for f, res in expected if res != "0"]
    assert expected and bad == expected
    assert bad.cases == len(monomials)


def test_composition_check_applies_one_operator_per_monomial(m2, monkeypatch):
    monomials = list(bidegree_monomials(m2, -1, -1, 3))
    applied = []
    apply = WeylOperator.apply

    def counting(self, f):
        applied.append(f)
        return apply(self, f)

    monkeypatch.setattr(WeylOperator, "apply", counting)
    rng = random.Random(42)
    bad = verify_composition_identity(
        m2, random_traceless(2, rng), random_traceless(2, rng), -1, -1, degree_bound=3
    )
    assert not bad and bad.cases == len(monomials) == 100
    assert applied == monomials


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
    from the former dense matrix path: the draws of random_traceless, sl_basis,
    D_V and the bracket over sl_basis, and the parts of compose_decompose on
    three seeded pairs at every admissible weight."""
    m = AmbientModel(n)
    basis = sl_basis(m.N)
    mats = [TracelessMatrix(dense(V)) for V in basis]
    bad = set()
    if mats != sl_basis_matrix(m.N):
        bad.add("sl_basis")
    if any(higher_symmetry_op(m, V) != dv_matrix(m, M) for V, M in zip(basis, mats)):
        bad.add("D_V")
    for V, M in zip(basis, mats):
        if any(dv_bracket(V, W) != to_tensor(dv_bracket_matrix(M, K).entries) for W, K in zip(basis, mats)):
            bad.add("bracket")
    rng, old_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        V, W = random_traceless(n, rng), random_traceless(n, rng)
        Vm, Wm = random_traceless_matrix(n, old_rng), random_traceless_matrix(n, old_rng)
        if [dense(V), dense(W)] != [Vm.entries, Wm.entries]:
            bad.add("random_traceless")
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
                    ("vw2", new.vw2, old.vw2),
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
    # so vw2 (and vw0, which reads tr P = tr Q) cannot see it
    products = subsym.ambient._products

    def swapped(V, W):
        P, Q, t = products(V, W)
        return Q, P, t

    monkeypatch.setattr(subsym.ambient, "_products", swapped)
    assert _matrix_path_mismatches(n, 50 + n) == {"U", "Utilde", "T", "vw1", "bracket"}
