"""The acceptance battery: one test per criterion, exact tolerances.

Each test prints a pass/fail line through the terminal-summary hook in
conftest.py and also asserts the stated runtime budget (generously met on
any desk machine; budgets come from the build contract).
"""

import random
import time

from subsym.scalars import gr, rat


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        return False


def finish(record, number, title, ok, timer, budget):
    record(number, title, ok and timer.elapsed < budget, timer.elapsed)
    assert ok, f"criterion {number} failed"
    assert timer.elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_1_classalg_tables(record_criterion):
    from subsym.classalg import ClassElement, class_multiply

    with Timer() as t:
        x2 = ClassElement.basis(2, (2,))
        ok = class_multiply(x2, x2) == ClassElement.one(2)
        x = ClassElement.basis(3, (2, 1))
        y = ClassElement.basis(3, (3,))
        one = ClassElement.one(3)
        ok = ok and class_multiply(x, x) == one.scale(rat(1, 3)) + y.scale(rat(2, 3))
        ok = ok and class_multiply(x, y) == x
        ok = ok and class_multiply(y, y) == one.scale(rat(1, 2)) + y.scale(rat(1, 2))
    finish(record_criterion, 1, "class-algebra tables k=2, k=3 exact", ok, t, 1.0)


def test_criterion_2_oracle_equivalence(record_criterion):
    from subsym.classalg import ClassElement, center_convolution, class_multiply, partitions

    with Timer() as t:
        ok = True
        for k in range(1, 6):
            for lam in partitions(k):
                for mu in partitions(k):
                    u = ClassElement.basis(k, lam)
                    v = ClassElement.basis(k, mu)
                    if class_multiply(u, v) != center_convolution(u, v):
                        ok = False
    finish(record_criterion, 2, "class_multiply == center_convolution, all pairs k <= 5", ok, t, 30.0)


def test_criterion_3_commutant_crosscheck(record_criterion):
    from subsym.classalg import ClassElement, class_multiply
    from subsym.decompose import commutant_mult_crosscheck

    with Timer() as t:
        ok = True
        for (k, N) in [(2, 4), (3, 6)]:
            def cp(lam, mu, _k=k):
                return class_multiply(
                    ClassElement.basis(_k, lam), ClassElement.basis(_k, mu)
                ).coeffs

            res = commutant_mult_crosscheck(k, N, cp)
            ok = ok and all(okk for _, _, okk in res)
    finish(record_criterion, 3, "commutant products match class algebra, (2,4) and (3,6)", ok, t, 120.0)


def test_criterion_4_reduction(record_criterion):
    from subsym.boundary import BoundaryModel, admissible_weights, verify_reduction

    with Timer() as t:
        ok = True
        for n in (1, 2):
            m = BoundaryModel(n)
            for (w1, w2) in admissible_weights(n, 4):
                for F in m.monomials(3):
                    if verify_reduction(m, F, w1, w2) is not None:
                        ok = False
    finish(record_criterion, 4, "reduction theorem, n in {1,2}, |w1-w2| <= 4, deg <= 3", ok, t, 60.0)


def test_criterion_5_commutation(record_criterion):
    from subsym.ambient import (
        AmbientModel,
        ambient_laplacian,
        dv,
        dv_bracket,
        r_poly,
        random_traceless,
        sl_basis,
    )
    from subsym.weyl import WeylOperator

    with Timer() as t:
        ok = True
        for n in (1, 2, 3):
            m = AmbientModel(n)
            lap = ambient_laplacian(m)
            rmul = WeylOperator.mul_by(r_poly(m))
            for V in sl_basis(m.N):
                dV = dv(m, V)
                if lap.commutator(dV) or dV.commutator(rmul):
                    ok = False
        m = AmbientModel(2)
        rng = random.Random(42)
        for _ in range(5):
            V = random_traceless(2, rng)
            W = random_traceless(2, rng)
            if dv(m, V).commutator(dv(m, W)) != dv(m, dv_bracket(V, W)):
                ok = False
    finish(record_criterion, 5, "[lap, D_V] = 0, [D_V, r] = 0 (n <= 3) + bracket closure", ok, t, 60.0)


def test_criterion_6_composition_identity(record_criterion):
    from subsym.ambient import (
        AmbientModel,
        compose_decompose,
        random_traceless,
        trace_projection_oracle,
        verify_composition_identity,
    )

    with Timer() as t:
        m = AmbientModel(2)
        rng = random.Random(42)
        ok = True
        for _ in range(5):
            V = random_traceless(2, rng)
            W = random_traceless(2, rng)
            parts = compose_decompose(m, V, W, -1, -1)
            if not parts.T.is_trace_free():
                ok = False
            orc = trace_projection_oracle(m, V, W)
            if orc is None or orc[0] != parts.U or orc[1] != parts.Utilde:
                ok = False
            if verify_composition_identity(m, V, W, -1, -1, degree_bound=3):
                ok = False
    finish(record_criterion, 6, "composition identity n=2, 5 seeded pairs, bound 3", ok, t, 180.0)


def test_criterion_7_prop1(record_criterion):
    from subsym.boundary import BoundaryModel
    from subsym.symbols import a_coeff, a_matrix_det, pascal_identity_check, verify_prop1

    with Timer() as t:
        m = BoundaryModel(3)
        ok = True
        for (d, s) in [(2, 1), (3, 1), (4, 2)]:
            good, detail = verify_prop1(m, d, s)
            ok = ok and good and detail["system"]["unique"]
        ok = ok and all(a_coeff(s, 1, i) == 1 for s in range(1, 9) for i in range(s + 1))
        ok = ok and a_coeff(1, 1, 1) == 1
        ok = ok and not pascal_identity_check(8)
        ok = ok and all(abs(a_matrix_det(s)) == 1 for s in range(1, 9))
    finish(record_criterion, 7, "type-coefficient construction (2,1),(3,1),(4,2), n=3 + combinatorics", ok, t, 180.0)


def test_criterion_8_decomposition_dims(record_criterion):
    from subsym.classalg import partitions
    from subsym.decompose import (
        isotypic_table,
        stable_dim_formula,
        trace_free_dimension,
    )

    with Timer() as t:
        tab = isotypic_table(2, 4)
        ok = tab[(2,)] == 84 and tab[(1, 1)] == 20 and sum(tab.values()) == 104
        # two independent oracles for the total dimension
        ok = ok and trace_free_dimension(2, 4) == 104
        ok = ok and stable_dim_formula(2, 4) == 104
        for k in (1, 2, 3):
            t_k = isotypic_table(k, 2 * k)
            ok = ok and sum(1 for v in t_k.values() if v) == len(partitions(k))
    finish(record_criterion, 8, "isotypic ranks {84,20} sum 104 at (2,4); p(k) components, k <= 3", ok, t, 180.0)


def test_criterion_9_highest_weight_vectors(record_criterion):
    from subsym.classalg import partitions
    from subsym.decompose import highest_weight_vector, skew_vanishing_check

    with Timer() as t:
        ok = True
        for N in range(2, 7):
            for k in (1, 2, 3):
                for lam in partitions(k):
                    if 2 * len(lam) <= N:
                        _, nz = highest_weight_vector(lam, N)
                        ok = ok and nz
        for (lam, k, N) in [((2,), 2, 3), ((3,), 3, 4), ((2, 1), 3, 3)]:
            res = skew_vanishing_check(lam, k, N, trials=5, seed=0)
            ok = ok and all(okk for *_, okk in res)
    finish(record_criterion, 9, "highest-weight vectors nonzero, skew vanishing on 5 seeds/shape", ok, t, 60.0)


def test_criterion_10_el2_vanishing(record_criterion):
    from subsym.tensor import SparseTensor
    from subsym.boundary import BoundaryModel
    from subsym.symbols import extract_all_symbols

    with Timer() as t:
        ok = True
        for n in (2, 3):
            m = BoundaryModel(n)
            rng = random.Random(17 + n)
            T = SparseTensor.random_column_symmetric(3, n + 2, rng, density=0.05)
            Tsk = T.skew_slots([0, 1, 2], upper=True)
            ok = ok and bool(Tsk)
            syms = extract_all_symbols(m, Tsk)
            ok = ok and all(not s for s in syms.values())
            Tdb = Tsk.skew_slots([0, 1, 2], upper=False)
            ok = ok and bool(Tdb) and Tdb.is_symmetric()
            symsd = extract_all_symbols(m, Tdb)
            ok = ok and all(not s for s in symsd.values())
    finish(record_criterion, 10, "three-column alternation induces zero symbols, d=3, n in {2,3}", ok, t, 60.0)
