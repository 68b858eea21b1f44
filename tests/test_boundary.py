import random

import pytest

from subsym.ambient import (
    ambient_laplacian,
    bidegree_monomials,
    central_element,
    higher_symmetry_op,
    r_poly,
    random_traceless,
)
from subsym.boundary import (
    BoundaryModel,
    FrameFields,
    admissible_weights,
    extend,
    induce,
    phi_pullback,
    sublaplacian,
    tangential_op_operational,
    tangential_ops,
    verify_reduction,
)
from subsym.scalars import rat
from support import bidegree


def completeness_residuals(fr: FrameFields, m: BoundaryModel):
    """delta^A_B - (X^A Z_B + Z^A X_B + Y^A_c Y^c_B), all entries."""
    n = m.n
    out = []
    for A in range(n + 2):
        for B in range(n + 2):
            acc = fr.X_up[A] * fr.Z_dn[B] + fr.Z_up[A] * fr.X_dn[B]
            for c in range(1, n + 1):
                acc = acc + fr.Y_up[c][A] * fr.Y_dn[c][B]
            target = m.ring.one() if A == B else m.ring.zero()
            if acc != target:
                out.append((A, B, str(acc - target)))
    return out


def tangency_residuals(fr: FrameFields, m: BoundaryModel):
    """Y^B_a X_B = 0 and Y^c_B X^B = 0 on the section."""
    out = []
    for a in range(1, m.n + 1):
        for side, Y, X in (("upper", fr.Y_up, fr.X_dn), ("lower", fr.Y_dn, fr.X_up)):
            acc = m.ring.zero()
            for B in range(m.n + 2):
                acc = acc + Y[a][B] * X[B]
            if acc:
                out.append((side, a, str(acc)))
    return out


def verify_rh_lemma(m: BoundaryModel, h, w1: int, w2: int):
    """lap(r h) - r lap(h) - (n + w1 + w2) h for ambient h of bidegree
    (w1-1, w2-1); None when exact."""
    amb = m.ambient
    bid = bidegree(amb, h)
    if bid is not None and bid != (w1 - 1, w2 - 1):
        raise ValueError(f"h has bidegree {bid}, expected {(w1 - 1, w2 - 1)}")
    lap = ambient_laplacian(amb)
    r = r_poly(amb)
    res = lap.apply(r * h) - r * lap.apply(h) - h.scale(m.n + w1 + w2)
    return None if not res else res


@pytest.fixture(scope="module")
def m1():
    return BoundaryModel(1)


@pytest.fixture(scope="module")
def m2():
    return BoundaryModel(2)


def test_frames_complete_and_tangent():
    for n, g in [(1, None), (2, None), (2, (1, -1)), (3, (1, -1, 1))]:
        m = BoundaryModel(n, g)
        fr = FrameFields(m)
        assert not completeness_residuals(fr, m)
        assert not tangency_residuals(fr, m)


def test_pullback_of_r_vanishes(m1, m2):
    for m in (m1, m2):
        assert not phi_pullback(m, r_poly(m.ambient))


def test_pullback_coordinates(m1):
    amb = m1.ambient
    assert phi_pullback(m1, amb.up(1)) == m1.z(1)
    num = (amb.up(2) - amb.dn(0)).scale(rat(1, 2))
    assert phi_pullback(m1, num) == m1.tau()


@pytest.mark.parametrize("g_diag", [(1,), (1, 1), (1, -1), (-1, -1, 1)])
def test_pullback_of_each_ambient_generator(g_diag):
    # the section images of the docstring, written out from the coordinates:
    # x^0 -> 1, x^a -> z^a, x^inf -> -zz/2 + tau, x_0 -> -zz/2 - tau,
    # x_a -> g_a zb^a, x_inf -> 1, with zz = sum_a g_a z^a zb^a
    m = BoundaryModel(len(g_diag), g_diag)
    R, amb = m.ring, m.ambient
    z = [R.gen(f"z{a}") for a in range(1, m.n + 1)]
    z_low = [R.gen(f"zb{a}").scale(g) for a, g in zip(range(1, m.n + 1), g_diag)]
    half_zz = R.zero()
    for za, wa in zip(z, z_low):
        half_zz = half_zz + (za * wa).scale(rat(1, 2))
    tau = R.gen("tau")
    up = [R.one()] + z + [tau - half_zz]
    dn = [-tau - half_zz] + z_low + [R.one()]
    for A in range(m.n + 2):
        assert phi_pullback(m, amb.up(A)) == up[A]
        assert phi_pullback(m, amb.dn(A)) == dn[A]
    # the invertible generators pull back to the inverse of their unit image
    assert phi_pullback(m, amb.up(0, -1) * amb.dn(m.n + 1, -1)) == R.one()


def test_extend_of_one(m1):
    for (w1, w2) in [(0, -1), (2, -3), (-1, 0)]:
        f = extend(m1, m1.ring.one(), w1, w2)
        assert f == m1.ambient.ring.gen("x0", w1) * m1.ambient.ring.gen("x_inf", w2)


def test_extend_is_section_of_pullback(m1, m2):
    for m, w1, w2 in [(m1, 0, -1), (m1, 1, -2), (m2, -1, -1)]:
        for F in m.monomials(3):
            assert phi_pullback(m, extend(m, F, w1, w2)) == F


def test_extend_euler_eigenvalues(m2):
    from subsym.ambient import euler_ops

    E, Eb = euler_ops(m2.ambient)
    for F in list(m2.monomials(2))[:25]:
        f = extend(m2, F, -1, -1)
        assert E.apply(f) == f.scale(-1)
        assert Eb.apply(f) == f.scale(-1)


def test_extend_rejects_wrong_ring(m1, m2):
    with pytest.raises(ValueError):
        extend(m1, m2.ring.one(), 0, -1)


def test_tangential_closed_forms_match_chain_rule(m1):
    d_hol, d_raised, dtau = tangential_ops(m1)
    for F in m1.monomials(3):
        assert d_hol[0].apply(F) == tangential_op_operational(m1, "hol", 1, F)
        assert d_raised[0].apply(F) == tangential_op_operational(m1, "raised", 1, F)
        assert dtau.apply(F) == tangential_op_operational(m1, "tau", 1, F)


def test_tangential_chain_rule_mixed_signature():
    m = BoundaryModel(2, (1, -1))
    d_hol, d_raised, _ = tangential_ops(m)
    for F in list(m.monomials(2))[:20]:
        for a in (1, 2):
            assert d_hol[a - 1].apply(F) == tangential_op_operational(m, "hol", a, F)
            assert d_raised[a - 1].apply(F) == tangential_op_operational(m, "raised", a, F)


def test_contact_commutators():
    for g in [None, (1, -1)]:
        m = BoundaryModel(2, g)
        d_hol, d_raised, dtau = tangential_ops(m)
        for a in range(2):
            dabar = d_raised[a].scale(m.g_diag[a])
            for b in range(2):
                comm = dabar.commutator(d_hol[b])
                if a == b:
                    # i g_a d_sigma = -g_a d_tau
                    assert comm == dtau.scale(-m.g_diag[a])
                else:
                    assert not comm
        assert not d_hol[0].commutator(d_hol[1])
        assert not d_raised[0].commutator(d_raised[1])


def test_kronecker_action(m2):
    d_hol, _, _ = tangential_ops(m2)
    assert d_hol[0].apply(m2.z(2)) == m2.ring.zero()
    assert d_hol[1].apply(m2.z(2)) == m2.ring.one()


def test_sublaplacian_values(m1):
    lap = sublaplacian(m1, -1, -1 + 1)  # w1 = w2: the tau term drops
    assert lap.apply(m1.ring.one()) == m1.ring.zero()
    lap01 = sublaplacian(m1, 0, -1)
    assert lap01.apply(m1.z(1)) == m1.ring.zero()
    # Delta sigma = i/2, so Delta tau = i * i/2
    assert lap01.apply(m1.tau()) == m1.ring.const(rat(-1, 2))
    assert lap01.apply(m1.z(1) * m1.zb(1)) == m1.ring.one()


def test_admissible_weights_parity():
    assert admissible_weights(1, 4) == [(-2, 1), (-1, 0), (0, -1), (1, -2)]
    assert (-1, -1) in admissible_weights(2, 4)
    for n in (1, 2, 3):
        for (w1, w2) in admissible_weights(n, 4):
            assert n + w1 + w2 == 0


def test_reduction_theorem_sweep():
    for n in (1, 2):
        m = BoundaryModel(n)
        for (w1, w2) in admissible_weights(n, 4):
            for F in m.monomials(3):
                assert verify_reduction(m, F, w1, w2) is None, (n, w1, w2, str(F))


def test_reduction_mixed_signature():
    m = BoundaryModel(2, (1, -1))
    for (w1, w2) in admissible_weights(2, 2):
        for F in m.monomials(2):
            assert verify_reduction(m, F, w1, w2) is None


def test_reduction_requires_admissible_weights(m1):
    with pytest.raises(ValueError):
        verify_reduction(m1, m1.ring.one(), 0, 0)


def test_rh_lemma(m2):
    amb = m2.ambient
    for (w1, w2) in [(1, 1), (0, -2), (-1, -1)]:
        bound = max(2, abs(w1 - 1), abs(w2 - 1))
        count = 0
        for h in bidegree_monomials(amb, w1 - 1, w2 - 1, bound):
            assert verify_rh_lemma(m2, h, w1, w2) is None
            count += 1
        assert count


def test_rh_lemma_h_one():
    m = BoundaryModel(1)
    assert verify_rh_lemma(m, m.ambient.ring.one(), 1, 1) is None


def test_rh_lemma_rejects_wrong_bidegree(m2):
    with pytest.raises(ValueError):
        verify_rh_lemma(m2, m2.ambient.up(1), 1, 1)


def test_extension_difference_invisible_after_laplacian(m2):
    amb = m2.ambient
    lap = ambient_laplacian(amb)
    r = r_poly(amb)
    F = m2.z(1) * m2.zb(2) + m2.tau()
    for (w1, w2) in [(-1, -1), (0, -2)]:
        f = extend(m2, F, w1, w2)
        for h in list(bidegree_monomials(amb, w1 - 1, w2 - 1, 3))[:4]:
            assert phi_pullback(m2, lap.apply(f + r * h)) == phi_pullback(m2, lap.apply(f))


def test_induce_laplacian_and_central(m2):
    amb = m2.ambient
    lap = ambient_laplacian(amb)
    cen = central_element(amb)
    for (w1, w2) in admissible_weights(2, 2):
        delta = sublaplacian(m2, w1, w2)
        for F in list(m2.monomials(2))[:15]:
            assert induce(m2, lap, w1, w2, F) == delta.apply(F)
            # central_element is i(E - Ebar) divided by i
            assert induce(m2, cen, w1, w2, F) == F.scale(w1 - w2)


def test_induced_first_order_symmetry_property(m2):
    rng = random.Random(11)
    for (w1, w2) in [(-1, -1), (0, -2)]:
        delta = sublaplacian(m2, w1, w2)
        V = random_traceless(2, rng)
        dV = higher_symmetry_op(m2.ambient, V)
        for F in list(m2.monomials(2))[:15]:
            lhs = induce(m2, dV, w1 - 1, w2 - 1, delta.apply(F))
            rhs = delta.apply(induce(m2, dV, w1, w2, F))
            assert lhs == rhs


def test_induce_linear(m2):
    amb = m2.ambient
    lap = ambient_laplacian(amb)
    F, G = m2.z(1), m2.zb(2) * m2.tau()
    got = induce(m2, lap, -1, -1, F + G.scale(3))
    assert got == induce(m2, lap, -1, -1, F) + induce(m2, lap, -1, -1, G).scale(3)


def test_extend_rejects_non_integer_weights(m1):
    with pytest.raises(ValueError):
        extend(m1, m1.ring.one(), 0.5, -1.5)
