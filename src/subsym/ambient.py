"""The ambient space C^{n+2}: Euler operators, the symmetries D_V of
trace-free tensors, the decomposition of a composition D_V o D_W, and the
commutation and composition suites that check them.

The model itself (`AmbientModel`, its coordinate ring and conventions, the
quadric and dual quadric of a one-column tensor, r and the Laplacian) lives
in ``model``, which the boundary layer loads without this module; its names
are imported here, so they can still be imported from ``ambient``.  At
S = U + Utilde the quadric and dual quadric give the trivial part of a
composition D_V o D_W.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from functools import cached_property
from math import factorial

from . import linalg
from .model import AmbientModel, ambient_laplacian, dual_quadric, identity, quadric, r_poly
from .rings import _canonical
from .report import CaseResults, VerificationReport
from .scalars import RONE, RZERO, rat
from .tensor import SparseTensor, _integers, sl_basis, stabilizer_order
from .weyl import WeylOperator

COMPOSITION_N = 2  # the composition suite's n when --n is not given


# ---------------------------------------------------------------------------
# sl(n+2) as one-column tensors V^B_A, keyed ((B,), (A,)); its basis is
# tensor.sl_basis


TRACELESS_BOUND = 3  # the entry bound of random_traceless


def random_traceless(n, rng):
    """Seeded small-integer V^B_A, drawn row by row, made traceless by
    subtracting tr/(n+2) times the identity."""
    N = n + 2
    V = SparseTensor.random(1, N, rng, TRACELESS_BOUND)
    return V - identity(N).scale(_trace(V) / N)


# ---------------------------------------------------------------------------
# Euler operators and the central element


def euler_ops(m: AmbientModel):
    E = WeylOperator.zero(m.ring)
    Ebar = WeylOperator.zero(m.ring)
    for A in range(m.N):
        E = E + WeylOperator.mul_by(m.up(A)).compose(m.d_up(A))
        Ebar = Ebar + WeylOperator.mul_by(m.dn(A)).compose(m.d_dn(A))
    return E, Ebar


def _trace(V: SparseTensor):
    return sum((V.entries.get(((A,), (A,)), RZERO) for A in range(V.N)), RZERO)


def _matrices(V: SparseTensor, W: SparseTensor):
    """(den, v, w): N x N int matrices with V^B_A W^D_C = v[B][A] w[D][C] / den."""
    (dv, v), (dw, w) = (_integers(X.entries) for X in (V, W))
    N = range(V.N)
    return dv * dw, *([[x.get(((B,), (A,)), 0) for A in N] for B in N] for x in (v, w))


def _from_matrix(den, M) -> SparseTensor:
    """The one-column tensor M[B][A] / den."""
    entries = {((B,), (A,)): c for B, row in enumerate(M) for A, c in enumerate(row)}
    return SparseTensor.from_integers(1, len(M), den, entries)


def _products(v, w):
    """(P, Q, t) of the matrices v, w of V^B_A, W^B_A: P^D_A = V^X_A W^D_X,
    Q^B_C = V^B_X W^X_C and t = tr Q, read as v and w are."""
    N = range(len(v))
    P = [[sum(v[x][a] * w[d][x] for x in N) for a in N] for d in N]
    Q = [[sum(v[b][x] * w[x][c] for x in N) for c in N] for b in N]
    return P, Q, sum(Q[i][i] for i in N)


def dv_bracket(V: SparseTensor, W: SparseTensor) -> SparseTensor:
    """M with D_M = [D_V, D_W]; M^B_A = V^C_A W^B_C - V^B_C W^C_A."""
    den, v, w = _matrices(V, W)
    P, Q, _ = _products(v, w)
    return _from_matrix(den, [[p - q for p, q in zip(*rows)] for rows in zip(P, Q)])


def central_element(m: AmbientModel) -> WeylOperator:
    """x^B d_B - x_B d^B, the central element i (x^B d_B - x_B d^B) divided by
    i to keep it rational; acts on bidegree (w1, w2) as w1 - w2."""
    E, Ebar = euler_ops(m)
    return E - Ebar


def central_action_check(m: AmbientModel, w1: int, w2: int, bound=2):
    """E - Ebar scales every bidegree-(w1, w2) monomial by w1 - w2, that is, the
    central element scales it by i(w1 - w2): E - Ebar - (w1 - w2) Id
    annihilates each.  Returns CaseResults of the monomials it does not scale."""
    op = central_element(m) - WeylOperator.identity(m.ring).scale(w1 - w2)
    monomials = list(bidegree_monomials(m, w1, w2, bound))
    return CaseResults([str(f) for f in op.nonvanishing(monomials)], len(monomials))


def bidegree_monomials(m: AmbientModel, w1: int, w2: int, bound: int):
    """All Laurent monomials of bidegree (w1, w2) with per-generator exponents
    bounded by `bound` (negative allowed only on the invertible generators)."""
    n, nu = m.n, m.N

    def side(total, laurent_slot):
        # exponents for one index group: slot laurent_slot may go negative
        ranges = []
        for A in range(nu):
            if A == laurent_slot:
                ranges.append(range(-bound, bound + 1))
            else:
                ranges.append(range(0, bound + 1))
        for exps in itertools.product(*ranges):
            if sum(exps) == total:
                yield exps

    b_side = list(side(w2, nu - 1))
    for a_exps in side(w1, 0):
        for b_exps in b_side:
            yield m.ring.monomial(
                {
                    **{m.upper_names[A]: e for A, e in enumerate(a_exps) if e},
                    **{m.lower_names[A]: e for A, e in enumerate(b_exps) if e},
                }
            )


# ---------------------------------------------------------------------------
# symmetries from totally trace-free ambient tensors


def higher_symmetry_op(m: AmbientModel, V: SparseTensor) -> WeylOperator:
    """D_V = sum V^B_A prod_i (x^{A_i} d_{B_i} - x_{B_i} d^{A_i}) with every
    coefficient to the left, summed per derivative multi-index; at k = 1 the
    first-order symmetry of V in sl(n+2).

    V must be totally trace-free: every reordering term of the composed
    generators then contracts an upper slot of V with a lower one, so the sum
    is their product, and it commutes with the Laplacian and with r.  Each
    term is a product over the columns, so every ordering of a column orbit
    gives the same terms and D_V = D_(Sym V): it is read per orbit from
    V.column_orbits(), each orbit weighted by its k!/stabilizer_order
    orderings.
    """
    if V.N != m.N:
        raise ValueError("tensor dimension does not match the model")
    if not V.is_trace_free():
        raise ValueError("tensor is not totally trace-free")
    den, orbits = V.column_orbits()
    ring = m.ring
    up = [ring.index[name] for name in m.upper_names]
    dn = [ring.index[name] for name in m.lower_names]
    orderings = factorial(V.k)
    coeffs = {}  # derivative multi-index -> {exponent: numerator over den}
    for cols, w in orbits.items():
        c = w * (orderings // stabilizer_order(cols))
        # side 0 of column (B, A) is x^A d_B, side 1 is -x_B d^A
        for sides in itertools.product((0, 1), repeat=V.k):
            exp = [0] * ring.arity
            alpha = [0] * ring.arity
            for lower_side, (b, a) in zip(sides, cols):
                if lower_side:
                    exp[dn[b]] += 1
                    alpha[dn[a]] += 1
                else:
                    exp[up[a]] += 1
                    alpha[up[b]] += 1
            cs = coeffs.setdefault(tuple(alpha), {})
            key = tuple(exp)
            cs[key] = cs.get(key, 0) + (-c if sum(sides) % 2 else c)
    return WeylOperator(
        ring, {alpha: _canonical(ring, {e: c for e, c in cs.items() if c}, den) for alpha, cs in coeffs.items()}
    )


# ---------------------------------------------------------------------------
# composition of two first-order symmetries: trace decomposition + identity


class CompositionParts(namedtuple("CompositionParts", "T U Utilde vw2 vw1 vw0 w1 w2")):
    """T is the raw trace-free part T^{BD}_{AC} (keyed ((B,D),(A,C))), U^D_A
    the coefficient of delta^B_C, Utilde^B_C that of delta^D_A, vw2 the
    column-symmetrized T, then vw1, the rational vw0 and the weights."""

    @cached_property
    def _ops(self):
        """D_V o D_W, D_vw2 and D_vw1 once built; immutable parts keep them
        valid, and parts made by _replace start with none."""
        return {}


def trace_projection_oracle(m: AmbientModel, V: SparseTensor, W: SparseTensor):
    """Independent (U, Utilde) via exact linear projection.

    Solves the four trace conditions of the five-term resolution of V (x) W
    together with the gauge tr U = tr Utilde (the delta-insertion map has the
    one-dimensional kernel (Id, -Id), so the gauge pins the solution).  The
    traces of V (x) W are dense matrix products of the entries, formed here.
    """
    N = m.N
    nvars = 2 * N * N  # U then Utilde, row-major

    def u_idx(d, a):
        return d * N + a

    def ut_idx(b, c):
        return N * N + b * N + c

    rows = []
    rhs = []

    def trace_row(own, other, i, j):
        """Row of coefficients: the contraction of the delta terms that leaves
        own(i, j) free, N own + delta_ij tr other - (2/N)(U + Ut)_ij
        + delta_ij tr(U + Ut)/N^2."""
        row = [RZERO] * nvars
        row[own(i, j)] = row[own(i, j)] + N
        for idx in (u_idx, ut_idx):
            row[idx(i, j)] = row[idx(i, j)] - rat(2, N)
        if i == j:
            for x in range(N):
                row[other(x, x)] = row[other(x, x)] + 1
                for idx in (u_idx, ut_idx):
                    row[idx(x, x)] = row[idx(x, x)] + rat(1, N * N)
        return row

    v = [[V.entries.get(((B,), (A,)), RZERO) for A in range(N)] for B in range(N)]
    w = [[W.entries.get(((B,), (A,)), RZERO) for A in range(N)] for B in range(N)]
    P = [[sum((v[x][j] * w[i][x] for x in range(N)), RZERO) for j in range(N)] for i in range(N)]
    Q = [[sum((v[i][x] * w[x][j] for x in range(N)), RZERO) for j in range(N)] for i in range(N)]
    for i in range(N):
        for j in range(N):
            rows.append(trace_row(u_idx, ut_idx, i, j))
            rhs.append(P[i][j])  # (B=C)-trace of V (x) W, free (D, A)
            rows.append(trace_row(ut_idx, u_idx, i, j))
            rhs.append(Q[i][j])  # (D=A)-trace, free (B, C)
    gauge = [RZERO] * nvars
    for x in range(N):
        gauge[u_idx(x, x)] = RONE
        gauge[ut_idx(x, x)] = gauge[ut_idx(x, x)] - RONE
    rows.append(gauge)
    rhs.append(RZERO)
    sol = linalg.solve(rows, rhs)
    if sol is None:
        return None
    x, kern = sol
    if kern:
        return None
    U = {((d,), (a,)): x[u_idx(d, a)] for d in range(N) for a in range(N)}
    Ut = {((b,), (c,)): x[ut_idx(b, c)] for b in range(N) for c in range(N)}
    return SparseTensor(1, N, U), SparseTensor(1, N, Ut)


def compose_decompose(
    m: AmbientModel, V: SparseTensor, W: SparseTensor, w1: int, w2: int
) -> CompositionParts:
    """Trace decomposition of V (x) W and the induced second/first/zeroth
    order symmetry data of the composition at weights (w1, w2).

    Every part is formed as integer numerators over one denominator: V (x) W,
    P, Q and t over den, U, Utilde and S over den * L, T over den * L * N^2
    and vw1 over den * M, L and M clearing the denominators of the closed-form
    coefficients; each tensor is made rational once, one rational per
    distinct numerator."""
    n, N = m.n, m.N
    if n + w1 + w2 != 0:
        raise ValueError("weights must satisfy n + w1 + w2 = 0")
    if any((X.k, X.N) != (1, N) or not X.is_trace_free() for X in (V, W)):
        raise ValueError(f"V and W must be trace-free one-column tensors over C^{N}")
    den, v, w = _matrices(V, W)
    P, Q, t = _products(v, w)
    I = range(N)
    # U = c_big P + c_small Q - c_id t Id and Utilde = c_small P + c_big Q -
    # c_id t Id, times L: c_big = (2n^2 + 8n + 4)/(2n(n+2)(n+4)), c_small =
    # 4/(2n(n+2)(n+4)) and c_id = (n^2 + 4n + 6)/(2n(n+1)(n+3)(n+4))
    L = 2 * n * (n + 1) * (n + 2) * (n + 3) * (n + 4)
    big, small = (2 * n * n + 8 * n + 4) * (n + 1) * (n + 3), 4 * (n + 1) * (n + 3)
    tid = (n * n + 4 * n + 6) * (n + 2) * t
    U = [[big * P[B][A] + small * Q[B][A] - (tid if B == A else 0) for A in I] for B in I]
    Ut = [[small * P[B][A] + big * Q[B][A] - (tid if B == A else 0) for A in I] for B in I]
    S = [[u + ut for u, ut in zip(*rows)] for rows in zip(U, Ut)]
    trS = sum(S[A][A] for A in I)
    # T = V (x) W - delta^B_C U^D_A - delta^D_A Ut^B_C + (delta^B_A S^D_C
    # + S^B_A delta^D_C)/N - tr S delta^B_A delta^D_C/N^2, times L N^2
    NN = N * N
    T = {}
    for B, A, D, C in itertools.product(I, repeat=4):
        c = NN * L * v[B][A] * w[D][C]
        if B == C:
            c -= NN * U[D][A]
        if D == A:
            c -= NN * Ut[B][C]
        if B == A:
            c += N * S[D][C]
        if D == C:
            c += N * S[B][A]
            if B == A:
                c -= trS
        T[(B, D), (A, C)] = c
    T = SparseTensor.from_integers(2, N, den * L * NN, T)
    # vw1 = beta (P + Q - 2t/(n+2) Id) + (P - Q)/2, beta = (n-2)(w1-w2)/(2n(n+4)),
    # times M
    dw = w1 - w2
    M = 2 * n * (n + 2) * (n + 4)
    beta, half, bt = (n - 2) * (n + 2) * dw, n * (n + 2) * (n + 4), 2 * (n - 2) * dw * t
    vw1 = [
        [beta * (p + q) + half * (p - q) - (bt if B == A else 0) for A, (p, q) in enumerate(zip(*rows))]
        for B, rows in enumerate(zip(P, Q))
    ]
    # Zeroth-order part: exact reduction of the trace-part quadratics gives
    # this closed form (cross-checked by residual fitting at n = 1..4).
    # uncorrected_vw0 keeps the superseded constant for discrepancy reports.
    vw0 = rat(n * (dw * dw - (n + 2) ** 2) * t, 2 * (n + 1) * (n + 2) * (n + 3) * den)
    return CompositionParts(
        T=T, U=_from_matrix(den * L, U), Utilde=_from_matrix(den * L, Ut), vw2=T.symmetrized(),
        vw1=_from_matrix(den * M, vw1), vw0=vw0, w1=w1, w2=w2,
    )


def uncorrected_vw0(m: AmbientModel, V: SparseTensor, W: SparseTensor, w1, w2):
    """Superseded zeroth-order constant; fails the exact identity and is kept
    only so reports can show the discrepancy."""
    n = m.n
    dw = w1 - w2
    den, v, w = _matrices(V, W)
    t = _products(v, w)[2]
    num = (n * n + n + 6) * dw * dw - n * n * (n + 4) * (n * n + 4 * n + 5)
    return rat(num * t, n * (n + 1) * (n + 2) * (n + 3) * (n + 4) * den)


def _vw_ops(m: AmbientModel, parts: CompositionParts):
    """(D_vw2, D_vw1), built once and kept on parts."""
    if "vw" not in parts._ops:
        parts._ops["vw"] = (higher_symmetry_op(m, parts.vw2), higher_symmetry_op(m, parts.vw1))
    return parts._ops["vw"]


def _composed(m: AmbientModel, V: SparseTensor, W: SparseTensor, parts: CompositionParts):
    """D_V o D_W, kept on parts with the V and W it was built from and built
    again for any other pair."""
    kept = parts._ops.get("VW")
    if kept is None or kept[0] != V or kept[1] != W:
        kept = parts._ops["VW"] = (V, W, higher_symmetry_op(m, V).compose(higher_symmetry_op(m, W)))
    return kept[2]


def composition_rhs_operator(m: AmbientModel, parts: CompositionParts) -> WeylOperator:
    """Right-hand side of the composition identity D_V o D_W = D_vw2 + D_vw1
    + vw0 - (r lap_S + r_S lap), with S = U + Ut, r_S its quadric and lap_S
    its dual quadric, where ``parts`` is compose_decompose(m, V, W, w1, w2).

    Valid only when applied to bihomogeneous functions of bidegree (w1, w2)
    with n + w1 + w2 = 0.
    """
    S = parts.U + parts.Utilde
    D_vw2, D_vw1 = _vw_ops(m, parts)
    return (
        D_vw2
        + D_vw1
        + WeylOperator.identity(m.ring).scale(parts.vw0)
        - WeylOperator.mul_by(r_poly(m)).compose(dual_quadric(m, S))
        - WeylOperator.mul_by(quadric(m, S)).compose(ambient_laplacian(m))
    )


def composition_ambient_part(
    m: AmbientModel, V: SparseTensor, W: SparseTensor, parts: CompositionParts
) -> WeylOperator:
    """D_V o D_W - D_vw2 - D_vw1 for parts = compose_decompose(m, V, W, w1, w2):
    the operator the identity equates with vw0 - (r lap_S + r_S lap).  It
    reads the operators verify_composition_identity keeps on parts."""
    D_vw2, D_vw1 = _vw_ops(m, parts)
    return _composed(m, V, W, parts) - D_vw2 - D_vw1


def verify_composition_identity(
    m: AmbientModel,
    V: SparseTensor,
    W: SparseTensor,
    w1: int,
    w2: int,
    degree_bound: int = 3,
    parts: CompositionParts | None = None,
):
    """Exact check of the composition identity on every admissible monomial.

    The residual operator D_V o D_W - rhs is formed once and swept over the
    monomials in one integer pass (WeylOperator.nonvanishing); by linearity
    its value is lhs(f) - rhs(f), applied only to the monomials that fail.
    ``parts``, formed here when not given, is compose_decompose(m, V, W, w1,
    w2).  Returns CaseResults of "monomial -> residual" for the monomials
    that fail, with ``cases`` the number of monomials examined.
    """
    if parts is None:
        parts = compose_decompose(m, V, W, w1, w2)
    elif (parts.w1, parts.w2) != (w1, w2):
        raise ValueError(f"parts are at weights ({parts.w1}, {parts.w2}), not ({w1}, {w2})")
    residual = _composed(m, V, W, parts) - composition_rhs_operator(m, parts)
    monomials = list(bidegree_monomials(m, w1, w2, degree_bound))
    return CaseResults([f"{f} -> {residual.apply(f)}" for f in residual.nonvanishing(monomials)], len(monomials))


# ---------------------------------------------------------------------------
# the commutation and composition suites


def _suite_commutation(rep: VerificationReport, n=3):
    for n in range(1, n + 1):
        m = AmbientModel(n)
        lap = ambient_laplacian(m)
        rmul = WeylOperator.mul_by(r_poly(m))
        ops = {f"sl({m.N}) basis element {i}": higher_symmetry_op(m, V) for i, V in enumerate(sl_basis(m.N))}
        rep.check(f"n={n}: [lap, D_V] = 0 for the full sl({m.N}) basis",
                  CaseResults([e for e, dV in ops.items() if lap.commutator(dV)], len(ops)))
        rep.check(f"n={n}: [D_V, r.] = 0 for the full sl({m.N}) basis",
                  CaseResults([e for e, dV in ops.items() if dV.commutator(rmul)], len(ops)))
    m = AmbientModel(2)
    rng = random.Random(rep.seed)
    pairs = [(random_traceless(2, rng), random_traceless(2, rng)) for _ in range(5)]
    rep.check("n=2: bracket closure on 5 seeded pairs", CaseResults(
        [f"pair {i}" for i, (V, W) in enumerate(pairs)
         if higher_symmetry_op(m, V).commutator(higher_symmetry_op(m, W)) != higher_symmetry_op(m, dv_bracket(V, W))],
        len(pairs)))
    m1 = AmbientModel(1)
    ab, ba = central_action_check(m1, 0, -1), central_action_check(m1, -1, 0)
    rep.check("central element scales by i(w1-w2)", CaseResults(ab + ba, ab.cases + ba.cases))
    return rep


def _suite_composition(rep: VerificationReport, n=COMPOSITION_N, deg=3, w1=None, w2=None):
    from .boundary import BoundaryModel, admissible_weights, induce, phi_pullback, sublaplacian

    if w1 is None or w2 is None:
        w1, w2 = admissible_weights(n, n % 2)[-1]  # smallest |w1 - w2|, w1 >= w2
    m = AmbientModel(n)
    mb = BoundaryModel(n)
    rng = random.Random(rep.seed)
    pairs = [(random_traceless(n, rng), random_traceless(n, rng)) for _ in range(5)]
    decomposed = [compose_decompose(m, V, W, w1, w2) for V, W in pairs]
    for i, ((V, W), parts) in enumerate(zip(pairs, decomposed)):
        rep.check(f"pair {i}: T totally trace-free", CaseResults(
            [f"contraction ({p}, {q}) nonzero" for p, q in parts.T.nonzero_contractions()], parts.T.k ** 2))
        orc = trace_projection_oracle(m, V, W)
        differ = ["the oracle has no unique solution"] if orc is None else [
            f"{x} differs" for x, ours, theirs in (("U", parts.U, orc[0]), ("Utilde", parts.Utilde, orc[1]))
            if ours != theirs]
        rep.add(f"pair {i}: (U, Utilde) match the projection oracle", not differ, "; ".join(differ))
        rep.check(f"pair {i}: composition identity exact, exponent bound {deg}",
                  verify_composition_identity(m, V, W, w1, w2, degree_bound=deg, parts=parts))
    # induced (boundary) decomposition for the first pair, sampled F
    V, W = pairs[0]
    parts = decomposed[0]
    # D_V o D_W - D_vw2 - D_vw1 induces vw0 - r_S Delta_b, r_S the pulled
    # back quadric of S = U + Utilde; its operators are the ones the pair's
    # composition check built
    ambient_part = composition_ambient_part(m, V, W, parts)
    uq = phi_pullback(mb, quadric(m, parts.U + parts.Utilde))
    delta = sublaplacian(mb, w1, w2)
    monomials = list(mb.monomials(2))
    rep.check("induced boundary decomposition (second/first/zeroth + trivial part)", CaseResults(
        [f"F={F}" for F in monomials
         if induce(mb, ambient_part, w1, w2, F) != F.scale(parts.vw0) - uq * delta.apply(F)],
        len(monomials)))
    if parts.vw0 != uncorrected_vw0(m, V, W, w1, w2):
        rep.note(
            "zeroth-order coefficient is the derived closed form "
            "tr(VW) * n[(w1-w2)^2-(n+2)^2]/(2(n+1)(n+2)(n+3)); the "
            "commonly quoted constant fails the exact identity"
        )
    return rep
