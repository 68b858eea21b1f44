"""The ambient space C^{n+2}: metric, null-cone quadric, Laplacian, Euler
operators, first-order symmetry generators and their compositions.

Complexification convention: the 2(n+2) polynomial generators are the upper
coordinates x^0, x^1..x^n, x^inf and the independent lowered coordinates
x_0, x_1..x_n, x_inf obtained by pairing the conjugates with the metric
(x_0 is the conjugate of x^inf, x_inf the conjugate of x^0, x_a the g-lowered
conjugate of x^a).  With that dictionary the quadric is r = sum_A x^A x_A and
the ambient Laplacian is sum_A d_A d^A with constant coefficients.

Only x^0 and x_inf are invertible: they are the homogeneity bookkeeping
directions used by the canonical extension.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .rings import LaurentPoly, Ring
from .report import CaseResults
from .scalars import RONE, RZERO, accumulate, rat
from .tensor import SparseTensor
from .weyl import WeylOperator


# ---------------------------------------------------------------------------
# sl(n+2) as one-column tensors V^B_A, keyed ((B,), (A,))


def sl_basis(N):
    """Standard basis of sl(N): off-diagonal units and diagonal differences."""
    units = [{((B,), (A,)): RONE} for B in range(N) for A in range(N) if B != A]
    diffs = [{((B,), (B,)): RONE, ((B + 1,), (B + 1,)): -RONE} for B in range(N - 1)]
    return [SparseTensor(1, N, e) for e in units + diffs]


def random_traceless(n, rng, bound=3):
    """Seeded small-integer V^B_A, drawn row by row, made traceless by
    subtracting tr/(n+2) on the diagonal."""
    N = n + 2
    V = {((B,), (A,)): rat(rng.randint(-bound, bound)) for B in range(N) for A in range(N)}
    c = sum((V[(B,), (B,)] for B in range(N)), RZERO) / N
    for B in range(N):
        V[(B,), (B,)] = V[(B,), (B,)] - c
    return SparseTensor(1, N, V)


# ---------------------------------------------------------------------------
# the model


class AmbientModel:
    """Ambient C^{n+2} with diagonal boundary metric block g_diag (+-1)."""

    def __init__(self, n, g_diag=None):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        self.g_diag = tuple(g_diag) if g_diag is not None else (1,) * n
        if len(self.g_diag) != n or any(g not in (1, -1) for g in self.g_diag):
            raise ValueError("g_diag must be n entries of +-1")
        upper = ["x0"] + [f"x{a}" for a in range(1, n + 1)] + ["xinf"]
        lower = ["x_0"] + [f"x_{a}" for a in range(1, n + 1)] + ["x_inf"]
        self.upper_names = upper
        self.lower_names = lower
        self.ring = Ring(upper + lower, laurent=("x0", "x_inf"))

    @property
    def N(self):
        return self.n + 2

    # index values: 0 -> '0' direction, 1..n -> boundary, n+1 -> 'inf'
    def up(self, A, power=1) -> LaurentPoly:
        return self.ring.gen(self.upper_names[A], power)

    def dn(self, A, power=1) -> LaurentPoly:
        return self.ring.gen(self.lower_names[A], power)

    def d_up(self, A) -> WeylOperator:
        """Derivative along the upper coordinate x^A."""
        return WeylOperator.derivative(self.ring, self.upper_names[A])

    def d_dn(self, A) -> WeylOperator:
        """Derivative along the lowered coordinate x_A (the raised operator)."""
        return WeylOperator.derivative(self.ring, self.lower_names[A])


def r_poly(m: AmbientModel) -> LaurentPoly:
    out = m.ring.zero()
    for A in range(m.N):
        out = out + m.up(A) * m.dn(A)
    return out


@lru_cache(maxsize=32)
def ambient_laplacian(m: AmbientModel) -> WeylOperator:
    """sum_A d_A d^A, built once per model."""
    out = WeylOperator.zero(m.ring)
    for A in range(m.N):
        out = out + m.d_up(A).compose(m.d_dn(A))
    return out


def euler_ops(m: AmbientModel):
    E = WeylOperator.zero(m.ring)
    Ebar = WeylOperator.zero(m.ring)
    for A in range(m.N):
        E = E + WeylOperator.mul_by(m.up(A)).compose(m.d_up(A))
        Ebar = Ebar + WeylOperator.mul_by(m.dn(A)).compose(m.d_dn(A))
    return E, Ebar


def first_order_generator(m: AmbientModel, A, B) -> WeylOperator:
    """x^A d_B - x_B d^A."""
    return WeylOperator.mul_by(m.up(A)).compose(m.d_up(B)) - WeylOperator.mul_by(
        m.dn(B)
    ).compose(m.d_dn(A))


def _trace(V: SparseTensor):
    return V.contraction(0, 0).entries.get(((), ()), RZERO)


def _products(V: SparseTensor, W: SparseTensor):
    """(P, Q, t) of V (x) W: P^D_A = V^X_A W^D_X, Q^B_C = V^B_X W^X_C, t = tr Q."""
    VW = V.outer(W)
    P = VW.contraction(0, 1)
    Q = VW.contraction(1, 0)
    return P, Q, _trace(Q)


def dv_bracket(V: SparseTensor, W: SparseTensor) -> SparseTensor:
    """M with D_M = [D_V, D_W]; M^B_A = V^C_A W^B_C - V^B_C W^C_A."""
    P, Q, _ = _products(V, W)
    return P - Q


def central_element(m: AmbientModel) -> WeylOperator:
    """x^B d_B - x_B d^B, the central element i (x^B d_B - x_B d^B) divided by
    i to keep it rational; acts on bidegree (w1, w2) as w1 - w2."""
    E, Ebar = euler_ops(m)
    return E - Ebar


def central_action_check(m: AmbientModel, w1: int, w2: int, bound=2):
    """E - Ebar scales every bidegree-(w1, w2) monomial by w1 - w2, that is, the
    central element scales it by i(w1 - w2)."""
    op = central_element(m)
    fails = []
    for f in bidegree_monomials(m, w1, w2, bound):
        if op.apply(f) != f.scale(w1 - w2):
            fails.append(str(f))
    return fails


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

    for a_exps in side(w1, 0):
        for b_exps in side(w2, nu - 1):
            yield m.ring.monomial(
                {
                    **{m.upper_names[A]: e for A, e in enumerate(a_exps) if e},
                    **{m.lower_names[A]: e for A, e in enumerate(b_exps) if e},
                }
            )


# ---------------------------------------------------------------------------
# higher symmetries from column-symmetric ambient tensors


def higher_symmetry_op(m: AmbientModel, V: SparseTensor) -> WeylOperator:
    """Normal-ordered product of first-order generators contracted with V;
    at k = 1 it is the first-order symmetry D_V of V in sl(n+2).

    Any such operator commutes with the ambient Laplacian and with
    multiplication by r; column symmetry is expected (and total
    trace-freeness recommended) for the symbol calculus downstream.
    """
    if V.N != m.N:
        raise ValueError("tensor dimension does not match the model")
    if not V.is_symmetric():
        warnings.warn("tensor is not column-symmetric; symbol calculus may degrade")
    if not V.is_trace_free():
        warnings.warn("tensor is not totally trace-free; induced order may drop")
    gens = {}
    out = WeylOperator.zero(m.ring)
    for (B, A), c in V.entries.items():
        term = None
        for i in range(V.k):
            key = (A[i], B[i])
            op = gens.get(key)
            if op is None:
                op = first_order_generator(m, *key)
                gens[key] = op
            term = op if term is None else term.compose(op)
        out = out + term.scale(c)
    return out


# ---------------------------------------------------------------------------
# composition of two first-order symmetries: trace decomposition + identity


@dataclass
class CompositionParts:
    T: SparseTensor  # raw trace-free part T^{BD}_{AC} (keyed ((B,D),(A,C)))
    U: SparseTensor  # U^D_A, the coefficient of delta^B_C
    Utilde: SparseTensor  # Utilde^B_C, the coefficient of delta^D_A
    vw2: SparseTensor  # column-symmetrized T
    vw1: SparseTensor
    vw0: rat
    w1: int
    w2: int


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

    def delta_terms_contracted(kind, i, j):
        """Row of coefficients: the (kind) contraction of the delta terms,
        evaluated at free indices (i, j)."""
        row = [RZERO] * nvars
        inv = rat(1, N)
        inv2 = rat(1, N * N)
        if kind == "BC":  # sum_X [B=C=X]: free (D, A) = (i, j)
            row[u_idx(i, j)] = row[u_idx(i, j)] + N
            # delta^D_A tr(Ut)
            if i == j:
                for x in range(N):
                    row[ut_idx(x, x)] = row[ut_idx(x, x)] + 1
            # -(1/N)*2*(U+Ut)^D_A
            row[u_idx(i, j)] = row[u_idx(i, j)] - 2 * inv
            row[ut_idx(i, j)] = row[ut_idx(i, j)] - 2 * inv
            # +(1/N^2) delta^D_A tr(U+Ut)
            if i == j:
                for x in range(N):
                    row[u_idx(x, x)] = row[u_idx(x, x)] + inv2
                    row[ut_idx(x, x)] = row[ut_idx(x, x)] + inv2
        else:  # "DA": free (B, C) = (i, j)
            row[ut_idx(i, j)] = row[ut_idx(i, j)] + N
            if i == j:
                for x in range(N):
                    row[u_idx(x, x)] = row[u_idx(x, x)] + 1
            row[u_idx(i, j)] = row[u_idx(i, j)] - 2 * inv
            row[ut_idx(i, j)] = row[ut_idx(i, j)] - 2 * inv
            if i == j:
                for x in range(N):
                    row[u_idx(x, x)] = row[u_idx(x, x)] + inv2
                    row[ut_idx(x, x)] = row[ut_idx(x, x)] + inv2
        return row

    v = [[V.entries.get(((B,), (A,)), RZERO) for A in range(N)] for B in range(N)]
    w = [[W.entries.get(((B,), (A,)), RZERO) for A in range(N)] for B in range(N)]
    P = [[sum((v[x][j] * w[i][x] for x in range(N)), RZERO) for j in range(N)] for i in range(N)]
    Q = [[sum((v[i][x] * w[x][j] for x in range(N)), RZERO) for j in range(N)] for i in range(N)]
    for i in range(N):
        for j in range(N):
            rows.append(delta_terms_contracted("BC", i, j))
            rhs.append(P[i][j])  # (B=C)-trace of V (x) W
            rows.append(delta_terms_contracted("DA", i, j))
            rhs.append(Q[i][j])  # (D=A)-trace
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
    order symmetry data of the composition at weights (w1, w2)."""
    n, N = m.n, m.N
    if n + w1 + w2 != 0:
        raise ValueError("weights must satisfy n + w1 + w2 = 0")
    if any((X.k, X.N) != (1, N) or not X.is_trace_free() for X in (V, W)):
        raise ValueError(f"V and W must be trace-free one-column tensors over C^{N}")
    P, Q, t = _products(V, W)
    c_big = rat(2 * n * n + 8 * n + 4, 2 * n * (n + 2) * (n + 4))
    c_small = rat(4, 2 * n * (n + 2) * (n + 4))
    I = SparseTensor(1, N, {((A,), (A,)): RONE for A in range(N)})
    tI = I.scale(rat(n * n + 4 * n + 6, 2 * n * (n + 1) * (n + 3) * (n + 4)) * t)
    U = P.scale(c_big) + Q.scale(c_small) - tI
    Ut = P.scale(c_small) + Q.scale(c_big) - tI
    # T = V (x) W - delta^B_C U^D_A - delta^D_A Ut^B_C + (delta^B_A S^D_C
    # + S^B_A delta^D_C)/N - tr S delta^B_A delta^D_C/N^2, with S = U + Ut
    S = U + Ut
    swapped = (I.outer(U) + Ut.outer(I)).act({(1, 0): 1}, upper=False)
    T = (
        V.outer(W)
        - swapped
        + (I.outer(S) + S.outer(I)).scale(rat(1, N))
        - I.outer(I).scale(_trace(S) / (N * N))
    )
    dw = w1 - w2
    beta = rat(n - 2, 2 * n * (n + 4)) * dw
    vw1 = (P + Q - I.scale(rat(2, n + 2) * t)).scale(beta) + (P - Q).scale(rat(1, 2))
    # Zeroth-order part: exact reduction of the trace-part quadratics gives
    # this closed form (cross-checked by residual fitting at n = 1..4).
    # uncorrected_vw0 keeps the superseded constant for discrepancy reports.
    vw0 = rat(n, 2 * (n + 1) * (n + 2) * (n + 3)) * (dw * dw - (n + 2) ** 2) * t
    return CompositionParts(T=T, U=U, Utilde=Ut, vw2=T.symmetrized(), vw1=vw1, vw0=vw0, w1=w1, w2=w2)


def uncorrected_vw0(m: AmbientModel, V: SparseTensor, W: SparseTensor, w1, w2):
    """Superseded zeroth-order constant; fails the exact identity and is kept
    only so reports can show the discrepancy."""
    n = m.n
    dw = w1 - w2
    t = _products(V, W)[2]
    num = (n * n + n + 6) * dw * dw - n * n * (n + 4) * (n * n + 4 * n + 5)
    return num * t / (n * (n + 1) * (n + 2) * (n + 3) * (n + 4))


def t_part_operator(m: AmbientModel, T: SparseTensor) -> WeylOperator:
    """sum T^{BD}_{AC} (x^A x^C d_B d_D - x^A x_D d_B d^C - x_B x^C d^A d_D
    + x_B x_D d^A d^C).

    The four quadric terms of every entry are summed per derivative
    multi-index as monomial coefficients, and each coefficient polynomial is
    built once from its sum."""
    ring = m.ring
    up = [ring.index[name] for name in m.upper_names]
    dn = [ring.index[name] for name in m.lower_names]
    coeffs = {}  # derivative multi-index -> {exponent: coefficient}

    def add(x1, x2, d1, d2, c):
        exp = [0] * ring.arity
        exp[x1] += 1
        exp[x2] += 1
        alpha = [0] * ring.arity
        alpha[d1] += 1
        alpha[d2] += 1
        accumulate(coeffs.setdefault(tuple(alpha), {}), tuple(exp), c)

    for ((B, D), (A, C)), c in T.entries.items():
        add(up[A], up[C], up[B], up[D], c)
        add(up[A], dn[D], up[B], dn[C], -c)
        add(dn[B], up[C], dn[A], up[D], -c)
        add(dn[B], dn[D], dn[A], dn[C], c)
    return WeylOperator(ring, {alpha: LaurentPoly(ring, cs) for alpha, cs in coeffs.items()})


def u_quadric(m: AmbientModel, S: SparseTensor) -> LaurentPoly:
    """U^D_A x^A x_D + Ut^B_C x_B x^C, that is S^D_A x^A x_D with S = U + Ut,
    the coordinates commuting."""
    out = m.ring.zero()
    for ((D,), (A,)), c in S.entries.items():
        out = out + (m.up(A) * m.dn(D)).scale(c)
    return out


def composition_rhs_operator(
    m: AmbientModel, V: SparseTensor, W: SparseTensor, parts: CompositionParts
) -> WeylOperator:
    """Right-hand side of the composition identity at the weights of ``parts``,
    which is compose_decompose(m, V, W, w1, w2).

    Valid only when applied to bihomogeneous functions of bidegree (w1, w2)
    with n + w1 + w2 = 0.
    """
    n = m.n
    P, Q, t = _products(V, W)
    S = parts.U + parts.Utilde
    dw = parts.w1 - parts.w2
    lap = ambient_laplacian(m)
    out = t_part_operator(m, parts.T)
    # -r (U^D_A d^A d_D + Ut^B_C d_B d^C), that is -r S^D_A d^A d_D
    mid = WeylOperator.zero(m.ring)
    for ((D,), (A,)), c in S.entries.items():
        mid = mid + m.d_dn(A).compose(m.d_up(D)).scale(c)
    out = out - WeylOperator.mul_by(r_poly(m)).compose(mid)
    # -(U-quadric) * Laplacian
    out = out - WeylOperator.mul_by(u_quadric(m, S)).compose(lap)
    # first-order terms with weight-dependent coefficients
    denom = 2 * n * (n + 4)
    c1 = rat((n - 2) * dw - n * (n + 4), denom)  # on Q, along x^A d_D
    c1p = rat((n - 2) * dw + n * (n + 4), denom)  # on P
    c2 = rat((2 - n) * dw - n * (n + 4), denom)  # on P, along x_D d^A
    c2p = rat((2 - n) * dw + n * (n + 4), denom)  # on Q
    fo = WeylOperator.zero(m.ring)
    for ((D,), (A,)), c in (Q.scale(c1) + P.scale(c1p)).entries.items():
        fo = fo + WeylOperator.term(m.up(A), {m.upper_names[D]: 1}).scale(c)
    for ((D,), (A,)), c in (P.scale(c2) + Q.scale(c2p)).entries.items():
        fo = fo + WeylOperator.term(m.dn(D), {m.lower_names[A]: 1}).scale(c)
    out = out + fo
    # scalar term: exact reduction of the trace-part quadratics with the
    # 1/(n+2) resolution coefficients
    num = rat((-n**3 + 10 * n + 12) * dw * dw - n * n * (n + 4) * (n + 2) ** 2, 2)
    scalar = num * t / (n * (n + 1) * (n + 2) * (n + 3) * (n + 4))
    out = out + WeylOperator.identity(m.ring).scale(scalar)
    return out


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

    The residual operator D_V o D_W - rhs is formed once and applied to each
    monomial; by linearity its value is lhs(f) - rhs(f).  ``parts``, formed
    here when not given, is compose_decompose(m, V, W, w1, w2).  Returns a
    CaseResults list of failing (monomial, residual) pairs, empty on a pass,
    with ``cases`` the number of monomials examined.
    """
    if parts is None:
        parts = compose_decompose(m, V, W, w1, w2)
    elif (parts.w1, parts.w2) != (w1, w2):
        raise ValueError(f"parts are at weights ({parts.w1}, {parts.w2}), not ({w1}, {w2})")
    DVW = higher_symmetry_op(m, V).compose(higher_symmetry_op(m, W))
    residual = DVW - composition_rhs_operator(m, V, W, parts)
    bad, cases = [], 0
    for f in bidegree_monomials(m, w1, w2, degree_bound):
        cases += 1
        res = residual.apply(f)
        if res:
            bad.append((str(f), str(res)))
    return CaseResults(bad, cases)
