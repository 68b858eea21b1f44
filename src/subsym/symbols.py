"""Symbol calculus for ambient symmetry operators.

An ambient tensor with d column pairs induces a boundary operator whose
coefficients in the d_a / d^b / d_tau basis form a family of symbol
tensors V[k, l] (k upper boundary indices, l lower, p = d-k-l tau slots).
Each symbol is held as its generating polynomial in the label generators
u_a, v_b of `boundary.column_factors`,

    V[k, l](u; v) = sum over ordered label tuples of
                    V[k, l]^{a_1..a_k}_{b_1..b_l} u_{a_1}..u_{a_k} v_{b_1}..v_{b_l},

of degree k in the u and l in the v.  Extraction contracts the tensor with
the cone-adapted frames and pulls back along the section, with the (-1)^l
prefactors and averaged symmetrizations.  The contraction is a product over
the columns, each an upper, a lower or a tau column, so the whole family is
one polynomial, summed over the column orbits of
`SparseTensor.column_orbits` (see extract_all_symbols).

On generating polynomials the symmetrized derivative with one more upper
(lower) index is the operator sum_a u_a d^a (sum_b v_b d_b) of
`boundary.label_derivatives`, and symmetrized delta-insertion is
multiplication by q = sum_x u_x v_x.  So a symbol is a pure trace, its
trace-free part zero, exactly when q divides its polynomial: trace-free
symmetric tensors are the harmonic polynomials.  `trace_remainder` decides
it.  The prop1 and symbols suites close the module.

The symbols in the sigma basis carry the phase (-i)^p, which cancels
against d_sigma^p = i^p d_tau^p; so the tau-basis symbol is i^p times the
sigma-basis one and every recursion is the sigma-form one multiplied by
i^(p+1): i k S + D S becomes -k S + D S.
"""

from __future__ import annotations

import itertools
import random
from math import comb, factorial, prod

from . import linalg
from .boundary import BoundaryModel, column_factors, frame_fields, label_derivatives
from .report import CaseResults, VerificationReport
from .rings import LaurentPoly, _canonical
from .scalars import RONE, rat
from .tensor import SparseTensor, stabilizer_order


def _check_dimension(m: BoundaryModel, T: SparseTensor):
    if T.N != m.n + 2:
        raise ValueError("tensor dimension does not match the model")


def _extract_symbols_reference(m: BoundaryModel, T: SparseTensor, k: int, l: int) -> LaurentPoly:
    """Direct per-component transcription of the extraction; test oracle.
    Returns the (k, l) generating polynomial: the component at each pair of
    sorted label keys, of multi-indices (alpha, beta), times its
    k! l!/(alpha! beta!) orderings u^alpha v^beta."""
    _check_dimension(m, T)
    d = T.k
    if k + l > d:
        raise ValueError("need k + l <= d")
    n = m.n
    fr = frame_fields(m)
    lift = column_factors(m)[0]
    terms = []
    cols = range(d)
    for a_key in itertools.combinations_with_replacement(range(1, n + 1), k):
        for b_key in itertools.combinations_with_replacement(range(1, n + 1), l):
            acc = m.ring.zero()
            for icols in itertools.permutations(cols, k):
                rest = [c for c in cols if c not in icols]
                for jcols in itertools.permutations(rest, l):
                    tau_cols = [c for c in rest if c not in jcols]
                    for (B, A), v in T.entries.items():
                        term = None
                        dead = False
                        for pos, c in enumerate(icols):
                            f = fr.Y_dn[a_key[pos]][B[c]]
                            if not f:
                                dead = True
                                break
                            term = f * fr.X_up[A[c]] if term is None else term * (f * fr.X_up[A[c]])
                        if dead:
                            continue
                        for pos, c in enumerate(jcols):
                            f = fr.Y_up[b_key[pos]][A[c]]
                            if not f:
                                dead = True
                                break
                            term = f * fr.X_dn[B[c]] if term is None else term * (f * fr.X_dn[B[c]])
                        if dead:
                            continue
                        for c in tau_cols:
                            fg = fr.X_up[A[c]] * fr.X_dn[B[c]]
                            term = fg if term is None else term * fg
                        if term is None:
                            term = m.ring.one()
                        acc = acc + term.scale(v)
            # (-1)^l/(k! l!) times the k! l!/(alpha! beta!) orderings
            counts = {f"u{a}": a_key.count(a) for a in a_key} | {f"v{b}": b_key.count(b) for b in b_key}
            label = lift.target.monomial(counts, rat((-1) ** l, prod(map(factorial, counts.values()))))
            terms.append(acc.substitute(lift) * label)
    return LaurentPoly.sum(lift.target, terms)


def extract_all_symbols(m: BoundaryModel, T: SparseTensor):
    """dict (k, l) -> the generating polynomial of the (k, l) symbol, for all
    k + l <= d, d = T.k: the part of degree k in the u and l in the v of

        G = sum over the orbits of T.column_orbits() of w d!/stab prod_c phi(c) / den,

    phi of boundary.column_factors, w/den the value of the column
    symmetrization Sym T on the orbit and d!/stab its number of orderings (a
    tensor and its symmetrization have the same symbols, the frame factors
    commuting).  Expanding prod_c phi(c) picks a tau, an upper or a lower
    factor for each column, so every ordered choice of labelled columns adds
    its contraction times its label generators, and the minus sign of the v
    terms carries (-1)^l.  G is summed by Horner over the sorted orbit
    columns, one product per distinct column prefix.
    _extract_symbols_reference, the direct transcription over all ordered
    assignments, is the test oracle.
    """
    _check_dimension(m, T)
    d, n, nb = T.k, m.n, m.ring.arity
    den, orbits = T.column_orbits()
    lift, phi = column_factors(m)
    L = lift.target
    orbits = sorted((cols, w * factorial(d) // stabilizer_order(cols)) for cols, w in orbits.items())

    def horner(orbits, depth):
        """sum w prod_{c in cols[depth:]} phi(c) over the sorted (cols, w)
        pairs ``orbits``, which share cols[:depth]: each next column
        multiplies the sum over its orbits' remaining columns once."""
        if depth == d - 1:
            return LaurentPoly.sum(L, [phi[cols[depth]] for cols, _ in orbits], [w for _, w in orbits])
        groups = itertools.groupby(orbits, key=lambda orbit: orbit[0][depth])
        return LaurentPoly.sum(L, [phi[c] * horner(list(group), depth + 1) for c, group in groups])

    G = horner(orbits, 0) if d else L.const(sum(w for _, w in orbits))
    parts = {(k, l): {} for k in range(d + 1) for l in range(d + 1 - k)}
    for e, c in G.num.items():
        parts[sum(e[nb : nb + n]), sum(e[nb + n :])][e] = c
    return {kl: _canonical(L, num, G.den * den) for kl, num in parts.items()}


# ---------------------------------------------------------------------------
# the trace part and the symbol recursions


def trace_remainder(m: BoundaryModel, P: LaurentPoly) -> LaurentPoly:
    """The remainder of P, in the ring L of boundary.column_factors, modulo
    q = sum_x u_x v_x: every u1 v1 rewritten as -(u2 v2 + ... + un vn).

    u1 v1 leads q in a lex order with u1 first, and one polynomial is a
    Groebner basis of its ideal, so the remainder is zero exactly when q
    divides P, that is when P is a pure trace.  A term with
    j = min(deg u1, deg v1) trades (u1 v1)^j for (-r)^j, r = u2 v2 + ... +
    un vn, which holds neither u1 nor v1, so one pass leaves no u1 v1.  With
    no u or no v in P the remainder is P.
    """
    L = P.ring
    iu, iv = L.index["u1"], L.index["v1"]
    parts = {}  # j -> numerators of the terms of P with (u1 v1)^j divided out
    for e, c in P.num.items():
        j = min(e[iu], e[iv])
        if j:
            e = tuple(x - j if i in (iu, iv) else x for i, x in enumerate(e))
        parts.setdefault(j, {})[e] = c
    if parts.keys() <= {0}:
        return P
    minus_r = -LaurentPoly.sum(L, [L.gen(f"u{x}") * L.gen(f"v{x}") for x in range(2, m.n + 1)])
    return LaurentPoly.sum(L, [_canonical(L, num, 1) * minus_r**j for j, num in parts.items()], den=P.den)


def _recursion_label(k: int, l: int, d: int) -> str:
    top = k + l > d
    if l == 0:
        return "top gradient symmetrization (upper)" if top else f"tau recursion (upper) k={k}"
    if k == 0:
        return "top gradient symmetrization (lower)" if top else f"tau recursion (lower) l={l}"
    return f"{'top mixed equation' if top else 'mixed recursion'} k={k} l={l}"


def check_symbol_recursions(m: BoundaryModel, symbols: dict, d: int):
    """Exact residuals of the symbol recursions for a full family.

    ``symbols`` maps (k, l), k + l <= d, to the generating polynomial of the
    extracted symbol.  For each 1 <= k + l <= d + 1 the trace-free part of
    (l - k) S(k, l) + D^ S(k - 1, l) + D_ S(k, l - 1) vanishes, D^ and D_ the
    label derivatives of boundary.label_derivatives; each term is present
    only when its symbol exists.  With l = 0 or k = 0 these are the tau
    recursions, and at k + l = d + 1 the top equations.  Returns CaseResults
    of "equation label: remainder" (see trace_remainder) for the equations
    that fail.
    """
    up, down = label_derivatives(m)
    bad, cases = [], 0
    for total in range(1, d + 2):
        for k in range(total + 1):
            l = total - k
            terms = [symbols[(k, l)].scale(l - k)] if total <= d else []
            if k:
                terms.append(up.apply(symbols[(k - 1, l)]))
            if l:
                terms.append(down.apply(symbols[(k, l - 1)]))
            res = trace_remainder(m, LaurentPoly.sum(up.ring, terms))
            cases += 1
            if res:
                bad.append(f"{_recursion_label(k, l, d)}: {res}")
    return CaseResults(bad, cases)


def check_bgg(m: BoundaryModel, top: LaurentPoly, d: int, s: int):
    """First BGG equations on the generating polynomial ``top`` of the (s, s)
    symbol: the trace-free part of d+1-2s symmetrized raised (resp. lowered)
    derivatives vanishes.  Returns CaseResults of "equation label: remainder"
    for the equations that fail."""
    bad = []
    for side, D in zip(("upper", "lower"), label_derivatives(m)):
        P = top
        for _ in range(d + 1 - 2 * s):
            P = D.apply(P)
        res = trace_remainder(m, P)
        if res:
            bad.append(f"first BGG equation ({side}): {res}")
    return CaseResults(bad, 2)


# ---------------------------------------------------------------------------
# canonical symmetry construction: types, a-coefficients, linear system


def a_coeff(s: int, row: int, i: int) -> int:
    """The binomial sum a^s_{row, i} with row = k + 1."""
    if not (1 <= row <= s + 1) or not (0 <= i <= s):
        raise ValueError("indices out of range")
    k = row - 1
    total = 0
    for j in range(0, min(i, k) + 1):
        total += comb(s - i, k - j) * comb(i, j) * comb(s - j, k)
    return total


def pascal_identity_check(s_max: int):
    """a^{s+1}_{k+2, i} - a^{s+1}_{k+2, i+1} = a^s_{k+1, i}, with the
    convention a^s_{0, i} = 0.  Returns CaseResults of the counterexamples."""
    bad, cases = [], 0
    for s in range(1, s_max + 1):
        for k in range(-1, s):
            for i in range(0, s + 1):
                lhs = a_coeff(s + 1, k + 2, i) - a_coeff(s + 1, k + 2, i + 1)
                rhs = a_coeff(s, k + 1, i) if k >= 0 else 0
                cases += 1
                if lhs != rhs:
                    bad.append(f"s={s} k={k} i={i}: {lhs} != {rhs}")
    return CaseResults(bad, cases)


def a_matrix_det(s: int):
    return linalg.det([[a_coeff(s, r, i) for i in range(1, s + 1)] for r in range(1, s + 1)])


def type_count(d: int, s: int, i: int) -> int:
    """Number of column placements of the i-th type."""
    return comb(d, 2 * s - 2 * i) * comb(2 * s - 2 * i, s - i) * comb(d - 2 * s + 2 * i, i)


def prop1_system(d: int, s: int):
    """Solve for the type coefficients x_1..x_s (x_0 = 1).

    Returns dict with whether the system is solvable, and if so the
    solution and its uniqueness.
    """
    if not (1 <= s and 2 * s <= d):
        raise ValueError("need 1 <= s and 2s <= d")
    rows = []
    rhs = []
    for r in range(1, s + 1):
        rows.append([rat(type_count(d, s, i) * a_coeff(s, r, i)) for i in range(1, s + 1)])
        rhs.append(rat(-type_count(d, s, 0) * a_coeff(s, r, 0)))
    sol = linalg.solve(rows, rhs)
    if sol is None:
        return {"solved": False}
    x, kern = sol
    return {"solved": True, "unique": not kern, "x": x}


def build_prop1_tensor(m: BoundaryModel, d: int, s: int, x) -> SparseTensor:
    """Ambient tensor whose nonzero components are the s+1 types, on the
    seed u1^s v2^s: the constant symbol with every upper label 1 and every
    lower label 2, trace-free since no label is both (needs n >= 2).  ``x``
    is the type coefficient list x_1..x_s; x_0 = 1.  The type_count(d, s, i)
    placements of type i form one orbit of the column permutations, so their
    sum is type_count times the column symmetrization of the canonical
    placement: columns 0..i-1 carry both labels, i..s-1 upper labels only,
    s..2s-i-1 lower labels only, and the rest the cone values B = inf, A = 0.
    """
    if m.n < 2:
        raise ValueError("the disjoint-index seed needs n >= 2")
    B = (1,) * s + (m.n + 1,) * (d - s)
    entries = {}
    for i, xi in enumerate([RONE] + [rat(c) for c in x]):
        A = (2,) * i + (0,) * (s - i) + (2,) * (s - i) + (0,) * (d - 2 * s + i)
        entries[(B, A)] = type_count(d, s, i) * xi
    return SparseTensor(d, m.n + 2, entries).symmetrized()


PROP1_CHECKS = (
    "linear system has a unique solution",
    "diagonal symbols below s vanish",
    "top symbol is a nonzero seed multiple",
    "BGG residuals zero",
    "symbol recursions residuals zero",
)


def _label_tuples(n: int, labels):
    """The sorted upper and lower label tuples of the label exponents
    (alpha, beta) of a generating-polynomial term."""
    return tuple(tuple(a for a, x in enumerate(part, 1) for _ in range(x)) for part in (labels[:n], labels[n:]))


def verify_prop1(m: BoundaryModel, d: int, s: int):
    """End-to-end check of the type-based construction; returns one
    (label, CaseResults of failures) pair per check of PROP1_CHECKS."""
    sysres = prop1_system(d, s)
    if not sysres.get("unique"):
        return [(label, CaseResults(["no unique type coefficients"], 1)) for label in PROP1_CHECKS]
    symbols = extract_all_symbols(m, build_prop1_tensor(m, d, s, sysres["x"]))
    top, nb = symbols[(s, s)], m.ring.arity
    (seed,) = top.ring.monomial({"u1": s, "v2": s}).num
    labels = dict.fromkeys(e[nb:] for e in top.num)
    top_bad = [f"component {_label_tuples(m.n, e)} off the seed" for e in labels if e != seed[nb:]]
    top_bad += [] if seed[nb:] in labels else ["seed component zero"]
    top_bad += [] if all(not any(e[:nb]) for e in top.num) else ["not constant"]
    return list(zip(PROP1_CHECKS, (
        CaseResults([], 1),
        CaseResults([f"symbol ({k}, {k}) nonzero" for k in range(s) if symbols[(k, k)]], s),
        CaseResults(top_bad, 1),
        check_bgg(m, top, d, s),
        check_symbol_recursions(m, symbols, d),
    )))


def _suite_prop1(rep: VerificationReport, n=3, d=None, s=None):
    cases = [(2, 1), (3, 1), (4, 2)] if d is None or s is None else [(d, s)]
    m = BoundaryModel(n)
    for (d, s) in cases:
        for label, failures in verify_prop1(m, d, s):
            rep.check(f"(d,s)=({d},{s}): {label}", failures)
    domain = [(s, i) for s in range(1, 9) for i in range(s + 1)]
    rep.check("a^s_{1,i} = 1 for s <= 8",
              CaseResults([f"s={s} i={i}: a = {a}" for s, i in domain if (a := a_coeff(s, 1, i)) != 1], len(domain)))
    rep.add("a^1_{1,1} = 1", a_coeff(1, 1, 1) == 1)
    rep.check("Pascal identity for s <= 8", pascal_identity_check(8))
    rep.check("|det a^s| = 1 for s <= 8",
              CaseResults([f"s={s}: det {det}" for s in range(1, 9) if abs(det := a_matrix_det(s)) != 1], 8))
    return rep


# ---------------------------------------------------------------------------
# the symbols suite


def _suite_symbols(rep: VerificationReport, n=None, d=3):
    ns = [2, 3] if n is None else [n]
    rng = random.Random(rep.seed)
    for n in ns:
        m = BoundaryModel(n)
        # upper values {1, n+1} and lower values {0, 2} are disjoint for
        # n >= 2, so the symmetrized draw is totally trace-free
        T = SparseTensor.random(d, n + 2, rng, 2, upper=(1, n + 1), lower=(0, 2)).symmetrized()
        rep.check(f"n={n}: recursions for seeded trace-free column-symmetric tensor",
                  check_symbol_recursions(m, extract_all_symbols(m, T), T.k))
        three_column_skew_checks(rep, m, rng)
    return rep


def three_column_skew_checks(rep: VerificationReport, m: BoundaryModel, rng):
    """Skew vanishing (el2): a seeded column-symmetric d=3 tensor, alternated
    over its three upper slots, induces identically zero symbols on model m."""
    n = m.n
    T = SparseTensor.random(3, n + 2, rng, 2, density=0.05).symmetrized()
    Tsk = T.skew_slots([0, 1, 2], upper=True)
    if not Tsk:
        rep.add(f"n={n}: skew tensor nonzero", False, "degenerate seed")
        return
    syms = extract_all_symbols(m, Tsk)
    zero = CaseResults([f"symbol {key} nonzero" for key, s in syms.items() if s], len(syms))
    rep.check(f"n={n}: three-column-skew tensor induces identically zero symbols", zero)
    # T is column-symmetric, so the lower skew of Tsk is Tsk itself and the
    # symbols just extracted are those of the double skew
    Tdb = Tsk.skew_slots([0, 1, 2], upper=False)
    differs = [] if Tdb == Tsk else ["double skew differs from the upper skew"]
    asymmetric = [] if Tdb.is_symmetric() else ["double skew not column-symmetric"]
    rep.check(f"n={n}: double-skew (column-symmetric) tensor also induces zero",
              CaseResults(differs + zero + asymmetric, zero.cases))


def symmetry_space_dim(d: int, n: int):
    """Per-s dimensions of the symmetry components of order d: the piece of
    lambda = (d - s, s) is the isotypic dimension of lambda at N = n + 2."""
    from .decompose import isotypic_dim

    out = [isotypic_dim((d - s, s) if s else (d,), n + 2) for s in range(d // 2 + 1)]
    return out, sum(out)
