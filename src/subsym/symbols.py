"""Symbol calculus for ambient symmetry operators.

An ambient tensor with d column pairs induces a boundary operator whose
coefficients in the d_a / d^b / d_tau basis form a family of symbol
tensors V[k, l] (k upper boundary indices, l lower, p = d-k-l tau slots).
Extraction contracts the tensor with the cone-adapted frames and pulls back
along the section, with the (-1)^l prefactors and idempotent (averaged)
symmetrizations.  The contraction is a product over the columns, each an
upper, a lower or a tau column, so the whole family is the coefficient list
of one generating polynomial in label generators u_a, v_b: a sum over the
column orbits of `SparseTensor.column_orbits` of products of the column
factors of `boundary.column_factors` (see extract_all_symbols).  The prop1
and symbols suites close the module.

The symbols in the sigma basis carry the phase (-i)^p, which cancels
against d_sigma^p = i^p d_tau^p; so the tau-basis symbol is i^p times the
sigma-basis one and every recursion is the sigma-form one multiplied by
i^(p+1): i k S + D S becomes -k S + D S.

The extracted family satisfies the symbol recursions; equations whose right
side carries an undetermined trace tensor are checked as solvability of the
delta-insertion linear system (exact left-kernel test).
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from math import comb, factorial, prod

from . import linalg
from .boundary import BoundaryModel, column_factors, frame_fields, tangential_ops
from .report import CaseResults, VerificationReport
from .rings import LaurentPoly, _canonical
from .scalars import RONE, accumulate, rat
from .tensor import SparseTensor, stabilizer_order


class SymbolTensor:
    """Symmetric family of boundary polynomials indexed by sorted boundary
    index tuples (k upper, l lower)."""

    __slots__ = ("k", "l", "n", "components", "ring")

    def __init__(self, n, k, l, ring, components=None):
        self.n = n
        self.k = k
        self.l = l
        self.ring = ring
        self.components = {key: p for key, p in (components or {}).items() if p}

    def __bool__(self):
        return bool(self.components)

    def __eq__(self, other):
        return (
            isinstance(other, SymbolTensor)
            and (self.k, self.l) == (other.k, other.l)
            and self.components == other.components
        )

    def scale(self, c):
        return SymbolTensor(
            self.n, self.k, self.l, self.ring,
            {key: p.scale(c) for key, p in self.components.items()},
        )

    def is_constant(self) -> bool:
        return all(p.is_constant() for p in self.components.values())


def label_keys(n: int, k: int):
    """The sorted k-tuples of boundary labels 1..n, the keys of SymbolTensor."""
    return itertools.combinations_with_replacement(range(1, n + 1), k)


def _check_dimension(m: BoundaryModel, T: SparseTensor):
    if T.N != m.n + 2:
        raise ValueError("tensor dimension does not match the model")


def _extract_symbols_reference(m: BoundaryModel, T: SparseTensor, k: int, l: int) -> SymbolTensor:
    """Direct per-component transcription of the extraction; test oracle."""
    _check_dimension(m, T)
    d = T.k
    if k + l > d:
        raise ValueError("need k + l <= d")
    n = m.n
    fr = frame_fields(m)
    scale = rat((-1) ** l, factorial(k) * factorial(l))
    out = {}
    cols = range(d)
    for a_key in label_keys(n, k):
        for b_key in label_keys(n, l):
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
            if acc:
                out[(a_key, b_key)] = acc.scale(scale)
    return SymbolTensor(n, k, l, m.ring, out)


def extract_all_symbols(m: BoundaryModel, T: SparseTensor):
    """dict (k, l) -> SymbolTensor for all k + l <= d, d = T.k.

    Contracting an entry with the frames is a product over its columns, each
    a tau, an upper or a lower column, so one polynomial generates every
    (k, l) symbol: with phi of boundary.column_factors, the label generators
    u_a marking an upper label a and v_b a lower label b,

        G = sum over the orbits of T.column_orbits() of w d!/stab prod_c phi(c) / den,

    w/den the value of the column symmetrization Sym T on the orbit and
    d!/stab its number of orderings (a tensor and its symmetrization have
    the same symbols, the frame factors commuting).  The (k, l) component at
    the sorted label keys of multi-indices (alpha, beta) is
    alpha! beta!/(k! l!) times the coefficient of u^alpha v^beta in G: each
    choice of labelled columns is alpha! beta! of the ordered assignments,
    and the minus sign of the v terms carries (-1)^l.  G is summed by Horner
    over the sorted orbit columns, one product per distinct column prefix.
    _extract_symbols_reference, the direct transcription over all ordered
    assignments, is the test oracle.
    """
    _check_dimension(m, T)
    d, n, nb = T.k, m.n, len(m.ring.names)
    den, orbits = T.column_orbits()
    L, phi = column_factors(m)
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
        alpha, beta = e[nb : nb + n], e[nb + n :]
        a_key = tuple(a for a, x in enumerate(alpha, 1) for _ in range(x))
        b_key = tuple(b for b, x in enumerate(beta, 1) for _ in range(x))
        comp = parts[len(a_key), len(b_key)].setdefault((a_key, b_key), {})
        comp[e[:nb]] = c * prod(map(factorial, alpha + beta))
    return {
        (k, l): SymbolTensor(n, k, l, m.ring, {
            key: _canonical(m.ring, num, G.den * den * factorial(k) * factorial(l)) for key, num in comps.items()
        })
        for (k, l), comps in parts.items()
    }


# ---------------------------------------------------------------------------
# symmetrized tangential derivatives and trace solvability


def sym_derivative(m: BoundaryModel, S: SymbolTensor, upper: bool) -> SymbolTensor:
    """Idempotent symmetrization of one more tangential derivative: the raised
    d^a on a new upper index when ``upper``, else d_a on a new lower index,
    averaged over all indices of that kind."""
    d_hol, d_raised, _ = tangential_ops(m)
    ops = d_raised if upper else d_hol
    k, l = (S.k + 1, S.l) if upper else (S.k, S.l + 1)
    out = {}
    for a_key in label_keys(m.n, k):
        for b_key in label_keys(m.n, l):
            grown = a_key if upper else b_key
            terms = []
            for pos in range(len(grown)):
                # the remaining labels are sorted, as SymbolTensor keys are
                rest = grown[:pos] + grown[pos + 1 :]
                comp = S.components.get((rest, b_key) if upper else (a_key, rest))
                if comp:
                    terms.append(ops[grown[pos] - 1].apply(comp))
            acc = LaurentPoly.sum(m.ring, terms, den=len(grown))
            if acc:
                out[(a_key, b_key)] = acc
    return SymbolTensor(m.n, k, l, m.ring, out)


def add_symbols(x: SymbolTensor, y: SymbolTensor) -> SymbolTensor:
    assert (x.k, x.l) == (y.k, y.l)
    out = dict(x.components)
    for key, p in y.components.items():
        accumulate(out, key, p)
    return SymbolTensor(x.n, x.k, x.l, x.ring, out)


@lru_cache(maxsize=None)
def _insertion_left_kernel(n: int, k: int, l: int):
    """Left kernel of the symmetrized delta-insertion map
    lambda^{(k-1,l-1)} -> delta^{(a}_{(b} lambda^{...)}_{...)}, in the sorted
    keys of SymbolTensor.  The map symmetrizes its input, so symmetric lambda
    reach its whole image; up to the factor 1/(k l) the image component
    (a, b) is sum_x count_a(x) count_b(x) lambda(a - x, b - x).  Rows of the
    kernel annihilate exactly the image, so 'trace-free part of X vanishes'
    = all kernel rows kill X."""
    src = list(itertools.product(label_keys(n, k - 1), label_keys(n, l - 1)))
    dst = list(itertools.product(label_keys(n, k), label_keys(n, l)))
    src_index = {key: i for i, key in enumerate(src)}
    # the transpose of the map: one sparse row per source key, one column per target
    cols = [{} for _ in src]
    for i, (a, b) in enumerate(dst):
        for x in set(a).intersection(b):
            ia, ib = a.index(x), b.index(x)
            j = src_index[(a[:ia] + a[ia + 1 :], b[:ib] + b[ib + 1 :])]
            cols[j][i] = a.count(x) * b.count(x)
    # each kernel row as integer weights over one denominator: the primitive
    # integer vector over its entry at its free column, its largest
    return tuple(
        (v[max(v)], tuple((dst[i], c) for i, c in sorted(v.items())))
        for v in linalg.integer_kernel(cols, len(dst))
    )


def trace_free_part_vanishes(m: BoundaryModel, S: SymbolTensor) -> LaurentPoly | None:
    """None when S = delta-insertion of some lambda (i.e. its trace-free part
    is zero); otherwise a nonzero witness polynomial.  With no upper or no
    lower index there is no trace part, and the witness is any component."""
    if S.k == 0 or S.l == 0:
        return next(iter(S.components.values()), None)
    for den, row in _insertion_left_kernel(m.n, S.k, S.l):
        comps, weights = [], []
        for key, w in row:
            comp = S.components.get(key)
            if comp:
                comps.append(comp)
                weights.append(w)
        acc = LaurentPoly.sum(m.ring, comps, weights, den)
        if acc:
            return acc
    return None


# ---------------------------------------------------------------------------
# the symbol recursions


def _recursion_label(k: int, l: int, d: int) -> str:
    top = k + l > d
    if l == 0:
        return "top gradient symmetrization (upper)" if top else f"tau recursion (upper) k={k}"
    if k == 0:
        return "top gradient symmetrization (lower)" if top else f"tau recursion (lower) l={l}"
    return f"{'top mixed equation' if top else 'mixed recursion'} k={k} l={l}"


def check_symbol_recursions(m: BoundaryModel, symbols: dict, d: int):
    """Exact residuals of the symbol recursions for a full family.

    ``symbols`` maps (k, l), k + l <= d, to the extracted SymbolTensor.  For
    each 1 <= k + l <= d + 1 the trace-free part of
    (l - k) S(k, l) + D^ S(k - 1, l) + D_ S(k, l - 1) vanishes, D^ and D_ the
    symmetrized raised and lowered derivatives; each term is present only
    when its symbol exists.  With l = 0 or k = 0 these are the tau
    recursions, and at k + l = d + 1 the top equations.  Returns CaseResults
    of "equation label: residual" for the equations that fail.
    """
    bad, cases = [], 0
    for total in range(1, d + 2):
        for k in range(total + 1):
            l = total - k
            lhs = symbols[(k, l)].scale(l - k) if total <= d else SymbolTensor(m.n, k, l, m.ring)
            if k:
                lhs = add_symbols(lhs, sym_derivative(m, symbols[(k - 1, l)], True))
            if l:
                lhs = add_symbols(lhs, sym_derivative(m, symbols[(k, l - 1)], False))
            res = trace_free_part_vanishes(m, lhs)
            cases += 1
            if res is not None:
                bad.append(f"{_recursion_label(k, l, d)}: {res}")
    return CaseResults(bad, cases)


def check_bgg(m: BoundaryModel, top: SymbolTensor, d: int, s: int):
    """First BGG equations on the top symbol: the trace-free part of
    d+1-2s symmetrized raised (resp. lowered) derivatives vanishes.  Returns
    CaseResults of "equation label: residual" for the equations that fail."""
    assert top.k == s and top.l == s
    bad = []
    for side, upper in (("upper", True), ("lower", False)):
        D = top
        for _ in range(d + 1 - 2 * s):
            D = sym_derivative(m, D, upper)
        res = trace_free_part_vanishes(m, D)
        if res is not None:
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


def default_prop1_seed(m: BoundaryModel, s: int) -> SymbolTensor:
    """Constant seed with all upper labels 1 and all lower labels 2;
    trace-free by index disjointness (needs n >= 2)."""
    if m.n < 2:
        raise ValueError("the disjoint-index seed needs n >= 2")
    comp = {((1,) * s, (2,) * s): m.ring.one()} if s else {((), ()): m.ring.one()}
    return SymbolTensor(m.n, s, s, m.ring, comp)


def _seed_is_trace_free(seed: SymbolTensor) -> bool:
    """Each component (a, b) adds to the contraction at (a - x, b - x) once
    per label x common to a and b; every contraction sum must vanish."""
    trace = {}
    for (a, b), comp in seed.components.items():
        for x in set(a).intersection(b):
            ia, ib = a.index(x), b.index(x)
            accumulate(trace, (a[:ia] + a[ia + 1 :], b[:ib] + b[ib + 1 :]), comp)
    return not trace


def build_prop1_tensor(
    m: BoundaryModel, d: int, s: int, x, seed: SymbolTensor | None = None
) -> SparseTensor:
    """Ambient tensor whose nonzero components are the s+1 types.

    ``seed`` is a constant, symmetric, trace-free boundary symbol with s
    upper and s lower indices (default: disjoint-index seed).  ``x`` is the
    type coefficient list x_1..x_s; x_0 = 1.  The type_count(d, s, i)
    placements of type i form one orbit of the column permutations, and the
    entries of one placement, every ordering of every seed component, are
    invariant under its stabilizer.  So their sum is type_count times the
    column symmetrization of the canonical placement: columns 0..i-1 carry
    both labels, i..s-1 upper labels only, s..2s-i-1 lower labels only, and
    the rest the cone values B = inf, A = 0.
    """
    if seed is None:
        seed = default_prop1_seed(m, s)
    if (seed.k, seed.l) != (s, s):
        raise ValueError("seed must carry s upper and s lower indices")
    if not seed.is_constant():
        raise ValueError("seed must be constant")
    if not _seed_is_trace_free(seed):
        raise ValueError("seed is not trace-free")
    INF = m.n + 1
    ordered = [
        (a, b, comp.constant_value())
        for (a_key, b_key), comp in seed.components.items()
        for a in set(itertools.permutations(a_key))
        for b in set(itertools.permutations(b_key))
    ]
    entries = {}
    for i, xi in enumerate([RONE] + [rat(c) for c in x]):
        w = type_count(d, s, i) * xi
        for a, b, v in ordered:
            B = a + (INF,) * (d - s)
            A = b[:i] + (0,) * (s - i) + b[i:] + (0,) * (d - 2 * s + i)
            entries[(B, A)] = w * v
    return SparseTensor(d, m.n + 2, entries).symmetrized()


PROP1_CHECKS = (
    "linear system has a unique solution",
    "diagonal symbols below s vanish",
    "top symbol is a nonzero seed multiple",
    "BGG residuals zero",
    "symbol recursions residuals zero",
)


def verify_prop1(m: BoundaryModel, d: int, s: int):
    """End-to-end check of the type-based construction; returns one
    (label, CaseResults of failures) pair per check of PROP1_CHECKS."""
    sysres = prop1_system(d, s)
    if not sysres.get("unique"):
        return [(label, CaseResults(["no unique type coefficients"], 1)) for label in PROP1_CHECKS]
    symbols = extract_all_symbols(m, build_prop1_tensor(m, d, s, sysres["x"]))
    top = symbols[(s, s)]
    seed_key = ((1,) * s, (2,) * s)
    top_bad = [f"component {key} off the seed" for key in top.components if key != seed_key]
    top_bad += [] if top.components.get(seed_key) else ["seed component zero"]
    top_bad += [] if top.is_constant() else ["not constant"]
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
