"""Symbol calculus for ambient symmetry operators.

An ambient tensor with d column pairs induces a boundary operator whose
coefficients in the d_a / d^b / d_tau basis form a family of symbol
tensors V[k, l] (k upper boundary indices, l lower, p = d-k-l tau slots).
Extraction contracts the tensor with the cone-adapted frames and pulls back
along the section, with the (-1)^l prefactors and idempotent (averaged)
symmetrizations.  Its sum over ordered column assignments is their number
times one canonical assignment of the column-symmetrized tensor, and each
distinct frame product is multiplied once, from a product cache (see
extract_all_symbols).

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
from functools import lru_cache
from math import comb, factorial

from . import linalg
from .boundary import BoundaryModel, frame_fields, tangential_ops
from .report import CaseResults
from .rings import LaurentPoly
from .scalars import RONE, accumulate, rat
from .tensor import SparseTensor


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


def _extract_symbols(m: BoundaryModel, entries, den: int, d: int, k: int, l: int, product) -> SymbolTensor:
    """The (k, l) symbol of a column-symmetric tensor with d columns, given as
    its entries (slot pairs, int) over den, read off the canonical column
    assignment: columns 0..k-1 carry the upper labels, k..k+l-1 the lower
    ones, the rest are tau columns.  ``product`` maps a sorted tuple of
    factor ids (see extract_all_symbols) to the product of those factors."""
    n = m.n
    INF = n + 1
    W = n + 2
    labels = range(1, n + 1)
    # (-1)^l times the number of ordered assignments, d!/(d-k-l)!, over k! l!
    scale = (-1) ** l * comb(d, k + l) * comb(k + l, k)
    weights = {}  # (upper labels, lower labels) -> {product key: summed int}
    for slots, w in entries:
        up, dn, tau = slots[:k], slots[k : k + l], slots[k + l :]
        # the cone values kill a label column: B = inf upper, A = 0 lower
        if any(B == INF for B, _ in up) or any(A == 0 for _, A in dn):
            continue
        # the non-unit position factors X_up[A] (A != 0) and X_dn[B] (B != inf)
        base = [A for _, A in up + tau if A] + [W + B for B, _ in dn + tau if B != INF]
        # a dual-slot value 0 (upper) or inf (lower) admits every label, with
        # the factor Y_dn[a][0] (resp. Y_up[b][inf]); a boundary value pins the
        # label with a unit factor.  Only sorted label tuples are components.
        for a_key in itertools.product(*(labels if B == 0 else (B,) for B, _ in up)):
            if any(x > y for x, y in zip(a_key, a_key[1:])):
                continue
            ys = [2 * W + a for a, (B, _) in zip(a_key, up) if B == 0]
            for b_key in itertools.product(*(labels if A == INF else (A,) for _, A in dn)):
                if any(x > y for x, y in zip(b_key, b_key[1:])):
                    continue
                zs = [3 * W + b for b, (_, A) in zip(b_key, dn) if A == INF]
                key = tuple(sorted(base + ys + zs))
                acc = weights.setdefault((a_key, b_key), {})
                acc[key] = acc.get(key, 0) + w
    out = {}
    for a_key in label_keys(n, k):
        for b_key in label_keys(n, l):
            acc = weights.get((a_key, b_key), {})
            keys = [key for key, w in acc.items() if w]
            comp = LaurentPoly.sum(m.ring, map(product, keys), [scale * acc[key] for key in keys], den)
            if comp:
                out[(a_key, b_key)] = comp
    return SymbolTensor(n, k, l, m.ring, out)


def _extract_symbols_reference(m: BoundaryModel, T: SparseTensor, k: int, l: int) -> SymbolTensor:
    """Direct per-component transcription of the extraction; test oracle."""
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

    The (k, l) symbol sums the frame products of every entry over the
    d!/(d-k-l)! ordered choices of k upper and l lower label columns.  Each
    choice is a column permutation followed by the canonical one (columns
    0..k-1 upper, k..k+l-1 lower, the rest tau, whose factors commute), so
    the sum is d!/(d-k-l)! times the canonical sum for the column
    symmetrization Sym T.  T is symmetrized once, only when it is not
    column-symmetric; each (k, l) then sums integer weights per (sorted
    label keys, frame product), and a product cache shared by all (k, l)
    multiplies each distinct product (a sorted tuple of factor ids) and each
    of its prefixes once.  _extract_symbols_reference, the direct
    transcription over all ordered assignments, is the test oracle.
    """
    d = T.k
    S = T if T.is_symmetric() else T.symmetrized()
    den, ints = S.integer_entries()
    entries = [(tuple(zip(B, A)), w) for (B, A), w in ints.items()]
    fr = frame_fields(m)
    W = m.n + 2
    # factor ids, W = n + 2: A -> X_up[A], W + B -> X_dn[B], 2W + a -> Y_dn[a][0]
    # = -z(a) and 3W + b -> Y_up[b][inf] = -z_low(b)
    factors = dict(enumerate(fr.X_up + fr.X_dn))
    for a in range(1, m.n + 1):
        factors[2 * W + a] = fr.Y_dn[a][0]
        factors[3 * W + a] = fr.Y_up[a][W - 1]
    products = {(): m.ring.one()}

    def product(key):
        p = products.get(key)
        if p is None:
            p = products[key] = product(key[:-1]) * factors[key[-1]]
        return p

    return {
        (k, l): _extract_symbols(m, entries, den, d, k, l, product)
        for k in range(d + 1)
        for l in range(d + 1 - k)
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


def symmetry_space_dim(d: int, n: int):
    """Per-s dimensions of the symmetry components of order d: the piece of
    lambda = (d - s, s) is the isotypic dimension of lambda at N = n + 2."""
    from .decompose import isotypic_dim

    out = [isotypic_dim((d - s, s) if s else (d,), n + 2) for s in range(d // 2 + 1)]
    return out, sum(out)
