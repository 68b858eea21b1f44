"""Test-only helpers: the two coefficient layouts the verifier's Laurent ring
used before, and polynomial and operator helpers that no `src/` code needs.

`GaussianRing`/`GaussianPoly` keep the former `rings.Ring`/`LaurentPoly`
unchanged in substance (coefficients are `GaussianRational`, generators may
be relabeled with coefficient conjugation).  They are the differential
oracle for the rational ring and the sigma-form reference for the tau = i*sigma
dictionary tests.

`FractionPoly` is the rational `LaurentPoly` as it was before polynomials
became integer numerators over one denominator: a dict exponent tuple ->
nonzero backend rational over a `subsym.rings.Ring`.  With `weyl_apply` and
`weyl_compose`, the former `WeylOperator` action and normal-ordered product
on such coefficients, it is the differential oracle for the integer layout.

`t_part_operator_termwise`, `insertion_left_kernel_full_tuples`,
`skew_slots_rational` and `symmetrized_rational` are the former
`ambient.t_part_operator`, `symbols._insertion_left_kernel`,
`SparseTensor.skew_slots` (with the former `act` loop inlined) and
`SparseTensor.symmetrized`, which summed rational entries, kept as
differential oracles for the versions that replaced them.
`build_prop1_tensor_by_placements` is the former
`symbols.build_prop1_tensor`, which enumerated every column placement of
every type and every ordered label tuple; it is the oracle for the
symmetrization of one canonical placement per type.

`check_symbol_recursions_by_form`, with `sym_derivative_upper` and
`sym_derivative_lower`, is the former `symbols.check_symbol_recursions`,
which wrote the recursion out in five forms over two mirrored derivatives
(only the `SymbolTensor` constructor and the key enumeration follow the
current type); it is the oracle for the one-formula sweep.

`component` reads a `SymbolTensor` component at label tuples in any order,
as the former `SymbolTensor.get` did.

`TracelessMatrix`, the `mat_*` helpers, `sl_basis_matrix`,
`random_traceless_matrix`, `dv_matrix`, `dv_bracket_matrix` and
`compose_decompose_by_loops` are the former dense sl(n+2) path of `ambient`
(`sl_basis`, `random_traceless`, `dv`, `dv_bracket` and the
four-index-loop `compose_decompose`), which the
one-column `SparseTensor` path replaced; `dense` and `to_tensor` convert
between the two.  They are the differential oracle for that path.

`parse_rat` reads the "p/q" strings of `scalars.rat_str` (the records in
`data/` are written that way).

`rref` is the reduced row echelon form read off the sparse integer routine
of `linalg`, which the verifier itself only reads kernels and solutions from.
`bareiss_rref`, `bareiss_rank`, `bareiss_det`, `bareiss_kernel` and
`bareiss_solve` are the dense fraction-free Bareiss elimination that `linalg`
ran before its sparse integer routine, and `gather_tables`/`gather_class_sum`
the dense gather form of the S_k class sums on a weight block that the
sparse scatter of `decompose` replaced; both are differential oracles.
"""

from __future__ import annotations

import itertools
from math import comb, factorial, lcm, prod
from operator import add

from subsym.ambient import CompositionParts, first_order_generator
from subsym.boundary import tangential_ops
from subsym.decompose import _perm_lower_multiset, weight_blocks
from subsym.linalg import _rational, _reduced
from subsym.rings import LaurentPoly, RingMismatchError, UnknownGeneratorError
from subsym.scalars import GR_ONE, GR_ZERO, RONE, RZERO, GaussianRational, accumulate, gr, rat
from subsym.symbols import SymbolTensor, add_symbols, default_prop1_seed, trace_free_part_vanishes
from subsym.tensor import SparseTensor
from subsym.weyl import WeylOperator


def bidegree(amb, f):
    """(w1, w2) when the ambient polynomial f is bihomogeneous, else None."""
    degs = {(sum(e[: amb.N]), sum(e[amb.N :])) for e in f.terms}
    return degs.pop() if len(degs) == 1 else None


def principal_part(op: WeylOperator, order: int) -> WeylOperator:
    """Sum of the terms of `op` whose derivative degree is exactly `order`."""
    return WeylOperator(op.ring, {a: p for a, p in op.terms.items() if sum(a) == order})


def parse_rat(s: str):
    if "/" in s:
        p, q = s.split("/")
        return rat(int(p), int(q))
    return rat(int(s))


def parse_gr(s: str) -> GaussianRational:
    """Inverse of str(): parses "p/q" and "p/q+r/s*i" (also with '-')."""
    s = s.strip()
    if s.endswith("*i"):
        body = s[:-2]
        # split at the sign that separates the two fractions
        for pos in range(1, len(body)):
            if body[pos] in "+-" and body[pos - 1] not in "+-/":
                re_part, im_part = body[:pos], body[pos:]
                im = parse_rat(im_part[1:])
                if im_part[0] == "-":
                    im = -im
                return GaussianRational(parse_rat(re_part), im)
        raise ValueError(f"malformed Gaussian rational {s!r}")
    return GaussianRational(parse_rat(s), RZERO)


class GaussianRing:
    """An ordered set of named generators, some of which are invertible."""

    def __init__(self, names, laurent=()):
        names = tuple(names)
        self.names = names
        self.laurent = frozenset(laurent)
        self.arity = len(names)
        self.index = {n: i for i, n in enumerate(names)}
        self._zero_exp = (0,) * self.arity

    def __eq__(self, other):
        return (
            isinstance(other, GaussianRing)
            and self.names == other.names
            and self.laurent == other.laurent
        )

    def __hash__(self):
        return hash((self.names, self.laurent))

    def zero(self) -> "GaussianPoly":
        return GaussianPoly(self, {})

    def const(self, c) -> "GaussianPoly":
        c = c if isinstance(c, GaussianRational) else gr(c)
        if not c:
            return self.zero()
        return GaussianPoly(self, {self._zero_exp: c})

    def one(self) -> "GaussianPoly":
        return self.const(1)

    def gen(self, name, power=1) -> "GaussianPoly":
        if power < 0 and name not in self.laurent:
            raise ValueError(f"negative power on non-invertible generator {name!r}")
        if power == 0:
            return self.one()
        exp = [0] * self.arity
        exp[self.index[name]] = power
        return GaussianPoly(self, {tuple(exp): GR_ONE})

    def monomial(self, exps: dict, coeff=1) -> "GaussianPoly":
        c = coeff if isinstance(coeff, GaussianRational) else gr(coeff)
        if not c:
            return self.zero()
        exp = [0] * self.arity
        for name, e in exps.items():
            if e < 0 and name not in self.laurent:
                raise ValueError(f"negative power on non-invertible generator {name!r}")
            exp[self.index[name]] = e
        return GaussianPoly(self, {tuple(exp): c})


class GaussianPoly:
    """Sparse exact Laurent polynomial with Gaussian-rational coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GaussianRing, terms: dict):
        self.ring = ring
        self.terms = terms  # exponent tuple -> nonzero GaussianRational

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("operands live in different rings")

    def __add__(self, other):
        if not isinstance(other, GaussianPoly):
            other = self.ring.const(other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, GR_ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return GaussianPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return GaussianPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, GaussianPoly):
            other = self.ring.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GaussianPoly):
            return self.scale(other)
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                p = c1 * c2
                s = out.get(e)
                s = p if s is None else s + p
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return GaussianPoly(self.ring, out)

    __rmul__ = __mul__

    def scale(self, c) -> "GaussianPoly":
        c = c if isinstance(c, GaussianRational) else gr(c)
        if not c:
            return self.ring.zero()
        return GaussianPoly(self.ring, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, m: int):
        if m < 0:
            return _invert_monomial(self) ** (-m)
        out = self.ring.one()
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base if m > 1 else base
            m >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, GaussianPoly):
            return self.ring == other.ring and self.terms == other.terms
        if not self.terms:
            return other == 0 or other == GR_ZERO
        return set(self.terms) == {self.ring._zero_exp} and self.terms[self.ring._zero_exp] == other

    def diff(self, name: str) -> "GaussianPoly":
        """Formal partial derivative; Laurent exponents follow d/dx x^m = m x^(m-1)."""
        if name not in self.ring.index:
            raise UnknownGeneratorError(name)
        i = self.ring.index[name]
        out = {}
        for e, c in self.terms.items():
            m = e[i]
            if m == 0:
                continue
            ne = e[:i] + (m - 1,) + e[i + 1 :]
            nc = c * m
            s = out.get(ne)
            s = nc if s is None else s + nc
            if s:
                out[ne] = s
            else:
                out.pop(ne, None)
        return GaussianPoly(self.ring, out)

    def substitute(self, images: dict, target: GaussianRing | None = None) -> "GaussianPoly":
        """Substitute every generator by ``images[name]`` (a poly in ``target``);
        generators absent from ``images`` map to themselves."""
        target = target or self.ring
        full = {}
        for name in self.ring.names:
            img = images.get(name)
            if img is None:
                img = target.gen(name)
            elif not isinstance(img, GaussianPoly):
                img = target.const(img)
            full[name] = img
        out = target.zero()
        for e, c in self.terms.items():
            term = target.const(c)
            for i, m in enumerate(e):
                if m == 0:
                    continue
                term = term * (full[self.ring.names[i]] ** m)
            out = out + term
        return out

    def relabel(self, mapping: dict, target: GaussianRing | None = None,
                conjugate_coeffs: bool = False) -> "GaussianPoly":
        """Generator relabeling (a ring involution when paired with coefficient
        conjugation); ``mapping`` sends old names to new names."""
        target = target or self.ring
        perm = []
        for name in self.ring.names:
            new = mapping.get(name, name)
            perm.append(target.index[new])
        out = {}
        for e, c in self.terms.items():
            ne = [0] * target.arity
            for i, m in enumerate(e):
                ne[perm[i]] += m
            c2 = GaussianRational(c.re, -c.im) if conjugate_coeffs else c
            key = tuple(ne)
            s = out.get(key, GR_ZERO) + c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return GaussianPoly(target, out)

    def __repr__(self):
        return f"GaussianPoly({self.terms})"


def _invert_monomial(p: GaussianPoly) -> GaussianPoly:
    """Inverse of a unit monomial; all its generators must be invertible."""
    if len(p.terms) != 1:
        raise ValueError("cannot invert a non-monomial polynomial")
    (e, c), = p.terms.items()
    for name, m in zip(p.ring.names, e):
        if m != 0 and name not in p.ring.laurent:
            raise ValueError(f"cannot invert generator {name!r}")
    return GaussianPoly(p.ring, {tuple(-m for m in e): GR_ONE / c})


def to_gaussian(p, ring: GaussianRing) -> GaussianPoly:
    """The same polynomial with its rational coefficients as Gaussian ones."""
    return GaussianPoly(ring, {e: gr(c) for e, c in p.terms.items()})


# ---------------------------------------------------------------------------
# the Fraction-dict rational layout


def _fcoeff(c):
    return c if type(c) is type(RZERO) else rat(c)


class FractionPoly:
    """Sparse exact Laurent polynomial: exponent tuple -> nonzero backend
    rational, over a `subsym.rings.Ring`."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms: dict):
        self.ring = ring
        self.terms = {e: _fcoeff(c) for e, c in terms.items() if c}

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def zero(ring) -> "FractionPoly":
        return FractionPoly(ring, {})

    @staticmethod
    def const(ring, c) -> "FractionPoly":
        return FractionPoly(ring, {ring._zero_exp: c})

    @staticmethod
    def gen(ring, name, power=1) -> "FractionPoly":
        return FractionPoly.monomial(ring, {name: power})

    @staticmethod
    def monomial(ring, exps: dict, coeff=1) -> "FractionPoly":
        exp = [0] * ring.arity
        for name, e in exps.items():
            if e < 0 and name not in ring.laurent:
                raise ValueError(f"negative power on non-invertible generator {name!r}")
            exp[ring.index[name]] = e
        return FractionPoly(ring, {tuple(exp): coeff})

    @staticmethod
    def of(p) -> "FractionPoly":
        """The same polynomial, from a `LaurentPoly`'s rational terms."""
        return FractionPoly(p.ring, dict(p.terms))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, FractionPoly):
            return self.ring == other.ring and self.terms == other.terms
        # a LaurentPoly: compare its read-only rational view
        return self.ring == other.ring and self.terms == dict(other.terms)

    def __repr__(self):
        return f"FractionPoly({self.terms})"

    # -- arithmetic -------------------------------------------------------
    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("operands live in different rings")

    def __add__(self, other):
        if not isinstance(other, FractionPoly):
            other = FractionPoly.const(self.ring, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            accumulate(out, e, c)
        return FractionPoly(self.ring, out)

    def __neg__(self):
        return FractionPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FractionPoly):
            return self.scale(other)
        self._check(other)
        out = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return FractionPoly(self.ring, out)

    def scale(self, c) -> "FractionPoly":
        c = _fcoeff(c)
        return FractionPoly(self.ring, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, m: int):
        if m < 0:
            if len(self.terms) != 1:
                raise ValueError("cannot invert a non-monomial polynomial")
            ((e, c),) = self.terms.items()
            for name, k in zip(self.ring.names, e):
                if k and name not in self.ring.laurent:
                    raise ValueError(f"cannot invert generator {name!r}")
            return FractionPoly(self.ring, {tuple(-k for k in e): RONE / c}) ** (-m)
        out = FractionPoly.const(self.ring, 1)
        for _ in range(m):
            out = out * self
        return out

    # -- calculus ----------------------------------------------------------
    def diff(self, name: str) -> "FractionPoly":
        i = self.ring.index[name]
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                accumulate(out, e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i])
        return FractionPoly(self.ring, out)

    def substitute(self, images: dict, target=None) -> "FractionPoly":
        """Every generator by ``images[name]`` (a FractionPoly in ``target``);
        generators absent from ``images`` map to themselves."""
        target = target or self.ring
        out = {}
        for e, c in self.terms.items():
            term = FractionPoly.const(target, c)
            for name, m in zip(self.ring.names, e):
                if m:
                    img = images[name] if name in images else FractionPoly.gen(target, name)
                    term = term * img ** m
            for te, tc in term.terms.items():
                accumulate(out, te, tc)
        return FractionPoly(target, out)


def weyl_apply(terms: dict, f: FractionPoly) -> FractionPoly:
    """sum_alpha p_alpha D^alpha f for ``terms`` = {alpha: FractionPoly}."""
    names = f.ring.names
    out = FractionPoly.zero(f.ring)
    for alpha, p in terms.items():
        g = f
        for i, k in enumerate(alpha):
            for _ in range(k):
                g = g.diff(names[i])
        out = out + p * g
    return out


def weyl_compose(a: dict, b: dict, ring) -> dict:
    """Normal-ordered product of {alpha: FractionPoly} operators, zero terms
    dropped: D^alpha (q D^beta) = sum_gamma C(alpha, gamma) (D^gamma q) D^(alpha-gamma+beta)."""
    names = ring.names
    out = {}
    for alpha, p in a.items():
        for beta, q in b.items():
            for gamma in itertools.product(*(range(k + 1) for k in alpha)):
                dq = q
                for i, k in enumerate(gamma):
                    for _ in range(k):
                        dq = dq.diff(names[i])
                coeff = 1
                for ak, gk in zip(alpha, gamma):
                    coeff *= comb(ak, gk)
                idx = tuple(x - g + y for x, g, y in zip(alpha, gamma, beta))
                out[idx] = out.get(idx, FractionPoly.zero(ring)) + (p * dq).scale(coeff)
    return {idx: p for idx, p in out.items() if p}


def t_part_operator_termwise(m, T: SparseTensor) -> WeylOperator:
    """The quadric operator of T, one operator sum per entry:
    sum T^{BD}_{AC} (x^A x^C d_B d_D - x^A x_D d_B d^C - x_B x^C d^A d_D
    + x_B x_D d^A d^C)."""
    out = WeylOperator.zero(m.ring)
    for ((B, D), (A, C)), c in T.entries.items():
        q1 = WeylOperator.term(m.up(A) * m.up(C), {m.upper_names[B]: 1, m.upper_names[D]: 1}) if B != D else WeylOperator.term(m.up(A) * m.up(C), {m.upper_names[B]: 2})
        q2 = WeylOperator.term(m.up(A) * m.dn(D), {m.upper_names[B]: 1, m.lower_names[C]: 1})
        q3 = WeylOperator.term(m.dn(B) * m.up(C), {m.lower_names[A]: 1, m.upper_names[D]: 1})
        q4 = WeylOperator.term(m.dn(B) * m.dn(D), {m.lower_names[A]: 1, m.lower_names[C]: 1}) if A != C else WeylOperator.term(m.dn(B) * m.dn(D), {m.lower_names[A]: 2})
        out = out + (q1 - q2 - q3 + q4).scale(c)
    return out


def insertion_left_kernel_full_tuples(n: int, k: int, l: int):
    """Left kernel of the symmetrized delta-insertion map over full (unsorted)
    index tuples, each row as (den, ((sorted key, integer weight), ...)); a
    sorted key repeats once per full tuple that reads it."""
    src = list(itertools.product(range(1, n + 1), repeat=(k - 1) + (l - 1)))
    dst = list(itertools.product(range(1, n + 1), repeat=k + l))
    src_index = {key: i for i, key in enumerate(src)}
    rows = []
    norm = rat(1, factorial(k) * factorial(l))
    for key in dst:
        a, b = key[:k], key[k:]
        row = [rat(0)] * len(src)
        for pa in itertools.permutations(range(k)):
            for pb in itertools.permutations(range(l)):
                if a[pa[0]] != b[pb[0]]:
                    continue
                rest_a = tuple(a[pa[i]] for i in range(1, k))
                rest_b = tuple(b[pb[i]] for i in range(1, l))
                j = src_index[rest_a + rest_b]
                row[j] = row[j] + norm
        rows.append(row)
    cols = [list(col) for col in zip(*rows)]
    kern = bareiss_kernel(cols, len(dst)) if cols else []
    out = []
    for v in kern:
        nonzero = [(c, key) for c, key in zip(v, dst) if c]
        den = lcm(*(int(c.denominator) for c, _ in nonzero))
        out.append((den, tuple(
            ((tuple(sorted(key[:k])), tuple(sorted(key[k:]))),
             int(c.numerator) * (den // int(c.denominator)))
            for c, key in nonzero
        )))
    return tuple(out)


def skew_slots_rational(T: SparseTensor, slots, upper=True) -> SparseTensor:
    """Antisymmetrization over the given slots, every entry multiplied by the
    rational coefficient sign/len(slots)! of each permutation."""
    norm = rat(1, factorial(len(slots)))
    out = {}
    for idx in itertools.permutations(range(len(slots))):
        p = list(range(T.k))
        for src, i in zip(slots, idx):
            p[src] = slots[i]
        c = (-1) ** sum(a > b for a, b in itertools.combinations(idx, 2)) * norm
        order = sorted(range(T.k), key=p.__getitem__)
        for (U, L), v in T.entries.items():
            if upper:
                key = (tuple(U[i] for i in order), L)
            else:
                key = (U, tuple(L[i] for i in order))
            accumulate(out, key, v * c)
    return SparseTensor(T.k, T.N, out)



def symmetrized_rational(T: SparseTensor) -> SparseTensor:
    """The average over simultaneous column permutations, every entry
    multiplied by the rational 1/k! once per permutation."""
    norm = rat(1, factorial(T.k))
    out = {}
    for order in itertools.permutations(range(T.k)):
        for (U, L), v in T.entries.items():
            accumulate(out, (tuple(U[i] for i in order), tuple(L[i] for i in order)), v * norm)
    return SparseTensor(T.k, T.N, out)


def build_prop1_tensor_by_placements(m, d: int, s: int, x, seed: SymbolTensor | None = None) -> SparseTensor:
    """The prop1 tensor summed placement by placement: for each type i, each
    choice of i joint, s - i upper-only and s - i lower-only columns, and
    each ordered label tuple, the seed component times x_i (x_0 = 1)."""
    if seed is None:
        seed = default_prop1_seed(m, s)
    INF = m.n + 1
    coeffs = [RONE] + [rat(c) for c in x]
    entries = {}
    cols = range(d)
    for i in range(0, s + 1):
        for joint in itertools.combinations(cols, i):
            rest1 = [c for c in cols if c not in joint]
            for sa in itertools.combinations(rest1, s - i):
                rest2 = [c for c in rest1 if c not in sa]
                for sb in itertools.combinations(rest2, s - i):
                    acols = sorted(joint + sa)
                    bcols = sorted(joint + sb)
                    for avals in itertools.product(range(1, m.n + 1), repeat=s):
                        for bvals in itertools.product(range(1, m.n + 1), repeat=s):
                            val = component(seed, avals, bvals)
                            if not val:
                                continue
                            B = [INF] * d
                            A = [0] * d
                            for c, v in zip(acols, avals):
                                B[c] = v
                            for c, v in zip(bcols, bvals):
                                A[c] = v
                            accumulate(entries, (tuple(B), tuple(A)), coeffs[i] * val.constant_value())
    return SparseTensor(d, m.n + 2, entries)


# -- the symbol recursions written out form by form --------------------------------


def sym_derivative_upper(m, S: SymbolTensor) -> SymbolTensor:
    """Idempotent symmetrization of the raised derivative: one extra upper
    index, averaged over all k+1 uppers."""
    _, d_raised, _ = tangential_ops(m)
    k2 = S.k + 1
    out = {}
    for a_key in itertools.combinations_with_replacement(range(1, m.n + 1), k2):
        for b_key in itertools.combinations_with_replacement(range(1, m.n + 1), S.l):
            terms = []
            for pos in range(k2):
                rest = a_key[:pos] + a_key[pos + 1 :]
                # rest and b_key are sorted, as SymbolTensor keys are
                comp = S.components.get((rest, b_key))
                if comp:
                    terms.append(d_raised[a_key[pos] - 1].apply(comp))
            acc = LaurentPoly.sum(m.ring, terms, den=k2)
            if acc:
                out[(a_key, b_key)] = acc
    return SymbolTensor(m.n, k2, S.l, m.ring, out)


def sym_derivative_lower(m, S: SymbolTensor) -> SymbolTensor:
    d_hol, _, _ = tangential_ops(m)
    l2 = S.l + 1
    out = {}
    for a_key in itertools.combinations_with_replacement(range(1, m.n + 1), S.k):
        for b_key in itertools.combinations_with_replacement(range(1, m.n + 1), l2):
            terms = []
            for pos in range(l2):
                rest = b_key[:pos] + b_key[pos + 1 :]
                comp = S.components.get((a_key, rest))
                if comp:
                    terms.append(d_hol[b_key[pos] - 1].apply(comp))
            acc = LaurentPoly.sum(m.ring, terms, den=l2)
            if acc:
                out[(a_key, b_key)] = acc
    return SymbolTensor(m.n, S.k, l2, m.ring, out)


def check_symbol_recursions_by_form(m, symbols: dict, d: int):
    """Exact residuals of the rewritten symbol equations for a full family,
    as (equation label, ok, witness) entries."""
    results = []

    def record(label, residual):
        results.append((label, residual is None, None if residual is None else str(residual)))

    # pure-tau recursions, exact (no trace part with k == 0 or l == 0)
    for k in range(1, d + 1):
        lhs = add_symbols(symbols[(k, 0)].scale(-k), sym_derivative_upper(m, symbols[(k - 1, 0)]))
        record(f"tau recursion (upper) k={k}", trace_free_part_vanishes(m, lhs))
    for l in range(1, d + 1):
        lhs = add_symbols(symbols[(0, l)].scale(l), sym_derivative_lower(m, symbols[(0, l - 1)]))
        record(f"tau recursion (lower) l={l}", trace_free_part_vanishes(m, lhs))

    # mixed recursions, trace-free part
    for k in range(1, d + 1):
        for l in range(1, d + 1 - k):
            lhs = add_symbols(
                add_symbols(
                    symbols[(k, l)].scale(l - k),
                    sym_derivative_upper(m, symbols[(k - 1, l)]),
                ),
                sym_derivative_lower(m, symbols[(k, l - 1)]),
            )
            record(f"mixed recursion k={k} l={l}", trace_free_part_vanishes(m, lhs))

    # top equations (no tau slots left): k + l = d + 1
    record("top gradient symmetrization (upper)",
           trace_free_part_vanishes(m, sym_derivative_upper(m, symbols[(d, 0)])))
    record("top gradient symmetrization (lower)",
           trace_free_part_vanishes(m, sym_derivative_lower(m, symbols[(0, d)])))
    for k in range(1, d + 1):
        l = d + 1 - k
        if l < 1 or l > d:
            continue
        lhs = add_symbols(
            sym_derivative_upper(m, symbols[(k - 1, l)]),
            sym_derivative_lower(m, symbols[(k, l - 1)]),
        )
        record(f"top mixed equation k={k} l={l}", trace_free_part_vanishes(m, lhs))
    return results


# -- the dense Bareiss elimination that the sparse integer routine replaced ------


def integral(rows):
    """Integer copies of `rows`, each scaled by the lcm of its denominators;
    returns (rows, scales)."""
    m, scales = [], []
    for r in rows:
        s = lcm(*(int(q.denominator) for q in r if q))
        m.append([int(q.numerator) * (s // int(q.denominator)) if q else 0 for q in r])
        scales.append(s)
    return m, scales


def bareiss_eliminate(m, reduce):
    """Bareiss elimination of the integer rows `m`, in place.

    Applies a_ij <- (p * a_ij - a_ic * a_rj) / d, p the current pivot and d the
    previous one; every entry stays a minor, so the division is exact.
    Forward only, unless `reduce` also clears the rows above each pivot
    (fraction-free Gauss-Jordan); then every pivot ends equal to the last one.
    Returns (pivot columns, last pivot, sign of the row permutation).
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots, d, sign, r = [], 1, 1, 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        rr = m[r]
        p = rr[c]
        for i in range(0 if reduce else r + 1, nrows):
            if i == r:
                continue
            ri = m[i]
            f = ri[c]
            if f:
                m[i] = [(p * a - f * b) // d if a or b else a for a, b in zip(ri, rr)]
            elif p != d:
                m[i] = [p * a // d if a else a for a in ri]
        pivots.append(c)
        d = p
        r += 1
        if r == nrows:
            break
    return pivots, d, sign


def rref(rows):
    """Reduced row echelon form by `linalg`'s sparse routine, padded with zero
    rows; returns (rows of backend rationals, pivot column list)."""
    ncols = len(rows[0]) if rows else 0
    pivots = _reduced(rows)
    cols = sorted(pivots)
    out = [_rational(pivots[c], ncols, pivots[c][c]) for c in cols]
    return out + [[RZERO] * ncols for _ in range(len(rows) - len(cols))], cols


def bareiss_rref(rows):
    m, _ = integral(rows)
    pivots, d, _ = bareiss_eliminate(m, reduce=True)
    return [[rat(x, d) if x else RZERO for x in r] for r in m], pivots


def bareiss_rank(rows):
    m, _ = integral(rows)
    return len(bareiss_eliminate(m, reduce=False)[0])


def bareiss_det(rows):
    m, scales = integral(rows)
    pivots, d, sign = bareiss_eliminate(m, reduce=False)
    return rat(sign * d if len(pivots) == len(rows) else 0, prod(scales))


def bareiss_kernel(rows, ncols):
    """Right null space basis, each vector equal to 1 at its free column."""
    m, pivots = bareiss_rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [RZERO] * ncols
        v[fc] = RONE
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def bareiss_solve(rows, b):
    """(particular solution, kernel basis) of M x = b, or None when inconsistent."""
    ncols = len(rows[0])
    m, pivots = bareiss_rref([list(r) + [bv] for r, bv in zip(rows, b)])
    if ncols in pivots:
        return None
    x = [RZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x, bareiss_kernel(rows, ncols)


# -- the dense gather class sums that the sparse scatter replaced ----------------


def gather_tables(k, N, weight):
    """``tables[sigma][j]`` is the block index of M_j^sigma (lower indices
    permuted), so a dense block vector v is pulled back by sigma as
    ``[v[i] for i in tables[sigma]]``."""
    block = weight_blocks(k, N)[weight]
    index = {M: j for j, M in enumerate(block)}
    return {
        sigma: tuple(index[_perm_lower_multiset(M, sigma)] for M in block)
        for sigma in itertools.permutations(range(k))
    }


def gather_class_sum(v, tables, perms):
    """Unnormalised sum over ``perms`` of the pullbacks of the dense block vector v."""
    return [sum(xs) for xs in zip(*([v[i] for i in tables[p]] for p in perms))]


def component(S: SymbolTensor, a_tuple, b_tuple):
    """The component of S at the label tuples, in any order (zero if absent)."""
    return S.components.get((tuple(sorted(a_tuple)), tuple(sorted(b_tuple))), S.ring.zero())


# -- the former dense matrix path of sl(n+2) ---------------------------------------


def mat_zero(N):
    return [[RZERO] * N for _ in range(N)]


def mat_identity(N):
    return [[RONE if i == j else RZERO for j in range(N)] for i in range(N)]


def mat_mul(A, B):
    N = len(A)
    return [
        [sum((A[i][k] * B[k][j] for k in range(N)), RZERO) for j in range(N)]
        for i in range(N)
    ]


def mat_trace(A):
    return sum((A[i][i] for i in range(len(A))), RZERO)


def mat_add(A, B, cb=RONE):
    return [[a + cb * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[c * a for a in row] for row in A]


class TracelessMatrix:
    """Element of sl(n+2): (n+2)x(n+2) exact matrix with zero trace."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = [[rat(e) for e in row] for row in entries]
        if mat_trace(entries):
            raise ValueError("matrix has nonzero trace")
        self.entries = entries

    @property
    def dim(self):
        return len(self.entries)

    def __getitem__(self, idx):
        return self.entries[idx]

    def __eq__(self, other):
        return isinstance(other, TracelessMatrix) and self.entries == other.entries


def dense(V: SparseTensor):
    """The matrix V[B][A] of a one-column tensor V^B_A."""
    return [[V.entries.get(((B,), (A,)), RZERO) for A in range(V.N)] for B in range(V.N)]


def to_tensor(M) -> SparseTensor:
    """The one-column tensor V^B_A of a square matrix V[B][A]."""
    N = len(M)
    return SparseTensor(1, N, {((B,), (A,)): M[B][A] for B in range(N) for A in range(N)})


def sl_basis_matrix(N):
    """Standard basis of sl(N): off-diagonal units and diagonal differences."""
    out = []
    for i in range(N):
        for j in range(N):
            if i != j:
                m = mat_zero(N)
                m[i][j] = RONE
                out.append(TracelessMatrix(m))
    for i in range(N - 1):
        m = mat_zero(N)
        m[i][i] = RONE
        m[i + 1][i + 1] = -RONE
        out.append(TracelessMatrix(m))
    return out


def random_traceless_matrix(n, rng, bound=3):
    """Seeded small-integer matrix made traceless by subtracting tr/(n+2)."""
    N = n + 2
    m = [[rat(rng.randint(-bound, bound)) for _ in range(N)] for _ in range(N)]
    c = mat_trace(m) / N
    for i in range(N):
        m[i][i] = m[i][i] - c
    return TracelessMatrix(m)


def dv_matrix(m, V: TracelessMatrix) -> WeylOperator:
    """The first-order symmetry generator attached to V in sl(n+2)."""
    out = WeylOperator.zero(m.ring)
    for A in range(m.N):
        for B in range(m.N):
            c = V[B][A]
            if c:
                out = out + first_order_generator(m, A, B).scale(c)
    return out


def dv_bracket_matrix(V: TracelessMatrix, W: TracelessMatrix) -> TracelessMatrix:
    """Matrix M with D_M = [D_V, D_W]; M^B_A = V^C_A W^B_C - V^B_C W^C_A."""
    return TracelessMatrix(mat_add(mat_mul(W.entries, V.entries), mat_mul(V.entries, W.entries), -1))


def compose_decompose_by_loops(m, V: TracelessMatrix, W: TracelessMatrix, w1: int, w2: int) -> CompositionParts:
    """The former compose_decompose: dense (U, Utilde) from the products
    P = WV and Q = VW, and T written entry by entry over four index loops.
    U and Utilde are dense matrices and vw1 a TracelessMatrix."""
    n, N = m.n, m.N
    P = mat_mul(W.entries, V.entries)  # P^D_A = V^X_A W^D_X
    Q = mat_mul(V.entries, W.entries)  # Q^D_A = V^D_X W^X_A
    t = mat_trace(Q)
    c_big = rat(2 * n * n + 8 * n + 4, 2 * n * (n + 2) * (n + 4))
    c_small = rat(4, 2 * n * (n + 2) * (n + 4))
    c_id = rat(n * n + 4 * n + 6, 2 * n * (n + 1) * (n + 3) * (n + 4))
    idm = mat_identity(N)
    U = mat_add(mat_scale(P, c_big), mat_scale(Q, c_small))
    U = mat_add(U, mat_scale(idm, c_id * t), -1)
    Ut = mat_add(mat_scale(P, c_small), mat_scale(Q, c_big))
    Ut = mat_add(Ut, mat_scale(idm, c_id * t), -1)
    UpUt = mat_add(U, Ut)
    tr_UpUt = mat_trace(UpUt)
    invN = rat(1, N)
    invN2 = rat(1, N * N)
    entries = {}
    for B in range(N):
        for D in range(N):
            for A in range(N):
                for C in range(N):
                    val = V[B][A] * W[D][C]
                    if B == C:
                        val = val - U[D][A]
                    if D == A:
                        val = val - Ut[B][C]
                    if B == A:
                        val = val + invN * UpUt[D][C]
                    if D == C:
                        val = val + invN * UpUt[B][A]
                    if B == A and D == C:
                        val = val - invN2 * tr_UpUt
                    if val:
                        entries[((B, D), (A, C))] = val
    T = SparseTensor(2, N, entries)
    dw = w1 - w2
    beta = rat(n - 2, 2 * n * (n + 4)) * dw
    M = mat_add(P, Q)
    M = mat_add(M, mat_identity(N), rat(-2, n + 2) * t)
    M = mat_scale(M, beta)
    M = mat_add(M, mat_add(Q, P, -1), rat(-1, 2))
    vw0 = rat(n, 2 * (n + 1) * (n + 2) * (n + 3)) * (dw * dw - (n + 2) ** 2) * t
    return CompositionParts(
        T=T, U=U, Utilde=Ut, vw2=T.symmetrized(), vw1=TracelessMatrix(M), vw0=vw0, w1=w1, w2=w2
    )
