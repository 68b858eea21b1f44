"""Test-only helpers: for each layer of the verifier, the oracles it is
checked against.  A layer keeps one independent oracle, a direct
transcription that shares no code path with it, and the version that its
latest rewrite replaced.  test_src_references.py fails on any definition
here that no test names.

- Laurent ring (`rings`).  Independent: sympy, in test_rings.py.
  Replaced: `FractionPoly`, the ring as a dict of rationals.  `GaussianRing`
  and `GaussianPoly`, the ring over Q(i) before it, are also the sigma-form
  reference of the tau = i*sigma dictionary.
- Weyl operators (`weyl`).  Replaced: `weyl_apply` and `weyl_compose`, the
  action and the normal-ordered product on `FractionPoly`.
- D_V (`ambient.higher_symmetry_op`).  Independent:
  `higher_symmetry_op_by_composition`, the generators `first_order_generator`
  composed column by column.  Replaced: `higher_symmetry_op_by_entries`, the
  normal-ordered terms of every ordered entry.
- The sl(n+2) products (`ambient.compose_decompose`, `dv_bracket`,
  `sl_basis`).  Independent and replaced at once: the former dense path,
  `compose_decompose_by_loops` over four index loops, `dv_bracket_matrix`,
  `sl_basis_matrix`, `TracelessMatrix` and the `mat_*` helpers; `dense` and
  `to_tensor` convert between one-column tensors and matrices.
- The seeded draw (`SparseTensor.random`).  Replaced: the five loops
  `random_traceless_by_loop`, `random_plain_tensor_by_loop`,
  `random_column_symmetric_by_loops`, `random_disjoint_trace_free_by_loops`
  and `conjugation_tensor_by_loops`; they alone pin the seeded inputs.
  `column_symmetric`, `disjoint_trace_free` and `plain_tensor` are the draws
  the tests make.
- Column symmetry and the S_k actions on tensors (`SparseTensor`).
  Independent: `symmetrized_by_permutations`, the mean of all k!
  permutations, `skew_slots_rational`, with rational signs, and the
  transcriptions in test_tensor.py.  Replaced: `symmetrized_by_orbit_means`.
- Symbol extraction (`symbols.extract_all_symbols`).  Independent:
  `symbols._extract_symbols_reference`.  Replaced:
  `extract_all_symbols_by_blocks`, which splits each column orbit into its
  (upper, lower, tau) blocks and counts their orderings in integers, with
  `_extract_symbols_by_blocks`, `_label_block`, `_tau_block`, `_label_count`,
  `_without` and `_factor_product`.  `build_prop1_tensor_by_placements` is
  the prop1 tensor summed placement by placement.
- Symbol recursions (`symbols.check_symbol_recursions`, `check_bgg`,
  `trace_remainder`).  Independent: the delta-insertions summed over full
  index tuples and the hand values in test_symbols.py.  Replaced: the
  `SymbolTensor` family at sorted label keys, checked by
  `check_symbol_recursions_by_kernel` and `check_bgg_by_kernel` through
  `sym_derivative`, `add_symbols` and the integer left kernel
  `_insertion_left_kernel` of delta-insertion (`trace_free_part_vanishes`).
  `symbol_tensor`, `generating_polynomial`, their family forms and
  `label_coefficients` convert to and from generating polynomials, and
  `component` reads one component.
- Exact elimination (`linalg`).  Independent: the dense fraction-free
  Bareiss elimination, `bareiss_rref`, `bareiss_rank`, `bareiss_det`,
  `bareiss_kernel` and `bareiss_solve`.  `rref` is read off `linalg`.
- The S_k side of `decompose`.  Replaced: every multiset sorted into its
  weight block (`pair_multisets`, `weight_blocks`, `weight_orbit_sizes`),
  one preimage list per permutation (`_perm_preimages`, `_class_sum`,
  `_combine`), each isotypic rank as a span rank (`isotypic_rank_by_span`),
  the dense gather class sums (`gather_tables`, `gather_class_sum`) and
  `highest_weight_vector_by_idempotent_terms`.  `stable_dim_formula` is the
  closed-form sum of `isotypic_dim`.
- The class algebra (`classalg`).  Replaced: `perm_sign_by_cycle_walk`,
  `mn_character_by_border_strips` with `border_strips`, and
  `basis_product_convolution_averaged`.  `standard_tableaux`,
  `young_symmetrizer` and `young_projector_sum` are the Young symmetrizers
  whose images the central idempotents contain.

`parse_rat` and `parse_gr` read "p/q" strings, `bidegree`, `principal_part`
and `operator_order` read polynomials and operators, and `to_gaussian`
carries a rational polynomial into a `GaussianRing`.
"""

from __future__ import annotations

import itertools
from functools import cache, lru_cache
from math import comb, factorial, lcm, prod
from operator import add

from subsym.ambient import CompositionParts
from subsym.classalg import (
    act_on_tuple,
    central_idempotent,
    class_elements,
    conjugate_partition,
    convolve,
    cycle_type,
    mn_character,
    partitions,
)
from subsym.boundary import column_factors, frame_fields, tangential_ops
from subsym.decompose import _orbit_kernels, _perm_lower_multiset, isotypic_dim, multiset_weight
from subsym.linalg import _rational, _reduced, integer_kernel, rank
from subsym.report import CaseResults
from subsym.rings import LaurentPoly, RingMismatchError, UnknownGeneratorError, _canonical
from subsym.scalars import GR_ONE, GR_ZERO, RONE, RZERO, GaussianRational, accumulate, gr, rat
from subsym.symbols import _recursion_label
from subsym.tensor import SparseTensor, _integers, perm_sign, stabilizer_order
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


def first_order_generator(m, A, B) -> WeylOperator:
    """x^A d_B - x_B d^A."""
    return WeylOperator.mul_by(m.up(A)).compose(m.d_up(B)) - WeylOperator.mul_by(
        m.dn(B)
    ).compose(m.d_dn(A))


def higher_symmetry_op_by_composition(m, V: SparseTensor) -> WeylOperator:
    """sum V^B_A (x^{A_1} d_{B_1} - x_{B_1} d^{A_1}) o ... o (x^{A_k} d_{B_k}
    - x_{B_k} d^{A_k}), the generators composed column by column."""
    gens = {}
    out = WeylOperator.zero(m.ring)
    for (B, A), c in V.entries.items():
        term = None
        for key in zip(A, B):
            op = gens.get(key)
            if op is None:
                op = gens[key] = first_order_generator(m, *key)
            term = op if term is None else term.compose(op)
        out = out + term.scale(c)
    return out


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



def symmetrized_by_permutations(T: SparseTensor) -> SparseTensor:
    """Average over simultaneous permutations of the columns."""
    perms = itertools.permutations(range(T.k))
    return T._moved(dict.fromkeys(perms, rat(1, factorial(T.k))), upper=True, lower=True)


def symmetrized_by_orbit_means(T: SparseTensor) -> SparseTensor:
    """Average over simultaneous permutations of the columns.  Its value
    at a key is the mean of the entries on the key's column orbit, so the
    integer numerators of each orbit are summed once and the mean is
    written at every distinct ordering of the orbit."""
    den, values = _integers(T.entries)
    sums = {}  # sorted columns -> summed numerator
    for (U, L), v in values.items():
        cols = tuple(sorted(zip(U, L, strict=True)))
        sums[cols] = sums.get(cols, 0) + v
    out = {}
    for cols, total in sums.items():
        if total:
            orderings = dict.fromkeys(itertools.permutations(cols))
            mean = rat(total, den * len(orderings))
            for ordered in orderings:
                out[tuple(c[0] for c in ordered), tuple(c[1] for c in ordered)] = mean
    return SparseTensor(T.k, T.N, out)


def higher_symmetry_op_by_entries(m, V: SparseTensor) -> WeylOperator:
    """D_V = sum V^B_A prod_i (x^{A_i} d_{B_i} - x_{B_i} d^{A_i}) with every
    coefficient to the left, summed per derivative multi-index over every
    ordered entry of V (V totally trace-free)."""
    den, entries = _integers(V.entries)
    ring = m.ring
    up = [ring.index[name] for name in m.upper_names]
    dn = [ring.index[name] for name in m.lower_names]
    coeffs = {}  # derivative multi-index -> {exponent: numerator over den}
    for (B, A), c in entries.items():
        # side 0 of column i is x^{A_i} d_{B_i}, side 1 is -x_{B_i} d^{A_i}
        for sides in itertools.product((0, 1), repeat=V.k):
            exp = [0] * ring.arity
            alpha = [0] * ring.arity
            for lower_side, b, a in zip(sides, B, A):
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


def highest_weight_vector_by_idempotent_terms(lam, N):
    """p_lam(e_lam) (x) eps^lam accumulated per pair multiset over the terms
    of the idempotent, as a dict multiset -> coeff: k!/stab times the pair
    symmetrization at the multiset (2*depth(lam) <= N)."""
    lam = tuple(lam)
    U0 = tuple(i for i, part in enumerate(lam) for _ in range(part))
    L0 = tuple(N - 1 - i for i, part in enumerate(lam) for _ in range(part))
    acc = {}
    for sigma, c in central_idempotent(lam).items():
        accumulate(acc, tuple(sorted(zip(act_on_tuple(sigma, U0), L0))), c)
    return acc


def _factor_product(m):
    """The product of a sorted tuple of factor ids, each distinct product and
    each of its prefixes multiplied once.  The factor ids, W = n + 2: A ->
    X_up[A], W + B -> X_dn[B], 2W + a -> Y_dn[a][0] = -z(a) and 3W + b ->
    Y_up[b][inf] = -z_low(b)."""
    fr = frame_fields(m)
    W = m.n + 2
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

    return product


def _label_count(free: int, key, chosen) -> int:
    """F! prod_x positions_x!/f_x!: the placements of a block's labelled
    columns, F of them free, whose labels read the sorted ``key`` from left
    to right, given the sorted labels ``chosen`` of the free columns; x runs
    over the labels, positions_x is the count of x in the key and f_x that
    in ``chosen``.  The pinned columns of label x fill the remaining
    positions of x."""
    count = factorial(free)
    for x in set(key):
        count *= factorial(key.count(x))
    for x in set(chosen):
        count //= factorial(chosen.count(x))
    return count


def _label_block(n: int, cols, upper: bool):
    """The (sorted label key, factor ids, count) triples of a sorted block of
    upper (or lower) label columns, summed over its distinct orderings.

    An upper column (B, A) carries the factor X_up[A]; its label is pinned
    to B when B is a boundary value, free when B = 0 (with the factor
    Y_dn[x][0] for its label x), and B = inf kills it.  A lower column reads
    A in the same way, with A = inf free (factor Y_up[x][inf]), A = 0 dead
    and the factor X_dn[B].  Each composition (f_x) of the F free columns
    over the labels gives one key, counted by _label_count over the
    repeated columns of the block."""
    INF, W = n + 1, n + 2
    if upper:
        labels, ids = [B for B, _ in cols], [A for _, A in cols if A]
        free, dead, offset = 0, INF, 2 * W
    else:
        labels, ids = [A for _, A in cols], [W + B for B, _ in cols if B != INF]
        free, dead, offset = INF, 0, 3 * W
    if dead in labels:
        return []
    pinned = [x for x in labels if x != free]
    F = len(labels) - len(pinned)
    repeats = stabilizer_order(cols)
    out = []
    for chosen in itertools.combinations_with_replacement(range(1, n + 1), F):
        key = tuple(sorted(pinned + list(chosen)))
        out.append((key, ids + [offset + x for x in chosen], _label_count(F, key, chosen) // repeats))
    return out


def _tau_block(n: int, cols):
    """The factor ids X_up[A] X_dn[B] of a sorted block of tau columns and
    the number of its distinct orderings, p!/prod mult!."""
    INF, W = n + 1, n + 2
    ids = [A for _, A in cols if A] + [W + B for B, _ in cols if B != INF]
    return ids, factorial(len(cols)) // stabilizer_order(cols)


def _without(cols, part):
    """The sorted columns of ``cols`` left after removing those of ``part``."""
    rest = list(cols)
    for c in part:
        rest.remove(c)
    return tuple(rest)


def _extract_symbols_by_blocks(m, orbits, den: int, d: int, k: int, l: int, product, blocks) -> SymbolTensor:
    """The (k, l) symbol of a column-symmetric tensor with d columns, given as
    its column_orbits, {sorted columns: int over den}.  It sums the
    canonical column assignment (columns 0..k-1 carry the upper labels,
    k..k+l-1 the lower ones, the rest are tau columns) over every ordering
    of every orbit: each orbit splits once into each distinct (upper, lower,
    tau) sub-multiset, whose orderings the three block counts multiply out.
    ``blocks`` holds _label_block of upper and of lower blocks and
    _tau_block, each cached by block, and ``product`` maps a sorted tuple of
    factor ids (see _factor_product) to the product of those factors."""
    n = m.n
    uppers, lowers, taus = blocks
    # (-1)^l times the number of ordered assignments, d!/(d-k-l)!, over k! l!
    scale = (-1) ** l * comb(d, k + l) * comb(k + l, k)
    weights = {}  # (upper labels, lower labels) -> {product key: summed int}
    for cols, w in orbits.items():
        for up in dict.fromkeys(itertools.combinations(cols, k)):
            ups = uppers(up)
            if not ups:
                continue
            rest = _without(cols, up)
            for dn in dict.fromkeys(itertools.combinations(rest, l)):
                dns = lowers(dn)
                if not dns:
                    continue
                tau_ids, tau_count = taus(_without(rest, dn))
                for a_key, up_ids, up_count in ups:
                    for b_key, dn_ids, dn_count in dns:
                        key = tuple(sorted(up_ids + dn_ids + tau_ids))
                        acc = weights.setdefault((a_key, b_key), {})
                        acc[key] = acc.get(key, 0) + w * tau_count * up_count * dn_count
    out = {}
    for a_key in label_keys(n, k):
        for b_key in label_keys(n, l):
            acc = weights.get((a_key, b_key), {})
            keys = [key for key, w in acc.items() if w]
            comp = LaurentPoly.sum(m.ring, map(product, keys), [scale * acc[key] for key in keys], den)
            if comp:
                out[(a_key, b_key)] = comp
    return SymbolTensor(n, k, l, m.ring, out)


def extract_all_symbols_by_blocks(m, T: SparseTensor):
    """dict (k, l) -> generating polynomial for all k + l <= d, d = T.k,
    read once per column orbit of T.column_orbits(): each orbit splits into
    its distinct (upper, lower, tau) blocks of columns, whose orderings are
    counted in integers (see _extract_symbols_by_blocks), as SymbolTensors
    converted by generating_polynomials."""
    d = T.k
    den, orbits = T.column_orbits()
    product = _factor_product(m)
    blocks = (
        cache(lambda cols: _label_block(m.n, cols, True)),
        cache(lambda cols: _label_block(m.n, cols, False)),
        cache(lambda cols: _tau_block(m.n, cols)),
    )
    return generating_polynomials(m, {
        (k, l): _extract_symbols_by_blocks(m, orbits, den, d, k, l, product, blocks)
        for k in range(d + 1)
        for l in range(d + 1 - k)
    })


def build_prop1_tensor_by_placements(m, d: int, s: int, x, seed: SymbolTensor | None = None) -> SparseTensor:
    """The prop1 tensor summed placement by placement: for each type i, each
    choice of i joint, s - i upper-only and s - i lower-only columns, and
    each ordered label tuple, the seed component times x_i (x_0 = 1).  The
    default seed is u1^s v2^s, the one component with every upper label 1
    and every lower label 2."""
    if seed is None:
        seed = SymbolTensor(m.n, s, s, m.ring, {((1,) * s, (2,) * s): m.ring.one()})
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
                            val = seed.components.get((tuple(sorted(avals)), tuple(sorted(bvals))))
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


# -- the symbol tensors that the generating polynomials replaced --------------------


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


def label_keys(n: int, k: int):
    """The sorted k-tuples of boundary labels 1..n, the keys of SymbolTensor."""
    return itertools.combinations_with_replacement(range(1, n + 1), k)


def label_coefficients(m, P: LaurentPoly) -> dict:
    """The generating polynomial P, in the ring L of column_factors, as a
    dict (alpha, beta) -> boundary polynomial: its coefficient of
    u^alpha v^beta."""
    nb = m.ring.arity
    nums = {}
    for e, c in P.num.items():
        nums.setdefault((e[nb : nb + m.n], e[nb + m.n :]), {})[e[:nb]] = c
    return {labels: _canonical(m.ring, num, P.den) for labels, num in nums.items()}


def symbol_tensor(m, P: LaurentPoly, k: int, l: int) -> SymbolTensor:
    """The SymbolTensor of the (k, l) generating polynomial P: the component
    at the sorted label keys of (alpha, beta) is alpha! beta!/(k! l!) times
    the coefficient of u^alpha v^beta, which counts its orderings."""
    comps = {}
    for (alpha, beta), coeff in label_coefficients(m, P).items():
        assert (sum(alpha), sum(beta)) == (k, l), "not of degree (k, l)"
        key = tuple(tuple(x for x, c in enumerate(part, 1) for _ in range(c)) for part in (alpha, beta))
        comps[key] = coeff.scale(rat(prod(map(factorial, alpha + beta)), factorial(k) * factorial(l)))
    return SymbolTensor(m.n, k, l, m.ring, comps)


def generating_polynomial(m, S: SymbolTensor) -> LaurentPoly:
    """The generating polynomial of S in the ring L of column_factors: each
    component times its k! l!/(alpha! beta!) orderings u^alpha v^beta."""
    L = column_factors(m)[0].target
    terms = []
    for (a_key, b_key), comp in S.components.items():
        labels = tuple(a_key.count(x) for x in range(1, m.n + 1)) + tuple(b_key.count(x) for x in range(1, m.n + 1))
        orderings = factorial(S.k) * factorial(S.l) // prod(map(factorial, labels))
        terms.append(_canonical(L, {e + labels: c * orderings for e, c in comp.num.items()}, comp.den))
    return LaurentPoly.sum(L, terms)


def symbol_tensors(m, family: dict) -> dict:
    """dict (k, l) -> SymbolTensor of a family of generating polynomials."""
    return {(k, l): symbol_tensor(m, P, k, l) for (k, l), P in family.items()}


def generating_polynomials(m, family: dict) -> dict:
    """dict (k, l) -> generating polynomial of a family of SymbolTensors."""
    return {key: generating_polynomial(m, S) for key, S in family.items()}


def sym_derivative(m, S: SymbolTensor, upper: bool) -> SymbolTensor:
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
        for v in integer_kernel(cols, len(dst))
    )


def trace_free_part_vanishes(m, S: SymbolTensor) -> LaurentPoly | None:
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


def check_symbol_recursions_by_kernel(m, symbols: dict, d: int):
    """The one-formula sweep over SymbolTensors: for each 1 <= k + l <= d + 1
    the trace-free part of (l - k) S(k, l) + D^ S(k - 1, l) + D_ S(k, l - 1),
    through sym_derivative, tested by the insertion left kernel.  Returns
    CaseResults of "equation label: residual" for the equations that fail."""
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


def check_bgg_by_kernel(m, top: SymbolTensor, d: int, s: int):
    """The first BGG equations on a SymbolTensor top symbol, through
    sym_derivative and the insertion left kernel."""
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


# -- the S_k side of decompose before the class traces ---------------------------


def pair_multisets(k, N):
    """All canonical multisets (sorted tuples) of k pairs over range(N)^2."""
    pairs = [(u, l) for u in range(N) for l in range(N)]
    return list(itertools.combinations_with_replacement(pairs, k))


@lru_cache(maxsize=None)
def weight_blocks(k, N):
    """dict weight -> tuple of multisets with that weight, every multiset of
    k pairs sorted into its block."""
    blocks = {}
    for M in pair_multisets(k, N):
        blocks.setdefault(multiset_weight(M, N), []).append(M)
    return {w: tuple(sorted(ms)) for w, ms in blocks.items()}


def weight_orbit_sizes(k, N):
    """{canonical pattern: number of weights} read off `weight_blocks`."""
    sizes = {}
    for w in weight_blocks(k, N):
        pat = tuple(sorted(w, reverse=True))
        sizes[pat] = sizes.get(pat, 0) + 1
    return sizes


def stable_dim_formula(k, N) -> int:
    """sum over partitions of k of isotypic_dim, the dimension of S^k_0 sl(N)."""
    return sum(isotypic_dim(lam, N) for lam in partitions(k))


@lru_cache(maxsize=None)
def _perm_preimages(k, N, weight):
    """Preimage lists of the slot permutations on one weight block:
    ``pre[sigma][i]`` lists the block indices j with M_j^sigma = M_i (lower
    indices permuted)."""
    block = weight_blocks(k, N)[weight]
    index = {M: j for j, M in enumerate(block)}
    out = {}
    for sigma in itertools.permutations(range(k)):
        pre = [[] for _ in block]
        for j, M in enumerate(block):
            pre[index[_perm_lower_multiset(M, sigma)]].append(j)
        out[sigma] = tuple(map(tuple, pre))
    return out


def _class_sum(v, pre, perms):
    """Unnormalised sum over ``perms`` of the pullbacks of the sparse block
    vector v ({index: value}), as a sparse vector."""
    out = {}
    for p in perms:
        targets = pre[p]
        for i, x in v.items():
            for j in targets[i]:
                out[j] = out.get(j, 0) + x
    return {j: x for j, x in out.items() if x}


def _combine(terms):
    """Sum of c * vec over the (c, sparse vector) pairs."""
    acc = {}
    for c, vec in terms:
        for j, x in vec.items():
            acc[j] = acc.get(j, 0) + c * x
    return {j: x for j, x in acc.items() if x}


def isotypic_rank_by_span(lam, k, N) -> int:
    """The rank of e_lam on S^k_0 as the rank of its integer images: the
    nonzero multiple sum_mu chi^lam(mu) K_mu of e_lam applied to every
    kernel vector through the preimage lists, ranked block by block."""
    lam = tuple(lam)
    chars = [(c, elems) for mu, elems in class_elements(k).items() if (c := mn_character(lam, mu))]
    total = 0
    for w, cnt, rows in _orbit_kernels(k, N):
        pre = _perm_preimages(k, N, w)
        images = [_combine([(c, _class_sum(v, pre, elems)) for c, elems in chars]) for v in rows]
        total += cnt * rank(images)
    return total


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


def component(m, P: LaurentPoly, a_tuple, b_tuple):
    """The component at the label tuples, in any order (zero if absent), of
    the symbol whose generating polynomial is P, read through symbol_tensor."""
    a, b = tuple(sorted(a_tuple)), tuple(sorted(b_tuple))
    return symbol_tensor(m, P, len(a), len(b)).components.get((a, b), m.ring.zero())


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
    return CompositionParts(T=T, U=U, Utilde=Ut, vw1=TracelessMatrix(M), vw0=vw0, w1=w1, w2=w2)


def perm_sign_by_cycle_walk(p):
    """The former classalg.perm_sign: one sign flip per even-length cycle."""
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, ln = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


def basis_product_convolution_averaged(k, lam, mu):
    """The former classalg._basis_product_convolution: the literal convolution
    of the averaged class sums, with each class's total mass accumulated."""
    a, b = ({p: rat(1, len(e)) for p in e} for e in (class_elements(k)[lam], class_elements(k)[mu]))
    out = {}
    for p, c in convolve(a, b).items():
        accumulate(out, cycle_type(p), c)
    return out


def border_strips(lam, length):
    """All ways to remove a border strip of given length from shape lam.

    Yields (new_partition, height) with height = rows spanned minus one.
    """
    lam = list(lam)
    n = len(lam)
    for start in range(n):
        # strip starting in row `start` (its rightmost cell in that row)
        # spans rows start..end; end determined by walking the rim
        for end in range(start, n):
            # cells removed from rows start..end along the rim:
            # row i keeps lam[i+1]-1 cells for i<end, row end keeps some tail
            removed = 0
            ok = True
            new = lam.copy()
            for i in range(start, end):
                take = lam[i] - (lam[i + 1] - 1)
                if take <= 0:
                    ok = False
                    break
                removed += take
                new[i] = lam[i + 1] - 1
            if not ok:
                continue
            tail = length - removed
            if tail <= 0:
                continue
            take_end_max = lam[end] - (lam[end + 1] if end + 1 < n else 0)
            if tail > take_end_max:
                continue
            new[end] = lam[end] - tail
            cand = [x for x in new if x > 0]
            if all(cand[i] >= cand[i + 1] for i in range(len(cand) - 1)):
                yield tuple(cand), end - start


@lru_cache(maxsize=None)
def mn_character_by_border_strips(lam, mu) -> int:
    """The former classalg.mn_character: Murnaghan-Nakayama over the rim
    walk of `border_strips`."""
    lam, mu = tuple(lam), tuple(mu)
    if not lam:
        return 1
    return sum(
        (-1) ** height * mn_character_by_border_strips(new, mu[1:])
        for new, height in border_strips(lam, mu[0])
    )


def standard_tableaux(lam):
    """All standard Young tableaux of shape lam (tuples of row tuples)."""
    lam = tuple(lam)
    k = sum(lam)
    results = []

    def rec(rows):
        n = sum(len(r) for r in rows)
        if n == k:
            results.append(tuple(tuple(r) for r in rows))
            return
        for i, row in enumerate(rows):
            if len(row) < lam[i] and (i == 0 or len(rows[i - 1]) > len(row)):
                row.append(n + 1)
                rec(rows)
                row.pop()

    rec([[] for _ in lam])
    return results


def _group_from_blocks(blocks, k):
    """Subgroup of S_k permuting positions within each block independently."""
    gens = [tuple(range(k))]
    for block in blocks:
        new = []
        for base in gens:
            for arr in itertools.permutations(block):
                img = list(base)
                for src, dst in zip(block, arr):
                    img[src] = base[dst]
                new.append(tuple(img))
        gens = list(set(new))
    return gens


def young_symmetrizer(tab):
    """c(A) r(A): column antisymmetrizer composed with row symmetrizer, K = 1."""
    lam = tuple(len(r) for r in tab)
    k = sum(lam)
    rows = [[v - 1 for v in r] for r in tab]
    conj = conjugate_partition(lam)
    cols = []
    for j in range(lam[0]):
        col = [tab[i][j] - 1 for i in range(conj[j])]
        cols.append(col)
    r_elems = _group_from_blocks(rows, k)
    c_elems = _group_from_blocks(cols, k)
    r_sum = {p: rat(1) for p in r_elems}
    c_sum = {p: rat(perm_sign(p)) for p in c_elems}
    return convolve(c_sum, r_sum)


def young_projector_sum(lam):
    """Sum of Young symmetrizers over all standard tableaux of shape lam."""
    out = {}
    for tab in standard_tableaux(lam):
        for p, c in young_symmetrizer(tab).items():
            accumulate(out, p, c)
    return out


def operator_order(op: WeylOperator):
    """The largest total derivative order of op's terms; None for op = 0."""
    return max((sum(a) for a in op.terms), default=None)


# ---------------------------------------------------------------------------
# seeded draws: helpers on SparseTensor.random, and the loops it replaced


def column_symmetric(d, N, rng, density=0.4) -> SparseTensor:
    """A seeded column-symmetric d-column tensor over C^N."""
    return SparseTensor.random(d, N, rng, 2, density=density).symmetrized()


def disjoint_trace_free(d, N, rng) -> SparseTensor:
    """Column-symmetric and totally trace-free by disjoint index supports:
    upper indices take values in {1, N-1}, lower in {0, 2}; needs N >= 4."""
    if N < 4:
        raise ValueError("needs N >= 4")
    return SparseTensor.random(d, N, rng, 2, upper=(1, N - 1), lower=(0, 2)).symmetrized()


def plain_tensor(k, N, rng) -> SparseTensor:
    """A seeded element of the k-th tensor power of C^N (upper indices only)."""
    return SparseTensor.random(k, N, rng, 3, lower=())


def random_traceless_by_loop(n, rng, bound=3):
    """Seeded small-integer V^B_A, drawn row by row, made traceless by
    subtracting tr/(n+2) on the diagonal."""
    N = n + 2
    V = {((B,), (A,)): rat(rng.randint(-bound, bound)) for B in range(N) for A in range(N)}
    c = sum((V[(B,), (B,)] for B in range(N)), RZERO) / N
    for B in range(N):
        V[(B,), (B,)] = V[(B,), (B,)] - c
    return SparseTensor(1, N, V)


def random_plain_tensor_by_loop(k, N, rng, bound=3):
    """Random element of the k-th tensor power of C^N with small int entries
    (upper indices only)."""
    out = {}
    for key in itertools.product(range(N), repeat=k):
        c = rng.randint(-bound, bound)
        if c:
            out[(key, ())] = rat(c)
    return SparseTensor(k, N, out)


def random_column_symmetric_by_loops(d, N, rng, bound=2, density=0.4) -> SparseTensor:
    entries = {}
    for B in itertools.product(range(N), repeat=d):
        for A in itertools.product(range(N), repeat=d):
            if rng.random() < density:
                c = rng.randint(-bound, bound)
                if c:
                    entries[(B, A)] = rat(c)
    return SparseTensor(d, N, entries).symmetrized()


def random_disjoint_trace_free_by_loops(d, N, rng, bound=2) -> SparseTensor:
    """Column-symmetric and totally trace-free by disjoint index supports:
    upper indices take values in {1, N-1}, lower in {0, 2}; needs N >= 4."""
    if N < 4:
        raise ValueError("needs N >= 4")
    entries = {}
    for B in itertools.product((1, N - 1), repeat=d):
        for A in itertools.product((0, 2), repeat=d):
            c = rng.randint(-bound, bound)
            if c:
                entries[(B, A)] = rat(c)
    return SparseTensor(d, N, entries).symmetrized()


def conjugation_tensor_by_loops(k, N, rng) -> SparseTensor:
    """The random symmetrized tensor of the former inline loop of
    `decompose.conjugation_lemmas_check`."""
    rand_entries = {}
    for U in itertools.product(range(N), repeat=k):
        for L in itertools.product(range(N), repeat=k):
            c = rng.randint(-2, 2)
            if c:
                rand_entries[(U, L)] = rat(c)
    return SparseTensor(k, N, rand_entries).symmetrized()
