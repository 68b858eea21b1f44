"""Normal-ordered differential operators with Laurent-polynomial coefficients.

A :class:`WeylOperator` over a ring with generators (g_1, ..., g_m) is a sparse
sum  sum_alpha  p_alpha(g) * D^alpha  with D^alpha the monomial of partial
derivatives given by the multi-index alpha.  Normal form keeps every
coefficient to the left of every derivative; composition applies the
generalized Leibniz rule term by term.  Equality is decided in normal form.

Action, composition and commutator work term by term on the integer
numerators of the coefficients (see ``rings``): D^alpha x^e is the falling
factorial e(e-1)...(e-alpha+1) times x^(e-alpha), slot by slot, through
negative Laurent exponents too; it is the package's one derivative.  Each
result is accumulated as ints over one common denominator and reduced once
per coefficient.  In a commutator the gamma = 0 Leibniz terms
p q D^(alpha+beta) of the two products are equal, because the coefficient
ring is commutative, so they are never formed.  Whether an operator
annihilates each of many monomials is decided without forming its images:
``nonvanishing`` evaluates one integer sum per exponent shift.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import factorial, lcm, prod
from operator import add, sub

from .rings import LaurentPoly, Ring, RingMismatchError, UnknownGeneratorError, _canonical, binom_exp
from .scalars import rat


def _den(op: "WeylOperator") -> int:
    """The lcm of the coefficient denominators of op; 1 for the zero operator."""
    return lcm(*(p.den for p in op.terms.values()))


@cache
def _slots(gamma):
    """The (slot, order) pairs of the nonzero entries of gamma."""
    return tuple((i, k) for i, k in enumerate(gamma) if k)


def _falling(e, slots) -> int:
    """falling(e, gamma): the product over the (slot, order) pairs of gamma of
    e_i (e_i - 1) ... (e_i - k + 1); zero when 0 <= e_i < k, and never zero
    through negative Laurent exponents."""
    d = 1
    for i, k in slots:
        ei = e[i]
        for j in range(k):
            d *= ei - j
    return d


def _add_products(acc: dict, terms, q: LaurentPoly):
    """acc[e] += the numerators of the sum of w * p * D^gamma q over the
    (gamma, pnum, w) of terms, each p given by its (exponent, numerator)
    pairs pnum.  D^gamma x^e = falling(e, gamma) x^(e - gamma), one falling
    factorial e_i (e_i - 1) ... (e_i - gamma_i + 1) per slot: zero when
    0 <= e_i < gamma_i, and never zero through negative Laurent exponents."""
    get = acc.get
    for e, c in q.num.items():
        for gamma, pnum, w in terms:
            d = c * w
            slots = _slots(gamma)
            for i, k in slots:
                ei = e[i]
                if 0 <= ei < k:
                    d = 0
                    break
                for j in range(k):
                    d *= ei - j
            if d:
                shift = tuple(map(sub, e, gamma)) if slots else e
                for ep, cp in pnum:
                    s = tuple(map(add, ep, shift))
                    acc[s] = get(s, 0) + cp * d


def _leibniz(acc: dict, a: "WeylOperator", b: "WeylOperator", sign: int, skip_zero: bool):
    """acc[idx][e] += sign * (a o b) numerators over _den(a) * _den(b), by
    D^alpha (q D^beta) = sum_gamma C(alpha, gamma) (D^gamma q) D^(alpha-gamma+beta);
    the gamma = 0 terms p q D^(alpha+beta) are left out when skip_zero."""
    da, db = _den(a), _den(b)
    for alpha, p in a.terms.items():
        wp = sign * (da // p.den)
        pnum = p.num.items()
        for gamma in itertools.product(*(range(k + 1) for k in alpha)):
            if skip_zero and not any(gamma):
                continue
            w = wp * binom_exp(alpha, gamma)
            rest = tuple(map(sub, alpha, gamma))
            for beta, q in b.terms.items():
                idx = tuple(map(add, rest, beta))
                _add_products(acc.setdefault(idx, {}), ((gamma, pnum, w * (db // q.den)),), q)


def _from_numerators(ring: Ring, acc: dict, den: int) -> "WeylOperator":
    """The operator with coefficient numerators acc[idx] over den."""
    return WeylOperator(
        ring, {idx: _canonical(ring, {e: c for e, c in num.items() if c}, den) for idx, num in acc.items()}
    )


class WeylOperator:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = {a: p for a, p in terms.items() if p}

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(ring: Ring) -> "WeylOperator":
        return WeylOperator(ring, {})

    @staticmethod
    def identity(ring: Ring) -> "WeylOperator":
        return WeylOperator(ring, {(0,) * ring.arity: ring.one()})

    @staticmethod
    def mul_by(p: LaurentPoly) -> "WeylOperator":
        """Multiplication operator f -> p*f."""
        return WeylOperator(p.ring, {(0,) * p.ring.arity: p})

    @staticmethod
    def derivative(ring: Ring, name: str, order: int = 1) -> "WeylOperator":
        if name not in ring.index:
            raise UnknownGeneratorError(name)
        alpha = [0] * ring.arity
        alpha[ring.index[name]] = order
        return WeylOperator(ring, {tuple(alpha): ring.one()})

    @staticmethod
    def term(p: LaurentPoly, derivs: dict) -> "WeylOperator":
        """p * prod d^k/d(name)^k for derivs = {name: k}."""
        ring = p.ring
        alpha = [0] * ring.arity
        for name, k in derivs.items():
            alpha[ring.index[name]] = k
        return WeylOperator(ring, {tuple(alpha): p})

    # -- structure --------------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, WeylOperator):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset((a, hash(p)) for a, p in self.terms.items())))

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("operators live over different rings")

    # -- linear space -------------------------------------------------------
    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for a, p in other.terms.items():
            s = out.get(a)
            s = p if s is None else s + p
            if s:
                out[a] = s
            else:
                out.pop(a, None)
        return WeylOperator(self.ring, out)

    def __neg__(self):
        return WeylOperator(self.ring, {a: -p for a, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "WeylOperator":
        return WeylOperator(self.ring, {a: p.scale(c) for a, p in self.terms.items()})

    # -- action and composition ----------------------------------------------
    def apply(self, f: LaurentPoly) -> LaurentPoly:
        if f.ring != self.ring:
            raise RingMismatchError("operand lives in a different ring")
        common = _den(self)
        acc = {}
        _add_products(acc, [(alpha, p.num.items(), common // p.den) for alpha, p in self.terms.items()], f)
        return _canonical(self.ring, {e: c for e, c in acc.items() if c}, common * f.den)

    def nonvanishing(self, monomials) -> list:
        """The monomials f of `monomials`, in their order, with self(f) != 0.

        Self's terms are grouped once by exponent shift delta = e_p - alpha:
        self(x^e) = sum_delta Q_delta(e) x^(e + delta) over the common
        denominator, with the integer Q_delta(e) = sum c falling(e, alpha).
        Distinct delta give distinct monomials, so self(x^e) = 0 exactly when
        every Q_delta(e) = 0.  A polynomial that is not one monomial raises
        ValueError; one from another ring raises RingMismatchError.
        """
        common = _den(self)
        slots = [_slots(alpha) for alpha in self.terms]
        shifts = {}  # delta -> [(index of alpha, numerator over common)]
        for j, (alpha, p) in enumerate(self.terms.items()):
            w = common // p.den
            for ep, c in p.num.items():
                shifts.setdefault(tuple(map(sub, ep, alpha)), []).append((j, c * w))
        groups = list(shifts.values())
        out = []
        for f in monomials:
            if f.ring != self.ring:
                raise RingMismatchError("operand lives in a different ring")
            if len(f.num) != 1:
                raise ValueError(f"not a monomial: {f}")
            (e,) = f.num
            falls = [_falling(e, s) for s in slots]
            for group in groups:
                q = 0
                for j, c in group:
                    q += c * falls[j]
                if q:
                    out.append(f)
                    break
        return out

    def compose(self, other: "WeylOperator") -> "WeylOperator":
        """Normal-ordered product: (self∘other)(f) = self(other(f))."""
        self._check(other)
        acc = {}
        _leibniz(acc, self, other, 1, skip_zero=False)
        return _from_numerators(self.ring, acc, _den(self) * _den(other))

    def commutator(self, other: "WeylOperator") -> "WeylOperator":
        """self∘other - other∘self.  The coefficients commute, so the gamma = 0
        Leibniz terms of the two products are the same p q D^(alpha+beta) and
        cancel exactly; only the |gamma| >= 1 terms are formed."""
        self._check(other)
        acc = {}
        _leibniz(acc, self, other, 1, skip_zero=True)
        _leibniz(acc, other, self, -1, skip_zero=True)
        return _from_numerators(self.ring, acc, _den(self) * _den(other))

    # -- printing ----------------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for a, p in self.sorted_terms():
            ds = [
                f"d_{name}" + (f"^{k}" if k > 1 else "")
                for name, k in zip(self.ring.names, a)
                if k
            ]
            parts.append(f"[{p}] " + " ".join(ds) if ds else f"[{p}]")
        return " + ".join(parts)

    def __repr__(self):
        return f"WeylOperator({self})"


def from_action(ring: Ring, action, max_order: int) -> WeylOperator:
    """Reconstruct a polynomial-coefficient operator from its exact action.

    ``action`` maps a LaurentPoly to a LaurentPoly linearly.  Probing the
    monomials x^alpha in graded order determines the coefficients uniquely
    for any operator of order <= max_order: D^beta x^alpha vanishes unless
    beta <= alpha slot-wise, and equals alpha! at beta = alpha, so the action
    on x^alpha less that of the terms found so far is alpha! p_alpha.
    """
    names = ring.names
    terms = {}
    degrees = sorted(
        (
            alpha
            for alpha in itertools.product(range(max_order + 1), repeat=len(names))
            if sum(alpha) <= max_order
        ),
        key=sum,
    )
    for alpha in degrees:
        x_alpha = ring.monomial({n: e for n, e in zip(names, alpha) if e})
        acc = action(x_alpha) - WeylOperator(ring, terms).apply(x_alpha)
        if acc:
            terms[alpha] = acc.scale(rat(1, prod(map(factorial, alpha))))
    return WeylOperator(ring, terms)
