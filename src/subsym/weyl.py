"""Normal-ordered differential operators with Laurent-polynomial coefficients.

A :class:`WeylOperator` over a ring with generators (g_1, ..., g_m) is a sparse
sum  sum_alpha  p_alpha(g) * D^alpha  with D^alpha the monomial of partial
derivatives given by the multi-index alpha.  Normal form keeps every
coefficient to the left of every derivative; composition applies the
generalized Leibniz rule term by term.  Equality is decided in normal form.
"""

from __future__ import annotations

from .rings import LaurentPoly, Ring, RingMismatchError, binom_exp
from .scalars import rat


def _iter_sub_multiindices(alpha):
    """All gamma with 0 <= gamma <= alpha slot-wise."""
    if not alpha:
        yield ()
        return
    head, rest = alpha[0], alpha[1:]
    for tail in _iter_sub_multiindices(rest):
        for g in range(head + 1):
            yield (g,) + tail


def _derivatives(f: LaurentPoly):
    """alpha -> D^alpha f, each derivative computed once from a lower one."""
    names = f.ring.names
    table = {(0,) * len(names): f}

    def get(alpha):
        g = table.get(alpha)
        if g is None:
            i = len(alpha) - 1
            while not alpha[i]:
                i -= 1
            lower = get(alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :])
            g = table[alpha] = lower.diff(names[i]) if lower else lower
        return g

    return get


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
    @property
    def order(self):
        if not self.terms:
            return None
        return max(sum(a) for a in self.terms)

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
        df = _derivatives(f)
        prods = [p * g for alpha, p in self.terms.items() if (g := df(alpha))]
        return LaurentPoly.sum(self.ring, prods)

    def compose(self, other: "WeylOperator") -> "WeylOperator":
        """Normal-ordered product: (self∘other)(f) = self(other(f))."""
        self._check(other)
        dqs = [(beta, _derivatives(q)) for beta, q in other.terms.items()]
        out = {}  # idx -> ([p * D^gamma q], [Leibniz coefficient])
        for alpha, p in self.terms.items():
            gammas = [(gamma, binom_exp(alpha, gamma)) for gamma in _iter_sub_multiindices(alpha)]
            for beta, dq in dqs:
                # D^alpha (q Dbeta f) = sum_gamma C(alpha,gamma) (D^gamma q) D^(alpha-gamma+beta) f
                for gamma, coeff in gammas:
                    g = dq(gamma)
                    if g:
                        idx = tuple(a - c + b for a, c, b in zip(alpha, gamma, beta))
                        prods, weights = out.setdefault(idx, ([], []))
                        prods.append(p * g)
                        weights.append(coeff)
        return WeylOperator(
            self.ring,
            {idx: LaurentPoly.sum(self.ring, prods, weights) for idx, (prods, weights) in out.items()},
        )

    def commutator(self, other: "WeylOperator") -> "WeylOperator":
        return self.compose(other) - other.compose(self)

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
    beta <= alpha slot-wise, and equals alpha! at beta = alpha.
    """
    import itertools
    from math import factorial

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
        acc = action(x_alpha)
        for beta, p in terms.items():
            if all(b <= a for b, a in zip(beta, alpha)):
                dx = x_alpha
                for i, k in enumerate(beta):
                    for _ in range(k):
                        dx = dx.diff(names[i])
                if dx:
                    acc = acc - p * dx
        if acc:
            fact = 1
            for e in alpha:
                fact *= factorial(e)
            terms[alpha] = acc.scale(rat(1, fact))
    return WeylOperator(ring, terms)
