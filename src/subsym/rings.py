"""Multivariate Laurent polynomials with exact rational coefficients.

A :class:`Ring` fixes an ordered tuple of generator names; a subset of the
generators may carry negative exponents (``laurent`` generators).  Terms are
stored sparsely as a dict mapping exponent vectors (tuples of ints, one slot
per generator) to nonzero backend rationals (``scalars.rat``); ints are
accepted wherever a coefficient is given.  The zero polynomial is the empty
dict.  No coefficient is complex: the boundary model works in the contact
coordinate tau = i*sigma, over Q (see ``boundary``).

Serialization uses graded-lexicographic term order so that equal polynomials
always print and dump identically.
"""

from __future__ import annotations

import json
from math import comb
from operator import add

from .scalars import RONE, RZERO, accumulate, parse_rat, rat, rat_str

_RAT = type(RZERO)


def _coeff(c):
    """c as a backend rational; a complex value raises TypeError."""
    return c if type(c) is _RAT else rat(c)


class RingMismatchError(ValueError):
    pass


class UnknownGeneratorError(KeyError):
    pass


class Ring:
    """An ordered set of named generators, some of which are invertible."""

    def __init__(self, names, laurent=()):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique within a ring")
        unknown = set(laurent) - set(names)
        if unknown:
            raise UnknownGeneratorError(f"laurent generators not in ring: {sorted(unknown)}")
        self.names = names
        self.laurent = frozenset(laurent)
        self.arity = len(names)
        self.index = {n: i for i, n in enumerate(names)}
        self._zero_exp = (0,) * self.arity

    def __repr__(self):
        return f"Ring({list(self.names)}, laurent={sorted(self.laurent)})"

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.names == other.names
            and self.laurent == other.laurent
        )

    def __hash__(self):
        return hash((self.names, self.laurent))

    # -- element constructors -------------------------------------------
    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, {})

    def const(self, c) -> "LaurentPoly":
        c = _coeff(c)
        if not c:
            return self.zero()
        return LaurentPoly(self, {self._zero_exp: c})

    def one(self) -> "LaurentPoly":
        return self.const(1)

    def gen(self, name, power=1) -> "LaurentPoly":
        if name not in self.index:
            raise UnknownGeneratorError(name)
        if power < 0 and name not in self.laurent:
            raise ValueError(f"negative power on non-invertible generator {name!r}")
        exp = [0] * self.arity
        exp[self.index[name]] = power
        if power == 0:
            return self.one()
        return LaurentPoly(self, {tuple(exp): RONE})

    def monomial(self, exps: dict, coeff=1) -> "LaurentPoly":
        c = _coeff(coeff)
        if not c:
            return self.zero()
        exp = [0] * self.arity
        for name, e in exps.items():
            if name not in self.index:
                raise UnknownGeneratorError(name)
            if e < 0 and name not in self.laurent:
                raise ValueError(f"negative power on non-invertible generator {name!r}")
            exp[self.index[name]] = e
        return LaurentPoly(self, {tuple(exp): c})


def _grlex_key(exp):
    return (sum(exp), tuple(-e for e in exp))


class LaurentPoly:
    """Sparse exact Laurent polynomial over a fixed :class:`Ring`."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms  # exponent tuple -> nonzero backend rational

    @staticmethod
    def _make(ring, terms):
        return LaurentPoly(ring, {e: c for e, c in terms.items() if c})

    # -- predicates -----------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return not self.terms or set(self.terms) == {self.ring._zero_exp}

    def constant_value(self):
        return self.terms.get(self.ring._zero_exp, RZERO)

    # -- arithmetic -------------------------------------------------------
    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError("operands live in different rings")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = self.ring.const(other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            accumulate(out, e, c)
        return LaurentPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        self._check(other)
        out = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return LaurentPoly._make(self.ring, out)

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        c = _coeff(c)
        if not c:
            return self.ring.zero()
        return LaurentPoly(self.ring, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, m: int):
        if m < 0:
            inv = _invert_monomial(self)
            return inv ** (-m)
        out = self.ring.one()
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base if m > 1 else base
            m >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.ring == other.ring and self.terms == other.terms
        if not self.terms:
            return other == 0
        return self.is_constant() and self.constant_value() == other

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------
    def diff(self, name: str) -> "LaurentPoly":
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
        return LaurentPoly(self.ring, out)

    def substitute(self, images: dict, target: Ring | None = None) -> "LaurentPoly":
        """Substitute every generator by ``images[name]`` (a poly in ``target``).

        Generators absent from ``images`` map to themselves (only possible when
        the target is the same ring).  A generator carrying a negative exponent
        must map to an invertible monomial (unit constant or unit multiple of a
        single invertible generator power); anything else raises ValueError.
        """
        target = target or self.ring
        full = {}
        for name in self.ring.names:
            if name in images:
                img = images[name]
                if not isinstance(img, LaurentPoly):
                    img = target.const(img)
                if img.ring != target:
                    raise RingMismatchError(f"image of {name!r} lives in the wrong ring")
                full[name] = img
            else:
                if target != self.ring:
                    raise UnknownGeneratorError(
                        f"no image given for generator {name!r} under ring change"
                    )
                full[name] = target.gen(name)
        unknown = set(images) - set(self.ring.names)
        if unknown:
            raise UnknownGeneratorError(f"images for unknown generators: {sorted(unknown)}")

        # one power per (generator, exponent), products accumulated in place
        names = self.ring.names
        powers = {}
        out = {}
        for e, c in self.terms.items():
            term = None
            for i, m in enumerate(e):
                if m:
                    p = powers.get((i, m))
                    if p is None:
                        p = powers[(i, m)] = full[names[i]] ** m
                    term = p if term is None else term * p
            if term is None:
                accumulate(out, target._zero_exp, c)
            else:
                for te, tc in term.terms.items():
                    accumulate(out, te, tc * c)
        return LaurentPoly(target, out)

    # -- serialization -------------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]))

    def to_jsonable(self):
        return [[list(e), rat_str(c)] for e, c in self.sorted_terms()]

    def dumps(self) -> str:
        return json.dumps(self.to_jsonable())

    @staticmethod
    def loads(ring: Ring, s: str) -> "LaurentPoly":
        data = json.loads(s)
        terms = {tuple(e): parse_rat(c) for e, c in data}
        return LaurentPoly._make(ring, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, m in zip(self.ring.names, e):
                if m == 1:
                    factors.append(name)
                elif m != 0:
                    factors.append(f"{name}^{m}")
            mono = "*".join(factors) if factors else "1"
            parts.append(f"({rat_str(c)})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"


def _invert_monomial(p: LaurentPoly) -> LaurentPoly:
    """Inverse of a unit monomial; all its generators must be invertible."""
    if len(p.terms) != 1:
        raise ValueError("cannot invert a non-monomial polynomial")
    (e, c), = p.terms.items()
    for name, m in zip(p.ring.names, e):
        if m != 0 and name not in p.ring.laurent:
            raise ValueError(f"cannot invert generator {name!r}")
    return LaurentPoly(p.ring, {tuple(-m for m in e): RONE / c})


def binom_exp(alpha, gamma):
    """Product of per-slot binomials; the multi-index Leibniz coefficient."""
    out = 1
    for a, g in zip(alpha, gamma):
        out *= comb(a, g)
    return out
