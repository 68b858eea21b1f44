"""Multivariate Laurent polynomials with exact rational coefficients.

A :class:`Ring` fixes an ordered tuple of generator names; a subset of the
generators may carry negative exponents (``laurent`` generators).

A :class:`LaurentPoly` stores integer numerators over one common denominator,
the layout of FLINT's ``fmpq_poly``: ``num`` maps exponent vectors (tuples of
ints, one slot per generator) to nonzero Python ints, and ``den`` is an int
>= 1.  The form is canonical, ``gcd(den, *num.values()) == 1`` and the zero
polynomial is ``num == {}``, ``den == 1``, so equal polynomials have equal
``(den, num)``.  Arithmetic runs on ints and reduces by one gcd per result;
Fractions (``scalars.rat``) appear only where coefficients enter
(``Ring.const``/``gen``/``monomial``, ``LaurentPoly(ring, terms)``, ``scale``)
and where they are read out (``terms``, ``constant_value``, ``str``).  No
coefficient is complex: the boundary model works in the contact coordinate
tau = i*sigma, over Q (see ``boundary``).  Derivatives are ``weyl``'s.

Printing uses graded-lexicographic term order so that equal polynomials
always print identically.
"""

from __future__ import annotations

from math import comb, gcd, lcm
from operator import add
from types import MappingProxyType

from .scalars import RZERO, rat, rat_str


def _ratio(c):
    """(numerator, denominator) of a rational coefficient; a complex value
    raises TypeError."""
    if type(c) is int:
        return c, 1
    if type(c) is not rat:
        c = rat(c)
    return c.numerator, c.denominator


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
        return _new(self, {}, 1)

    def const(self, c) -> "LaurentPoly":
        return self.monomial({}, c)

    def one(self) -> "LaurentPoly":
        return _new(self, {self._zero_exp: 1}, 1)

    def gen(self, name, power=1) -> "LaurentPoly":
        return self.monomial({name: power})

    def monomial(self, exps: dict, coeff=1) -> "LaurentPoly":
        n, d = _ratio(coeff)
        exp = [0] * self.arity
        for name, e in exps.items():
            if name not in self.index:
                raise UnknownGeneratorError(name)
            if e < 0 and name not in self.laurent:
                raise ValueError(f"negative power on non-invertible generator {name!r}")
            exp[self.index[name]] = e
        return _new(self, {tuple(exp): n} if n else {}, d if n else 1)


def _grlex_key(exp):
    return (sum(exp), tuple(-e for e in exp))


def _new(ring, num, den):
    """A LaurentPoly from a numerator dict and denominator already canonical."""
    p = object.__new__(LaurentPoly)
    p.ring = ring
    p.num = num
    p.den = den
    return p


def _canonical(ring, num, den):
    """A LaurentPoly from nonzero int numerators over den >= 1: one gcd."""
    if not num:
        return _new(ring, num, 1)
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    return _new(ring, num, den)


class LaurentPoly:
    """Sparse exact Laurent polynomial over a fixed :class:`Ring`: integer
    numerators ``num`` over the common denominator ``den``."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: Ring, terms: dict):
        """From a dict exponent tuple -> rational (or int); zeros are dropped."""
        pairs = [(e, _ratio(c)) for e, c in terms.items()]
        den = lcm(*(d for _, (n, d) in pairs if n))
        canon = _canonical(ring, {e: n * (den // d) for e, (n, d) in pairs if n}, den)
        self.ring, self.num, self.den = ring, canon.num, canon.den

    @property
    def terms(self):
        """Read-only view exponent tuple -> nonzero rational."""
        den = self.den
        return MappingProxyType({e: rat(c, den) for e, c in self.num.items()})

    # -- predicates -----------------------------------------------------
    def __bool__(self):
        return bool(self.num)

    def is_constant(self):
        return not self.num or (len(self.num) == 1 and self.ring._zero_exp in self.num)

    def constant_value(self):
        c = self.num.get(self.ring._zero_exp)
        return RZERO if c is None else rat(c, self.den)

    # -- arithmetic -------------------------------------------------------
    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError("operands live in different rings")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = self.ring.const(other)
        self._check(other)
        if not other.num:
            return self
        if not self.num:
            return other
        da, db = self.den, other.den
        if da == db:
            out = dict(self.num)
            fb, den = 1, da
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            out = {e: c * fa for e, c in self.num.items()}
            den = da * fa
        get = out.get
        for e, c in other.num.items():
            if fb != 1:
                c *= fb
            s = get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]  # c != 0, so e was present
        return _canonical(self.ring, out, den)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.ring, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        if self.ring is not other.ring:
            self._check(other)
        a, b = self.num, other.num
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return self.ring.zero()
        if len(a) == 1:
            # monomial times polynomial: shifted exponents stay distinct
            ((e1, c1),) = a.items()
            if len(b) == 1:
                ((e2, c2),) = b.items()
                out = {tuple(map(add, e1, e2)): c1 * c2}
            else:
                out = {tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in b.items()}
        else:
            out = {}
            get = out.get
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = tuple(map(add, e1, e2))
                    s = get(e)
                    out[e] = c1 * c2 if s is None else s + c1 * c2
            out = {e: c for e, c in out.items() if c}
        return _canonical(self.ring, out, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        n, d = _ratio(c)
        if not n:
            return self.ring.zero()
        return _canonical(self.ring, {e: k * n for e, k in self.num.items()}, self.den * d)

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
            return self.ring == other.ring and self.den == other.den and self.num == other.num
        if not self.num:
            return other == 0
        return self.is_constant() and self.constant_value() == other

    def __hash__(self):
        return hash((self.ring, self.den, frozenset(self.num.items())))

    @staticmethod
    def sum(ring: Ring, polys, weights=None, den: int = 1) -> "LaurentPoly":
        """sum_i weights[i] * polys[i] / den, for int weights (default all 1)
        and an int den >= 1: one lcm, int accumulation, one reduction."""
        polys = list(polys)
        if weights is None:
            weights = [1] * len(polys)
        common = lcm(*(p.den for p in polys))
        out = {}
        get = out.get
        for w, p in zip(weights, polys, strict=True):
            if p.ring is not ring and p.ring != ring:
                raise RingMismatchError("summand lives in a different ring")
            f = w * (common // p.den)
            for e, c in p.num.items():
                s = get(e)
                out[e] = c * f if s is None else s + c * f
        return _canonical(ring, {e: c for e, c in out.items() if c}, common * den)

    # -- substitution ------------------------------------------------------
    def substitute(self, sub: "Substitution") -> "LaurentPoly":
        """Substitute every generator by its image under ``sub``, a
        :class:`Substitution` from this ring; one from another ring raises
        RingMismatchError.

        The numerators of self weight the term products, each a product of
        the Substitution's kept powers, summed once over self.den.
        """
        if self.ring != sub.source:
            raise RingMismatchError("the substitution maps another ring")
        power = sub.power
        one = sub.target.one()
        terms = []
        for e in self.num:
            term = None
            for i, m in enumerate(e):
                if m:
                    p = power(i, m)
                    term = p if term is None else term * p
            terms.append(one if term is None else term)
        return LaurentPoly.sum(sub.target, terms, self.num.values(), self.den)

    # -- printing -------------------------------------------------------------
    def sorted_terms(self):
        den = self.den
        return [(e, rat(self.num[e], den)) for e in sorted(self.num, key=_grlex_key)]

    def __str__(self):
        if not self.num:
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


class Substitution:
    """The ring map of ``LaurentPoly.substitute``: every generator of
    ``source`` to ``images[name]``, a poly in ``target``, checked once here.

    Generators absent from ``images`` map to themselves (only possible when
    the target is the same ring).  A generator carrying a negative exponent
    must map to an invertible monomial (unit constant or unit multiple of a
    single invertible generator power); anything else raises ValueError when
    that power is asked for.  Each power of an image is computed once and
    kept, so every polynomial substituted through one Substitution shares
    them; a power that raises is not kept.
    """

    __slots__ = ("source", "target", "images", "powers")

    def __init__(self, source: Ring, images: dict, target: Ring | None = None):
        target = target or source
        full = []
        for name in source.names:
            if name in images:
                img = images[name]
                if not isinstance(img, LaurentPoly):
                    img = target.const(img)
                if img.ring != target:
                    raise RingMismatchError(f"image of {name!r} lives in the wrong ring")
                full.append(img)
            else:
                if target != source:
                    raise UnknownGeneratorError(f"no image given for generator {name!r} under ring change")
                full.append(target.gen(name))
        unknown = set(images) - set(source.names)
        if unknown:
            raise UnknownGeneratorError(f"images for unknown generators: {sorted(unknown)}")
        self.source, self.target, self.images = source, target, tuple(full)
        self.powers = {}  # (generator slot, exponent) -> image power

    def power(self, i: int, m: int) -> LaurentPoly:
        """The image of generator slot i, to the power m."""
        p = self.powers.get((i, m))
        if p is None:
            p = self.powers[i, m] = self.images[i] ** m
        return p


def _invert_monomial(p: LaurentPoly) -> LaurentPoly:
    """Inverse of a unit monomial; all its generators must be invertible."""
    if len(p.num) != 1:
        raise ValueError("cannot invert a non-monomial polynomial")
    ((e, c),) = p.num.items()
    for name, m in zip(p.ring.names, e):
        if m != 0 and name not in p.ring.laurent:
            raise ValueError(f"cannot invert generator {name!r}")
    sign = -1 if c < 0 else 1
    return _new(p.ring, {tuple(-m for m in e): sign * p.den}, sign * c)


def binom_exp(alpha, gamma):
    """Product of per-slot binomials; the multi-index Leibniz coefficient."""
    out = 1
    for a, g in zip(alpha, gamma):
        out *= comb(a, g)
    return out
