"""Exact scalar arithmetic: rationals, and Gaussian rationals for callers.

All computations in this package are exact.  Every coefficient the
verifier computes with is a ``fractions.Fraction``, named ``rat`` here: the
boundary model uses the contact coordinate tau = i*sigma, so no identity
it checks needs the imaginary unit (see ``boundary``).  A
:class:`GaussianRational` is a + b*i with exact rational a, b, kept for
callers that want complex constants; no other module of the package uses it.
"""

from __future__ import annotations

from fractions import Fraction

rat = Fraction
RATIONAL_BACKEND = "fraction"  # recorded by the benchmark harness

RZERO = rat(0)
RONE = rat(1)


def rat_str(x) -> str:
    """Canonical string "p/q" for an exact rational (q always printed)."""
    return f"{x.numerator}/{x.denominator}"


def accumulate(acc: dict, key, v):
    """acc[key] += v, with the key dropped when the sum is zero."""
    s = acc.get(key)
    s = v if s is None else s + v
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


class GaussianRational:
    """Exact complex number a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = rat(re)
        self.im = rat(im)

    # -- predicates ---------------------------------------------------
    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return GaussianRational(a * c, RZERO)
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        n = c * c + d * d
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational((a * c + b * d) / n, (b * c - a * d) / n)

    # -- comparison / hashing ------------------------------------------
    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- display --------------------------------------------------------
    def __str__(self):
        if not self.im:
            return rat_str(self.re)
        sign = "-" if self.im < 0 else "+"
        return f"{rat_str(self.re)}{sign}{rat_str(abs(self.im))}*i"

    def __repr__(self):
        return f"GaussianRational({self})"


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(rat(x), RZERO)


GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)
GR_I = GaussianRational(0, 1)


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor from ints or Fractions."""
    return GaussianRational(re, im)

