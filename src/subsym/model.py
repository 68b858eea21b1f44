"""The ambient model C^{n+2}: its coordinate ring, the metric read off
one-column tensors as a quadric and a dual quadric, r and the ambient
Laplacian.

Complexification convention: the 2(n+2) polynomial generators are the upper
coordinates x^0, x^1..x^n, x^inf and the independent lowered coordinates
x_0, x_1..x_n, x_inf obtained by pairing the conjugates with the metric
(x_0 is the conjugate of x^inf, x_inf the conjugate of x^0, x_a the g-lowered
conjugate of x^a).  With that dictionary every ambient quadratic form is read
off a one-column tensor S: its quadric S^D_A x^A x_D and its dual quadric
S^D_A d^A d_D, a constant-coefficient operator.  At S = identity they are r
and the ambient Laplacian; at S = U + Utilde they give the trivial part of a
composition D_V o D_W (see ``ambient``).

Only x^0 and x_inf are invertible: they are the homogeneity bookkeeping
directions used by the canonical extension.  The boundary layer loads this
module and not ``ambient``, so a boundary request never compiles the
symmetries D_V or the composition decomposition.
"""

from __future__ import annotations

from functools import lru_cache

from .rings import LaurentPoly, Ring
from .scalars import RONE
from .tensor import SparseTensor
from .weyl import WeylOperator


class AmbientModel:
    """Ambient C^{n+2} with diagonal boundary metric block g_diag (+-1)."""

    def __init__(self, n, g_diag=None):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        self.g_diag = tuple(g_diag) if g_diag is not None else (1,) * n
        if len(self.g_diag) != n or any(g not in (1, -1) for g in self.g_diag):
            raise ValueError("g_diag must be n entries of +-1")
        upper = ["x0"] + [f"x{a}" for a in range(1, n + 1)] + ["xinf"]
        lower = ["x_0"] + [f"x_{a}" for a in range(1, n + 1)] + ["x_inf"]
        self.upper_names = upper
        self.lower_names = lower
        self.ring = Ring(upper + lower, laurent=("x0", "x_inf"))

    @property
    def N(self):
        return self.n + 2

    # index values: 0 -> '0' direction, 1..n -> boundary, n+1 -> 'inf'
    def up(self, A, power=1) -> LaurentPoly:
        return self.ring.gen(self.upper_names[A], power)

    def dn(self, A, power=1) -> LaurentPoly:
        return self.ring.gen(self.lower_names[A], power)

    def d_up(self, A) -> WeylOperator:
        """Derivative along the upper coordinate x^A."""
        return WeylOperator.derivative(self.ring, self.upper_names[A])

    def d_dn(self, A) -> WeylOperator:
        """Derivative along the lowered coordinate x_A (the raised operator)."""
        return WeylOperator.derivative(self.ring, self.lower_names[A])


def identity(N) -> SparseTensor:
    """delta^B_A as a one-column tensor over C^N."""
    return SparseTensor(1, N, {((A,), (A,)): RONE for A in range(N)})


def _quadratic_terms(m: AmbientModel, S: SparseTensor, a_names, d_names):
    """{multi-index of a_names[A] d_names[D]: S^D_A} for a one-column S."""
    idx = m.ring.index
    out = {}
    for ((D,), (A,)), c in S.entries.items():
        alpha = [0] * m.ring.arity
        alpha[idx[a_names[A]]] += 1
        alpha[idx[d_names[D]]] += 1
        out[tuple(alpha)] = c
    return out


def quadric(m: AmbientModel, S: SparseTensor) -> LaurentPoly:
    """S^D_A x^A x_D; r at S = identity."""
    return LaurentPoly(m.ring, _quadratic_terms(m, S, m.upper_names, m.lower_names))


def dual_quadric(m: AmbientModel, S: SparseTensor) -> WeylOperator:
    """S^D_A d^A d_D; the Laplacian at S = identity."""
    terms = _quadratic_terms(m, S, m.lower_names, m.upper_names)
    return WeylOperator(m.ring, {alpha: m.ring.const(c) for alpha, c in terms.items()})


def r_poly(m: AmbientModel) -> LaurentPoly:
    return quadric(m, identity(m.N))


@lru_cache(maxsize=32)
def ambient_laplacian(m: AmbientModel) -> WeylOperator:
    """sum_A d_A d^A, built once per model."""
    return dual_quadric(m, identity(m.N))
