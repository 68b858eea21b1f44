"""Sparse tensors over C^N with an upper and a lower index group.

One type serves the ambient column-symmetric tensors V^{B_1..B_d}_{A_1..A_d}
and the mixed tensors of (V (x) V*)^(x)k: entries are keyed by (upper tuple,
lower tuple), column i being the slot pair (U[i], L[i]), and zero entries are
never stored.  A tensor of V^(x)k alone has empty lower tuples.

Permutations are tuples of 0-based images (p[i] is where position i is
sent) and move index positions by result[p(i)] = t[i]; every move is the
one private action `_moved` of an element {perm: coeff}.  This module loads
`classalg` and `scalars` only, so both the ambient and the decomposition
side can load it without loading each other.
"""

from __future__ import annotations

import itertools
from math import factorial, lcm

from .classalg import invert_perm, perm_sign
from .scalars import accumulate, rat


class SparseTensor:
    """Tensor T^{U}_{L} with k columns over C^N, stored sparsely."""

    __slots__ = ("k", "N", "entries")

    def __init__(self, k, N, entries=None):
        self.k = k
        self.N = N
        self.entries = {key: v for key, v in (entries or {}).items() if v}

    def __bool__(self):
        return bool(self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, SparseTensor)
            and (self.k, self.N) == (other.k, other.N)
            and self.entries == other.entries
        )

    def __add__(self, other):
        out = dict(self.entries)
        for key, v in other.entries.items():
            accumulate(out, key, v)
        return SparseTensor(self.k, self.N, out)

    def __sub__(self, other):
        return self + other.scale(rat(-1))

    def scale(self, c):
        return SparseTensor(self.k, self.N, {key: v * c for key, v in self.entries.items()})

    def outer(self, other) -> "SparseTensor":
        """Tensor product; the columns of `other` follow those of self."""
        return SparseTensor(
            self.k + other.k,
            self.N,
            {
                (U + U2, L + L2): v * w
                for (U, L), v in self.entries.items()
                for (U2, L2), w in other.entries.items()
            },
        )

    # -- column symmetry -------------------------------------------------
    def permuted(self, p) -> "SparseTensor":
        """Move column i to position p(i) in both index groups."""
        return self._moved({p: 1}, upper=True, lower=True)

    def is_symmetric(self) -> bool:
        """Invariance under simultaneous permutations of the columns: every
        entry is met again with two adjacent columns swapped."""
        get = self.entries.get
        for (U, L), v in self.entries.items():
            for t in range(self.k - 1):
                swapped = (
                    U[:t] + (U[t + 1], U[t]) + U[t + 2 :],
                    L[:t] + (L[t + 1], L[t]) + L[t + 2 :],
                )
                if get(swapped) != v:
                    return False
        return True

    def symmetrized(self) -> "SparseTensor":
        """Average over simultaneous permutations of the columns."""
        perms = itertools.permutations(range(self.k))
        return self._moved(dict.fromkeys(perms, rat(1, factorial(self.k))), upper=True, lower=True)

    def integer_entries(self):
        """(den, {key: int}) with each entry the int over den, den the lcm of
        the entry denominators; None when an entry is not a rational."""
        try:
            den = lcm(*(int(v.denominator) for v in self.entries.values()))
        except AttributeError:
            return None
        return den, {key: int(v.numerator) * (den // int(v.denominator)) for key, v in self.entries.items()}

    def _moved(self, element, upper, lower) -> "SparseTensor":
        """sum_p element[p] p, each p moving the upper and/or the lower
        positions.  Rational entries and coefficients are summed as integer
        numerators, over one common denominator for each, and made rational
        once per result entry; Gaussian-rational ones are summed as they are."""
        ints = self.integer_entries()
        try:
            cden = lcm(*(int(c.denominator) for c in element.values()))
        except AttributeError:
            ints = None
        if ints is None:  # Gaussian-rational entries or coefficients
            values, coeffs = self.entries, element
        else:
            den, values = ints
            coeffs = {p: int(c.numerator) * (cden // int(c.denominator)) for p, c in element.items()}
        out = {}
        for p, c in coeffs.items():
            order = invert_perm(p)
            for (U, L), v in values.items():
                key = (
                    tuple(map(U.__getitem__, order)) if upper else U,
                    tuple(map(L.__getitem__, order)) if lower else L,
                )
                accumulate(out, key, v * c)
        if ints is None:
            return SparseTensor(self.k, self.N, out)
        return SparseTensor(self.k, self.N, {key: rat(s, den * cden) for key, s in out.items()})

    # -- the group algebra on one index group ------------------------------
    def act(self, element, upper) -> "SparseTensor":
        """Apply sum_p element[p] p to the upper (or the lower) index positions."""
        return self._moved(element, upper=upper, lower=not upper)

    def skew_slots(self, slots, upper=True) -> "SparseTensor":
        """Antisymmetrize over the given upper (or lower) slots, averaged."""
        element = {}
        for idx in itertools.permutations(slots):
            p = list(range(self.k))
            for src, dst in zip(slots, idx):
                p[src] = dst
            element[tuple(p)] = rat(perm_sign(p), factorial(len(slots)))
        return self.act(element, upper)

    # -- traces ------------------------------------------------------------
    def contraction(self, up_slot, lo_slot) -> "SparseTensor":
        """Contract upper slot up_slot against lower slot lo_slot."""
        out = {}
        for (U, L), v in self.entries.items():
            if U[up_slot] == L[lo_slot]:
                key = (U[:up_slot] + U[up_slot + 1 :], L[:lo_slot] + L[lo_slot + 1 :])
                accumulate(out, key, v)
        return SparseTensor(self.k - 1, self.N, out)

    def is_trace_free(self) -> bool:
        """Every contraction of an upper with a lower slot vanishes."""
        return not any(self.contraction(p, q) for p in range(self.k) for q in range(self.k))

    # -- constructors --------------------------------------------------------
    @staticmethod
    def random_column_symmetric(d, N, rng, bound=2, density=0.4) -> "SparseTensor":
        entries = {}
        for B in itertools.product(range(N), repeat=d):
            for A in itertools.product(range(N), repeat=d):
                if rng.random() < density:
                    c = rng.randint(-bound, bound)
                    if c:
                        entries[(B, A)] = rat(c)
        return SparseTensor(d, N, entries).symmetrized()

    @staticmethod
    def random_disjoint_trace_free(d, N, rng, bound=2) -> "SparseTensor":
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
