"""Sparse tensors over C^N with an upper and a lower index group.

One type serves the ambient column-symmetric tensors V^{B_1..B_d}_{A_1..A_d}
and the mixed tensors of (V (x) V*)^(x)k: entries are keyed by (upper tuple,
lower tuple), column i being the slot pair (U[i], L[i]), and zero entries are
never stored.  A tensor of V^(x)k alone has empty lower tuples.

Permutations are tuples of 0-based images (p[i] is where position i is
sent) and move index positions by result[p(i)] = t[i].  This module depends
on `scalars` only, so both the ambient and the decomposition side can load
it without loading each other.
"""

from __future__ import annotations

import itertools
from math import lcm

from .scalars import accumulate, rat


def _order(p):
    """Read-off order of the move by p: tuple(t[i] for i in _order(p))[p(i)] = t[i]."""
    return sorted(range(len(p)), key=p.__getitem__)


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
        order = _order(p)
        return SparseTensor(
            self.k,
            self.N,
            {
                (tuple(U[i] for i in order), tuple(L[i] for i in order)): v
                for (U, L), v in self.entries.items()
            },
        )

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
        moves = [(order, 1) for order in itertools.permutations(range(self.k))]
        return self._averaged(moves, upper=True, lower=True)

    def integer_entries(self):
        """(den, {key: int}) with each entry the int over den, den the lcm of
        the entry denominators; None when an entry is not a rational."""
        try:
            den = lcm(*(int(v.denominator) for v in self.entries.values()))
        except AttributeError:
            return None
        return den, {key: int(v.numerator) * (den // int(v.denominator)) for key, v in self.entries.items()}

    def _averaged(self, moves, upper, lower) -> "SparseTensor":
        """1/len(moves) times the sum, over (order, sign) in moves, of sign
        times the tensor with its upper and/or lower positions read off in
        that order.  Rational entries are summed as integer numerators over
        their common denominator and made rational once per result entry."""
        ints = self.integer_entries()
        den, values = (1, self.entries) if ints is None else ints
        out = {}
        for order, sign in moves:
            for (U, L), v in values.items():
                key = (
                    tuple(map(U.__getitem__, order)) if upper else U,
                    tuple(map(L.__getitem__, order)) if lower else L,
                )
                accumulate(out, key, v if sign == 1 else -v)
        q = len(moves) * den
        if ints is None:  # Gaussian-rational entries
            return SparseTensor(self.k, self.N, {key: s * rat(1, q) for key, s in out.items()})
        return SparseTensor(self.k, self.N, {key: rat(s, q) for key, s in out.items()})

    # -- the group algebra on one index group ------------------------------
    def act(self, element, upper) -> "SparseTensor":
        """Apply sum_p element[p] p to the upper (or the lower) index positions.

        The entries are multiplied once per distinct coefficient, and a
        coefficient 1 or -1 keeps or negates them without forming products."""
        out = {}
        scaled = {}  # coefficient -> the entry values times it
        for p, c in element.items():
            values = scaled.get(c)
            if values is None:
                if c == 1:
                    values = list(self.entries.values())
                elif c == -1:
                    values = [-v for v in self.entries.values()]
                else:
                    values = [v * c for v in self.entries.values()]
                scaled[c] = values
            order = _order(p)
            for (U, L), v in zip(self.entries, values):
                if upper:
                    key = (tuple(U[i] for i in order), L)
                else:
                    key = (U, tuple(L[i] for i in order))
                accumulate(out, key, v)
        return SparseTensor(self.k, self.N, out)

    def skew_slots(self, slots, upper=True) -> "SparseTensor":
        """Antisymmetrize over the given upper (or lower) slots, averaged: the
        sum with integer signs, over len(slots)! at the end."""
        moves = []
        for idx in itertools.permutations(range(len(slots))):
            p = list(range(self.k))
            for src, i in zip(slots, idx):
                p[src] = slots[i]
            inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
            moves.append((_order(p), (-1) ** inversions))
        return self._averaged(moves, upper=upper, lower=not upper)

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
    def from_matrix(V) -> "SparseTensor":
        """The one-column tensor V^B_A of a square matrix."""
        N = V.dim
        return SparseTensor(1, N, {((B,), (A,)): V[B][A] for B in range(N) for A in range(N)})

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
