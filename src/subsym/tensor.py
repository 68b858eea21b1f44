"""Sparse tensors over Q^N with an upper and a lower index group.

One type serves the ambient column-symmetric tensors V^{B_1..B_d}_{A_1..A_d}
and the mixed tensors of (V (x) V*)^(x)k: entries are keyed by (upper tuple,
lower tuple), column i being the slot pair (U[i], L[i]), and zero entries are
never stored.  A tensor of V^(x)k alone has empty lower tuples.

Permutations are tuples of 0-based images (p[i] is where position i is
sent) and move index positions by result[p(i)] = t[i]; every move is the
one private action `_moved` of an element {perm: coeff}.  A column-symmetric
tensor is fixed by one value per column orbit, the multiset of its columns;
`column_orbits` is the one read of that form, which the symmetrization, the
symbol extraction, D_V and the highest-weight vectors share.  `sl_basis`
gives sl(N) as one-column tensors V^B_A.  This module loads `scalars` only, so the
ambient, boundary, symbol and decomposition sides all load it without
loading each other.
"""

from __future__ import annotations

import itertools
from math import factorial, lcm, prod
from operator import itemgetter

from .scalars import RONE, accumulate, rat


def invert_perm(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_sign(p):
    """(-1)^(number of inversions)."""
    return -1 if sum(x > y for x, y in itertools.combinations(p, 2)) % 2 else 1


def stabilizer_order(cols) -> int:
    """prod mult! over the distinct entries of cols: the permutations fixing
    cols, which has len(cols)!/stabilizer_order(cols) distinct orderings."""
    return prod(factorial(cols.count(c)) for c in set(cols))


def _integers(values: dict):
    """(den, {key: int}) with values[key] = int / den, den the lcm of the
    denominators; a value that is not a rational raises TypeError."""
    try:
        den = lcm(*(v.denominator for v in values.values()))
    except AttributeError:
        raise TypeError("tensor entries must be rationals") from None
    return den, {key: v.numerator * (den // v.denominator) for key, v in values.items()}


class SparseTensor:
    """Tensor T^{U}_{L} with k columns over Q^N, stored sparsely."""

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
                w = get(swapped)  # shared rationals are equal by identity
                if w is not v and w != v:
                    return False
        return True

    def column_orbits(self):
        """(den, {sorted columns: int}): the column symmetrization Sym T, an int
        over den at the key of each orbit whose columns (U[i], L[i]) are
        sorted, orbits where it vanishes left out.  Sym T there is the mean of
        T over the k!/stabilizer_order orderings, so each orbit's numerators
        are summed once and scaled by stabilizer_order over den = the entry
        denominator times k!.  Upper and lower tuples of unequal length raise
        ValueError."""
        den, values = _integers(self.entries)
        sums = {}  # sorted columns -> summed numerator
        for (U, L), v in values.items():
            cols = tuple(sorted(zip(U, L, strict=True)))
            sums[cols] = sums.get(cols, 0) + v
        return den * factorial(self.k), {cols: s * stabilizer_order(cols) for cols, s in sums.items() if s}

    def symmetrized(self) -> "SparseTensor":
        """Average over simultaneous permutations of the columns: each orbit's
        value of column_orbits, written at every distinct ordering."""
        den, orbits = self.column_orbits()
        out = {}
        for cols, w in orbits.items():
            mean = rat(w, den)
            for ordered in dict.fromkeys(itertools.permutations(cols)):
                out[tuple(c[0] for c in ordered), tuple(c[1] for c in ordered)] = mean
        return SparseTensor(self.k, self.N, out)

    def _moved(self, element, upper, lower) -> "SparseTensor":
        """sum_p element[p] p, each p moving the upper and/or the lower
        positions.  Entries and coefficients are summed as integer numerators,
        over one common denominator for each, and made rational once per
        distinct result numerator."""
        den, values = _integers(self.entries)
        cden, coeffs = _integers(element)
        out = {}
        get = out.get
        for p, c in coeffs.items():
            # result[p(i)] = t[i] reads t at the inverse; one column has only
            # the identity, and itemgetter of one index gives no tuple
            move = itemgetter(*invert_perm(p)) if self.k > 1 else tuple
            for (U, L), v in values.items():
                key = (move(U) if upper else U, move(L) if lower else L)
                out[key] = get(key, 0) + v * c
        return SparseTensor.from_integers(self.k, self.N, den * cden, out)

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

    def nonzero_contractions(self) -> list:
        """The slot pairs (p, q), in order, whose contraction of upper slot p
        against lower slot q is nonzero: every contraction summed at once on
        the integer numerators of the entries."""
        _, values = _integers(self.entries)
        sums = {}  # (p, q, contracted key) -> summed numerator
        for (U, L), v in values.items():
            for p, u in enumerate(U):
                for q, low in enumerate(L):
                    if u == low:
                        key = (p, q, U[:p] + U[p + 1 :], L[:q] + L[q + 1 :])
                        sums[key] = sums.get(key, 0) + v
        nonzero = {key[:2] for key, s in sums.items() if s}
        return [(p, q) for p in range(self.k) for q in range(self.k) if (p, q) in nonzero]

    def is_trace_free(self) -> bool:
        """Every contraction of an upper with a lower slot vanishes."""
        return not self.nonzero_contractions()

    # -- constructors --------------------------------------------------------
    @staticmethod
    def from_integers(k, N, den, numerators: dict) -> "SparseTensor":
        """The tensor with entries numerators[key] / den, zeros left out; one
        rational per distinct numerator, shared by its entries."""
        rationals = {s: rat(s, den) for s in set(numerators.values()) if s}
        return SparseTensor(k, N, {key: rationals[s] for key, s in numerators.items() if s})

    @staticmethod
    def random(k, N, rng, bound, upper=None, lower=None, density=None) -> "SparseTensor":
        """Seeded small-integer tensor: a uniform integer in [-bound, bound] at
        every key of k upper values from `upper` and k lower values from
        `lower` (both range(N) by default), keys in product order with the
        upper tuple outermost.  With a density, each key first draws one
        rng.random() and is kept when that is below it.  lower=() gives a
        tensor of V^(x)k alone, with empty lower tuples."""
        upper = range(N) if upper is None else upper
        lower = range(N) if lower is None else lower
        lowers = list(itertools.product(lower, repeat=k)) if lower else [()]
        entries = {}
        for U in itertools.product(upper, repeat=k):
            for L in lowers:
                if density is None or rng.random() < density:
                    entries[U, L] = rat(rng.randint(-bound, bound))
        return SparseTensor(k, N, entries)


def sl_basis(N):
    """Standard basis of sl(N) as one-column tensors V^B_A keyed ((B,), (A,)):
    off-diagonal units and diagonal differences."""
    units = [{((B,), (A,)): RONE} for B in range(N) for A in range(N) if B != A]
    diffs = [{((B,), (B,)): RONE, ((B + 1,), (B + 1,)): -RONE} for B in range(N - 1)]
    return [SparseTensor(1, N, e) for e in units + diffs]
