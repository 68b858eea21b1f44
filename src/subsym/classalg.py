"""Symmetric-group combinatorics and the centre of the group algebra.

Permutations are tuples of 0-based images: p[i] is where position i is sent.
Composition is (p * q)(i) = p(q(i)).  Conjugacy classes are indexed by
partitions (weakly decreasing tuples).  A :class:`ClassElement` is a linear
combination of *averaged* class sums c_lambda = (1/|C_lambda|) sum_{s in
C_lambda} s; in this basis the product of two basis elements has
coefficients that are exact probabilities (the chance that a product of
uniformly drawn class members lands in a given class).

Two multiplication backends are provided and must agree: direct enumeration
(`class_multiply`, exact probabilities) and full group-algebra convolution of
class sums, counted in integers (`center_convolution`).  They share one
bilinear loop and differ only in the product of two basis elements.
Elements of the full group algebra C[S_k] are finitely supported maps
{perm: coeff}, multiplied by `convolve`.  The inverse and the sign of a
permutation are ``tensor``'s, which moves index positions by them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

from .report import CaseResults, VerificationReport
from .scalars import accumulate, rat

# ---------------------------------------------------------------------------
# permutations


def compose_perm(p, q):
    """(p*q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def cycle_type(p):
    """Cycle type as a weakly decreasing tuple (a partition of len(p))."""
    seen = [False] * len(p)
    cycles = []
    for i in range(len(p)):
        if seen[i]:
            continue
        j, ln = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            ln += 1
        cycles.append(ln)
    cycles.sort(reverse=True)
    return tuple(cycles)


def act_on_tuple(p, t):
    """Position action: result[p(i)] = t[i], matching e_{s.I} index relabeling."""
    out = [None] * len(t)
    for i, v in enumerate(t):
        out[p[i]] = v
    return tuple(out)


# ---------------------------------------------------------------------------
# partitions and conjugacy classes


@lru_cache(maxsize=None)
def partitions(k):
    """All partitions of k, in reverse-lexicographic (dominance-compatible) order."""
    if k == 0:
        return ((),)
    out = []

    def rec(rest, maxpart, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, prefix + [p])

    rec(k, k, [])
    return tuple(out)


def z_lambda(lam) -> int:
    """Centralizer order: prod_i i^{m_i} m_i!."""
    out = 1
    for part in set(lam):
        m = lam.count(part)
        out *= part**m * factorial(m)
    return out


def class_size(lam) -> int:
    return factorial(sum(lam)) // z_lambda(lam)


def conjugacy_classes(k):
    """List of (partition, class size); sizes sum to k!."""
    return [(lam, class_size(lam)) for lam in partitions(k)]


CLASS_ELEMENTS_MAX_K = 8


@lru_cache(maxsize=None)
def class_elements(k):
    """dict partition -> tuple of all permutations of that cycle type (k <= 8)."""
    if k > CLASS_ELEMENTS_MAX_K:
        raise ValueError(f"full class enumeration is capped at k = {CLASS_ELEMENTS_MAX_K}")
    buckets = {lam: [] for lam in partitions(k)}
    for p in itertools.permutations(range(k)):
        buckets[cycle_type(p)].append(p)
    return {lam: tuple(v) for lam, v in buckets.items()}


def class_representative(lam):
    """Canonical representative with consecutive cycles."""
    k = sum(lam)
    img = list(range(k))
    start = 0
    for part in lam:
        for i in range(part):
            img[start + i] = start + (i + 1) % part
        start += part
    return tuple(img)


# ---------------------------------------------------------------------------
# group algebra: elements are finitely supported maps {perm: coeff}


def convolve(a, b):
    """Product a * b of group-algebra elements: sum of a[p] b[q] over p q."""
    out = {}
    for p, cp in a.items():
        for q, cq in b.items():
            accumulate(out, compose_perm(p, q), cp * cq)
    return out


# ---------------------------------------------------------------------------
# class algebra elements


class ClassElement:
    """Element of Z(C[S_k]) in the averaged-class-sum basis."""

    __slots__ = ("k", "coeffs")

    def __init__(self, k, coeffs=None):
        self.k = k
        self.coeffs = {lam: c for lam, c in (coeffs or {}).items() if c}

    @staticmethod
    def basis(k, lam) -> "ClassElement":
        return ClassElement(k, {tuple(lam): rat(1)})

    @staticmethod
    def one(k) -> "ClassElement":
        return ClassElement.basis(k, (1,) * k)

    def __add__(self, other):
        assert self.k == other.k
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            accumulate(out, lam, c)
        return ClassElement(self.k, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = rat(c)
        return ClassElement(self.k, {lam: v * c for lam, v in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, ClassElement) and self.k == other.k and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = [f"({c})*C{list(lam)}" for lam, c in sorted(self.coeffs.items())]
        return " + ".join(parts)

    __repr__ = __str__


@lru_cache(maxsize=None)
def _basis_product_enumeration(k, lam, mu):
    """Probability vector for C_lam * C_mu by exhaustive enumeration.

    The product-class distribution is conjugation invariant, so one factor may
    be pinned to a fixed representative; enumeration then runs over the full
    second class.  Exact over |C_mu|.
    """
    rep = class_representative(lam)
    counts = {}
    elements = class_elements(k)[mu]
    for q in elements:
        t = cycle_type(compose_perm(rep, q))
        counts[t] = counts.get(t, 0) + 1
    total = len(elements)
    return {t: rat(c, total) for t, c in counts.items()}


@lru_cache(maxsize=None)
def _basis_product_convolution(k, lam, mu):
    """Oracle backend: literal convolution of the class sums of lam and mu,
    every element at coefficient 1, over all element pairs.  The product of
    the averaged class sums is that over |C_lam| |C_mu|, and its coefficient
    on an averaged class sum is the total mass of the class."""
    a, b = (dict.fromkeys(class_elements(k)[x], 1) for x in (lam, mu))
    counts = {}
    for p, c in convolve(a, b).items():
        accumulate(counts, cycle_type(p), c)
    pairs = len(a) * len(b)
    return {t: rat(c, pairs) for t, c in counts.items()}


def _class_product(u: ClassElement, v: ClassElement, basis_product) -> ClassElement:
    """Bilinear extension of ``basis_product(k, lam, mu)`` -> {tau: coeff}."""
    assert u.k == v.k
    out = {}
    for lam, cu in u.coeffs.items():
        for mu, cv in v.coeffs.items():
            for t, p in basis_product(u.k, lam, mu).items():
                accumulate(out, t, p * cu * cv)
    return ClassElement(u.k, out)


def class_multiply(u: ClassElement, v: ClassElement) -> ClassElement:
    """Product in Z(C[S_k]); basis products are exact probability mixtures,
    enumerated over one class for every k that ``class_elements`` admits."""
    return _class_product(u, v, _basis_product_enumeration)


def center_convolution(u: ClassElement, v: ClassElement) -> ClassElement:
    return _class_product(u, v, _basis_product_convolution)


# ---------------------------------------------------------------------------
# characters: Murnaghan-Nakayama


@lru_cache(maxsize=None)
def mn_character(lam, mu) -> int:
    """Irreducible character chi^lam on class mu via Murnaghan-Nakayama on
    beta-numbers b_i = lam_i + l - 1 - i (l = len(lam), 0-based i): removing
    a border strip of length r moves one b to a free b - r, with sign (-1) to
    the number of beta-numbers strictly between."""
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError("partitions must have equal size")
    if not lam:
        return 1
    r, rest = mu[0], mu[1:]
    ell = len(lam)
    beta = [part + ell - 1 - i for i, part in enumerate(lam)]
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            moved = sorted([c for c in beta if c != b] + [b - r], reverse=True)
            shape = tuple(part for i, c in enumerate(moved) if (part := c - (ell - 1 - i)))
            height = sum(b - r < c < b for c in beta)
            total += (-1) ** height * mn_character(shape, rest)
    return total


def hook_length_dim(lam) -> int:
    """Number of standard tableaux via the hook length formula (oracle)."""
    k = sum(lam)
    conj = conjugate_partition(lam)
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= (row - j) + (conj[j] - i) - 1
    return factorial(k) // prod


def conjugate_partition(lam):
    if not lam:
        return ()
    out = []
    for j in range(lam[0]):
        out.append(sum(1 for row in lam if row > j))
    return tuple(out)


def char_dim(lam) -> int:
    return mn_character(tuple(lam), (1,) * sum(lam))


# ---------------------------------------------------------------------------
# central idempotents


def central_idempotent(lam):
    """e_lam = (dim/k!) sum_s chi^lam(s) s; orthogonal idempotents summing to 1."""
    lam = tuple(lam)
    k = sum(lam)
    d = char_dim(lam)
    coeffs = {}
    for mu, elems in class_elements(k).items():
        c = rat(d * mn_character(lam, mu), factorial(k))
        if not c:
            continue
        for p in elems:
            coeffs[p] = c
    return coeffs


# ---------------------------------------------------------------------------
# CSV table of structure constants


def structure_constant_table(k):
    """dict (lam, mu) -> {tau: probability} over all basis pairs."""
    out = {}
    for lam in partitions(k):
        for mu in partitions(k):
            prod = class_multiply(ClassElement.basis(k, lam), ClassElement.basis(k, mu))
            out[(lam, mu)] = dict(prod.coeffs)
    return out


# ---------------------------------------------------------------------------
# the classalg suite


def _suite_classalg(rep: VerificationReport, k=5):
    def worked(name, u, v, expected):  # the worked tables
        product = class_multiply(u, v)
        rep.add(name, product == expected, f"computed {product}")

    x2 = ClassElement.basis(2, (2,))
    worked("k=2: x.x = 1", x2, x2, ClassElement.one(2))
    x = ClassElement.basis(3, (2, 1))
    y = ClassElement.basis(3, (3,))
    one = ClassElement.one(3)
    worked("k=3: x.x = (1+2y)/3", x, x, one.scale(rat(1, 3)) + y.scale(rat(2, 3)))
    worked("k=3: x.y = x", x, y, x)
    worked("k=3: y.y = (1+y)/2", y, y, one.scale(rat(1, 2)) + y.scale(rat(1, 2)))
    # oracle equivalence and probability structure
    for k in range(1, k + 1):
        table = structure_constant_table(k)
        rep.check(f"k={k}: enumeration == convolution on all basis pairs", CaseResults(
            [f"k={k} {lam}x{mu}" for (lam, mu), p in table.items()
             if p != center_convolution(ClassElement.basis(k, lam), ClassElement.basis(k, mu)).coeffs],
            len(table)))
        rep.check(f"k={k}: structure constants are probabilities", CaseResults(
            [f"k={k} {lam}x{mu}" for (lam, mu), p in table.items()
             if sum(p.values()) != 1 or not all(c > 0 for c in p.values())],
            len(table)))
        # k!/z_lambda against the enumerated classes, and the class equation
        sizes = conjugacy_classes(k)
        elems = class_elements(k)
        total = sum(s for _, s in sizes)
        rep.check(f"k={k}: class sizes k!/z sum to k!", CaseResults(
            [f"class {lam}: k!/z = {s}, enumerated {len(elems[lam])}" for lam, s in sizes if s != len(elems[lam])]
            + ([] if total == factorial(k) else [f"sizes sum to {total}"]),
            len(sizes)))
    return rep
