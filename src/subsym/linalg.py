"""Exact dense linear algebra over Q by fraction-free (Bareiss) elimination.

Each row is scaled by the lcm of its denominators, which keeps the row space,
so rank, pivots and the reduced row echelon form do not change.  One loop then
applies Bareiss's update a_ij <- (p * a_ij - a_ic * a_rj) / d, with p the
current pivot and d the previous one (E. H. Bareiss, Math. Comp. 22, 1968).
Every entry stays a minor of the scaled matrix, so the division is exact and
no fraction is formed until the end.  Entries are backend rationals or ints;
results are backend rationals.
"""

from __future__ import annotations

from math import lcm, prod

from .scalars import RONE, RZERO, rat


def _integral(rows):
    """Integer copies of `rows`, each scaled by the lcm of its denominators;
    returns (rows, scales)."""
    m, scales = [], []
    for r in rows:
        # most entries of the contraction blocks are zero
        s = lcm(*(int(q.denominator) for q in r if q))
        m.append([int(q.numerator) * (s // int(q.denominator)) if q else 0 for q in r])
        scales.append(s)
    return m, scales


def _eliminate(m, reduce):
    """Bareiss elimination of the integer rows `m`, in place.

    Forward only, unless `reduce` also clears the rows above each pivot
    (fraction-free Gauss-Jordan); then every pivot ends equal to the last one.
    Returns (pivot columns, last pivot, sign of the row permutation).
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots, d, sign, r = [], 1, 1, 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        rr = m[r]
        p = rr[c]
        for i in range(0 if reduce else r + 1, nrows):
            if i == r:
                continue
            ri = m[i]
            f = ri[c]
            # zeros are skipped, not computed; a row with f = 0 is still
            # rescaled by p/d so that its entries stay minors
            if f:
                m[i] = [(p * a - f * b) // d if a or b else a for a, b in zip(ri, rr)]
            elif p != d:
                m[i] = [p * a // d if a else a for a in ri]
        pivots.append(c)
        d = p
        r += 1
        if r == nrows:
            break
    return pivots, d, sign


def rref(rows):
    """Reduced row echelon form; returns (new rows, pivot column list)."""
    m, _ = _integral(rows)
    pivots, d, _ = _eliminate(m, reduce=True)
    return [[rat(x, d) if x else RZERO for x in r] for r in m], pivots


def rank(rows) -> int:
    m, _ = _integral(rows)
    return len(_eliminate(m, reduce=False)[0])


def det(rows):
    """Exact determinant of a square matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    m, scales = _integral(rows)
    pivots, d, sign = _eliminate(m, reduce=False)
    # the last pivot is the determinant of the row-permuted, row-scaled matrix
    return rat(sign * d if len(pivots) == n else 0, prod(scales))


def kernel_basis(rows, ncols=None):
    """Basis of the right null space {x : M x = 0} as a list of vectors."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    m, pivots = rref(rows)
    pivset = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        v = [RZERO] * ncols
        v[fc] = RONE
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def solve(rows, b):
    """Solve M x = b exactly.

    Returns (particular_solution, kernel_basis) or None when inconsistent.
    The solution is unique iff the kernel basis is empty.
    """
    if not rows:
        raise ValueError("empty system")
    ncols = len(rows[0])
    m, pivots = rref([list(r) + [bv] for r, bv in zip(rows, b)])
    # inconsistent iff a pivot lands in the augmented column
    if ncols in pivots:
        return None
    x = [RZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x, kernel_basis(rows, ncols)


def span_rank(vectors, ncols=None) -> int:
    """Rank of the span of a list of coordinate vectors.

    Entries may be plain ints as well as rationals: ints carry
    ``numerator`` and ``denominator``, so integer rows go to elimination as
    they are, with no rational wrapping.
    """
    vecs = [v for v in vectors if any(v)]
    return rank(vecs) if vecs else 0
