"""Exact linear algebra over Q by sparse integer elimination.

A row, a sequence or a {column: value} map of ints or rationals, becomes a
{column: int} map scaled by the lcm of its denominators, which keeps the row
space; zeros are never stored.  Rows are inserted one at a time against a map
of pivot rows: while the leading (least) column c of a row r holds a pivot row
p, r becomes b*r - a*p with a/b = r[c]/p[c] in lowest terms.  A row that
reaches a free leading column is divided by its content (the gcd of its
entries), which bounds coefficient growth, and stored.  Back-substitution
then gives the unique reduced form.  Results are rationals, except
for the primitive integer vectors of `integer_kernel`.
"""

from __future__ import annotations

from math import gcd, lcm, prod

from .scalars import RZERO, rat


def _int_row(row):
    """(row as {col: int} scaled by the lcm of its denominators, that lcm)."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    nz = [(j, q) for j, q in items if q]
    s = lcm(*(q.denominator for _, q in nz))
    return {j: q.numerator * (s // q.denominator) for j, q in nz}, s


def _clear(r, p, c):
    """(b*r - a*p, b) with a/b = r[c]/p[c] in lowest terms and p[c] > 0, so
    that column c drops out of r; r itself may be updated."""
    g = gcd(r[c], p[c])
    a, b = r[c] // g, p[c] // g
    if b != 1:
        r = {j: b * v for j, v in r.items()}
    for j, v in p.items():
        v = r.get(j, 0) - a * v
        if v:
            r[j] = v
        else:
            del r[j]
    return r, b


def _primitive(r, c):
    """(r over its content, signed so that r[c] > 0; that divisor)."""
    g = gcd(*r.values()) if r[c] > 0 else -gcd(*r.values())
    return (r if g == 1 else {j: v // g for j, v in r.items()}), g


def _echelon(rows):
    """Forward elimination of `rows`; returns (pivots, trail).

    ``pivots`` maps each pivot column to its stored row: primitive, with a
    positive entry at that column, its least.  ``trail[i]`` is (c, m, g) for
    the i-th row: its pivot column (None when it reduced to zero) and the
    integers with stored row = (m / g) * row i + (earlier rows).
    """
    pivots, trail = {}, []
    for row in rows:
        r, m = _int_row(row)
        g = 1
        while r:
            c = min(r)
            if c not in pivots:
                r, g = _primitive(r, c)
                pivots[c] = r
                break
            r, b = _clear(r, pivots[c], c)
            m *= b
        trail.append((c if r else None, m, g))
    return pivots, trail


def _reduced(rows):
    """The pivot rows of `rows` with each pivot column cleared from the others."""
    pivots = _echelon(rows)[0]
    # a later pivot row holds no earlier pivot column, so later rows go first
    for c in sorted(pivots, reverse=True):
        r = pivots[c]
        hits = [j for j in r if j != c and j in pivots]
        for j in hits:
            r = _clear(r, pivots[j], j)[0]
        if hits:
            pivots[c] = _primitive(r, c)[0]
    return pivots


def _kernel(pivots, ncols):
    """(f, primitive integer kernel vector, positive at f) for each free
    column f < ncols of the reduced `pivots`, in column order."""
    at = {}  # column -> the pivot columns whose rows hold it
    for c, r in pivots.items():
        for j in r:
            at.setdefault(j, []).append(c)
    for f in range(ncols):
        if f not in pivots:
            cs = at.get(f, ())
            s = lcm(*(pivots[c][c] for c in cs))
            v = {c: -pivots[c][f] * (s // pivots[c][c]) for c in cs}
            v[f] = s
            yield f, _primitive(v, f)[0]


def _rational(v, ncols, d):
    """The sparse integer vector v over d as a dense list of length ncols."""
    return [rat(v[j], d) if j in v else RZERO for j in range(ncols)]


def rank(rows) -> int:
    return len(_echelon(rows)[0])


def det(rows):
    """Exact determinant of a square matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    pivots, trail = _echelon(rows)
    if len(pivots) < n:
        return RZERO
    # in pivot-column order the stored rows are triangular, the pivots on the
    # diagonal; the row-to-pivot permutation gives the sign
    cols = [c for c, _, _ in trail]
    sign = (-1) ** sum(a > b for i, a in enumerate(cols) for b in cols[i + 1 :])
    return rat(sign * prod(pivots[c][c] * g for c, _, g in trail), prod(m for _, m, _ in trail))


def integer_kernel(rows, ncols):
    """Basis of the right null space {x : M x = 0}, one primitive integer
    vector {col: int} per free column, in column order.  A vector's free
    column is its largest, and its entry there is positive."""
    return [v for _, v in _kernel(_reduced(rows), ncols)]


def solve(rows, b):
    """Solve M x = b exactly.

    Returns (particular_solution, kernel basis) or None when inconsistent,
    each kernel vector equal to 1 at its free column.  The solution is unique
    iff the kernel basis is empty.  Both are read off one reduced form: with
    no pivot in the augmented column, its first ncols columns are the reduced
    form of M.
    """
    if not rows:
        raise ValueError("empty system")
    ncols = len(rows[0])
    pivots = _reduced([list(r) + [bv] for r, bv in zip(rows, b)])
    if ncols in pivots:
        return None
    x = [RZERO] * ncols
    for c, r in pivots.items():
        x[c] = rat(r.get(ncols, 0), r[c])
    return x, [_rational(v, ncols, v[f]) for f, v in _kernel(pivots, ncols)]
