from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from support import bareiss_det, bareiss_kernel, bareiss_rank, bareiss_rref, bareiss_solve, rref
from subsym.linalg import det, integer_kernel, rank, solve
from subsym.scalars import RZERO, rat

RAT = type(RZERO)


def M(rows):
    return [[rat(x) for x in r] for r in rows]


def unit_kernel(rows, ncols):
    """`integer_kernel` as dense rational vectors, each divided by its entry
    at its free column (its largest), the form the oracles return."""
    return [[rat(v.get(j, 0), v[max(v)]) for j in range(ncols)] for v in integer_kernel(rows, ncols)]


# -- the fraction-preserving Gauss-Jordan loop that Bareiss elimination replaced,
# kept as the reference the differential tests compare against ----------------


def oracle_rref(rows):
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        if piv != 1:
            m[r] = [x / piv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def oracle_kernel(rows, ncols):
    m, pivots = oracle_rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def oracle_det(rows):
    n = len(rows)
    m = [list(r) for r in rows]
    d = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d = d * m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return d


# -- unit cases ------------------------------------------------------------------


def test_identity_rank():
    assert rank(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_nonsingular_homogeneous():
    sol = solve(M([[1, 1], [3, 2]]), [RZERO, RZERO])
    assert sol is not None
    x, kern = sol
    assert x == [RZERO, RZERO] and not kern


def test_rank_deficient():
    assert rank(M([[1, 1], [2, 2]])) == 1


def test_inconsistent_is_none_not_exception():
    assert solve(M([[1, 1], [2, 2]]), [rat(1), rat(3)]) is None


def test_kernel():
    kern = unit_kernel(M([[1, 1, 0], [0, 0, 1]]), 3)
    assert len(kern) == 1
    v = kern[0]
    assert v[0] + v[1] == 0 and v[2] == 0


def test_solution_with_kernel():
    sol = solve(M([[1, 1]]), [rat(2)])
    assert sol is not None
    x, kern = sol
    assert len(kern) == 1
    assert x[0] + x[1] == 2


def test_det_small():
    assert det([[rat(1, 2), rat(1, 3)], [rat(1, 4), rat(1, 5)]]) == rat(1, 60)
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 2], [2, 4]]) == 0
    assert det([]) == 1
    assert det(M([[0, 1], [1, 0]])) == -1 and type(det(M([[2]]))) is RAT


mats = st.lists(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=2, max_size=4
)


@settings(max_examples=30, deadline=None)
@given(mats)
def test_rank_equals_transpose_rank(rows):
    assert rank(M(rows)) == rank(M(zip(*rows)))


@settings(max_examples=30, deadline=None)
@given(mats)
def test_rank_nullity(rows):
    m = M(rows)
    assert rank(m) + len(integer_kernel(m, 3)) == 3


# -- differential tests against the reference loop -------------------------------

fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
)


@st.composite
def exact_matrices(draw, square=False):
    """Matrices of rational entries, with zero rows and columns and dependent
    rows mixed in."""
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 6))

    def entry():
        return rat(draw(fractions))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [entry() * 0 for _ in range(ncols)]
    if draw(st.booleans()):
        c = draw(st.integers(0, ncols - 1))
        for r in rows:
            r[c] = r[c] * 0
    if nrows > 1 and draw(st.booleans()):
        # a dependent row: a combination of two others
        a, b = draw(st.integers(0, nrows - 2)), draw(st.integers(0, nrows - 2))
        s, t = entry(), entry()
        rows[-1] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    return rows


@settings(max_examples=200, deadline=None)
@given(exact_matrices())
def test_rref_matches_reference(rows):
    red, pivots = rref(rows)
    ref_red, ref_pivots = oracle_rref(rows)
    assert pivots == ref_pivots
    assert red == ref_red
    assert all(type(x) is RAT for r in red for x in r)


@settings(max_examples=200, deadline=None)
@given(exact_matrices())
def test_rank_and_kernel_match_reference(rows):
    ncols = len(rows[0])
    assert rank(rows) == len(oracle_rref(rows)[1])
    assert unit_kernel(rows, ncols) == oracle_kernel(rows, ncols)


@settings(max_examples=200, deadline=None)
@given(exact_matrices(square=True))
def test_det_matches_reference(rows):
    assert det(rows) == oracle_det(rows)


def test_weight_zero_block_3_6():
    from subsym.decompose import _contraction_matrix, weight_block

    block = weight_block(3, 6, (0,) * 6)
    rows = _contraction_matrix(block)
    assert len(rows) == 102 and len(block) == 186
    assert all(type(x) is int and 0 <= j < 186 for r in rows for j, x in r.items())
    assert sum(map(len, rows)) == 612
    dense = [[rat(r.get(j, 0)) for j in range(186)] for r in rows]
    assert rank(rows) == rank(dense) == 91
    kern = unit_kernel(dense, len(block))
    assert len(kern) == 95
    assert unit_kernel(rows, len(block)) == kern
    assert (rref(dense), kern) == (oracle_rref(dense), oracle_kernel(dense, len(block)))


def test_isotypic_table_3_6():
    from subsym.decompose import isotypic_table

    assert isotypic_table(3, 6) == {(3,): 2695, (2, 1): 3675, (1, 1, 1): 175}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=1, max_size=5))
def test_rank_takes_int_rows(rows):
    # integer rows, as the class-sum images in decompose are, rank as their rationals do
    assert rank(rows) == len(oracle_rref([[Fraction(x) for x in r] for r in rows])[1])


def test_rank_int_rows_fixed():
    assert rank([[2, 4, 0], [1, 2, 0], [0, 0, 3], [0, 0, 0]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0


# -- differential tests against the dense Bareiss loop the sparse routine replaced ---


@st.composite
def int_or_rational_matrices(draw, square=False):
    """Dense or sparse matrices of integer or rational entries, with dependent
    rows mixed in; returned with the same rows as {col: value} maps."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 7))
    zero_weight = draw(st.sampled_from([0, 1, 4]))  # dense to 1-in-5 sparse
    integral = draw(st.booleans())
    # integer matrices keep plain ints, as the rows of decompose do
    nonzero = st.integers(-5, 5) if integral else st.builds(rat, st.integers(-6, 6), st.integers(1, 6))
    entry = st.one_of(*[st.just(0)] * zero_weight, nonzero)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 2 and draw(st.booleans()):
        a, b = draw(st.integers(0, nrows - 2)), draw(st.integers(0, nrows - 2))
        s, t = draw(nonzero), draw(nonzero)
        rows[-1] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    return rows, [{j: x for j, x in enumerate(r) if x} for r in rows]


@settings(max_examples=300, deadline=None)
@given(int_or_rational_matrices())
def test_sparse_routine_matches_bareiss(pair):
    rows, sparse = pair
    ncols = len(rows[0])
    assert rank(rows) == rank(sparse) == bareiss_rank(rows)
    assert rref(rows) == bareiss_rref(rows)
    kern = bareiss_kernel(rows, ncols)
    assert unit_kernel(rows, ncols) == unit_kernel(sparse, ncols) == kern
    for v in integer_kernel(sparse, ncols):
        assert v[max(v)] > 0 and gcd(*v.values()) == 1 and all(type(x) is int for x in v.values())


@settings(max_examples=200, deadline=None)
@given(int_or_rational_matrices(), st.data())
def test_solve_matches_bareiss(pair, data):
    rows, _ = pair
    ncols = len(rows[0])
    entries = st.integers(-4, 4).map(rat)
    if data.draw(st.booleans()):
        # consistent by construction: b = M x0
        x0 = [data.draw(entries) for _ in range(ncols)]
        b = [sum((a * x for a, x in zip(r, x0)), RZERO) for r in rows]
    else:
        b = [data.draw(entries) for _ in rows]
    sol = solve(rows, b)
    assert sol == bareiss_solve(rows, b)
    if sol is not None:
        x, kern = sol
        for v in [x] + kern:
            rhs = b if v is x else [RZERO] * len(rows)
            assert [sum((a * y for a, y in zip(r, v)), RZERO) for r in rows] == rhs


@settings(max_examples=100, deadline=None)
@given(int_or_rational_matrices())
def test_solve_detects_an_inconsistent_system(pair):
    rows, _ = pair
    # a copy of the first row with a different right-hand side
    rows = rows + [list(rows[0])]
    b = [RZERO] * (len(rows) - 1) + [rat(1)]
    assert solve(rows, b) is None and bareiss_solve(rows, b) is None


@settings(max_examples=300, deadline=None)
@given(int_or_rational_matrices(square=True), st.data())
def test_det_matches_bareiss_with_sign(pair, data):
    rows, _ = pair
    d = det(rows)
    assert d == bareiss_det(rows)
    n = len(rows)
    if n > 1:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        swapped = list(rows)
        swapped[i], swapped[j] = rows[j], rows[i]
        assert det(swapped) == (d if i == j else -d) == bareiss_det(swapped)
