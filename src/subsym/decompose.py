"""Tensor realization of the commutant and of the decomposition of S^k_0 sl(V).

Mixed tensors live in (V (x) V*)^(x)k with dim V = N.  Entries are keyed by a
pair of multi-indices (U, L): U indexes the vector factors, L the dual
factors.  Pair-symmetric tensors (invariant under simultaneous permutation of
the k (u, l) slot pairs) are stored compactly as vectors over the multisets of
(u, l) pairs of one weight block, sparse and with integer entries; a class
sum of S_k acts on them by scattering through one merged table per block and
class, ``_class_table``.

Everything here commutes with the diagonal torus, so all linear algebra is
done block-by-block over weight spaces; weights related by relabeling the N
basis values give isomorphic blocks, so only the block of each orbit's
dominant weight is built, and kernels are computed once per orbit.  Isotypic
ranks are traces read off the reduced kernels, with no elimination; the
class sums of every kernel vector are formed once, for the commutant checks.
The decomposition law is also checked with no S_k at all, as weight
multiplicities (Kostka numbers).  The commutant, decompose and hwvectors
suites, which check this layer, close the module.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from math import factorial, lcm, prod

from .classalg import (
    act_on_tuple,
    central_idempotent,
    char_dim,
    class_elements,
    class_representative,
    compose_perm,
    mn_character,
    partitions,
)
from .report import CaseResults, VerificationReport
from .scalars import RONE, RZERO, accumulate, rat
from .tensor import SparseTensor, invert_perm, sl_basis


# ---------------------------------------------------------------------------
# pair-symmetric tensors: weight orbits, their blocks and the S_k action


def multiset_weight(M, N):
    w = [0] * N
    for u, l in M:
        w[u] += 1
        w[l] -= 1
    return tuple(w)


def _perm_lower_multiset(M, sigma):
    U = tuple(x[0] for x in M)
    L = tuple(x[1] for x in M)
    return tuple(sorted(zip(U, act_on_tuple(sigma, L))))


@lru_cache(maxsize=None)
def weight_orbits(k, N):
    """Orbits of weights under value relabeling: canonical pattern ->
    (representative weight, number of weights in the orbit).  A pattern is a
    partition alpha of some p <= k, zeros, and minus a partition beta of p,
    len(alpha) + len(beta) <= N (k - p diagonal pairs make up the rest); it is
    its own representative, and the orbit size is a multinomial."""
    orbits = {}
    for p in range(k + 1):
        for alpha, beta in itertools.product(partitions(p), repeat=2):
            if len(alpha) + len(beta) <= N:
                pat = alpha + (0,) * (N - len(alpha) - len(beta)) + tuple(-b for b in reversed(beta))
                orbits[pat] = (pat, factorial(N) // prod(factorial(pat.count(x)) for x in set(pat)))
    return orbits


@lru_cache(maxsize=None)
def weight_block(k, N, weight):
    """The sorted multisets of k pairs over range(N)^2 with the given weight,
    in order: the positive and the negative entries, both with the same
    k - p diagonal values added, give the upper and the lower values, and
    every distinct ordering of the lower values meets the sorted upper ones."""
    upper = [x for x in range(N) for _ in range(max(weight[x], 0))]
    lower = [x for x in range(N) for _ in range(max(-weight[x], 0))]
    out = set()
    for extra in itertools.combinations_with_replacement(range(N), k - len(upper)):
        U = sorted(upper + list(extra))
        out.update(tuple(sorted(zip(U, L))) for L in set(itertools.permutations(lower + list(extra))))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _class_table(k, N, weight, tau):
    """The class sum K_tau on one weight block, merged over the class:
    ``table[i]`` holds the pairs (j, m), m the number of sigma in the class
    with M_j^sigma = M_i (lower indices permuted), so the pullback
    v -> sum_sigma v[index of M^sigma] of a block vector v is scattered from
    the support of v.  M -> M^sigma acts on sorted representatives and is not
    a bijection of the block, so an index may have several preimages or
    none.  Only the lower group is needed: on a multiset, moving the upper
    indices by sigma is moving the lower ones by sigma^-1, in the same class.
    """
    block = weight_block(k, N, weight)
    index = {M: j for j, M in enumerate(block)}
    table = [{} for _ in block]
    for sigma in class_elements(k)[tau]:
        for j, M in enumerate(block):
            row = table[index[_perm_lower_multiset(M, sigma)]]
            row[j] = row.get(j, 0) + 1
    return tuple(tuple(row.items()) for row in table)


def _scatter(table, v, c=1):
    """c K v for the class table of K and the sparse block vector v
    ({index: value}); entries that cancel to zero are kept."""
    out = {}
    for i, x in v.items():
        x *= c
        for j, m in table[i]:
            out[j] = out.get(j, 0) + m * x
    return out


# ---------------------------------------------------------------------------
# trace-free symmetric subspace, block by block


def _contraction_columns(M):
    """Sparse contraction data of the basis indicator at multiset M, as
    distinct (target, coefficient) pairs: targets ('d', R) with coefficient 1
    from removing a diagonal pair (x, x), and targets ('c', i, j, R) whose
    coefficient counts the x with M = {(x,j),(i,x)} u R.
    """
    out = []
    seen_diag = set()
    for idx, (u, l) in enumerate(M):
        if u == l and (u, l) not in seen_diag:
            seen_diag.add((u, l))
            out.append((("d", M[:idx] + M[idx + 1 :]), 1))
    cross = {}
    n = len(M)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            e1, e2 = M[a], M[b]
            if e1[0] != e2[1]:
                continue
            x = e1[0]
            i, j = e2[0], e1[1]
            keep = tuple(M[t] for t in range(n) if t != a and t != b)
            cross.setdefault((i, j, keep), set()).add(x)
    return out + [(("c",) + key, len(xs)) for key, xs in sorted(cross.items())]


def _contraction_matrix(block):
    """Sparse integer matrix of all contractions on one weight block: one
    {column: int} row per contraction target, in sorted target order, one
    column per block multiset."""
    rows = {}
    for j, M in enumerate(block):
        for key, cnt in _contraction_columns(M):
            rows.setdefault(key, {})[j] = cnt
    return [rows[key] for key in sorted(rows)]


@lru_cache(maxsize=None)
def trace_free_block_kernel(k, N, weight):
    """Kernel basis of all contractions on one weight block.

    Returns (block multisets, kernel vectors), each vector a primitive
    integer vector {block index: int}.  The vectors are shared through the
    cache, so callers only read them.
    """
    from . import linalg

    block = weight_block(k, N, weight)
    return block, tuple(linalg.integer_kernel(_contraction_matrix(block), len(block)))


def trace_free_dimension(k, N) -> int:
    """dim S^k_0 sl(N) via per-orbit kernel ranks."""
    return sum(cnt * len(trace_free_block_kernel(k, N, w)[1]) for w, cnt in weight_orbits(k, N).values())


def _orbit_kernels(k, N):
    """(weight, orbit size, kernel vectors) for every weight-orbit
    representative whose trace-free kernel is nonzero."""
    orbits = weight_orbits(k, N).values()
    return [(w, cnt, kern) for w, cnt in orbits if (kern := trace_free_block_kernel(k, N, w)[1])]


@lru_cache(maxsize=None)
def _class_traces(k, N):
    """{mu: tr(K_mu | S^k_0)}, K_mu the unnormalised class sum, exact.  The
    reduced kernel vector v_f is positive at its free column f, its largest,
    where the other kernel vectors are zero, so its coefficient in K_mu v_f
    is sum_{sigma in mu} v_f[index of M_f^sigma] / v_f[f]; isomorphic blocks
    count the representative's trace once per weight of its orbit."""
    classes = class_elements(k)
    sums = {}  # (mu, v_f[f]) -> integer sum of the orbit-weighted lookups
    for w, cnt, rows in _orbit_kernels(k, N):
        block = weight_block(k, N, w)
        index = {M: j for j, M in enumerate(block)}
        for v in rows:
            f = max(v)
            for mu, perms in classes.items():
                hits = sum(v.get(index[_perm_lower_multiset(block[f], s)], 0) for s in perms)
                sums[mu, v[f]] = sums.get((mu, v[f]), 0) + cnt * hits
    traces = dict.fromkeys(classes, RZERO)
    for (mu, d), n in sums.items():
        traces[mu] += rat(n, d)
    return traces


def isotypic_rank(lam, k, N):
    """Rank of the central idempotent e_lam on the trace-free symmetric space:
    its trace (dim lam / k!) sum_mu chi^lam(mu) tr(K_mu), an int when that is
    an integer and otherwise the rational itself, never rounded."""
    lam = tuple(lam)
    traces = _class_traces(k, N)
    r = rat(char_dim(lam), factorial(k)) * sum(mn_character(lam, mu) * t for mu, t in traces.items())
    return r.numerator if r.denominator == 1 else r


def isotypic_table(k, N):
    """dict partition -> isotypic rank."""
    return {lam: isotypic_rank(lam, k, N) for lam in partitions(k)}


# ---------------------------------------------------------------------------
# Weyl dimension formula and highest weights


def weyl_dim(weight, N) -> int:
    """prod_{i<j} (mu_i - mu_j + j - i)/(j - i) for a weakly decreasing tuple."""
    mu = list(weight)
    if len(mu) < N:
        raise ValueError("weight must have N entries (pad with zeros)")
    if any(mu[i] < mu[i + 1] for i in range(N - 1)):
        raise ValueError("weight must be weakly decreasing")
    num = 1
    den = 1
    for i in range(N):
        for j in range(i + 1, N):
            num *= mu[i] - mu[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"Weyl dimension {rat(num, den)} is not an integer")
    return q


def lambda_plus_dual(lam, N):
    """Highest weight lambda - w0(lambda) of the Cartan product with the dual."""
    lam = tuple(lam)
    if len(lam) > N:
        raise ValueError("partition is deeper than N")
    padded = list(lam) + [0] * (N - len(lam))
    return tuple(padded[i] - padded[N - 1 - i] for i in range(N))


def isotypic_dim(lam, N) -> int:
    """Dimension of the lambda piece of S^k_0 sl(N): V(lambda + lambda*) when
    2*depth(lambda) <= N, and 0 otherwise (Benkart, Chakrabarti, Halverson,
    Leduc, Lee and Stroomer, J. Algebra 166 (1994))."""
    return weyl_dim(lambda_plus_dual(lam, N), N) if 2 * len(lam) <= N else 0


@lru_cache(maxsize=None)
def kostka(shape, content) -> int:
    """Number of semistandard tableaux of a shape with a content, both tuples
    of nonnegative integers: the boxes holding the largest entry form a
    horizontal strip, so K(shape, content) is the sum of K(nu, content[:-1])
    over the nu with shape[i+1] <= nu[i] <= shape[i] and |shape| - |nu| =
    content[-1]."""
    if not content:
        return int(not any(shape))
    size = content[-1]
    ranges = [range(max(low, top - size), top + 1) for top, low in zip(shape, shape[1:] + (0,))]
    return sum(kostka(nu, content[:-1]) for nu in itertools.product(*ranges) if sum(shape) - sum(nu) == size)


def weight_multiplicity_check(k, N):
    """The decomposition law as a module statement, with no S_k: for every
    representative mu of ``weight_orbits`` the trace-free kernel of mu's block
    has the size of the mu weight space of the sum of V(lambda + lambda*)
    over lambda |- k with 2*depth(lambda) <= N, sum_lambda K(lambda + lambda*
    + c, mu + c) with c = k making the entries nonnegative.  Returns
    CaseResults of the failing weights; ``cases`` counts the orbits."""
    shapes = [tuple(x + k for x in lambda_plus_dual(lam, N)) for lam in partitions(k) if 2 * len(lam) <= N]
    orbits = weight_orbits(k, N)
    bad = []
    for w, _ in orbits.values():
        size = len(trace_free_block_kernel(k, N, w)[1])
        mult = sum(kostka(shape, tuple(x + k for x in w)) for shape in shapes)
        if size != mult:
            bad.append(f"weight {w}: kernel {size}, multiplicity {mult}")
    return CaseResults(bad, len(orbits))


# ---------------------------------------------------------------------------
# highest weight vectors and skew vanishing


def highest_weight_vector(lam, N):
    """Pair-symmetrized p_lam(e_lam) (x) eps^lam, as a dict multiset -> coeff:
    the column orbits of the tensor whose vector factors the idempotent
    permutes, each the value of the actual pair symmetrization and of the
    weight lambda_plus_dual(lam, N) (the hwvectors suite checks it).

    The construction requires 2*depth(lam) <= N so that the vector and dual
    index values are disjoint.
    """
    lam = tuple(lam)
    m = len(lam)
    if 2 * m > N:
        raise ValueError("construction needs 2*depth(lambda) <= N")
    U0 = tuple(i for i, part in enumerate(lam) for _ in range(part))
    L0 = tuple(N - 1 - i for i, part in enumerate(lam) for _ in range(part))
    image = SparseTensor(len(U0), N, {(U0, L0): RONE}).act(central_idempotent(lam), upper=True)
    den, orbits = image.column_orbits()
    return {M: rat(w, den) for M, w in orbits.items()}


def skew_vanishing_check(lam, k, N, trials=5, seed=0):
    """Skew-symmetrizing the e_lam image in depth(lam)+1 slots is 0.

    The image of e_lam is the lambda-isotypic part of the k-th tensor power,
    whose GL(N) pieces all have depth(lam) rows, and alternating depth+1
    slots maps it into pieces of depth at least depth+1.  Exact check;
    returns CaseResults of the failing "trial t, slots s".
    """
    lam = tuple(lam)
    if sum(lam) != k:
        raise ValueError("lambda must be a partition of k")
    depth = len(lam)
    if depth + 1 > k:
        raise ValueError("need depth(lambda)+1 <= k")
    rng = random.Random(seed)
    proj = central_idempotent(lam)
    slot_sets = list(itertools.combinations(range(k), depth + 1))
    bad = []
    for t in range(trials):
        image = SparseTensor.random(k, N, rng, 3, lower=()).act(proj, upper=True)
        bad += [f"trial {t}, slots {slots}" for slots in slot_sets if image.skew_slots(slots)]
    return CaseResults(bad, trials * len(slot_sets))


# ---------------------------------------------------------------------------
# C_s operators on the full tensor space


def apply_c_s(s, T: SparseTensor) -> SparseTensor:
    """Action of C_s on a mixed tensor.

    Follows the index bookkeeping of the defining identification: for a basis
    element with dual index I (epsilon side) and vector index J, the auxiliary
    index L is pinned by L[2m+1] = J[m] and L[s^{-1}(2m+1)] = I[m]; the output
    reads the epsilon part off even slots of L and the vector part off
    s^{-1}(even) slots.  Free slots are summed over range(N).
    """
    k, N = T.k, T.N
    sinv = invert_perm(s)
    out = {}
    for (U, L_dual), v in T.entries.items():
        # in the defining identification: I = dual index, J = vector index
        I, J = L_dual, U
        slots = [None] * (2 * k)
        ok = True
        for m in range(k):
            slots[2 * m + 1] = J[m]
        for m in range(k):
            pos = sinv[2 * m + 1]
            if slots[pos] is None:
                slots[pos] = I[m]
            elif slots[pos] != I[m]:
                ok = False
                break
        if not ok:
            continue
        free = [p for p in range(2 * k) if slots[p] is None]
        for assign in itertools.product(range(N), repeat=len(free)):
            full = list(slots)
            for p, val in zip(free, assign):
                full[p] = val
            P = tuple(full[2 * m] for m in range(k))          # new epsilon index
            Q = tuple(full[sinv[2 * m]] for m in range(k))    # new vector index
            accumulate(out, (Q, P), v)
    return SparseTensor(k, N, out)


def ad_conjugate(sigma, s):
    """Ad_sigma(s) = sigma s sigma^{-1} in S_2k."""
    return compose_perm(compose_perm(sigma, s), invert_perm(sigma))


def embed_even(sig, k):
    """Embed sigma in S_2k permuting the vector-factor (odd 0-based) slots."""
    out = list(range(2 * k))
    for m in range(k):
        out[2 * m + 1] = 2 * sig[m] + 1
    return tuple(out)


def embed_odd(sig, k):
    out = list(range(2 * k))
    for m in range(k):
        out[2 * m] = 2 * sig[m]
    return tuple(out)


def interchanging_reps(k):
    """One interchanging s in S_2k per class lam: s swaps the two slot
    parities, and sigma_2 o sigma_1, read off its even and odd slots, has
    cycle type lam."""
    reps = {}
    for lam in partitions(k):
        sig = class_representative(lam)
        # choose sigma_1 = id, sigma_2 = sig: s(2m) = 2m+1, s(2m+1) = 2*sig(m)
        s = [None] * (2 * k)
        for m in range(k):
            s[2 * m] = 2 * m + 1
            s[2 * m + 1] = 2 * sig[m]
        reps[lam] = tuple(s)
    return reps


def conjugation_lemmas_check(k, N, seed=0, samples=4):
    """Ad-conjugation behaviour of C_s under the two parity subgroups.

    For sigma permuting the vector slots the conjugated operator agrees with
    the original after relabeling both inputs; for sigma permuting the dual
    slots the outputs are relabeled.  Exact check on sampled basis elements
    and on a random symmetrized tensor; returns CaseResults of the failing
    lemma labels.
    """
    rng = random.Random(seed)
    reps = interchanging_reps(k)
    perms = list(itertools.permutations(range(k)))
    basis = [
        SparseTensor(
            k,
            N,
            {
                (
                    tuple(rng.randrange(N) for _ in range(k)),
                    tuple(rng.randrange(N) for _ in range(k)),
                ): rat(1)
            },
        )
        for _ in range(samples)
    ]
    T_sym = SparseTensor.random(k, N, rng, 2).symmetrized()

    results = []
    for lam, s in reps.items():
        for sig in perms:
            s_even = ad_conjugate(embed_even(sig, k), s)
            s_odd = ad_conjugate(embed_odd(sig, k), s)
            results += [
                # even lemma: inputs relabeled by sigma on both index groups
                (f"even lemma s~{lam} sigma={sig}",
                 all(apply_c_s(s_even, E.permuted(sig)) == apply_c_s(s, E) for E in basis)),
                # odd lemma: outputs relabeled by sigma on both index groups
                (f"odd lemma s~{lam} sigma={sig}",
                 all(apply_c_s(s_odd, E) == apply_c_s(s, E).permuted(sig) for E in basis)),
                # conjugation by the even subgroup does not change the action
                # on symmetric tensors
                (f"even same-on-symmetric s~{lam} sigma={sig}",
                 apply_c_s(s_even, T_sym) == apply_c_s(s, T_sym)),
            ]
    return CaseResults([label for label, ok in results if not ok], len(results))


# ---------------------------------------------------------------------------
# commutant multiplication cross-check


@lru_cache(maxsize=None)
def _kernel_class_sums(k, N):
    """(weight, [{tau: K_tau v} for each kernel vector v]) for every
    weight-orbit representative with a nonzero trace-free kernel: the class
    sums of every kernel vector, formed once per (k, N) and shared by the
    cross-check and the operator rank, which only read them."""
    out = []
    for w, _, rows in _orbit_kernels(k, N):
        tables = {tau: _class_table(k, N, w, tau) for tau in class_elements(k)}
        sums = [{tau: {j: x for j, x in _scatter(t, v).items() if x} for tau, t in tables.items()} for v in rows]
        out.append((w, sums))
    return out


def commutant_mult_crosscheck(k, N, class_product):
    """Check op_{lam} o op_{mu} = sum_tau A_tau op_tau on S^k_0, exactly.

    ``class_product(lam, mu)`` must return the structure constants {tau: A}.
    Equality is verified on a kernel basis of every weight-orbit
    representative, which certifies it on all of S^k_0 by equivariance.

    With K_tau = |C_tau| op_tau the unnormalised class sums, both sides are
    multiplied by |C_lam||C_mu| and by one common integer D per pair:
    D K_lam K_mu v = sum_tau (D |C_lam||C_mu| A_tau / |C_tau|) K_tau v, an
    equality of integer vectors on the integer kernel vectors v, checked as
    one integer accumulation of the difference that must come out all zero.
    The p(k) class sums of each kernel vector serve all p(k)^2 pairs.
    Returns CaseResults of the failing pairs "(lam, mu)", in pair order;
    ``cases`` counts the kernel vectors examined.
    """
    elems = class_elements(k)
    scaled = {}
    for lam, mu in itertools.product(partitions(k), repeat=2):
        size = len(elems[lam]) * len(elems[mu])
        coeffs = {tau: rat(size) * a / len(elems[tau]) for tau, a in class_product(lam, mu).items()}
        D = lcm(*(c.denominator for c in coeffs.values()))
        scaled[(lam, mu)] = (D, [(tau, int(c * D)) for tau, c in coeffs.items()])
    bad = set()
    cases = 0
    for w, sums in _kernel_class_sums(k, N):
        tables = {lam: _class_table(k, N, w, lam) for lam in elems}
        for K in sums:
            cases += 1
            for (lam, mu), (D, ints) in scaled.items():
                if (lam, mu) not in bad:
                    acc = _scatter(tables[lam], K[mu], D)
                    for tau, c in ints:
                        for j, x in K[tau].items():
                            acc[j] = acc.get(j, 0) - c * x
                    if any(acc.values()):
                        bad.add((lam, mu))
    return CaseResults([str(pair) for pair in scaled if pair in bad], cases)


def basis_operator_rank(k, N):
    """Rank of the span of the p(k) commutant basis operators on S^k_0;
    returns (rank, cases), cases being the kernel vectors examined.

    Each operator is flattened to its integer class sums on the integer
    kernel vectors of every weight-orbit representative.  The class sizes
    scale whole operators, so the rank is that of the averaged operators on
    the kernel basis.
    """
    from . import linalg

    flat = {lam: {} for lam in partitions(k)}
    cases = 0
    for _, sums in _kernel_class_sums(k, N):
        for K in sums:
            cases += 1
            for lam, image in K.items():
                flat[lam].update(((cases, j), x) for j, x in image.items())
    return linalg.rank(list(flat.values())), cases


# ---------------------------------------------------------------------------
# the seven pieces of the second tensor power of sl(V)


def seven_pieces_check(N):
    """Dimensions of the seven irreducible pieces of sl(N) (x) sl(N).

    Pieces are computed by exact ranks: the two Cartan pieces of the
    pair-symmetric part via isotypic ranks, the adjoint and Killing pieces
    from the contraction on the symmetric part, the two mixed trace-free
    pieces of the pair-antisymmetric part, and the bracket piece as the
    contraction image of the antisymmetric part.  Returns (pieces, failures),
    failures the CaseResults of the dimension counts that do not hold.
    """
    from . import linalg

    sl = sl_basis(N)
    dim_sl = len(sl)

    def rank(tensors):
        return linalg.rank([T.entries for T in tensors])

    sym_span, alt_span = [], []
    for i, V in enumerate(sl):
        for j in range(i, dim_sl):
            T = V.outer(sl[j])  # entries ((B, D), (A, C)) for V^B_A W^D_C
            Ts = T.permuted((1, 0))  # the simultaneous pair swap, i.e. W (x) V
            sym_span.append(T + Ts)
            if j > i:
                alt_span.append(T - Ts)
    dim_sym, dim_alt = rank(sym_span), rank(alt_span)

    # symmetric part: trace-free = the two Cartan pieces; contraction image =
    # adjoint + Killing, the Killing line being the image of the full
    # contraction (B = C, then D = A)
    c_sym = [T.contraction(0, 1) for T in sym_span]
    rank_c_sym = rank(c_sym)
    p1 = isotypic_rank((2,), 2, N)
    p2 = isotypic_rank((1, 1), 2, N)
    p4 = rank([c.contraction(0, 0) for c in c_sym])
    p3 = rank_c_sym - p4

    # antisymmetric part
    c_alt = [T.contraction(0, 1) for T in alt_span]
    p7 = rank(c_alt)
    # trace-free part of the antisymmetric span, split by lower-pair symmetry:
    # coefficients c with sum_r c_r * c_alt[r] = 0 give its elements
    cols = {}
    for r, c in enumerate(c_alt):
        for key, v in c.entries.items():
            cols.setdefault(key, {})[r] = v
    tf_alt = []
    for coeffs in linalg.integer_kernel(list(cols.values()), len(alt_span)):
        acc = SparseTensor(2, N)
        for r, c in coeffs.items():
            acc = acc + alt_span[r].scale(c)
        tf_alt.append(acc)

    # the lower-pair symmetrizer and antisymmetrizer, times 2
    p5 = rank([T.act({(0, 1): 1, (1, 0): 1}, upper=False) for T in tf_alt])
    p6 = rank([T.act({(0, 1): 1, (1, 0): -1}, upper=False) for T in tf_alt])

    pieces = {
        "cartan_sym": p1,
        "cartan_alt": p2,
        "adjoint_sym": p3,
        "killing": p4,
        "mixed_sym_skew": p5,
        "mixed_skew_sym": p6,
        "bracket": p7,
    }
    total = sum(pieces.values())
    counts = [
        (f"the pieces sum to {total}, not {dim_sl**2}", total == dim_sl**2),
        (f"symmetric {dim_sym} + antisymmetric {dim_alt} is not {dim_sl**2}", dim_sym + dim_alt == dim_sl**2),
        (f"symmetric pieces {p1} + {p2} + {rank_c_sym} are not {dim_sym}", p1 + p2 + rank_c_sym == dim_sym),
        (f"antisymmetric pieces {p5} + {p6} + {p7} are not {dim_alt}", p5 + p6 + p7 == dim_alt),
        (f"bracket piece {p7} is not dim sl = {dim_sl}", p7 == dim_sl),
        (f"adjoint piece {p3} is not dim sl = {dim_sl}", p3 == dim_sl),
        (f"Killing piece {p4} is not a line", p4 == 1),
    ]
    return pieces, CaseResults([text for text, holds in counts if not holds], len(counts))


# ---------------------------------------------------------------------------
# the commutant, decompose and hwvectors suites


def _suite_commutant(rep: VerificationReport, k=None, dim=None):
    from .classalg import structure_constant_table

    cases = [(2, 4), (3, 6)] if k is None else [(k, dim)]
    for (k, N) in cases:
        table = structure_constant_table(k)
        rep.check(f"(k,N)=({k},{N}): operator products match class-algebra constants on S^k_0",
                  commutant_mult_crosscheck(k, N, lambda lam, mu: table[lam, mu]))
        # the operators act by scalars on each isotypic piece, and the piece
        # of lambda is nonzero exactly when 2*depth(lambda) <= N
        rank, cases = basis_operator_rank(k, N)
        count = sum(2 * len(lam) <= N for lam in partitions(k))
        claim = ("are linearly independent" if count == len(partitions(k))
                 else f"span {count} dimensions, one per lambda with 2*depth(lambda) <= N")
        rep.add(
            f"(k,N)=({k},{N}): the p(k) basis operators {claim}",
            rank == count,
            f"rank {rank}, expected {count}",
            cases=cases,
        )
    rep.check("Ad-conjugation lemmas (k=2, N=3)", conjugation_lemmas_check(2, 3, seed=rep.seed))
    return rep


def _suite_decompose(rep: VerificationReport, k=2, dim=4):
    N = dim
    rep.check(f"(k,N)=({k},{N}): kernel sizes equal the weight multiplicities of the sum of V(lambda + lambda*) "
              "over 2*depth(lambda) <= N", weight_multiplicity_check(k, N))
    table = isotypic_table(k, N)
    kernel_dim = trace_free_dimension(k, N)
    if (k, N) == (2, 4):
        rep.add("(2,4): ranks are {84, 20} with total 104",
                table == {(2,): 84, (1, 1): 20} and kernel_dim == 104, f"ranks {table}, total {kernel_dim}")
    # below N = 2k the pieces of the deep partitions vanish
    where = "(stable range)" if N >= 2 * k else "where 2*depth(lambda) <= N, 0 elsewhere"
    rep.check(f"(k,N)=({k},{N}): ranks equal Weyl dimensions {where}", CaseResults(
        [f"lambda {lam}: rank {r}, expected {isotypic_dim(lam, N)}" for lam, r in table.items()
         if r != isotypic_dim(lam, N)],
        kernel_dim))
    # number of nonzero components equals p(k) in the stable range, k <= 3
    for kk in range(1, 4):
        nonzero = sum(1 for v in isotypic_table(kk, 2 * kk).values() if v)
        rep.add(f"k={kk}, N={2 * kk}: number of nonzero components equals p(k)",
                nonzero == len(partitions(kk)), f"{nonzero} nonzero components, p(k) = {len(partitions(kk))}")
    Np = max(3, min(N, 4))
    rep.check(f"seven pieces of sl({Np}) (x) sl({Np}): complete and consistent", seven_pieces_check(Np)[1])
    return rep


def _suite_hwvectors(rep: VerificationReport, k=3, dim=6):
    domain = [(lam, N) for N in range(2, dim + 1) for j in range(1, k + 1)
              for lam in partitions(j) if 2 * len(lam) <= N]
    bad = []
    for lam, N in domain:
        hwv, top = highest_weight_vector(lam, N), lambda_plus_dual(lam, N)
        off = [f": orbit {M} of weight {w}, not {top}" for M in hwv if (w := multiset_weight(M, N)) != top]
        if off or not hwv:
            bad.append(f"lambda={lam}, N={N}{off[0] if off else ''}")
    rep.check(f"highest-weight vectors nonzero for 2*depth <= N, k <= {k}, N <= {dim}", CaseResults(bad, len(domain)))
    for (lam, k, N) in [((2,), 2, 3), ((3,), 3, 4), ((2, 1), 3, 3)]:
        rep.check(f"skew vanishing for lambda={lam} (k={k}, N={N}, 5 seeded tensors)",
                  skew_vanishing_check(lam, k, N, trials=5, seed=rep.seed))
    return rep
