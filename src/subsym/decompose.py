"""Tensor realization of the commutant and of the decomposition of S^k_0 sl(V).

Mixed tensors live in (V (x) V*)^(x)k with dim V = N.  Entries are keyed by a
pair of multi-indices (U, L): U indexes the vector factors, L the dual
factors.  Pair-symmetric tensors (invariant under simultaneous permutation of
the k (u, l) slot pairs) are stored compactly as vectors over the multisets of
(u, l) pairs of one weight block, sparse and with integer entries; S_k acts
on them by scattering through the preimage tables of ``_perm_preimages``.

Everything here commutes with the diagonal torus, so all linear algebra is
done block-by-block over weight spaces; weights related by relabeling the N
basis values give isomorphic blocks, and ranks are computed once per orbit.
That reduction is what keeps the (k, N) = (3, 6) computations at desk scale.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import lcm

from . import linalg
from .classalg import (
    act_on_tuple,
    central_idempotent,
    class_elements,
    compose_perm,
    invert_perm,
    mn_character,
    partitions,
    young_projector_sum,
)
from .report import CaseResults
from .scalars import accumulate, rat
from .tensor import SparseTensor


# ---------------------------------------------------------------------------
# pair-symmetric tensors: multisets and the S_k action on weight blocks


def pair_multisets(k, N):
    """All canonical multisets (sorted tuples) of k pairs over range(N)^2."""
    pairs = [(u, l) for u in range(N) for l in range(N)]
    return list(itertools.combinations_with_replacement(pairs, k))


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
def _perm_preimages(k, N, weight):
    """Preimage lists of the slot permutations on one weight block.

    ``pre[sigma][i]`` lists the block indices j with M_j^sigma = M_i (lower
    indices permuted), so the pullback j -> v[index of M_j^sigma] of a block
    vector v is scattered from the support of v.  M -> M^sigma acts on
    sorted representatives and is not a bijection of the block, so an index
    may have several preimages or none.  Only the lower group is needed: on
    a multiset, moving the upper indices by sigma is moving the lower ones
    by sigma^-1, and the actions used here are class-closed.
    """
    block = weight_blocks(k, N)[weight]
    index = {M: j for j, M in enumerate(block)}
    out = {}
    for sigma in itertools.permutations(range(k)):
        pre = [[] for _ in block]
        for j, M in enumerate(block):
            pre[index[_perm_lower_multiset(M, sigma)]].append(j)
        out[sigma] = tuple(map(tuple, pre))
    return out


def _class_sum(v, pre, perms):
    """Unnormalised sum over ``perms`` of the pullbacks of the sparse block
    vector v ({index: value}), as a sparse vector."""
    out = {}
    for p in perms:
        targets = pre[p]
        for i, x in v.items():
            for j in targets[i]:
                out[j] = out.get(j, 0) + x
    return {j: x for j, x in out.items() if x}


def _combine(terms):
    """Sum of c * vec over the (c, sparse vector) pairs."""
    acc = {}
    for c, vec in terms:
        for j, x in vec.items():
            acc[j] = acc.get(j, 0) + c * x
    return {j: x for j, x in acc.items() if x}


# ---------------------------------------------------------------------------
# trace-free symmetric subspace, block by block


@lru_cache(maxsize=None)
def weight_blocks(k, N):
    """dict weight -> tuple of multisets with that weight."""
    blocks = {}
    for M in pair_multisets(k, N):
        blocks.setdefault(multiset_weight(M, N), []).append(M)
    return {w: tuple(sorted(ms)) for w, ms in blocks.items()}


@lru_cache(maxsize=None)
def weight_orbits(k, N):
    """Orbits of weights under value relabeling: canonical pattern ->
    (representative weight, number of weights in the orbit)."""
    blocks = weight_blocks(k, N)
    orbits = {}
    for w in blocks:
        pat = tuple(sorted(w, reverse=True))
        if pat not in orbits:
            orbits[pat] = [w, 0]
        orbits[pat][1] += 1
    return {pat: (w, cnt) for pat, (w, cnt) in orbits.items()}


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
    block = weight_blocks(k, N)[weight]
    return block, tuple(linalg.integer_kernel(_contraction_matrix(block), len(block)))


def trace_free_dimension(k, N) -> int:
    """dim S^k_0 sl(N) via per-orbit kernel ranks."""
    return sum(cnt * len(trace_free_block_kernel(k, N, w)[1]) for w, cnt in weight_orbits(k, N).values())


def _orbit_kernels(k, N):
    """(weight, orbit size, kernel vectors) for every weight-orbit
    representative whose trace-free kernel is nonzero."""
    orbits = weight_orbits(k, N).values()
    return [(w, cnt, kern) for w, cnt in orbits if (kern := trace_free_block_kernel(k, N, w)[1])]


def isotypic_rank(lam, k, N) -> int:
    """Rank of the central idempotent e_lam on the trace-free symmetric space.

    e_lam is the nonzero multiple dim(lam)/k! of sum_mu chi^lam(mu) K_mu, K_mu
    the unnormalised class sum, so the rank is taken on the integer images
    of that combination, one kernel vector at a time.
    """
    lam = tuple(lam)
    chars = [(c, elems) for mu, elems in class_elements(k).items() if (c := mn_character(lam, mu))]
    total = 0
    for w, cnt, rows in _orbit_kernels(k, N):
        pre = _perm_preimages(k, N, w)
        images = [_combine([(c, _class_sum(v, pre, elems)) for c, elems in chars]) for v in rows]
        total += cnt * linalg.rank(images)
    return total


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
    assert r == 0
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


def stable_dim_formula(k, N) -> int:
    """sum over partitions of k of isotypic_dim, the dimension of S^k_0 sl(N)."""
    return sum(isotypic_dim(lam, N) for lam in partitions(k))


# ---------------------------------------------------------------------------
# highest weight vectors and skew vanishing


def highest_weight_vector(lam, N):
    """Pair-symmetrized p_lam(e_lam) (x) eps^lam; returns (tensor fn, nonzero).

    The idempotent permutes the vector factors; the construction requires
    2*depth(lam) <= N so that the vector and dual index values are disjoint.
    """
    lam = tuple(lam)
    m = len(lam)
    if 2 * m > N:
        raise ValueError("construction needs 2*depth(lambda) <= N")
    U0 = tuple(i for i, part in enumerate(lam) for _ in range(part))
    L0 = tuple(N - 1 - i for i, part in enumerate(lam) for _ in range(part))
    acc = {}
    for sigma, c in central_idempotent(lam).items():
        accumulate(acc, tuple(sorted(zip(act_on_tuple(sigma, U0), L0))), c)
    # acc is k!/stab times the actual symmetrization; nonzero-ness and weight
    # are unaffected.
    expected = lambda_plus_dual(lam, N)
    for M in acc:
        assert multiset_weight(M, N) == expected
    return acc, bool(acc)


def random_plain_tensor(k, N, rng, bound=3):
    """Random element of the k-th tensor power of C^N with small int entries
    (upper indices only)."""
    out = {}
    for key in itertools.product(range(N), repeat=k):
        c = rng.randint(-bound, bound)
        if c:
            out[(key, ())] = rat(c)
    return SparseTensor(k, N, out)


def skew_vanishing_check(lam, k, N, trials=5, seed=0):
    """Skew-symmetrizing the Young-projector image in depth(lam)+1 slots is 0.

    Returns a list of (trial, slots, ok) results; exact check.
    """
    import random as _random

    lam = tuple(lam)
    assert sum(lam) == k
    depth = len(lam)
    if depth + 1 > k:
        raise ValueError("need depth(lambda)+1 <= k")
    rng = _random.Random(seed)
    proj = young_projector_sum(lam)
    results = []
    for t in range(trials):
        image = random_plain_tensor(k, N, rng).act(proj, upper=True)
        for slots in itertools.combinations(range(k), depth + 1):
            results.append((t, slots, not image.skew_slots(slots)))
    return results


# ---------------------------------------------------------------------------
# C_s operators on the full tensor space


def interchanges_parity(s):
    """True when s in S_2k (0-based) swaps the two position parities."""
    return all((p + s[p]) % 2 == 1 for p in range(len(s)))


def sigma1_of(s):
    """sigma_1: restriction of s to the epsilon slots (0-based even)."""
    k = len(s) // 2
    return tuple(s[2 * m] // 2 for m in range(k)) if interchanges_parity(s) else None


def sigma2_of(s):
    k = len(s) // 2
    return tuple(s[2 * m + 1] // 2 for m in range(k)) if interchanges_parity(s) else None


def sigma_tilde(s):
    """Conjugacy-class label sigma_2 o sigma_1 of an interchanging s."""
    return compose_perm(sigma2_of(s), sigma1_of(s))


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
    """One interchanging s in S_2k per conjugacy class of sigma_tilde."""
    from .classalg import class_representative

    reps = {}
    for lam in partitions(k):
        sig = class_representative(lam)
        # choose sigma_1 = id, sigma_2 = sig: s(2m) = 2m+1, s(2m+1) = 2*sig(m)
        s = [None] * (2 * k)
        for m in range(k):
            s[2 * m] = 2 * m + 1
            s[2 * m + 1] = 2 * sig[m]
        s = tuple(s)
        assert sigma_tilde(s) in class_elements(k)[lam]
        reps[lam] = s
    return reps


def conjugation_lemmas_check(k, N, seed=0, samples=4):
    """Ad-conjugation behaviour of C_s under the two parity subgroups.

    For sigma permuting the vector slots the conjugated operator agrees with
    the original after relabeling both inputs; for sigma permuting the dual
    slots the outputs are relabeled.  Exact check on sampled basis elements
    and on a random symmetrized tensor; returns a list of (name, ok).
    """
    import random as _random

    rng = _random.Random(seed)
    results = []
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
    rand_entries = {}
    for U in itertools.product(range(N), repeat=k):
        for L in itertools.product(range(N), repeat=k):
            c = rng.randint(-2, 2)
            if c:
                rand_entries[(U, L)] = rat(c)
    T_sym = SparseTensor(k, N, rand_entries).symmetrized()

    for lam, s in reps.items():
        for sig in perms:
            s_even = ad_conjugate(embed_even(sig, k), s)
            s_odd = ad_conjugate(embed_odd(sig, k), s)
            # even lemma: inputs relabeled by sigma on both index groups
            ok_even = all(apply_c_s(s_even, E.permuted(sig)) == apply_c_s(s, E) for E in basis)
            results.append((f"even lemma s~{lam} sigma={sig}", ok_even))
            # odd lemma: outputs relabeled by sigma on both index groups
            ok_odd = all(apply_c_s(s_odd, E) == apply_c_s(s, E).permuted(sig) for E in basis)
            results.append((f"odd lemma s~{lam} sigma={sig}", ok_odd))
            # conjugation by the even subgroup does not change the action on
            # symmetric tensors
            results.append(
                (
                    f"even same-on-symmetric s~{lam} sigma={sig}",
                    apply_c_s(s_even, T_sym) == apply_c_s(s, T_sym),
                )
            )
    return results


# ---------------------------------------------------------------------------
# commutant multiplication cross-check


def commutant_mult_crosscheck(k, N, class_product):
    """Check op_{lam} o op_{mu} = sum_tau A_tau op_tau on S^k_0, exactly.

    ``class_product(lam, mu)`` must return the structure constants {tau: A}.
    Equality is verified on a kernel basis of every weight-orbit
    representative, which certifies it on all of S^k_0 by equivariance.

    With K_tau = |C_tau| op_tau the unnormalised class sums, both sides are
    multiplied by |C_lam||C_mu| and by one common integer D per pair:
    D K_lam K_mu v = sum_tau (D |C_lam||C_mu| A_tau / |C_tau|) K_tau v, an
    equality of integer vectors on the integer kernel vectors v.  The p(k)
    class sums of each kernel vector serve all p(k)^2 pairs.
    Returns a CaseResults list of (lam, mu, ok) triples; ``cases`` counts
    the kernel vectors examined.
    """
    elems = class_elements(k)
    scaled = {}
    for lam, mu in itertools.product(partitions(k), repeat=2):
        size = len(elems[lam]) * len(elems[mu])
        coeffs = {tau: rat(size) * a / len(elems[tau]) for tau, a in class_product(lam, mu).items()}
        D = lcm(*(int(c.denominator) for c in coeffs.values()))
        scaled[(lam, mu)] = (D, [(tau, int(c * D)) for tau, c in coeffs.items()])
    ok = dict.fromkeys(scaled, True)
    cases = 0
    for w, _, rows in _orbit_kernels(k, N):
        pre = _perm_preimages(k, N, w)
        for v in rows:
            cases += 1
            K = {tau: _class_sum(v, pre, perms) for tau, perms in elems.items()}
            for (lam, mu), (D, ints) in scaled.items():
                if ok[(lam, mu)]:
                    lhs = _combine([(D, _class_sum(K[mu], pre, elems[lam]))])
                    ok[(lam, mu)] = lhs == _combine([(c, K[tau]) for tau, c in ints])
    return CaseResults([(lam, mu, good) for (lam, mu), good in ok.items()], cases)


def basis_operator_rank(k, N):
    """Rank of the span of the p(k) commutant basis operators on S^k_0;
    returns (rank, cases), cases being the kernel vectors examined.

    Each operator is flattened to its integer class sums on the integer
    kernel vectors of every weight-orbit representative.  The class sizes
    scale whole operators, so the rank is that of the averaged operators on
    the kernel basis.
    """
    flat = {lam: {} for lam in partitions(k)}
    cases = 0
    for w, _, rows in _orbit_kernels(k, N):
        pre = _perm_preimages(k, N, w)
        for v in rows:
            cases += 1
            for lam, elems in class_elements(k).items():
                flat[lam].update(((cases, j), x) for j, x in _class_sum(v, pre, elems).items())
    return linalg.rank(list(flat.values())), cases


# ---------------------------------------------------------------------------
# the seven pieces of the second tensor power of sl(V)


def seven_pieces_check(N):
    """Dimensions of the seven irreducible pieces of sl(N) (x) sl(N).

    Pieces are computed by exact ranks: the two Cartan pieces of the
    pair-symmetric part via isotypic ranks, the adjoint and Killing pieces
    from the contraction on the symmetric part, the two mixed trace-free
    pieces of the pair-antisymmetric part, and the bracket piece as the
    contraction image of the antisymmetric part.  Returns a dict report.
    """
    from .ambient import sl_basis

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
    report = {
        "N": N,
        "pieces": pieces,
        "dim_sl_squared": dim_sl**2,
        "gl_trace_complement": 2 * dim_sl + 1,
        "total_with_complement": total + 2 * dim_sl + 1,
        "complete": total == dim_sl**2
        and dim_sym + dim_alt == dim_sl**2
        and p1 + p2 + rank_c_sym == dim_sym
        and p5 + p6 + p7 == dim_alt
        and total + 2 * dim_sl + 1 == N**4,
        "bracket_is_adjoint": p7 == dim_sl,
        "adjoint_is_sl": p3 == dim_sl,
        "killing_is_line": p4 == 1,
    }
    return report
