"""Batch verification front-end.

Usage:
    subsym verify <suite> [flags]
    subsym table classalg --k K [--out PATH]
    subsym table isotypic --k K --dim N [--out PATH]

Suites: reduction, commutation, composition, prop1, symbols, classalg,
commutant, decompose, hwvectors, all.  Every suite prints one line per
check and exits 0 only if everything passed.  All randomness flows from
--seed (recorded in the report).  SUBSYM_OUT_DIR sets the default output
directory of `table`; `verify` writes a report only to --out.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from math import factorial

from .report import CaseResults, VerificationReport, classalg_table_csv, emit, isotypic_table_json

FLAGS = ("n", "d", "s", "k", "dim", "w1", "w2", "deg", "seed")  # the int flags of `verify`
COMPOSITION_N = 2  # the composition suite's n when --n is not given


def _suite_classalg(params, rep: VerificationReport):
    from .classalg import (
        ClassElement,
        center_convolution,
        class_elements,
        class_multiply,
        conjugacy_classes,
        structure_constant_table,
    )
    from .scalars import rat

    kmax = 5 if params.get("k") is None else params["k"]

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
    for k in range(1, kmax + 1):
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


def _suite_reduction(params, rep: VerificationReport):
    from .boundary import BoundaryModel, admissible_weights, verify_reduction

    def sweep(m, w1, w2, deg):
        monomials = list(m.monomials(deg))
        return CaseResults([f"F={F}: residual {res}" for F in monomials
                            if (res := verify_reduction(m, F, w1, w2)) is not None], len(monomials))

    deg = 3 if params.get("deg") is None else params["deg"]
    ns = [1, 2] if params.get("n") is None else [params["n"]]
    for n in ns:
        m = BoundaryModel(n)
        for (w1, w2) in admissible_weights(n, 4):
            rep.check(f"n={n} weights ({w1},{w2}): reduction exact, deg<={deg}", sweep(m, w1, w2, deg))
    # one mixed-signature pass
    n = ns[-1]
    if n >= 2:
        m = BoundaryModel(n, (1,) * (n - 1) + (-1,))
        rep.check(f"n={n} mixed signature: reduction exact", sweep(m, *admissible_weights(n, 2)[0], 2))
    return rep


def _suite_commutation(params, rep: VerificationReport):
    from .ambient import (
        AmbientModel,
        ambient_laplacian,
        central_action_check,
        dv_bracket,
        higher_symmetry_op,
        r_poly,
        random_traceless,
    )
    from .tensor import sl_basis
    from .weyl import WeylOperator

    nmax = 3 if params.get("n") is None else params["n"]
    for n in range(1, nmax + 1):
        m = AmbientModel(n)
        lap = ambient_laplacian(m)
        rmul = WeylOperator.mul_by(r_poly(m))
        ops = {f"sl({m.N}) basis element {i}": higher_symmetry_op(m, V) for i, V in enumerate(sl_basis(m.N))}
        rep.check(f"n={n}: [lap, D_V] = 0 for the full sl({m.N}) basis",
                  CaseResults([e for e, dV in ops.items() if lap.commutator(dV)], len(ops)))
        rep.check(f"n={n}: [D_V, r.] = 0 for the full sl({m.N}) basis",
                  CaseResults([e for e, dV in ops.items() if dV.commutator(rmul)], len(ops)))
    m = AmbientModel(2)
    rng = random.Random(rep.seed)
    pairs = [(random_traceless(2, rng), random_traceless(2, rng)) for _ in range(5)]
    rep.check("n=2: bracket closure on 5 seeded pairs", CaseResults(
        [f"pair {i}" for i, (V, W) in enumerate(pairs)
         if higher_symmetry_op(m, V).commutator(higher_symmetry_op(m, W)) != higher_symmetry_op(m, dv_bracket(V, W))],
        len(pairs)))
    m1 = AmbientModel(1)
    ab, ba = central_action_check(m1, 0, -1), central_action_check(m1, -1, 0)
    rep.check("central element scales by i(w1-w2)", CaseResults(ab + ba, ab.cases + ba.cases))
    return rep


def _suite_composition(params, rep: VerificationReport):
    from .ambient import (
        AmbientModel,
        composition_ambient_part,
        compose_decompose,
        quadric,
        uncorrected_vw0,
        random_traceless,
        trace_projection_oracle,
        verify_composition_identity,
    )
    from .boundary import BoundaryModel, admissible_weights, induce, phi_pullback, sublaplacian

    n = COMPOSITION_N if params.get("n") is None else params["n"]
    deg = 3 if params.get("deg") is None else params["deg"]
    w1 = params.get("w1")
    w2 = params.get("w2")
    if w1 is None or w2 is None:
        w1, w2 = admissible_weights(n, n % 2)[-1]  # smallest |w1 - w2|, w1 >= w2
    m = AmbientModel(n)
    mb = BoundaryModel(n)
    rng = random.Random(rep.seed)
    pairs = [(random_traceless(n, rng), random_traceless(n, rng)) for _ in range(5)]
    decomposed = [compose_decompose(m, V, W, w1, w2) for V, W in pairs]
    for i, ((V, W), parts) in enumerate(zip(pairs, decomposed)):
        slots = range(parts.T.k)
        rep.check(f"pair {i}: T totally trace-free", CaseResults(
            [f"contraction ({p}, {q}) nonzero" for p in slots for q in slots if parts.T.contraction(p, q)],
            len(slots) ** 2))
        orc = trace_projection_oracle(m, V, W)
        differ = ["the oracle has no unique solution"] if orc is None else [
            f"{x} differs" for x, ours, theirs in (("U", parts.U, orc[0]), ("Utilde", parts.Utilde, orc[1]))
            if ours != theirs]
        rep.add(f"pair {i}: (U, Utilde) match the projection oracle", not differ, "; ".join(differ))
        rep.check(f"pair {i}: composition identity exact, exponent bound {deg}",
                  verify_composition_identity(m, V, W, w1, w2, degree_bound=deg, parts=parts))
    # induced (boundary) decomposition for the first pair, sampled F
    V, W = pairs[0]
    parts = decomposed[0]
    # D_V o D_W - D_vw2 - D_vw1 induces vw0 - r_S Delta_b, r_S the pulled
    # back quadric of S = U + Utilde; its operators are the ones the pair's
    # composition check built
    ambient_part = composition_ambient_part(m, V, W, parts)
    uq = phi_pullback(mb, quadric(m, parts.U + parts.Utilde))
    delta = sublaplacian(mb, w1, w2)
    monomials = list(mb.monomials(2))
    rep.check("induced boundary decomposition (second/first/zeroth + trivial part)", CaseResults(
        [f"F={F}" for F in monomials
         if induce(mb, ambient_part, w1, w2, F) != F.scale(parts.vw0) - uq * delta.apply(F)],
        len(monomials)))
    if parts.vw0 != uncorrected_vw0(m, V, W, w1, w2):
        rep.note(
            "zeroth-order coefficient is the derived closed form "
            "tr(VW) * n[(w1-w2)^2-(n+2)^2]/(2(n+1)(n+2)(n+3)); the "
            "commonly quoted constant fails the exact identity"
        )
    return rep


def _suite_prop1(params, rep: VerificationReport):
    from .boundary import BoundaryModel
    from .symbols import a_coeff, a_matrix_det, pascal_identity_check, verify_prop1

    n = 3 if params.get("n") is None else params["n"]
    if params.get("d") is None or params.get("s") is None:
        cases = [(2, 1), (3, 1), (4, 2)]
    else:
        cases = [(params["d"], params["s"])]
    m = BoundaryModel(n)
    for (d, s) in cases:
        for label, failures in verify_prop1(m, d, s):
            rep.check(f"(d,s)=({d},{s}): {label}", failures)
    domain = [(s, i) for s in range(1, 9) for i in range(s + 1)]
    rep.check("a^s_{1,i} = 1 for s <= 8",
              CaseResults([f"s={s} i={i}: a = {a}" for s, i in domain if (a := a_coeff(s, 1, i)) != 1], len(domain)))
    rep.add("a^1_{1,1} = 1", a_coeff(1, 1, 1) == 1)
    rep.check("Pascal identity for s <= 8", pascal_identity_check(8))
    rep.check("|det a^s| = 1 for s <= 8",
              CaseResults([f"s={s}: det {det}" for s in range(1, 9) if abs(det := a_matrix_det(s)) != 1], 8))
    return rep


def _suite_symbols(params, rep: VerificationReport):
    from .boundary import BoundaryModel
    from .symbols import check_symbol_recursions, extract_all_symbols
    from .tensor import SparseTensor

    d = 3 if params.get("d") is None else params["d"]
    ns = [2, 3] if params.get("n") is None else [params["n"]]
    rng = random.Random(rep.seed)
    for n in ns:
        m = BoundaryModel(n)
        # upper values {1, n+1} and lower values {0, 2} are disjoint for
        # n >= 2, so the symmetrized draw is totally trace-free
        T = SparseTensor.random(d, n + 2, rng, 2, upper=(1, n + 1), lower=(0, 2)).symmetrized()
        rep.check(f"n={n}: recursions for seeded trace-free column-symmetric tensor",
                  check_symbol_recursions(m, extract_all_symbols(m, T), T.k))
        three_column_skew_checks(rep, m, rng)
    return rep


def three_column_skew_checks(rep: VerificationReport, m, rng):
    """Skew vanishing (el2): a seeded column-symmetric d=3 tensor, alternated
    over its three upper slots, induces identically zero symbols on model m."""
    from .symbols import extract_all_symbols
    from .tensor import SparseTensor

    n = m.n
    T = SparseTensor.random(3, n + 2, rng, 2, density=0.05).symmetrized()
    Tsk = T.skew_slots([0, 1, 2], upper=True)
    if not Tsk:
        rep.add(f"n={n}: skew tensor nonzero", False, "degenerate seed")
        return
    syms = extract_all_symbols(m, Tsk)
    zero = CaseResults([f"symbol {key} nonzero" for key, s in syms.items() if s], len(syms))
    rep.check(f"n={n}: three-column-skew tensor induces identically zero symbols", zero)
    # T is column-symmetric, so the lower skew of Tsk is Tsk itself and the
    # symbols just extracted are those of the double skew
    Tdb = Tsk.skew_slots([0, 1, 2], upper=False)
    differs = [] if Tdb == Tsk else ["double skew differs from the upper skew"]
    asymmetric = [] if Tdb.is_symmetric() else ["double skew not column-symmetric"]
    rep.check(f"n={n}: double-skew (column-symmetric) tensor also induces zero",
              CaseResults(differs + zero + asymmetric, zero.cases))


def _suite_commutant(params, rep: VerificationReport):
    from .classalg import partitions, structure_constant_table
    from .decompose import (
        basis_operator_rank,
        commutant_mult_crosscheck,
        conjugation_lemmas_check,
    )

    cases = [(2, 4), (3, 6)] if params.get("k") is None else [(params["k"], params["dim"])]
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


def _suite_decompose(params, rep: VerificationReport):
    from .classalg import partitions
    from .decompose import (
        isotypic_dim,
        isotypic_table,
        seven_pieces_check,
        stable_dim_formula,
        trace_free_dimension,
    )

    k = 2 if params.get("k") is None else params["k"]
    N = 4 if params.get("dim") is None else params["dim"]
    table = isotypic_table(k, N)
    dim = trace_free_dimension(k, N)
    rep.add(
        f"(k,N)=({k},{N}): isotypic ranks sum to the kernel dimension",
        sum(table.values()) == dim,
        f"{table} vs {dim}",
        cases=dim,
    )
    if (k, N) == (2, 4):
        rep.add("(2,4): ranks are {84, 20} with total 104",
                table == {(2,): 84, (1, 1): 20} and dim == 104, f"ranks {table}, total {dim}")
    # below N = 2k the pieces of the deep partitions vanish
    where = "(stable range)" if N >= 2 * k else "where 2*depth(lambda) <= N, 0 elsewhere"
    rep.check(f"(k,N)=({k},{N}): ranks equal Weyl dimensions {where}", CaseResults(
        [f"lambda {lam}: rank {r}, expected {isotypic_dim(lam, N)}" for lam, r in table.items()
         if r != isotypic_dim(lam, N)],
        dim))
    closed = stable_dim_formula(k, N)
    rep.add(
        f"(k,N)=({k},{N}): kernel dim equals the closed-form sum",
        dim == closed,
        f"{dim} vs {closed}",
        cases=dim,
    )
    # number of nonzero components equals p(k) in the stable range, k <= 3
    for kk in range(1, 4):
        nonzero = sum(1 for v in isotypic_table(kk, 2 * kk).values() if v)
        rep.add(f"k={kk}, N={2 * kk}: number of nonzero components equals p(k)",
                nonzero == len(partitions(kk)), f"{nonzero} nonzero components, p(k) = {len(partitions(kk))}")
    Np = max(3, min(N, 4))
    rep.check(f"seven pieces of sl({Np}) (x) sl({Np}): complete and consistent", seven_pieces_check(Np)[1])
    return rep


def _suite_hwvectors(params, rep: VerificationReport):
    from .classalg import partitions
    from .decompose import highest_weight_vector, skew_vanishing_check

    Nmax = 6 if params.get("dim") is None else params["dim"]
    kmax = 3 if params.get("k") is None else params["k"]
    domain = [(lam, N) for N in range(2, Nmax + 1) for k in range(1, kmax + 1)
              for lam in partitions(k) if 2 * len(lam) <= N]
    rep.check(f"highest-weight vectors nonzero for 2*depth <= N, k <= {kmax}, N <= {Nmax}", CaseResults(
        [f"lambda={lam}, N={N}" for lam, N in domain if not highest_weight_vector(lam, N)], len(domain)))
    for (lam, k, N) in [((2,), 2, 3), ((3,), 3, 4), ((2, 1), 3, 3)]:
        rep.check(f"skew vanishing for lambda={lam} (k={k}, N={N}, 5 seeded tensors)",
                  skew_vanishing_check(lam, k, N, trials=5, seed=rep.seed))
    return rep


_SUITE_FUNCS = {  # in the order of `verify all`
    "reduction": _suite_reduction,
    "commutation": _suite_commutation,
    "composition": _suite_composition,
    "prop1": _suite_prop1,
    "symbols": _suite_symbols,
    "classalg": _suite_classalg,
    "commutant": _suite_commutant,
    "decompose": _suite_decompose,
    "hwvectors": _suite_hwvectors,
}
SUITES = (*_SUITE_FUNCS, "all")


def run(suite: str, params: dict) -> list[VerificationReport]:
    """Execute one suite (or 'all'); returns the reports."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    names = list(_SUITE_FUNCS) if suite == "all" else [suite]
    reports = []
    for name in names:
        rep = VerificationReport(
            suite=name,
            parameters={k: v for k, v in params.items() if v is not None},
            seed=0 if params.get("seed") is None else params["seed"],
        )
        start = time.monotonic()
        _SUITE_FUNCS[name](params, rep)
        rep.elapsed_seconds = time.monotonic() - start
        reports.append(rep)
    return reports


def _problems(params) -> list:
    """Why the flag values in `params` are out of range (empty when none is)."""
    problems = []
    for key in ("n", "d", "s", "k", "dim", "deg"):
        v = params.get(key)
        if v is None:
            continue
        if v < 0:
            problems.append(f"--{key} must be nonnegative")
        elif key == "k":
            from .classalg import CLASS_ELEMENTS_MAX_K

            if not 1 <= v <= CLASS_ELEMENTS_MAX_K:
                problems.append(f"--k must be between 1 and {CLASS_ELEMENTS_MAX_K}")
        elif v < 1:
            problems.append(f"--{key} must be at least 1")
    return problems


def _validated(args, parser) -> dict:
    params = {flag: getattr(args, flag) for flag in FLAGS}
    problems = _problems(params)
    if params.get("d") is not None and params.get("s") is not None:
        if 2 * params["s"] > params["d"]:
            problems.append("need 2s <= d")
    if args.suite in ("commutant", "all") and (args.k is None) != (args.dim is None):
        problems.append("the commutant suite needs --k and --dim together")
    if args.suite in ("prop1", "all") and (args.d is None) != (args.s is None):
        problems.append("the prop1 suite needs --d and --s together")
    for name in ("prop1", "symbols"):
        if args.suite in (name, "all") and args.n is not None and args.n < 2:
            problems.append(f"the {name} suite needs --n at least 2")
    if args.suite in ("composition", "all"):
        if (args.w1 is None) != (args.w2 is None):
            problems.append("the composition suite needs --w1 and --w2 together")
        elif args.w1 is not None:
            n = COMPOSITION_N if args.n is None else args.n
            if n + args.w1 + args.w2 != 0:
                problems.append(f"the composition suite needs n + w1 + w2 = 0 (n = {n})")
    if problems:
        parser.error("invalid parameters: " + "; ".join(problems))
    return params


def _writable(path, parser):
    """`path` when its directory exists; a usage error otherwise, raised
    before any check or table is computed."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        parser.error(f"cannot write {path}: no such directory {folder}")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(prog="subsym", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=SUITES)
    for flag in FLAGS:
        pv.add_argument(f"--{flag}", type=int, default=None)
    pv.add_argument("--out", default=None, help="write report file(s)")
    pv.add_argument("--format", choices=("json", "csv"), default="json")

    pt = sub.add_parser("table", help="emit a data table")
    pt.add_argument("kind", choices=("classalg", "isotypic"))
    pt.add_argument("--k", type=int, required=True)
    pt.add_argument("--dim", type=int, default=None)
    pt.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    outdir = os.environ.get("SUBSYM_OUT_DIR", ".")

    if args.command == "table":
        problems = _problems({"k": args.k, "dim": args.dim})
        if problems:
            pt.error("invalid parameters: " + "; ".join(problems))
        if args.kind == "isotypic" and args.dim is None:
            pt.error("table isotypic requires --dim")
        if args.kind == "classalg":
            name = f"classalg_k{args.k}.csv"
        else:
            name = f"isotypic_k{args.k}_N{args.dim}.json"
        path = _writable(args.out or os.path.join(outdir, name), pt)
        try:
            if args.kind == "classalg":
                classalg_table_csv(args.k, path)
            else:
                isotypic_table_json(args.k, args.dim, path)
        except OSError as exc:
            pt.error(f"cannot write {path}: {exc}")
        print(path)
        return 0

    params = _validated(args, pv)
    if params.get("seed") is None:
        params["seed"] = 0
    if args.out:
        _writable(args.out, pv)
    reports = run(args.suite, params)
    exit_code = 0
    for rep in reports:
        for line in rep.summary_lines():
            print(line)
        for note in rep.notes:
            print(f"[NOTE] {rep.suite}: {note}")
        print(
            f"== suite {rep.suite}: {rep.status.upper()} "
            f"({len(rep.checks)} checks, {rep.elapsed_seconds:.2f}s)",
            file=sys.stderr,
        )
        if not rep.passed:
            exit_code = 1
        if args.out:
            base = args.out
            if len(reports) > 1:
                root, ext = os.path.splitext(base)
                path = f"{root}_{rep.suite}{ext or '.' + args.format}"
            else:
                path = base
            try:
                emit(rep, path, args.format)
            except OSError as exc:
                pv.error(str(exc))
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
