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

from .report import VerificationReport, classalg_table_csv, emit, isotypic_table_json

SUITES = (
    "reduction",
    "commutation",
    "composition",
    "prop1",
    "symbols",
    "classalg",
    "commutant",
    "decompose",
    "hwvectors",
    "all",
)
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
    # the worked tables
    x2 = ClassElement.basis(2, (2,))
    rep.add("k=2: x.x = 1", class_multiply(x2, x2) == ClassElement.one(2))
    x = ClassElement.basis(3, (2, 1))
    y = ClassElement.basis(3, (3,))
    one = ClassElement.one(3)
    rep.add(
        "k=3: x.x = (1+2y)/3",
        class_multiply(x, x) == one.scale(rat(1, 3)) + y.scale(rat(2, 3)),
    )
    rep.add("k=3: x.y = x", class_multiply(x, y) == x)
    rep.add("k=3: y.y = (1+y)/2", class_multiply(y, y) == one.scale(rat(1, 2)) + y.scale(rat(1, 2)))
    # oracle equivalence and probability structure
    for k in range(1, kmax + 1):
        table = structure_constant_table(k)
        bad = [(lam, mu) for (lam, mu), p in table.items()
               if p != center_convolution(ClassElement.basis(k, lam), ClassElement.basis(k, mu)).coeffs]
        rep.add(f"k={k}: enumeration == convolution on all basis pairs", not bad,
                f"k={k} {bad[0][0]}x{bad[0][1]}" if bad else None)
        rep.add(
            f"k={k}: structure constants are probabilities",
            all(sum(p.values()) == 1 and all(c > 0 for c in p.values()) for p in table.values()),
        )
        # k!/z_lambda against the enumerated classes, and the class equation
        sizes = conjugacy_classes(k)
        elems = class_elements(k)
        bad = [f"class {lam}: k!/z = {s}, enumerated {len(elems[lam])}"
               for lam, s in sizes if s != len(elems[lam])]
        total = sum(s for _, s in sizes)
        rep.add(
            f"k={k}: class sizes k!/z sum to k!",
            not bad and total == factorial(k),
            bad[0] if bad else f"sizes sum to {total}",
        )
    return rep


def _suite_reduction(params, rep: VerificationReport):
    from .boundary import BoundaryModel, admissible_weights, verify_reduction

    deg = 3 if params.get("deg") is None else params["deg"]
    ns = [1, 2] if params.get("n") is None else [params["n"]]
    for n in ns:
        m = BoundaryModel(n)
        for (w1, w2) in admissible_weights(n, 4):
            ok = True
            witness = None
            for F in m.monomials(deg):
                res = verify_reduction(m, F, w1, w2)
                if res is not None:
                    ok = False
                    witness = f"F={F}: residual {res}"
                    break
            rep.add(f"n={n} weights ({w1},{w2}): reduction exact, deg<={deg}", ok, witness)
    # one mixed-signature pass
    n = ns[-1]
    if n >= 2:
        m = BoundaryModel(n, (1,) * (n - 1) + (-1,))
        w1, w2 = admissible_weights(n, 2)[0]
        ok = all(verify_reduction(m, F, w1, w2) is None for F in m.monomials(2))
        rep.add(f"n={n} mixed signature: reduction exact", ok)
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
        sl_basis,
    )
    from .weyl import WeylOperator

    nmax = 3 if params.get("n") is None else params["n"]
    for n in range(1, nmax + 1):
        m = AmbientModel(n)
        lap = ambient_laplacian(m)
        rmul = WeylOperator.mul_by(r_poly(m))
        bad_lap = bad_r = None
        for i, V in enumerate(sl_basis(m.N)):
            dV = higher_symmetry_op(m, V)
            if bad_lap is None and lap.commutator(dV):
                bad_lap = f"sl({m.N}) basis element {i}"
            if bad_r is None and dV.commutator(rmul):
                bad_r = f"sl({m.N}) basis element {i}"
        rep.add(f"n={n}: [lap, D_V] = 0 for the full sl({m.N}) basis", bad_lap is None, bad_lap)
        rep.add(f"n={n}: [D_V, r.] = 0 for the full sl({m.N}) basis", bad_r is None, bad_r)
    m = AmbientModel(2)
    rng = random.Random(rep.seed)
    bad = None
    for i in range(5):
        V = random_traceless(2, rng)
        W = random_traceless(2, rng)
        if bad is None:
            DV, DW = higher_symmetry_op(m, V), higher_symmetry_op(m, W)
            if DV.commutator(DW) != higher_symmetry_op(m, dv_bracket(V, W)):
                bad = f"pair {i}"
    rep.add("n=2: bracket closure on 5 seeded pairs", bad is None, bad)
    m1 = AmbientModel(1)
    fails = central_action_check(m1, 0, -1) + central_action_check(m1, -1, 0)
    rep.add("central element scales by i(w1-w2)", not fails, "; ".join(fails) or None)
    return rep


def _suite_composition(params, rep: VerificationReport):
    from .ambient import (
        AmbientModel,
        compose_decompose,
        higher_symmetry_op,
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
        rep.add(f"pair {i}: T totally trace-free", parts.T.is_trace_free())
        orc = trace_projection_oracle(m, V, W)
        ok = orc is not None and orc[0] == parts.U and orc[1] == parts.Utilde
        rep.add(f"pair {i}: (U, Utilde) match the projection oracle", ok)
        bad = verify_composition_identity(m, V, W, w1, w2, degree_bound=deg, parts=parts)
        rep.add(
            f"pair {i}: composition identity exact, exponent bound {deg}",
            not bad,
            None if not bad else f"{bad[0][0]} -> {bad[0][1]}",
            cases=bad.cases,
        )
    # induced (boundary) decomposition for the first pair, sampled F
    V, W = pairs[0]
    parts = decomposed[0]
    # D_V o D_W - D_vw2 - D_vw1 induces vw0 - r_S Delta_b, r_S the pulled
    # back quadric of S = U + Utilde
    ambient_part = (
        higher_symmetry_op(m, V).compose(higher_symmetry_op(m, W))
        - higher_symmetry_op(m, parts.vw2)
        - higher_symmetry_op(m, parts.vw1)
    )
    uq = phi_pullback(mb, quadric(m, parts.U + parts.Utilde))
    delta = sublaplacian(mb, w1, w2)
    ok = True
    witness = None
    for F in mb.monomials(2):
        if induce(mb, ambient_part, w1, w2, F) != F.scale(parts.vw0) - uq * delta.apply(F):
            ok = False
            witness = f"F={F}"
            break
    rep.add("induced boundary decomposition (second/first/zeroth + trivial part)", ok, witness)
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
        ok, detail = verify_prop1(m, d, s)
        sysres = detail["system"]
        rep.add(f"(d,s)=({d},{s}): linear system has a unique solution", sysres.get("unique", False))
        rep.add(f"(d,s)=({d},{s}): diagonal symbols below s vanish", detail.get("lower_diag_symbols_vanish", False))
        rep.add(
            f"(d,s)=({d},{s}): top symbol is a nonzero seed multiple",
            detail.get("top_symbol_nonzero_seed_multiple", False),
        )
        rep.add(
            f"(d,s)=({d},{s}): BGG residuals zero",
            all(okk for _, okk, _ in detail.get("bgg", [])),
        )
        badrec = [r for r in detail.get("recursions", []) if not r[1]]
        rep.add(
            f"(d,s)=({d},{s}): symbol recursions residuals zero",
            not badrec,
            badrec[0][0] if badrec else None,
        )
    rep.add("a^s_{1,i} = 1 for s <= 8", all(a_coeff(s, 1, i) == 1 for s in range(1, 9) for i in range(s + 1)))
    rep.add("a^1_{1,1} = 1", a_coeff(1, 1, 1) == 1)
    rep.add("Pascal identity for s <= 8", not pascal_identity_check(8))
    rep.add("|det a^s| = 1 for s <= 8", all(abs(a_matrix_det(s)) == 1 for s in range(1, 9)))
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
        T = SparseTensor.random_disjoint_trace_free(d, n + 2, rng)
        syms = extract_all_symbols(m, T)
        rec = check_symbol_recursions(m, syms, T.k)
        bad = [r for r in rec if not r[1]]
        rep.add(
            f"n={n}: recursions for seeded trace-free column-symmetric tensor",
            not bad,
            bad[0][0] if bad else None,
        )
        three_column_skew_checks(rep, m, rng)
    return rep


def three_column_skew_checks(rep: VerificationReport, m, rng):
    """Skew vanishing (el2): a seeded column-symmetric d=3 tensor, alternated
    over its three upper slots, induces identically zero symbols on model m."""
    from .symbols import extract_all_symbols
    from .tensor import SparseTensor

    n = m.n
    T = SparseTensor.random_column_symmetric(3, n + 2, rng, density=0.05)
    Tsk = T.skew_slots([0, 1, 2], upper=True)
    if not Tsk:
        rep.add(f"n={n}: skew tensor nonzero", False, "degenerate seed")
        return
    bad = [key for key, s in extract_all_symbols(m, Tsk).items() if s]
    rep.add(
        f"n={n}: three-column-skew tensor induces identically zero symbols",
        not bad,
        f"symbol {bad[0]} nonzero" if bad else None,
    )
    # T is column-symmetric, so the lower skew of Tsk is Tsk itself and the
    # symbols just extracted are those of the double skew
    Tdb = Tsk.skew_slots([0, 1, 2], upper=False)
    rep.add(
        f"n={n}: double-skew (column-symmetric) tensor also induces zero",
        Tdb == Tsk and Tdb.is_symmetric() and not bad,
        "double skew differs from the upper skew" if Tdb != Tsk
        else f"symbol {bad[0]} nonzero" if bad else "double skew not column-symmetric",
    )


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
        res = commutant_mult_crosscheck(k, N, lambda lam, mu: table[lam, mu])
        bad = [(lam, mu) for lam, mu, ok in res if not ok]
        rep.add(
            f"(k,N)=({k},{N}): operator products match class-algebra constants on S^k_0",
            not bad,
            str(bad[0]) if bad else None,
            cases=res.cases,
        )
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
    bad = [name for name, ok in conjugation_lemmas_check(2, 3, seed=rep.seed or 0) if not ok]
    rep.add("Ad-conjugation lemmas (k=2, N=3)", not bad, bad[0] if bad else None)
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
                table[(2,)] == 84 and table[(1, 1)] == 20 and dim == 104)
    # below N = 2k the pieces of the deep partitions vanish
    where = "(stable range)" if N >= 2 * k else "where 2*depth(lambda) <= N, 0 elsewhere"
    bad = [lam for lam in table if table[lam] != isotypic_dim(lam, N)]
    rep.add(
        f"(k,N)=({k},{N}): ranks equal Weyl dimensions {where}",
        not bad,
        f"lambda {bad[0]}: rank {table[bad[0]]}, expected {isotypic_dim(bad[0], N)}" if bad else None,
        cases=dim,
    )
    closed = stable_dim_formula(k, N)
    rep.add(
        f"(k,N)=({k},{N}): kernel dim equals the closed-form sum",
        dim == closed,
        f"{dim} vs {closed}",
        cases=dim,
    )
    # number of nonzero components equals p(k) in the stable range, k <= 3
    for kk in range(1, 4):
        NN = 2 * kk
        tab = isotypic_table(kk, NN)
        rep.add(
            f"k={kk}, N={NN}: number of nonzero components equals p(k)",
            sum(1 for v in tab.values() if v) == len(list(partitions(kk))),
        )
    piece_rep = seven_pieces_check(max(3, min(N, 4)))
    rep.add(
        f"seven pieces of sl({piece_rep['N']}) (x) sl({piece_rep['N']}): complete and consistent",
        piece_rep["complete"]
        and piece_rep["bracket_is_adjoint"]
        and piece_rep["adjoint_is_sl"]
        and piece_rep["killing_is_line"],
        str(piece_rep["pieces"]),
    )
    return rep


def _suite_hwvectors(params, rep: VerificationReport):
    from .classalg import partitions
    from .decompose import highest_weight_vector, skew_vanishing_check

    Nmax = 6 if params.get("dim") is None else params["dim"]
    kmax = 3 if params.get("k") is None else params["k"]
    ok = True
    witness = None
    cases = 0
    for N in range(2, Nmax + 1):
        for k in range(1, kmax + 1):
            for lam in partitions(k):
                if 2 * len(lam) <= N:
                    cases += 1
                    if not highest_weight_vector(lam, N):
                        ok = False
                        witness = f"lambda={lam}, N={N}"
    rep.add(
        f"highest-weight vectors nonzero for 2*depth <= N, k <= {kmax}, N <= {Nmax}",
        ok,
        witness,
        cases=cases,
    )
    for (lam, k, N) in [((2,), 2, 3), ((3,), 3, 4), ((2, 1), 3, 3)]:
        res = skew_vanishing_check(lam, k, N, trials=5, seed=rep.seed or 0)
        bad = [(t, slots) for t, slots, ok in res if not ok]
        rep.add(
            f"skew vanishing for lambda={lam} (k={k}, N={N}, 5 seeded tensors)",
            not bad,
            f"trial {bad[0][0]}, slots {bad[0][1]}" if bad else None,
        )
    return rep


_SUITE_FUNCS = {
    "classalg": _suite_classalg,
    "reduction": _suite_reduction,
    "commutation": _suite_commutation,
    "composition": _suite_composition,
    "prop1": _suite_prop1,
    "symbols": _suite_symbols,
    "commutant": _suite_commutant,
    "decompose": _suite_decompose,
    "hwvectors": _suite_hwvectors,
}


def run(suite: str, params: dict) -> list[VerificationReport]:
    """Execute one suite (or 'all'); returns the reports."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    reports = []
    for name in names:
        rep = VerificationReport(
            suite=name,
            parameters={k: v for k, v in params.items() if v is not None},
            seed=params.get("seed", 0),
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
    params = {
        "n": args.n,
        "d": args.d,
        "s": args.s,
        "k": args.k,
        "dim": args.dim,
        "w1": args.w1,
        "w2": args.w2,
        "deg": args.deg,
        "seed": args.seed,
    }
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


def main(argv=None):
    parser = argparse.ArgumentParser(prog="subsym", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=SUITES)
    for flag in ("n", "d", "s", "k", "dim", "w1", "w2", "deg", "seed"):
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
        if args.kind == "classalg":
            path = args.out or os.path.join(outdir, f"classalg_k{args.k}.csv")
            classalg_table_csv(args.k, path)
        else:
            if args.dim is None:
                pt.error("table isotypic requires --dim")
            path = args.out or os.path.join(outdir, f"isotypic_k{args.k}_N{args.dim}.json")
            isotypic_table_json(args.k, args.dim, path)
        print(path)
        return 0

    params = _validated(args, pv)
    if params.get("seed") is None:
        params["seed"] = 0
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
            emit(rep, path, args.format)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
