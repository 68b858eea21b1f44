"""Batch verification front-end.

Usage:
    subsym verify <suite> [flags]
    subsym table classalg --k K [--out PATH]
    subsym table isotypic --k K --dim N [--out PATH]

Suites: reduction, commutation, composition, prop1, symbols, classalg,
commutant, decompose, hwvectors, all.  Every suite prints one line per
check and exits 0 only if everything passed.  A flag the request does not
read (--format without --out) is a usage error.  All randomness flows from
--seed (recorded in the report).  SUBSYM_OUT_DIR sets the default output
directory of `table`; `verify` writes a report only to --out.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time

from .report import VerificationReport, classalg_table_csv, emit, isotypic_table_json

FLAGS = ("n", "d", "s", "k", "dim", "w1", "w2", "deg", "seed")  # the int flags of `verify`

# suite -> the module that defines its check `_suite_<suite>(rep, ...)`,
# beside the layer it checks, in the order of `verify all`; the check's
# parameters after the report are the flags it reads, with their defaults
_SUITE_MODULES = {
    "reduction": "boundary",
    "commutation": "ambient",
    "composition": "ambient",
    "prop1": "symbols",
    "symbols": "symbols",
    "classalg": "classalg",
    "commutant": "decompose",
    "decompose": "decompose",
    "hwvectors": "decompose",
}
SUITES = (*_SUITE_MODULES, "all")


def _check(name):
    """The check `_suite_<name>` and the flags it reads."""
    check = getattr(importlib.import_module(f".{_SUITE_MODULES[name]}", __package__), f"_suite_{name}")
    return check, check.__code__.co_varnames[1 : check.__code__.co_argcount]


def _unread(suite: str, params: dict) -> list:
    """The given flags of `params` that no check of `suite` reads (every
    suite reads the seed), as a usage problem; empty when there is none."""
    names = list(_SUITE_MODULES) if suite == "all" else [suite]
    read = {"seed"}.union(*(_check(name)[1] for name in names))
    unread = [f"--{key}" for key, v in params.items() if v is not None and key not in read]
    return [f"the {suite} suite does not read {', '.join(unread)}"] if unread else []


def run(suite: str, params: dict) -> list[VerificationReport]:
    """Execute one suite (or 'all'); returns the reports.  Each report
    records the flags its suite reads, and the seed."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if problems := _unread(suite, params):
        raise ValueError(problems[0])
    names = list(_SUITE_MODULES) if suite == "all" else [suite]
    reports = []
    for name in names:
        start = time.monotonic()
        check, flags = _check(name)
        parameters = {key: params[key] for key in ("seed", *flags) if params.get(key) is not None}
        rep = VerificationReport(suite=name, parameters=parameters, seed=parameters.get("seed", 0))
        check(rep, **{key: parameters[key] for key in flags if key in parameters})
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
    problems = _problems(params) + _unread(args.suite, params)
    if args.format is not None and not args.out:
        problems.append("--format is read only with --out")
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
            from .ambient import COMPOSITION_N

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
    pv.add_argument("--format", choices=("json", "csv"), default=None, help="json (the default) or csv")

    pt = sub.add_parser("table", help="emit a data table")
    pt.add_argument("kind", choices=("classalg", "isotypic"))
    pt.add_argument("--k", type=int, required=True)
    pt.add_argument("--dim", type=int, default=None)
    pt.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    outdir = os.environ.get("SUBSYM_OUT_DIR", ".")

    if args.command == "table":
        problems = _problems({"k": args.k, "dim": args.dim})
        if args.kind == "classalg" and args.dim is not None:
            problems.append("table classalg does not read --dim")
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
    fmt = args.format or "json"
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
                path = f"{root}_{rep.suite}{ext or '.' + fmt}"
            else:
                path = base
            try:
                emit(rep, path, fmt)
            except OSError as exc:
                pv.error(str(exc))
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
