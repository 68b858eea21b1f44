"""Structured verification reports with deterministic serialization.

A report carries one entry per check: name, status ('pass' | 'fail') and an
exact witness string for anything that did not pass; any failed check fails
the run (nonzero exit).

Emitted JSON/CSV is byte-stable for identical requests: keys are sorted,
scalars use canonical exact strings, and wall-clock timing is kept on the
in-memory object only.
"""

from __future__ import annotations

import json

SCHEMA_VERSION = 1


class CaseResults(list):
    """A check's failures, in the order found, each the witness string a
    report prints, and ``cases``: the number of cases it examined.  The check
    passes when the list is empty; its first failure is its witness."""

    def __init__(self, failures, cases):
        super().__init__(failures)
        self.cases = cases


class CheckResult:
    __slots__ = ("name", "status", "witness")

    def __init__(self, name, status, witness=None):
        self.name = name
        self.status = status  # pass | fail
        self.witness = witness


class VerificationReport:
    def __init__(self, suite, parameters, checks=None, notes=None, seed=None, elapsed_seconds=None):
        self.suite = suite
        self.parameters = parameters
        self.checks = [] if checks is None else checks
        self.notes = [] if notes is None else notes
        self.seed = seed
        self.elapsed_seconds = elapsed_seconds

    def add(self, name, ok, witness=None, cases=None):
        """Record one check; a check that examined 0 ``cases`` fails as vacuous."""
        if cases == 0:
            ok, witness = False, "vacuous: 0 cases"
        self.checks.append(CheckResult(name, "pass" if ok else "fail", None if ok else witness))

    def check(self, name, failures: CaseResults):
        """Record a check from its CaseResults: the first failure is the witness."""
        self.add(name, not failures, failures[0] if failures else None, cases=failures.cases)

    def note(self, text):
        self.notes.append(text)

    @property
    def status(self) -> str:
        return "fail" if any(c.status == "fail" for c in self.checks) else "pass"

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_jsonable(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "parameters": {k: self.parameters[k] for k in sorted(self.parameters)},
            "seed": self.seed,
            "status": self.status,
            "checks": [
                {"name": c.name, "status": c.status, "witness": c.witness}
                for c in self.checks
            ],
            "notes": list(self.notes),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=2) + "\n"

    def summary_lines(self):
        for c in self.checks:
            mark = c.status.upper()
            suffix = "" if c.witness is None else f"  witness: {c.witness}"
            yield f"[{mark}] {self.suite}: {c.name}{suffix}"


def emit(report: VerificationReport, path, fmt="json"):
    """Write a report; byte-stable for fixed inputs (timing excluded)."""
    if fmt == "json":
        data = report.dumps()
    elif fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["suite", "check", "status", "witness"])
        for c in report.checks:
            w.writerow([report.suite, c.name, c.status, c.witness or ""])
        data = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    try:
        with open(path, "w") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
    return path


def classalg_table_csv(k, path):
    """CSV of class-algebra structure constants: cell lists '(tau):p/q'."""
    import csv
    import io

    from .classalg import partitions, structure_constant_table
    from .scalars import rat_str

    table = structure_constant_table(k)
    parts = list(partitions(k))

    def fmt_cell(coeffs):
        return "; ".join(f"{list(tau)}:{rat_str(coeffs[tau])}" for tau in parts if tau in coeffs)

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["lhs\\rhs"] + [str(list(mu)) for mu in parts])
    for lam in parts:
        w.writerow([str(list(lam))] + [fmt_cell(table[(lam, mu)]) for mu in parts])
    with open(path, "w") as fh:
        fh.write(buf.getvalue())
    return path


def isotypic_table_json(k, N, path):
    from .classalg import partitions

    from .decompose import isotypic_dim, isotypic_table

    table = isotypic_table(k, N)
    data = {
        "schema_version": SCHEMA_VERSION,
        "k": k,
        "dim": N,
        "ranks": {str(list(lam)): table[lam] for lam in partitions(k)},
        "total": sum(table.values()),
        "weyl_formula": {str(list(lam)): isotypic_dim(lam, N) for lam in partitions(k)},
        "stable_range": N >= 2 * k,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
    return path
