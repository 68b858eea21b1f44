"""The acceptance battery: one test per criterion, exact tolerances.

Each criterion runs the `subsym verify` suite that states its identities,
so every identity is written once, in the suite beside its layer.  A
criterion passes when its suite passes with the pinned number of checks
inside the stated runtime budget (generously met on any desk machine;
budgets come from the build contract).  Each test also prints a pass/fail line through the
terminal-summary hook in conftest.py.  Criterion 10 reads the timed
three-column-skew fixture of conftest.py, which
`test_symbols.py::test_skew_three_columns_kills_symbols` shares.
"""

import functools
import time

from subsym import cli


@functools.cache
def verify(suite, seed=0):
    """One suite's report at its default parameters, and its wall time."""
    t0 = time.monotonic()
    (rep,) = cli.run(suite, {"seed": seed})
    return rep, time.monotonic() - t0


def finish(record, number, title, rep, elapsed, checks, budget):
    ok = rep.passed and len(rep.checks) == checks
    record(number, title, ok and elapsed < budget, elapsed)
    failed = [(c.name, c.witness) for c in rep.checks if c.status != "pass"]
    assert not failed, f"criterion {number} failed: {failed}"
    assert len(rep.checks) == checks, f"criterion {number} ran {len(rep.checks)} checks"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_1_classalg_tables(record_criterion):
    finish(record_criterion, 1, "class-algebra tables k=2, k=3 exact",
           *verify("classalg"), 19, 1.0)


def test_criterion_2_oracle_equivalence(record_criterion):
    finish(record_criterion, 2, "class_multiply == center_convolution, all pairs k <= 5",
           *verify("classalg"), 19, 30.0)


def test_criterion_3_commutant_crosscheck(record_criterion):
    finish(record_criterion, 3, "commutant products match class algebra, (2,4) and (3,6)",
           *verify("commutant"), 5, 120.0)


def test_criterion_4_reduction(record_criterion):
    finish(record_criterion, 4, "reduction theorem, n in {1,2}, |w1-w2| <= 4, deg <= 3",
           *verify("reduction"), 10, 60.0)


def test_criterion_5_commutation(record_criterion):
    finish(record_criterion, 5, "[lap, D_V] = 0, [D_V, r] = 0 (n <= 3) + bracket closure",
           *verify("commutation", seed=42), 8, 60.0)


def test_criterion_6_composition_identity(record_criterion):
    finish(record_criterion, 6, "composition identity n=2, 5 seeded pairs, bound 3",
           *verify("composition", seed=42), 16, 180.0)


def test_criterion_7_prop1(record_criterion):
    finish(record_criterion, 7,
           "type-coefficient construction (2,1),(3,1),(4,2), n=3 + combinatorics",
           *verify("prop1"), 19, 180.0)


def test_criterion_8_decomposition_dims(record_criterion):
    finish(record_criterion, 8,
           "isotypic ranks {84,20} sum 104 at (2,4); p(k) components, k <= 3",
           *verify("decompose"), 7, 180.0)


def test_criterion_9_highest_weight_vectors(record_criterion):
    finish(record_criterion, 9,
           "highest-weight vectors nonzero, skew vanishing on 5 seeds/shape",
           *verify("hwvectors"), 4, 60.0)


def test_criterion_10_el2_vanishing(record_criterion, three_column_skew):
    finish(record_criterion, 10,
           "three-column alternation induces zero symbols, d=3, n in {2,3}",
           *three_column_skew, 4, 60.0)
