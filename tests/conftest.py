import random
import time

import pytest

ACCEPTANCE_LINES = []


@pytest.fixture
def record_criterion():
    def _record(number, title, ok, elapsed):
        ACCEPTANCE_LINES.append(
            f"criterion {number:>2}: {'PASS' if ok else 'FAIL'}  ({elapsed:6.2f}s)  {title}"
        )

    return _record


@pytest.fixture(scope="session")
def three_column_skew():
    """The symbols suite's three-column-skew block at n = 2, 3 on Random(17 + n),
    run once per session: its report and wall time."""
    from subsym.boundary import BoundaryModel
    from subsym.symbols import three_column_skew_checks
    from subsym.report import VerificationReport

    rep = VerificationReport(suite="symbols", parameters={})
    t0 = time.monotonic()
    for n in (2, 3):
        three_column_skew_checks(rep, BoundaryModel(n), random.Random(17 + n))
    return rep, time.monotonic() - t0


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
