"""Invariants of ``report compare`` over a fixed slice of the seeded scan in
``tests/scan.py``: all 16 genus pairs and 3 polarizations, ``c2`` from 1 to 20,
960 complete runs in about 0.4 s (the budget is 2 s)."""

import pytest

from scan import GENERA, POLARIZATIONS, compare_scan, exchange_violations, false_recovery_violations


@pytest.fixture(scope="module")
def scan():
    return compare_scan(GENERA, POLARIZATIONS, range(1, 21))


def test_exchanging_the_factors_exchanges_the_strata(scan):
    # unequal genera and unequal polarization entries are in the slice, so
    # the exchange moves something
    assert any(g1 != g2 and alpha != beta for g1, g2, alpha, beta, _ in scan)
    assert exchange_violations(scan) == []


def test_a_false_verdict_stays_false_as_c2_rises(scan):
    verdicts = {report.verdict for report in scan.values()}
    assert verdicts == {"true", "false", "not-established"}
    assert false_recovery_violations(scan) == []
