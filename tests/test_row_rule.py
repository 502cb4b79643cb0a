"""Every suite row is made by one rule, SuiteReport.row: no module of the
package but hotk/report.py adds a row by hand.  Every suite is judged by
one rule, SuiteReport.failed, and exits by it in hotk.cli._suite."""

from pathlib import Path

import pytest

import hotk
from hotk.cli import _suite
from hotk.report import EXPECTED_FAIL, FAIL, PASS, SKIPPED, SuiteReport

PACKAGE = Path(hotk.__file__).parent


def _report(*rows):
    """A report of (name, status, fail note) rows, made by SuiteReport.row."""
    report = SuiteReport("hand-built")
    for name, status, note in rows:
        report.row(name, [(status, "budget" if status == SKIPPED else None)],
                   fail_note=note)
    return report


EXPECTED = [("endless^k", FAIL, EXPECTED_FAIL), ("infinity^k", FAIL, EXPECTED_FAIL)]


def test_only_the_report_module_adds_rows():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 20
    assert [str(p.relative_to(PACKAGE)) for p in modules
            if p.name != "report.py" and "report.add(" in p.read_text()] == []


def test_expected_fails_do_not_fail_a_report():
    assert not _report(("extensionality^k", PASS, None), *EXPECTED).failed
    assert not _report(*EXPECTED).failed


@pytest.mark.parametrize("note", [None, "40 instances", "expected FAIL"])
def test_any_other_fail_fails_a_report(note):
    """A noted FAIL fails the report unless its note is EXPECTED_FAIL, so
    separation^k's size note does not excuse it."""
    assert _report(*EXPECTED, ("separation^k", FAIL, note)).failed


@pytest.mark.parametrize("rows, code", [
    ([("extensionality^k", PASS, None)], 0),
    (EXPECTED, 0),
    ([*EXPECTED, ("stratification^k", SKIPPED, None)], 3),
    ([*EXPECTED, ("stratification^k", SKIPPED, None),
      ("separation^k", FAIL, "40 instances")], 1),
])
def test_every_suite_exits_by_the_one_rule(rows, code):
    """1 if the report failed, else 3 if a row is SKIPPED, else 0."""
    report = _report(*rows)
    assert _suite(report) == (report.to_json(), report.lines(), code)
