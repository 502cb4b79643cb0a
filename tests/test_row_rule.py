"""Every suite row is made by one rule, SuiteReport.row: no module of the
package but hotk/report.py adds a row by hand."""

from pathlib import Path

import hotk

PACKAGE = Path(hotk.__file__).parent


def test_only_the_report_module_adds_rows():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 20
    assert [str(p.relative_to(PACKAGE)) for p in modules
            if p.name != "report.py" and "report.add(" in p.read_text()] == []
