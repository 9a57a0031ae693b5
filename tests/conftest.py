"""Shared test infrastructure.

The acceptance tests register one line per criterion here; the summary hook
prints them at the end of the run so every criterion shows a visible
PASS/FAIL verdict with its measured numbers.
"""

_CRITERIA = {}

# Rescalings over which every verdict must hold (the thresholds are relative).
SCALES = [1e-200, 1e-160, 1e-150, 1e-100, 1e-30, 1e-12,
          1e12, 1e30, 1e100, 1e150, 1e160, 1e200]


def record_criterion(num, passed, detail):
    _CRITERIA[num] = (bool(passed), detail)


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_CRITERIA):
        passed, detail = _CRITERIA[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[acceptance] criterion {num}: {verdict} - {detail}")
