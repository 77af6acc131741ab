import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

_ACCEPTANCE_RESULTS: dict[str, tuple[str, str]] = {}


def record_acceptance(number: int, label: str, detail: str = "") -> None:
    """Called by passing acceptance tests; failures are recorded by the hook."""
    _ACCEPTANCE_RESULTS[f"{number:02d}"] = ("PASS", f"{label}" + (f" — {detail}" if detail else ""))


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_c"):
        return
    num = name[6:8]
    if not num.isdigit():
        return
    if report.failed:
        _ACCEPTANCE_RESULTS[num] = ("FAIL", name)
    elif report.passed and num not in _ACCEPTANCE_RESULTS:
        _ACCEPTANCE_RESULTS[num] = ("PASS", name)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for num in sorted(_ACCEPTANCE_RESULTS):
        status, label = _ACCEPTANCE_RESULTS[num]
        terminalreporter.write_line(f"  criterion {int(num)}: {status} — {label}")
