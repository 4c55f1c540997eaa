"""Shared pytest configuration.

Hypothesis runs derandomized so a red build reproduces identically on any
machine, the ``clip_calls`` fixture counts the polygons ``HullState``
clips, and the acceptance tests get a one-line PASS/FAIL roll-up printed
after the terminal summary.
"""

import pytest
from hypothesis import settings

from trajsimp.baselines import HullState

settings.register_profile("ci", derandomize=True, deadline=None)
# A longer run of the same derandomized search, for one test at a time:
# pytest --hypothesis-profile deep tests/test_reference.py::<test>
settings.register_profile("deep", parent=settings.get_profile("ci"),
                          max_examples=2000)
settings.load_profile("ci")


@pytest.fixture
def clip_calls(monkeypatch):
    """The boxes HullState clips into polygons while the test runs."""
    calls = []
    clipped = HullState._clipped

    def counted(box):
        calls.append(box)
        return clipped(box)

    monkeypatch.setattr(HullState, "_clipped", staticmethod(counted))
    return calls

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::test_criterion_" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE[name] = report.outcome
    elif report.outcome != "passed":
        # a setup/teardown error never reaches the call phase
        _ACCEPTANCE.setdefault(name, report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        outcome = _ACCEPTANCE[name]
        label = {"passed": "PASS", "failed": "FAIL"}.get(outcome, outcome.upper())
        terminalreporter.write_line(f"{label}  {name}")
