"""Shared pytest wiring: one Hypothesis profile for every property test, and
the acceptance summary lines echoed after the run.

The profile draws the same examples on every run (``derandomize``), sets no
per-example deadline, and suppresses the two health checks that the small
exhaustive hosts trip.  A test states only its ``max_examples``, and any
health check it keeps.
"""

import sys

from hypothesis import HealthCheck, settings

settings.register_profile(
    "turanlab",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("turanlab")


def pytest_terminal_summary(terminalreporter):
    for name in ("test_acceptance", "tests.test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None:
            for line in getattr(mod, "SUMMARY_LINES", ()):
                terminalreporter.write_line(line)
            break
