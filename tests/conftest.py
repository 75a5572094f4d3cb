"""Shared fixtures and the acceptance-summary reporter.

Acceptance tests register one line each through ``record_criterion``; the
lines are replayed in a dedicated section of the terminal summary so the
pass/fail verdict per criterion is visible even when pytest captures stdout.
"""

import numpy as np
import pytest

from randblock.model import ModelParams, SingleSiteDistribution

_CRITERION_LINES: list[str] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    _CRITERION_LINES.append(f"criterion-{number}: {verdict}  {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_CRITERION_LINES):
        terminalreporter.write_line(line)


@pytest.fixture
def two_point_field():
    return SingleSiteDistribution.two_point(0.0, 1.0, 0.5)


@pytest.fixture
def xy_params(two_point_field):
    """Factory for the workhorse anisotropic chain used across the suite."""

    def make(n: int = 40, gamma: float = 0.5, rho=None) -> ModelParams:
        return ModelParams(n, gamma, two_point_field if rho is None else rho)

    return make


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
