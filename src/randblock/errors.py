"""Shared exception types."""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration or parameters (CLI exit code 2)."""


class NumericalFailure(RuntimeError):
    """A computation could not produce a trustworthy result (CLI exit code 3); `chain` indexes a failing chain of a batch."""

    def __init__(self, message: str, chain: int | None = None):
        super().__init__(message)
        self.chain = chain
