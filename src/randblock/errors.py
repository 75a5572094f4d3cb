"""Shared exception types."""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration or parameters (CLI exit code 2)."""


class NumericalFailure(RuntimeError):
    """A computation could not produce a trustworthy result (CLI exit code 3)."""
