"""Shared fixtures: one engine per test and one long principal series per
session (the expensive analysis inputs are reused across test modules).
The series fixtures are mu by length: index n holds mu(1, W_n)."""

from __future__ import annotations

import pytest

from permmobius import MobiusEngine, principal_mu_series


@pytest.fixture()
def engine() -> MobiusEngine:
    return MobiusEngine()


@pytest.fixture(scope="session")
def mu_20001():
    """Principal series long enough for every desk-scale analysis check."""
    return principal_mu_series(20001)


@pytest.fixture(scope="session")
def mu_1001():
    return principal_mu_series(1001)
