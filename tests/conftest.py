"""Shared fixtures: one engine per test and one long principal series per
session (the expensive analysis inputs are reused across test modules).
The series fixtures are mu by length: index n holds mu(1, W_n)."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import permmobius
from permmobius import MobiusEngine, principal_mu_series

# Child interpreters (the CLI and import tests) import the package under test.
_SRC = str(Path(permmobius.__file__).parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)


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
