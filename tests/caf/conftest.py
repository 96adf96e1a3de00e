"""Fixtures shared by the CAF tests."""

import pytest

from tests.caf.oracle import per_call


@pytest.fixture
def per_call_oracle():
    """Section accesses run through the per-call reference loops
    (:mod:`tests.caf.oracle`) for the duration of the test."""
    with per_call():
        yield
