"""Fixtures shared by the test modules."""

import pytest

import swanson.checks


def _clear_check_caches():
    for value in vars(swanson.checks).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture
def fresh_checks():
    """Empty every cache of swanson.checks around a test that patches what
    the cached functions call or counts what they build."""
    _clear_check_caches()
    yield
    _clear_check_caches()
