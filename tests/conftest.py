"""Shared fixtures: the built-in example systems and their analyses."""

from __future__ import annotations

import pytest

from faultcast import analyze, drifting_plant, fan_system

from helpers import long_fuse, short_fuse


@pytest.fixture(scope="session")
def plant():
    return drifting_plant()


@pytest.fixture(scope="session")
def fuse_short():
    return short_fuse()


@pytest.fixture(scope="session")
def fuse_long():
    return long_fuse()


@pytest.fixture(scope="session")
def fan2():
    return fan_system(2)


@pytest.fixture(scope="session")
def plant_analysis(plant):
    return analyze(plant, witnesses=True)


@pytest.fixture(scope="session")
def short_analysis(fuse_short):
    return analyze(fuse_short, witnesses=True)


@pytest.fixture(scope="session")
def long_analysis(fuse_long):
    return analyze(fuse_long, witnesses=True)


@pytest.fixture(scope="session")
def fan2_analysis(fan2):
    return analyze(fan2, witnesses=True)


def names(model, ids):
    """Map state indices to names, keeping the container shape."""
    if isinstance(ids, tuple) and len(ids) == 2 and all(isinstance(x, int) for x in ids):
        return (model.states[ids[0]], model.states[ids[1]])
    return sorted(model.states[q] for q in ids)
