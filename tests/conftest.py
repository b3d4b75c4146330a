"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import commutant


@pytest.fixture(scope="session")
def package_env():
    """Environment for a child interpreter that imports this checkout's package.

    The directory holding the imported `commutant` goes first on PYTHONPATH,
    so `python -m commutant.cli` and `python -c` children run the same code
    as the tests, installed or not.
    """
    src = str(Path(commutant.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
