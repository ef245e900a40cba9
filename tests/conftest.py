import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


def pytest_collection_modifyitems(config, items):
    """Skip every ``@pytest.mark.extended`` test unless OPERADGB_EXTENDED=1:
    the one gate for the long arity-6 computations."""
    if os.environ.get("OPERADGB_EXTENDED") == "1":
        return
    skip = pytest.mark.skip(reason="set OPERADGB_EXTENDED=1 to run")
    for item in items:
        if item.get_closest_marker("extended") is not None:
            item.add_marker(skip)
