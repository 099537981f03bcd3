from concurrent.futures import ThreadPoolExecutor

import pytest


@pytest.fixture
def pool():
    """A four-thread executor for `run_workflow`'s calls, shut down after the test."""
    with ThreadPoolExecutor(max_workers=4) as executor:
        yield executor


@pytest.fixture
def serial_pool():
    """A one-thread executor: calls run one at a time, in agent order."""
    with ThreadPoolExecutor(max_workers=1) as executor:
        yield executor
