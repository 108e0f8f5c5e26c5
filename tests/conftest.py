"""A time bound on every test, so that a test that hangs fails the suite instead of stalling it.

faulthandler's watchdog thread dumps every thread's stack to the terminal and
exits the run with status 1 when a test outlives the bound. The bound is well
above the slowest budget a test checks, criterion 02's 60 s. It uses no
signal: `_sample` in test_library_properties.py sets SIGALRM through
ITIMER_REAL itself.
"""

import faulthandler
import os

import pytest

TEST_TIME_LIMIT_S = 300
# A copy of file descriptor 2 taken before any test runs: while a test runs,
# pytest captures descriptor 2 itself.
TERMINAL_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[TERMINAL_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[TERMINAL_STDERR])


@pytest.fixture(autouse=True)
def _time_bound(pytestconfig):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=pytestconfig.stash[TERMINAL_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
