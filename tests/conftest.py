"""A per-test watchdog: a test that runs past TEST_TIME_LIMIT seconds gets
every thread's stack printed and ends the session with exit status 1, so a
hang fails the run instead of stalling it."""

import faulthandler
import os

import pytest

TEST_TIME_LIMIT = 120

WATCHDOG_STREAM = pytest.StashKey()


def pytest_configure(config):
    # pytest's fd capture redirects fd 2 (sys.__stderr__ included) while a
    # test runs; a copy of the descriptor taken now still reaches the terminal
    config.stash[WATCHDOG_STREAM] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    faulthandler.cancel_dump_traceback_later()
    config.stash[WATCHDOG_STREAM].close()


@pytest.fixture(autouse=True)
def _watchdog(request):
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT, exit=True, file=request.config.stash[WATCHDOG_STREAM])
    yield
    faulthandler.cancel_dump_traceback_later()
