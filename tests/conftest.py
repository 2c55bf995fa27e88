"""Fixtures shared by the test modules."""

import signal
import threading

import pytest

DEADLINE_S = 120


@pytest.fixture
def deadline():
    """Fail the test, rather than stall the suite, once it has run for
    DEADLINE_S: SIGALRM interrupts the main thread even while it waits on a
    lock.  Where there is no SIGALRM, or off the main thread, it does nothing."""
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"still running after {DEADLINE_S} s: a deadlock")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
