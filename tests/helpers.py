"""Helpers shared by several test modules."""

import signal
import time
from contextlib import contextmanager

from hypothesis import strategies as st

from liepoisson.linalg import BasisChange, ExactMatrix


def dense_unimodular(n):
    """A fixed dense unimodular change L U of order n, so that classify triangularizes first.

    L and U have unit diagonals and entries 1 to 3 off them, so the product
    has no zero entry and moves every tensor that is not abelian off the
    lower triangle.
    """
    lower = ExactMatrix.from_rows([[(i + 2 * j) % 3 + 1 if j < i else int(i == j) for j in range(n)]
                                   for i in range(n)])
    upper = ExactMatrix.from_rows([[(2 * i + j) % 3 + 1 if j > i else int(i == j) for j in range(n)]
                                   for i in range(n)])
    return BasisChange(lower @ upper)


def last_column_scaled(m, c):
    """``m @ diag(1, ..., 1, c)``: ``m`` with its last column multiplied by ``c`` (none when it has no column)."""
    return m @ ExactMatrix.diagonal([1] * (m.cols - 1) + [c]) if m.cols else m


@contextmanager
def cpu_seconds_at_most(seconds):
    """Fail instead of hanging: the body is stopped after ``seconds`` of CPU time.

    A body that ends in time but spent ``seconds`` or more fails too.
    """

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s of CPU time")

    previous = signal.signal(signal.SIGVTALRM, expire)
    signal.setitimer(signal.ITIMER_VIRTUAL, seconds)
    start = time.process_time()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)
    assert time.process_time() - start < seconds


def gaussian_ints(bound, nonzero=False):
    """Gaussian integers as (x, y) int pairs with parts in [-bound, bound]."""
    pairs = st.tuples(st.integers(-bound, bound), st.integers(-bound, bound))
    return pairs.filter(lambda z: z != (0, 0)) if nonzero else pairs
