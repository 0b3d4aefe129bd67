"""Timed passes over a round of items, with a per-item time limit.

The limit is a ``SIGALRM`` from ``signal.setitimer`` in the main thread: no
extra thread or process.  The handler raises :class:`ItemTimeout`, a
``BaseException``, so no ``except Exception`` on the way can swallow it.

An item's time is the CPU time of the main thread (``time.thread_time``)
spent in its call; the oracle runs after the clock has stopped.  On a shared
host that time still swings by up to 1.8x within seconds, as other tenants
load the same cores and caches.  So every call is bracketed by a run of
:func:`reference_kernel`, a fixed piece of exact rational arithmetic that
uses the standard library only, and the item's *cost* is its time divided
by the mean of the two reference times around it (an overrun's, by the one
before it, from which its limit was set).  A cost is in reference
units (``ref``): a change to ``liepoisson`` moves it, a change in the
host's speed mostly cancels out of it.  Time limits are given in the same
units and turned into seconds with the reference time just before the call.
"""

from __future__ import annotations

import functools
import os
import platform
import random
import resource
import signal
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter, thread_time
from typing import Callable, List, Optional, Sequence


# The time of one reference unit on an unloaded 2-vCPU Xeon host (the median
# of reference_ms there), a fixed rate to turn a cost back into seconds.
REFERENCE_SECONDS = 1.25e-3


@functools.lru_cache(maxsize=None)
def _reference_pool():
    """20000 fractions with six-digit terms, and a fixed order to visit them in."""
    rng = random.Random(0)
    pool = [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) for _ in range(20000)]
    order = list(range(len(pool)))
    rng.shuffle(order)
    return pool, order[:150]


def reference_kernel() -> Fraction:
    """The reference work, in two parts: Fraction arithmetic on small
    integers that stays in the L1 cache, and Fraction mul-adds on operands
    scattered over a few megabytes.  Together they resemble what the
    workloads spend their time on, interpreter-bound arithmetic on small
    objects and on objects spread over the heap, so other tenants' load on
    the cores and on the caches slows the kernel about as much as it slows
    a workload."""
    out = Fraction(0)
    for i in range(1, 100):
        out += Fraction(i, i + 7) * Fraction(3, i)
    pool, order = _reference_pool()
    for j in order:
        out = pool[j] * pool[j - 1] + pool[j - 2]
    return out


def reference_seconds() -> float:
    _reference_pool()  # built once, outside the clock
    start = thread_time()
    reference_kernel()
    return thread_time() - start


class ItemTimeout(BaseException):
    """An item ran past its time limit."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


@dataclass
class Outcome:
    item: int                 # index into the round
    round: int
    seconds: float            # CPU time of the call
    failure: Optional[str]    # None when the output was verified
    output: object = None
    ref: float = 0.0          # reference time around the call, in seconds

    @property
    def cost(self) -> float:
        """The call's time in reference units."""
        return self.seconds / self.ref

    @property
    def timed_out(self) -> bool:
        return self.failure is not None and self.failure.startswith("timeout")


def run_item(index: int, rnd: int, item, limit: Optional[float], check: bool = True) -> Outcome:
    """Call an item within ``limit`` seconds if given, then check its output.

    Only the call is timed.  A wrong output, an exception and an overrun all
    count as a failure at the time the call took; none of them stops the
    pass.  With ``check`` false the output is kept for :func:`check_outcomes`.
    """
    output, failure = None, None
    start = thread_time()
    try:
        try:
            if limit:
                signal.setitimer(signal.ITIMER_REAL, limit)
            output = item.call()
        finally:
            if limit:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemTimeout:
        failure = f"timeout after {limit:.2f} s"
    except Exception as exc:  # a faulty item is reported, the pass goes on
        failure = f"exception {type(exc).__name__}: {exc}"
    outcome = Outcome(index, rnd, thread_time() - start, failure, output)
    if check:
        _check(item, outcome)
    return outcome


def _check(item, outcome: Outcome) -> None:
    if outcome.failure is None:
        try:
            outcome.failure = item.check(outcome.output)
        except Exception as exc:
            outcome.failure = f"oracle raised {type(exc).__name__}: {exc}"


def check_outcomes(items: Sequence, outcomes: Sequence[Outcome]) -> None:
    """Run the oracle of every outcome of a pass made with ``check=False``."""
    for o in outcomes:
        _check(items[o.item], o)


@dataclass
class Pass:
    outcomes: List[Outcome]
    wall: float
    rounds: int

    @property
    def cost(self) -> float:
        """Cost of all the calls of the pass, in reference units."""
        return sum(o.cost for o in self.outcomes)


def run_pass(items: Sequence, limit: Optional[float], seconds: float = 0.0, min_rounds: int = 1,
             after_item: Optional[Callable[[], None]] = None,
             before_item: Optional[Callable[[int], None]] = None, check: bool = True,
             after_round: Optional[Callable[[], None]] = None) -> Pass:
    """Run whole rounds of ``items`` until ``seconds`` have passed and at
    least ``min_rounds`` rounds ran.

    ``limit`` is each call's time limit in reference units (None for no
    limit); ``check`` is as in :func:`run_item`; ``after_round`` runs,
    untimed, after every round.  Whole rounds keep the mix
    of cheap and expensive items the same in every run, whatever the
    stopping time.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    outcomes: List[Outcome] = []
    rounds = 0
    start = perf_counter()
    ref = reference_seconds()
    try:
        while True:
            for index, item in enumerate(items):
                if before_item:
                    before_item(index)
                outcome = run_item(index, rounds, item, limit * ref if limit else None, check)
                if after_item:
                    after_item()
                after = reference_seconds()
                # an overrun's limit was set from the reference before the
                # call, so that reference alone turns it back into a cost
                outcome.ref = ref if outcome.timed_out else (ref + after) / 2
                ref = after
                if rounds and check:
                    # every round does the same work; keeping the outputs of
                    # all of them would make peak RSS grow with the round count
                    outcome.output = None
                outcomes.append(outcome)
            rounds += 1
            if after_round:
                after_round()
            if perf_counter() - start >= seconds and rounds >= min_rounds:
                break
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return Pass(outcomes, perf_counter() - start, rounds)


def item_medians(outcomes: Sequence[Outcome], unit: str = "cost") -> List[float]:
    """Each item's median ``cost`` (or ``seconds``) over the rounds, in item order."""
    values = {}
    for o in outcomes:
        values.setdefault(o.item, []).append(getattr(o, unit))
    return [statistics.median(values[i]) for i in sorted(values)]


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (inclusive method) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
