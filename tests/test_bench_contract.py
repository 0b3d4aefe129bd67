"""The benchmark reaches into the package by name; keep those names alive.

``bench/run.py`` wraps the functions named in ``TRACED`` for its traced
pass, and ``bench/workloads.py`` reads ``.m.entries`` and ``.scale`` off
every classify witness step.  A deletion in the package that breaks either
would only show when the benchmark runs, so both are checked here.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

from liepoisson.classify import catalog, classify  # noqa: E402
from liepoisson.extension import append_semisimple  # noqa: E402
from liepoisson.linalg import BasisChange, ExactMatrix  # noqa: E402
from liepoisson.scalars import GaussianRational  # noqa: E402
from liepoisson.transform import apply  # noqa: E402


def test_every_traced_target_resolves_to_a_callable():
    assert run.TRACED
    for target in run.TRACED:
        module, name = target.split(".")
        assert callable(getattr(importlib.import_module(f"liepoisson.{module}"), name, None)), target


def test_witness_steps_expose_what_the_metrics_read():
    move = BasisChange(ExactMatrix.from_rows([[1, 2, 0, 0], [0, 1, 3, 0], [1, 0, 1, 0], [0, 0, 1, 2]]))
    inputs = [apply(t, move) for _, t in catalog(4).entries]
    inputs += [apply(append_semisimple(t), move) for _, t in catalog(3).entries]
    for t in inputs:
        label, chain = classify(t)
        # the moved abelian entry is still the zero tensor, so its chain is empty; every other one moves
        assert bool(chain) == ((label.name, label.semidirect) != ("n4-case1a", False)), label
        for b in chain:
            assert all(isinstance(x, GaussianRational) for x in b.m.entries)
            assert isinstance(b.scale, GaussianRational)
        assert (workloads.witness_max_bits(chain) > 0) == bool(chain)


def test_scalar_parts_are_fractions_and_scalars_hash_like_rationals():
    # workloads.max_bits reads .numerator and .denominator off z.re and z.im
    from fractions import Fraction

    from liepoisson.scalars import gr

    for z in (gr(0), gr(3), gr(Fraction(-5, 12)), gr(Fraction(1, 2), Fraction(-2, 3)), gr(0, 2 ** 70)):
        for q in (z.re, z.im):
            assert isinstance(q, Fraction)
            assert isinstance(q.numerator, int) and isinstance(q.denominator, int)
    assert workloads.max_bits([gr(Fraction(1, 2 ** 40), 2 ** 50)]) == 51
    for q in (0, 1, -3, 2 ** 64 + 1, Fraction(1, 3), Fraction(-7, 2 ** 65), Fraction(2 ** 61 - 1, 3)):
        assert gr(q) == q and q == gr(q)
        assert hash(gr(q)) == hash(q)
        assert {q: 1}[gr(q)] == 1
