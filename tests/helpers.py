"""Helpers shared by several test modules."""

import signal
import time
from contextlib import contextmanager

from hypothesis import strategies as st

from liepoisson.classify import ClassificationError, NotSingleBlock, classify
from liepoisson.extension import strip_semisimple
from liepoisson.linalg import BasisChange, ExactMatrix, _kernel_flag
from liepoisson.scalars import ONE, sqrt_gaussian
from liepoisson.transform import apply


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


def stepwise_w0(t):
    """The W^(0) normalization that ``classify`` ran before the unit split, on a lower-triangular
    single block with slot 0 semidirect: the rescale, then each shear I - a E_lam0 applied to the
    tensor before the next W_lam^{00} is read.  Returns the moved tensor and the product of the moves."""
    n, total = t.n, ExactMatrix.identity(t.n)
    ev = t.entry(0, 0, 0)
    if not ev.is_one():
        total = ExactMatrix.identity(n).scale(ONE / ev)
        t = apply(t, BasisChange(total))
    for lam in range(1, n):
        a = t.entry(lam, 0, 0)
        if a:
            m = ExactMatrix.identity(n).with_entry(lam, 0, -a)
            t, total = apply(t, BasisChange(m)), total @ m
    return t, total


def classify_by_the_flag_at_order_n_plus_1(t):
    """The label of ``t`` by the path ``classify`` took before the unit split, an oracle for it.

    The kernel flag runs on all slices, the semisimple slot included; a lower-triangular result
    is one block exactly when its rows (lam, lam) are equal, every slice diagonal constant; a
    semidirect one is then normalized by :func:`stepwise_w0`, and its solvable part, stripped,
    is classified alone.  Refusals raise the classes ``classify`` raises.
    """
    if not t.is_lower_triangular():
        m = _kernel_flag(t.slices_upper(), t.n)
        if m is None:
            raise NotSingleBlock("tensor has more than one block: a slice has two eigenvalues")
        t = apply(t, BasisChange(m))
    if any(plane[lam] != t.nz[0][0] for lam, plane in enumerate(t.nz)):
        raise NotSingleBlock("tensor has blocks with distinct eigenvalues; split it first")
    if not t.semidirect:
        return classify(t)[0]
    if t.n == 1:
        raise ClassificationError("bare base bracket")
    return classify(strip_semisimple(stepwise_w0(t)[0]))[0]._replace(semidirect=True)


def normalize_diagonal_trying_every_entry(diag):
    """The former ``transform._normalize_diagonal``, an oracle for it: each nonzero entry is tried as c in turn.

    Returns (scalings t_i, signs, c) with t_i^2 d_i / c = signs_i from the first entry that fits, or None.
    """
    nonzero = [(i, d) for i, d in enumerate(diag) if d]
    if not nonzero:
        return [ONE] * len(diag), [0] * len(diag), ONE
    real = all(d.is_real() for _, d in nonzero)
    for _, c in nonzero:
        if real and c.re < 0:
            c = -c
        ts, signs = [ONE] * len(diag), [0] * len(diag)
        for i, d in nonzero:
            signs[i] = -1 if real and d.re < 0 else 1
            root = sqrt_gaussian(c / d if signs[i] == 1 else -c / d)
            if root is None:
                break
            ts[i] = root
        else:
            if signs.count(-1) > signs.count(1):
                c, signs = -c, [-s for s in signs]
            return ts, signs, c
    return None


def stored_rows(cube):
    """The ``{nu: value}`` rows of a dense cube with its zeros dropped, as ``ExtensionTensor._of`` takes them."""
    return [[{nu: x for nu, x in enumerate(row) if x} for row in plane] for plane in cube]


def last_column_scaled(m, c):
    """``m @ diag(1, ..., 1, c)``: ``m`` with its last column multiplied by ``c`` (none when it has no column)."""
    return m @ ExactMatrix.diagonal([1] * (m.cols - 1) + [c]) if m.cols else m


def is_hermitian(m):
    """Whether ``m`` is square and equals its conjugate transpose."""
    return m.rows == m.cols and all(m.nz[j].get(i) == x.conjugate() for i, r in enumerate(m.nz) for j, x in r.items())


def diagonal_values(m):
    """The entries m[i, i] of ``m``, zeros included."""
    return [m[i, i] for i in range(min(m.rows, m.cols))]


def uses_variable(poly, var):
    """Whether some term of ``poly`` has a nonzero exponent in variable ``var``."""
    return any(e[var] for e in poly.terms)


def leibniz_direction_one_fixtures():
    """The direction-one Leibniz invariants of orders 1 to 5 (the paper's Table 2), as table entries.

    Orders 1 to 4 are the first family of n1-abelian, n2-case2, n3-case4 and
    n4-case4b; order 5 has the terms of n4-case4b's semidirect extra family,
    whose flag ``family_sets_equal`` does not compare.
    """
    from liepoisson.tables import semidirect_extra_table, solvable_table

    table = solvable_table()
    return [table[name][0] for name in ("n1-abelian", "n2-case2", "n3-case4", "n4-case4b")] + \
        [semidirect_extra_table()["n4-case4b"]]


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
