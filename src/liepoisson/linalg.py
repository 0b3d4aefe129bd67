"""Exact linear algebra over Q(i).

Everything here is computed without rounding: row reduction, null spaces,
inverses and the Moore-Penrose pseudoinverse (the inverse of an invertible
matrix, and via rank factorization otherwise, so it is exact for any
rank).  No package code searches for eigenvalues.  The search over Q(i)
(:func:`eigenvalues_gaussian`, with
:func:`characteristic_polynomial` by Faddeev-LeVerrier and
:func:`roots_in_gaussian_rationals` by Gaussian-integer divisor enumeration)
is kept only because the benchmark's traced set (``bench/run.py``, ``TRACED``)
names ``linalg.eigenvalues_gaussian``.

An :class:`ExactMatrix` stores its rows as ``{column: value}`` dicts of
their nonzero entries, and this module is the only one that converts
between them and dense entries.  A vector is a row: :func:`null_space`
returns its kernel basis as the rows of one matrix, and there is no column
vector type.  Every algorithm reads the rows directly: the product is one
sparse row-times-rows accumulation (:func:`_row_product`), and there is one
elimination, :func:`_rref_rows`, a Gauss-Jordan on rows that keeps a column
index, so it touches only the rows holding each pivot column.  :func:`rref`,
:func:`rank`, :func:`null_space`, :func:`inverse` and :func:`pseudoinverse`
(both on the rows of [A | I], which give the pseudoinverse its rank, rref(A)
and, at full rank, A^-1 in one elimination) hand it a matrix's rows as they
are.  The one exception is a triangular matrix, which :func:`inverse`
inverts by substitution (:func:`_substitute`) instead.  A
:class:`BasisChange` that is diagonal or a single unit shear is not
inverted at all unless its inverse is read: the witness steps of those two
kinds are applied without it.

Only the public constructors coerce: ``ExactMatrix(rows, cols, entries)``,
``from_rows`` and ``diagonal`` accept ints, ``Fraction`` values
and scalar strings.  Every matrix computed here or elsewhere in the package
(arithmetic, ``transpose``, ``submatrix``, ``identity``, ``rref``,
``inverse``, tensor slices, basis changes, ...) already holds
:class:`GaussianRational` entries and goes through the trusted
``ExactMatrix._of``, which takes dense rows of scalars (dropping their
zeros) or ``{column: value}`` rows (kept as they are) and checks nothing.

Commuting families of matrices have one higher operation,
:func:`simultaneous_triangularize`: an invertible M, returned as a
:class:`BasisChange` witness, with M^-1 A M lower-triangular for every
member.  It is one flag of common kernels, :func:`_kernel_flag`, which the
classifier also calls directly, and it needs every member to have a single
eigenvalue (trace / n); families with more than one block are out of scope
and raise, with no eigenvalue search.  Commutation has one check,
:func:`noncommuting_pair`, row by row on the same sparse product, which the
tensor check in :mod:`liepoisson.extension` shares.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import (
    GaussianRational,
    ONE,
    UNITS,
    ZERO,
    as_scalar,
    gaussian_divisors,
    gr,
    parse_scalar,
)


class LinalgError(Exception):
    pass


class SplitFailure(LinalgError):
    """A characteristic polynomial has a root outside Q(i)."""

    def __init__(self, residual: Sequence[GaussianRational]):
        self.residual = list(residual)
        deg = len(self.residual) - 1
        super().__init__(
            f"characteristic polynomial has an irreducible factor of degree {deg} over Q(i)"
        )


class NotCommuting(LinalgError):
    """A matrix family fails pairwise commutation."""

    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(f"matrices {i} and {j} do not commute")


class ExactMatrix:
    """Matrix over Q(i), stored as one ``{column: value}`` dict of nonzeros per row.

    ``nz[i]`` is row i; no zero is ever stored, and the dicts are never changed
    once a matrix holds them, so :meth:`identity` builds one matrix per n.
    ``entries`` (row-major, built on each read), ``row``, ``col`` and
    ``[i, j]`` are read-only dense views; the package reads ``entries`` only
    to hash a matrix.
    """

    __slots__ = ("rows", "cols", "nz")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        entries = [as_scalar(x) for x in entries]
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        _init(self, rows, cols, [entries[i * cols:(i + 1) * cols] for i in range(rows)])

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def _of(rows: int, cols: int, data: Iterable) -> "ExactMatrix":
        """Trusted constructor: ``rows`` rows of scalars, each a dense sequence of ``cols`` values
        or a ``{column: value}`` dict holding no zero, which the matrix keeps as it is."""
        return _init(object.__new__(ExactMatrix), rows, cols, data)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return ExactMatrix(r, c, [x for row in rows for x in row])

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix._of(n, n, [{i: ONE} for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix._of(rows, cols, [{} for _ in range(rows)])

    @staticmethod
    def diagonal(values: Sequence) -> "ExactMatrix":
        vals = [as_scalar(v) for v in values]
        return ExactMatrix._of(len(vals), len(vals), [{i: x} if x else {} for i, x in enumerate(vals)])

    # -- element access ---------------------------------------------------

    def __getitem__(self, ij: Tuple[int, int]) -> GaussianRational:
        i, j = ij
        if 0 <= i < self.rows and 0 <= j < self.cols:
            return self.nz[i].get(j, ZERO)
        raise IndexError(f"entry ({i}, {j}) is outside a {self.rows}x{self.cols} matrix")

    @property
    def entries(self) -> Tuple[GaussianRational, ...]:
        return tuple(chain.from_iterable(map(self.row, range(self.rows))))

    def row(self, i: int) -> Tuple[GaussianRational, ...]:
        return tuple(map(self.nz[i].get, range(self.cols), repeat(ZERO, self.cols)))

    def col(self, j: int) -> Tuple[GaussianRational, ...]:
        return tuple(r.get(j, ZERO) for r in self.nz)

    def to_rows(self) -> List[List[GaussianRational]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def with_entry(self, i: int, j: int, value) -> "ExactMatrix":
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) is outside a {self.rows}x{self.cols} matrix")
        value = as_scalar(value)
        rows = list(self.nz)
        rows[i] = {k: x for k, x in rows[i].items() if k != j}
        if value:
            rows[i][j] = value
        return ExactMatrix._of(self.rows, self.cols, rows)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ExactMatrix":
        col_idx = list(col_idx)
        rows = [self.nz[i] for i in row_idx]
        return ExactMatrix._of(
            len(rows), len(col_idx), [{k: r[j] for k, j in enumerate(col_idx) if j in r} for r in rows]
        )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix._of(self.rows, self.cols, [
            {j: z for j in {**a, **b} if (z := a.get(j, ZERO) + b.get(j, ZERO))}
            for a, b in zip(self.nz, other.nz)
        ])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + -other

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._of(self.rows, self.cols, [{j: -x for j, x in r.items()} for r in self.nz])

    def scale(self, c) -> "ExactMatrix":
        c = as_scalar(c)
        return ExactMatrix._of(self.rows, self.cols, [{j: c * x for j, x in r.items()} if c else {} for r in self.nz])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return ExactMatrix._of(self.rows, other.cols, [_row_product(r, other.nz) for r in self.nz])

    def transpose(self) -> "ExactMatrix":
        out: List[Dict[int, GaussianRational]] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.nz):
            for j, x in r.items():
                out[j][i] = x
        return ExactMatrix._of(self.cols, self.rows, out)

    def conjugate_transpose(self) -> "ExactMatrix":
        return ExactMatrix._of(self.cols, self.rows, [{j: x.conjugate() for j, x in r.items()} for r in self.transpose().nz])

    def trace(self) -> GaussianRational:
        return sum((self[i, i] for i in range(min(self.rows, self.cols))), ZERO)

    # -- predicates -----------------------------------------------------------

    def _same_shape(self, other: "ExactMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.nz == other.nz

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def is_zero(self) -> bool:
        return not any(self.nz)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self.nz == ExactMatrix.identity(self.rows).nz

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.nz[j].get(i) == x for i, r in enumerate(self.nz) for j, x in r.items()
        )

    def is_hermitian(self) -> bool:
        return self.rows == self.cols and all(
            self.nz[j].get(i) == x.conjugate() for i, r in enumerate(self.nz) for j, x in r.items()
        )

    def is_lower_triangular(self) -> bool:
        return all(j <= i for i, r in enumerate(self.nz) for j in r)

    def diagonal_values(self) -> List[GaussianRational]:
        return [self[i, i] for i in range(min(self.rows, self.cols))]

    def __str__(self) -> str:
        body = [[str(x) for x in self.row(i)] for i in range(self.rows)]
        width = max((len(s) for row in body for s in row), default=1)
        return "\n".join("[" + "  ".join(s.rjust(width) for s in row) + "]" for row in body)

    __repr__ = __str__


def _init(m: ExactMatrix, rows: int, cols: int, data: Iterable) -> ExactMatrix:
    """Fill the slots of ``m``: dense rows lose their zeros, dict rows are kept."""
    nz = tuple(r if type(r) is dict else {j: x for j, x in enumerate(r) if x} for r in data)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "nz", nz)
    return m


def _row_product(row: Dict[int, GaussianRational], rows: Sequence[Dict[int, GaussianRational]]) -> Dict[int, GaussianRational]:
    """Row ``row`` times the matrix whose rows are ``rows``: only nonzero factors meet, zero sums are dropped."""
    acc: Dict[int, GaussianRational] = {}
    for k, x in row.items():
        for c, y in rows[k].items():
            z = acc.get(c)
            acc[c] = x * y if z is None else z + x * y
    return {c: z for c, z in acc.items() if z}


# ---------------------------------------------------------------------------
# Row reduction and everything built on it
# ---------------------------------------------------------------------------

def _rref_rows(
    rows: Iterable[Dict[int, GaussianRational]],
) -> Tuple[List[Dict[int, GaussianRational]], List[int]]:
    """Sparse Gauss-Jordan elimination: the nonzero rows of the RREF and its pivots.

    Each row is a ``{column: value}`` dict holding no zero; the rows are
    copied, never changed.  Columns are taken in increasing order, and a
    column index (stale entries skipped on use, fill-ins appended) limits the
    pivot search, for the shortest non-pivot row holding the column, and the
    update to the rows holding it.  The reduced row echelon form is unique,
    so the result is the same as any dense elimination's.
    """
    m = [dict(row) for row in rows if row]
    index: Dict[int, List[int]] = {}
    for i, row in enumerate(m):
        for j in row:
            index.setdefault(j, []).append(i)
    done: Dict[int, int] = {}  # pivot row -> its column, in pivot order
    for c in sorted(index):
        held = index.pop(c)
        p, size = -1, 0
        for i in held:
            if i not in done:
                row = m[i]
                if c in row and (p < 0 or len(row) < size):
                    p, size = i, len(row)
        if p < 0:
            continue
        prow = m[p]
        lead = prow[c]
        if not lead.is_one():
            inv = ONE / lead
            prow = m[p] = {j: inv * x for j, x in prow.items()}
        rest = [(j, x) for j, x in prow.items() if j != c]
        for i in held:
            row = m[i]
            f = row.pop(c, None) if i != p else None
            if f is not None:
                for j, x in rest:
                    y = row.get(j)
                    if y is None:
                        row[j] = -(f * x)
                        index[j].append(i)
                    elif y := y - f * x:
                        row[j] = y
                    else:
                        del row[j]
        done[p] = c
        if len(done) == len(m):
            break
    return [m[p] for p in done], list(done.values())


def rref(a: ExactMatrix) -> Tuple[ExactMatrix, List[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    reduced, pivots = _rref_rows(a.nz)
    return ExactMatrix._of(a.rows, a.cols, reduced + [{} for _ in range(a.rows - len(reduced))]), pivots


def rank(a: ExactMatrix) -> int:
    return len(_rref_rows(a.nz)[1])


def null_space(a: ExactMatrix) -> ExactMatrix:
    """Basis of the right kernel of ``a``, as the rows of a (cols - rank) x cols matrix.

    The free variable corresponding to each basis row is set to one and the
    pivots solved by back-substitution, so the rows are linearly independent
    by construction and ``a @ null_space(a).transpose()`` is zero.  No rows
    means the zero map: the basis is the identity.
    """
    basis = _kernel_vectors(*_rref_rows(a.nz), a.cols)
    return ExactMatrix._of(len(basis), a.cols, basis)


def _kernel_vectors(reduced: List[Dict[int, GaussianRational]], pivots: List[int], cols: int) -> List[Dict[int, GaussianRational]]:
    """The kernel basis of :func:`null_space` as ``{index: value}`` nonzeros, read off an RREF's rows and pivots."""
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = {f: ONE}
        for row, p in zip(reduced, pivots):
            x = row.get(f)
            if x is not None:
                v[p] = -x
        basis.append(v)
    return basis


def inverse(a: ExactMatrix) -> ExactMatrix:
    """a^-1 by substitution when a is triangular, else by one sparse row reduction of [a | I].

    A lower or upper triangular matrix (so every diagonal matrix and shear)
    is inverted row by row in :func:`_substitute`; a zero diagonal entry
    makes it singular.  Any other matrix goes through :func:`_rref_rows` on
    the rows of [a | I], which always has rank n: a is invertible exactly
    when the pivots are the columns 0..n-1 of a, and then the right half of
    the RREF is a^-1.  The inverse is unique, so both paths give the same
    matrix; the shape alone picks the path.
    """
    n = a.rows
    if n != a.cols:
        raise ValueError("only square matrices are invertible")
    if a.is_lower_triangular():
        return ExactMatrix._of(n, n, _substitute(a.nz, range(n)))
    if all(j >= i for i, r in enumerate(a.nz) for j in r):
        return ExactMatrix._of(n, n, _substitute(a.nz, range(n - 1, -1, -1)))
    reduced, pivots = _rref_rows({**r, n + i: ONE} for i, r in enumerate(a.nz))
    if pivots != list(range(n)):
        raise LinalgError("matrix is singular")
    return ExactMatrix._of(n, n, [{j - n: x for j, x in r.items() if j >= n} for r in reduced])


def _substitute(
    rows: Sequence[Dict[int, GaussianRational]], order: Iterable[int],
) -> List[Dict[int, GaussianRational]]:
    """The rows of T^-1 for a triangular T, by substitution over T's nonzeros.

    ``order`` visits every row after the rows its off-diagonal entries
    point at (increasing for lower, decreasing for upper triangular), so
    row i of T^-1 is (e_i - sum_{j != i} T_ij (row j of T^-1)) / T_ii with
    every row j already known.  The division is skipped when T_ii is one.
    """
    inv: List[Dict[int, GaussianRational]] = [{} for _ in rows]
    for i in order:
        row = rows[i]
        d = row.get(i)
        if d is None:
            raise LinalgError("matrix is singular")
        if len(row) == 1:
            inv[i] = {i: d if d.is_one() else ONE / d}
            continue
        acc = {i: ONE}
        for j, x in row.items():
            if j != i:
                for c, y in inv[j].items():
                    z = acc.get(c)
                    acc[c] = -(x * y) if z is None else z - x * y
        if not d.is_one():
            f = ONE / d
            inv[i] = {c: f * z for c, z in acc.items() if z}
        else:
            inv[i] = {c: z for c, z in acc.items() if z}
    return inv


def pseudoinverse(a: ExactMatrix) -> ExactMatrix:
    """Exact Moore-Penrose pseudoinverse: the inverse when A is invertible, else via rank factorization.

    See :func:`_pseudoinverse_rank`, which also returns the rank of A.
    """
    return _pseudoinverse_rank(a)[0]


def _pseudoinverse_rank(a: ExactMatrix) -> Tuple[ExactMatrix, int]:
    """The Moore-Penrose pseudoinverse of A and the rank of A, from one row reduction.

    One row reduction of [A | I] gives everything: its pivots left of the
    identity columns are those of A, the left parts of the rows holding them
    are rref(A), and when A is square of full rank the right half is A^-1.
    Otherwise, writing A = B C with B the pivot columns of A and C the
    nonzero rows of rref(A), the pseudoinverse is C* (C C*)^-1 (B* B)^-1 B*,
    with * the conjugate transpose so complex entries are handled.
    Satisfies all four Moore-Penrose identities exactly, for any rank.
    """
    n = a.cols
    reduced, pivots = _rref_rows({**r, n + i: ONE} for i, r in enumerate(a.nz))
    pivots = [p for p in pivots if p < n]
    k = len(pivots)
    if not k:
        return ExactMatrix.zeros(n, a.rows), 0
    if k == a.rows == n:
        return ExactMatrix._of(n, n, [{j - n: x for j, x in row.items() if j >= n} for row in reduced]), k
    b = a.submatrix(range(a.rows), pivots)
    c = ExactMatrix._of(k, n, [{j: x for j, x in row.items() if j < n} for row in reduced[:k]])
    ch = c.conjugate_transpose()
    bh = b.conjugate_transpose()
    return ch @ inverse(c @ ch) @ inverse(bh @ b) @ bh, k


# ---------------------------------------------------------------------------
# Characteristic polynomial and Q(i) eigenvalues
# ---------------------------------------------------------------------------

def characteristic_polynomial(a: ExactMatrix) -> List[GaussianRational]:
    """Coefficients [c0, c1, ..., 1] of det(xI - A), ascending order.

    Uses the Faddeev-LeVerrier recursion, which needs only exact matrix
    products and divisions by integers.
    """
    if a.rows != a.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = a.rows
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    m = ExactMatrix.identity(n)
    c = ONE
    for k in range(1, n + 1):
        m = a @ m if k == 1 else a @ (m + ExactMatrix.identity(n).scale(c))
        c = -(m.trace() / gr(k))
        coeffs[n - k] = c
    return coeffs


def _poly_deflate(coeffs: List[GaussianRational], root: GaussianRational) -> Optional[List[GaussianRational]]:
    """Divide by (x - root) by synthetic division; None if not a root."""
    q = []
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * root + c
        q.append(acc)
    if q[-1]:
        return None
    return list(reversed(q[:-1]))


def roots_in_gaussian_rationals(
    coeffs: Sequence[GaussianRational],
) -> Tuple[List[Tuple[GaussianRational, int]], List[GaussianRational]]:
    """All Q(i) roots with multiplicity, plus the unfactored residual.

    Candidate roots u/v are enumerated from Gaussian-integer divisors of the
    constant and leading coefficients after clearing denominators (the
    rational-root theorem over Z[i]), times units.
    """
    coeffs = list(coeffs)
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    roots: List[Tuple[GaussianRational, int]] = []
    # factor out x^k
    zmult = 0
    while len(coeffs) > 1 and not coeffs[0]:
        coeffs.pop(0)
        zmult += 1
    if zmult:
        roots.append((ZERO, zmult))
    if len(coeffs) <= 1:
        return roots, coeffs
    # clear denominators to land in Z[i]
    denom = 1
    for c in coeffs:
        denom = lcm(denom, c.denominator)
    zc = [c * gr(denom) for c in coeffs]
    candidates = []
    seen = set()
    for u in gaussian_divisors(zc[0]):
        for v in gaussian_divisors(zc[-1]):
            base = u / v
            for unit in UNITS:
                cand = base * unit
                if cand not in seen:
                    seen.add(cand)
                    candidates.append(cand)
    candidates.sort(key=lambda z: (z.norm(), z.sort_key()))
    work = coeffs
    for cand in candidates:
        mult = 0
        while len(work) > 1:
            d = _poly_deflate(work, cand)
            if d is None:
                break
            work = d
            mult += 1
        if mult:
            roots.append((cand, mult))
        if len(work) <= 1:
            break
    roots.sort(key=lambda rm: rm[0].sort_key())
    return roots, work


def eigenvalues_gaussian(a: ExactMatrix) -> List[Tuple[GaussianRational, int]]:
    """Eigenvalues of ``a`` in Q(i) with algebraic multiplicity.

    Raises :class:`SplitFailure` when the characteristic polynomial has a
    root outside Q(i); the exception carries the unfactored residual.
    """
    roots, residual = roots_in_gaussian_rationals(characteristic_polynomial(a))
    if len(residual) > 1:
        raise SplitFailure(residual)
    return roots


# ---------------------------------------------------------------------------
# BasisChange
# ---------------------------------------------------------------------------

class BasisChange:
    """An invertible coordinate change M, one square matrix stored once.

    ``m`` names M, and ``scale`` is always 1: it stays because witness
    documents carry a ``"scale"`` and the benchmark reads both.  Its
    ``kind`` is read off its rows once: "diagonal" when every row holds
    exactly its own diagonal entry, "shear" for a unit shear I + c E_ij
    (i != j), and None for any other matrix.  Those two
    kinds are invertible by their shape, and :func:`liepoisson.transform.apply`
    moves a tensor by them without M^-1, so their inverse ``m_inv`` is built
    on first read; any other matrix is inverted at construction by
    :func:`inverse` (by substitution when triangular, else by one sparse row
    reduction), so a singular one raises :class:`LinalgError` there.
    """

    __slots__ = ("m", "kind", "_m_inv")

    scale = ONE

    def __init__(self, m: ExactMatrix):
        if m.rows != m.cols:
            raise ValueError("basis change must be square")
        kind = _step_kind(m.nz)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_m_inv", None if kind else inverse(m))

    def __setattr__(self, name, value):
        raise AttributeError("BasisChange is immutable")

    @property
    def n(self) -> int:
        return self.m.rows

    @property
    def m_inv(self) -> ExactMatrix:
        if self._m_inv is None:
            object.__setattr__(self, "_m_inv", inverse(self.m))
        return self._m_inv

    def inverse(self) -> "BasisChange":
        return BasisChange(self.m_inv)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasisChange):
            return NotImplemented
        return self.m == other.m

    def __repr__(self):
        return f"BasisChange(\n{self.m}\n)"

    def to_json(self) -> dict:
        return {"m": [[str(x) for x in self.m.row(i)] for i in range(self.m.rows)], "scale": "1"}

    @staticmethod
    def from_json(doc: dict) -> "BasisChange":
        """Read ``{"m": rows, "scale": c}``; an optional ``"scale"`` c != 0 multiplies the last column."""
        m = ExactMatrix.from_rows([[parse_scalar(x) for x in row] for row in doc["m"]])
        c = parse_scalar(doc.get("scale", "1"))
        if not c:
            raise ValueError("scale must be nonzero")
        return BasisChange(m @ ExactMatrix.diagonal([ONE] * (m.cols - 1) + [c]) if m.cols else m)


def _step_kind(rows: Sequence[Dict[int, GaussianRational]]) -> Optional[str]:
    """"diagonal" when row i is exactly {i: d_i} for every i, "shear" when the diagonal is all
    ones and one row holds one more entry, else None (a missing diagonal entry included)."""
    if any(i not in row for i, row in enumerate(rows)):
        return None
    longer = [row for row in rows if len(row) > 1]
    if not longer:
        return "diagonal"
    if len(longer) == 1 and len(longer[0]) == 2 and all(row[i].is_one() for i, row in enumerate(rows)):
        return "shear"
    return None


# ---------------------------------------------------------------------------
# Simultaneous triangularization of commuting families
# ---------------------------------------------------------------------------

def noncommuting_pair(family: Sequence[ExactMatrix]) -> Optional[Tuple[int, int]]:
    """The first pair i < j with A_i A_j != A_j A_i, compared row by row as sparse products."""
    for i, a in enumerate(family):
        for j, b in enumerate(family[i + 1:], i + 1):
            for ra, rb in zip(a.nz, b.nz):
                if _row_product(ra, b.nz) != _row_product(rb, a.nz):
                    return i, j
    return None


def _kernel_flag(family: Sequence[ExactMatrix], n: int) -> Optional[ExactMatrix]:
    """M with every M^-1 A M lower-triangular, or None when some member has two eigenvalues.

    With N = A - (tr A / n) I per member, K_1 = ker [N_0; N_1; ...] and K_{j+1} = ker [Q_j N_0;
    Q_j N_1; ...], Q_j the nonzero RREF rows of level j, which also yield the kernel.  A level is
    one sparse product per member (:func:`_row_product` on each row of Q_j) and one
    :func:`_rref_rows`.  Free columns only grow; each level adds the null-space vectors of its
    newly free columns, deepest level last.  It reaches dimension n iff every N is nilpotent.
    """
    shifted = []
    for a in family:
        shift = a.trace() / gr(n) if n else ZERO
        rows = []
        for i, r in enumerate(a.nz):
            row = dict(r)
            y = row.pop(i, ZERO) - shift
            if y:
                row[i] = y
            rows.append(row)
        shifted.append(rows)
    q: List[Dict[int, GaussianRational]] = [{i: ONE} for i in range(n)]
    free: List[int] = []
    columns: List[Dict[int, GaussianRational]] = []
    while len(free) < n:
        q, pivots = _rref_rows(_row_product(qrow, s) for s in shifted for qrow in q)
        kernel = _kernel_vectors(q, pivots, n)
        pivot_set = set(pivots)
        now = [f for f in range(n) if f not in pivot_set]
        new = [v for f, v in zip(now, kernel) if f not in free]
        if not new:
            return None
        columns[:0] = new
        free = now
    return ExactMatrix._of(n, n, columns).transpose()


def simultaneous_triangularize(family: Sequence[ExactMatrix]) -> BasisChange:
    """Basis change M with M^-1 A M lower-triangular for every A in the family.

    The family must commute (else :class:`NotCommuting`) and form one block:
    every member has a single eigenvalue.  M is the flag of common kernels of
    :func:`_kernel_flag`; a family with more than one block stalls it and
    raises :class:`LinalgError`, with no eigenvalue search.
    """
    if not family:
        raise ValueError("empty family")
    n = family[0].rows
    if any(a.rows != a.cols or a.rows != n for a in family):
        raise ValueError("family matrices must be square and same size")
    pair = noncommuting_pair(family)
    if pair:
        raise NotCommuting(*pair)
    m = _kernel_flag(family, n)
    if m is None:
        raise LinalgError("family has more than one block: a member has two eigenvalues")
    bc = BasisChange(m)
    for a in family:
        if not (bc.m_inv @ a @ m).is_lower_triangular():
            raise LinalgError("internal error: triangularization postcondition failed")
    return bc
