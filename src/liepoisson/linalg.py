"""Exact linear algebra over Q(i).

Everything here is computed without rounding: row reduction, null spaces,
inverses, the Moore-Penrose pseudoinverse (via rank factorization, so it is
exact for any rank), characteristic polynomials (Faddeev-LeVerrier), and
eigenvalue search restricted to Q(i) by Gaussian-integer divisor enumeration.

Matrices are dense :class:`ExactMatrix` values, but there is one elimination
and it is sparse: :func:`_rref_rows` runs Gauss-Jordan on rows held as
``{column: value}`` dicts of their nonzero entries, touching only the rows
that hold each pivot column.  :func:`rref` (and with it ``rank`` and
``pseudoinverse``) and :func:`null_space` convert to it.  :func:`inverse`
hands it the nonzeros of [A | I] directly, and callers that build large
sparse systems, such as the quadratic Casimir solver, pass their rows to
:func:`null_space_rows`.

Only the public constructors coerce: ``ExactMatrix(rows, cols, entries)``,
``from_rows``, ``column`` and ``diagonal`` accept ints, ``Fraction`` values
and scalar strings.  Every matrix computed here (arithmetic, ``transpose``,
``submatrix``, ``identity``, ``rref``, ``inverse``, ...) already holds
:class:`GaussianRational` entries and goes through the trusted
``ExactMatrix._of``, which checks and converts nothing.

Commuting families of matrices have one higher operation,
:func:`simultaneous_triangularize`: an invertible M, returned as a
:class:`BasisChange` witness, with M^-1 A M lower-triangular for every
member.  It is one flag of common kernels, :func:`_kernel_flag`, which the
classifier also calls directly, and it needs every member to have a single
eigenvalue (trace / n); families with more than one block are out of scope
and raise, with no eigenvalue search.  Commutation has one sparse check,
:func:`noncommuting_pair`, which ``extension.validate`` shares.
"""

from __future__ import annotations

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
    """Dense matrix with GaussianRational entries, stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        entries = tuple(as_scalar(x) for x in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def _of(rows: int, cols: int, entries: Iterable[GaussianRational]) -> "ExactMatrix":
        """Trusted constructor: ``entries`` are already rows * cols scalars, in row-major order."""
        m = object.__new__(ExactMatrix)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", tuple(entries))
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return ExactMatrix(r, c, [x for row in rows for x in row])

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix._of(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix._of(rows, cols, [ZERO] * (rows * cols))

    @staticmethod
    def diagonal(values: Sequence) -> "ExactMatrix":
        vals = [as_scalar(v) for v in values]
        n = len(vals)
        return ExactMatrix._of(n, n, [vals[i] if i == j else ZERO for i in range(n) for j in range(n)])

    @staticmethod
    def column(values: Sequence) -> "ExactMatrix":
        vals = list(values)
        return ExactMatrix(len(vals), 1, vals)

    # -- element access ---------------------------------------------------

    def __getitem__(self, ij: Tuple[int, int]) -> GaussianRational:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple[GaussianRational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Tuple[GaussianRational, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> List[List[GaussianRational]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def with_entry(self, i: int, j: int, value) -> "ExactMatrix":
        e = list(self.entries)
        e[i * self.cols + j] = as_scalar(value)
        return ExactMatrix._of(self.rows, self.cols, e)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ExactMatrix":
        return ExactMatrix._of(
            len(row_idx),
            len(col_idx),
            [self[i, j] for i in row_idx for j in col_idx],
        )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix._of(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix._of(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._of(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, c) -> "ExactMatrix":
        c = as_scalar(c)
        return ExactMatrix._of(self.rows, self.cols, [c * a for a in self.entries])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    a = ri[k]
                    if a:
                        acc = acc + a * other.entries[k * other.cols + j]
                out.append(acc)
        return ExactMatrix._of(self.rows, other.cols, out)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._of(
            self.cols, self.rows, [self[i, j] for j in range(self.cols) for i in range(self.rows)]
        )

    def conjugate_transpose(self) -> "ExactMatrix":
        return ExactMatrix._of(
            self.cols, self.rows,
            [self[i, j].conjugate() for j in range(self.cols) for i in range(self.rows)],
        )

    def trace(self) -> GaussianRational:
        return sum((self[i, i] for i in range(min(self.rows, self.cols))), ZERO)

    # -- predicates -----------------------------------------------------------

    def _same_shape(self, other: "ExactMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def is_zero(self) -> bool:
        return all(not a for a in self.entries)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == ExactMatrix.identity(self.rows)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i)
        )

    def is_hermitian(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == self[j, i].conjugate() for i in range(self.rows) for j in range(i + 1)
        )

    def is_lower_triangular(self) -> bool:
        return all(
            not self[i, j] for i in range(self.rows) for j in range(i + 1, self.cols)
        )

    def diagonal_values(self) -> List[GaussianRational]:
        return [self[i, i] for i in range(min(self.rows, self.cols))]

    def __str__(self) -> str:
        body = [[str(x) for x in self.row(i)] for i in range(self.rows)]
        width = max((len(s) for row in body for s in row), default=1)
        return "\n".join("[" + "  ".join(s.rjust(width) for s in row) + "]" for row in body)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Row reduction and everything built on it
# ---------------------------------------------------------------------------

def _rref_rows(
    rows: Iterable[Dict[int, GaussianRational]],
) -> Tuple[List[Dict[int, GaussianRational]], List[int]]:
    """Sparse Gauss-Jordan elimination: the nonzero rows of the RREF and its pivots.

    Each row is a ``{column: value}`` dict of its nonzero entries (zeros are
    dropped on the way in).  Columns are taken in increasing order; the pivot
    is the shortest remaining row holding the column, its normalization is
    skipped when the pivot entry is already one, and only the rows holding
    the pivot column are updated.  The reduced row echelon form is unique,
    so the result is the same as any dense elimination's.
    """
    m = [d for d in ({j: x for j, x in row.items() if x} for row in rows) if d]
    pivots: List[int] = []
    r = 0
    for c in sorted({j for row in m for j in row}):
        held = [i for i in range(r, len(m)) if c in m[i]]
        if not held:
            continue
        p = min(held, key=lambda i: len(m[i]))
        m[r], m[p] = m[p], m[r]
        prow = m[r]
        lead = prow[c]
        if not lead.is_one():
            inv = ONE / lead
            prow = m[r] = {j: inv * x for j, x in prow.items()}
        rest = [(j, x) for j, x in prow.items() if j != c]
        for i, row in enumerate(m):
            if i != r and c in row:
                f = row.pop(c)
                for j, x in rest:
                    y = row.get(j)
                    y = -(f * x) if y is None else y - f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rref(a: ExactMatrix) -> Tuple[ExactMatrix, List[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    reduced, pivots = _rref_rows(dict(enumerate(a.row(i))) for i in range(a.rows))
    entries = [row.get(j, ZERO) for row in reduced for j in range(a.cols)]
    entries += [ZERO] * ((a.rows - len(reduced)) * a.cols)
    return ExactMatrix._of(a.rows, a.cols, entries), pivots


def rank(a: ExactMatrix) -> int:
    return len(rref(a)[1])


def null_space(a: ExactMatrix) -> List[ExactMatrix]:
    """Basis of the right kernel of ``a`` as column vectors (see :func:`null_space_rows`)."""
    return null_space_rows((dict(enumerate(a.row(i))) for i in range(a.rows)), a.cols)


def null_space_rows(rows: Iterable[Dict[int, object]], cols: int) -> List[ExactMatrix]:
    """Right kernel of the matrix whose rows are the sparse ``{column: value}`` dicts.

    The free variable corresponding to each returned vector is set to one and
    the pivots solved by back-substitution, so the count is always
    cols - rank and the vectors are linearly independent by construction.
    No rows means the zero map: every standard vector is returned.
    """
    reduced, pivots = _rref_rows({j: as_scalar(x) for j, x in row.items()} for row in rows)
    return _kernel_vectors(reduced, pivots, cols)


def _kernel_vectors(reduced: List[Dict[int, GaussianRational]], pivots: List[int], cols: int) -> List[ExactMatrix]:
    """The kernel basis of :func:`null_space_rows`, read off an RREF's nonzero rows and pivots."""
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [ZERO] * cols
        v[f] = ONE
        for row, p in zip(reduced, pivots):
            x = row.get(f)
            if x:
                v[p] = -x
        basis.append(ExactMatrix._of(cols, 1, v))
    return basis


def inverse(a: ExactMatrix) -> ExactMatrix:
    """One sparse row reduction of [a | I], held as rows of nonzeros.

    [a | I] always has rank n; a is invertible exactly when the pivots are
    the columns 0..n-1 of a, and then the right half of the RREF is a^-1.
    A shear, a permutation or a diagonal matrix touches O(n) entries.
    """
    n = a.rows
    if n != a.cols:
        raise ValueError("only square matrices are invertible")
    rows = []
    for i in range(n):
        row = {j: x for j, x in enumerate(a.row(i)) if x}
        row[n + i] = ONE
        rows.append(row)
    reduced, pivots = _rref_rows(rows)
    if pivots != list(range(n)):
        raise LinalgError("matrix is singular")
    return ExactMatrix._of(n, n, [row.get(j, ZERO) for row in reduced for j in range(n, 2 * n)])


def hstack(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row count mismatch")
    out = []
    for i in range(rows):
        for m in mats:
            out.extend(m.row(i))
    return ExactMatrix._of(rows, sum(m.cols for m in mats), out)


def pseudoinverse(a: ExactMatrix) -> ExactMatrix:
    """Exact Moore-Penrose pseudoinverse via rank factorization.

    Writing A = B C with B the pivot columns of A and C the nonzero rows of
    rref(A), the pseudoinverse is C* (C C*)^-1 (B* B)^-1 B*, with * the
    conjugate transpose so complex entries are handled.  Satisfies all four
    Moore-Penrose identities exactly, for any rank.
    """
    r, pivots = rref(a)
    k = len(pivots)
    if k == 0:
        return ExactMatrix.zeros(a.cols, a.rows)
    b = a.submatrix(range(a.rows), pivots)
    c = r.submatrix(range(k), range(a.cols))
    ch = c.conjugate_transpose()
    bh = b.conjugate_transpose()
    return ch @ inverse(c @ ch) @ inverse(bh @ b) @ bh


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
    """An invertible coordinate change, with a free trailing scale factor.

    The effective matrix is ``m`` with its last column multiplied by
    ``scale`` (the block form diag(m, c) used when reducing a terminal
    cocycle).  The inverse of the effective matrix is cached.
    """

    __slots__ = ("m", "scale", "m_inv")

    def __init__(self, m: ExactMatrix, scale: GaussianRational = ONE):
        scale = as_scalar(scale)
        if m.rows != m.cols:
            raise ValueError("basis change must be square")
        if not scale:
            raise ValueError("scale must be nonzero")
        eff = m if scale.is_one() else _scale_last_column(m, scale)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "m_inv", inverse(eff))

    def __setattr__(self, name, value):
        raise AttributeError("BasisChange is immutable")

    @property
    def n(self) -> int:
        return self.m.rows

    @property
    def matrix(self) -> ExactMatrix:
        """The effective matrix (scale folded into the last column)."""
        return self.m if self.scale.is_one() else _scale_last_column(self.m, self.scale)

    @staticmethod
    def identity(n: int) -> "BasisChange":
        return BasisChange(ExactMatrix.identity(n))

    def inverse(self) -> "BasisChange":
        return BasisChange(self.m_inv)

    def then(self, later: "BasisChange") -> "BasisChange":
        """The single change equivalent to applying self, then ``later``."""
        return BasisChange(self.matrix @ later.matrix)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasisChange):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self):
        return f"BasisChange(\n{self.matrix}\n)"

    def to_json(self) -> dict:
        return {
            "m": [[str(x) for x in self.m.row(i)] for i in range(self.m.rows)],
            "scale": str(self.scale),
        }

    @staticmethod
    def from_json(doc: dict) -> "BasisChange":
        m = ExactMatrix.from_rows([[parse_scalar(x) for x in row] for row in doc["m"]])
        return BasisChange(m, parse_scalar(doc.get("scale", "1")))


def _scale_last_column(m: ExactMatrix, c: GaussianRational) -> ExactMatrix:
    e = list(m.entries)
    j = m.cols - 1
    for i in range(m.rows):
        e[i * m.cols + j] = e[i * m.cols + j] * c
    return ExactMatrix._of(m.rows, m.cols, e)


# ---------------------------------------------------------------------------
# Simultaneous triangularization of commuting families
# ---------------------------------------------------------------------------

def noncommuting_pair(family: Sequence[Sequence]) -> Optional[Tuple[int, int]]:
    """The first pair i < j with A_i A_j != A_j A_i, each A given as the (column, value) nonzeros of its rows."""
    for i, a in enumerate(family):
        for j, b in enumerate(family[i + 1:], i + 1):
            for r in range(len(a)):
                acc: Dict[int, GaussianRational] = {}
                for k, x in a[r]:
                    for c, y in b[k]:
                        z = acc.get(c)
                        acc[c] = x * y if z is None else z + x * y
                for k, x in b[r]:
                    for c, y in a[k]:
                        z = acc.get(c)
                        acc[c] = -(x * y) if z is None else z - x * y
                if any(acc.values()):
                    return i, j
    return None


def _kernel_flag(family: Sequence[ExactMatrix], n: int) -> Optional[ExactMatrix]:
    """M with every M^-1 A M lower-triangular, or None when some member has two eigenvalues.

    With N = A - (tr A / n) I per member, K_1 = ker [N_0; N_1; ...] and K_{j+1} = ker [Q_j N_0;
    Q_j N_1; ...], Q_j the nonzero RREF rows of level j, which also yield the kernel.  Each N and
    each Q_j is held as ``{column: value}`` rows, so a level is one sparse row-times-rows product
    and one :func:`_rref_rows`.  Free columns only grow; each level adds the null-space vectors of
    its newly free columns, deepest level last.  It reaches dimension n iff every N is nilpotent.
    """
    shifted = []
    for a in family:
        shift = a.trace() / gr(n) if n else ZERO
        rows = []
        for i in range(n):
            row = {j: x for j, x in enumerate(a.row(i)) if x}
            y = row.pop(i, ZERO) - shift
            if y:
                row[i] = y
            rows.append(list(row.items()))
        shifted.append(rows)
    q: List[Dict[int, GaussianRational]] = [{i: ONE} for i in range(n)]
    free: List[int] = []
    columns: List[ExactMatrix] = []
    while len(free) < n:
        stacked = []
        for s in shifted:
            for qrow in q:
                acc: Dict[int, GaussianRational] = {}
                for k, x in qrow.items():
                    for c, y in s[k]:
                        z = acc.get(c)
                        acc[c] = x * y if z is None else z + x * y
                stacked.append(acc)
        q, pivots = _rref_rows(stacked)
        kernel = _kernel_vectors(q, pivots, n)
        pivot_set = set(pivots)
        now = [f for f in range(n) if f not in pivot_set]
        new = [v for f, v in zip(now, kernel) if f not in free]
        if not new:
            return None
        columns[:0] = new
        free = now
    return ExactMatrix._of(n, n, [v.entries[i] for i in range(n) for v in columns])


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
    pair = noncommuting_pair([[[(k, x) for k, x in enumerate(a.row(r)) if x] for r in range(n)] for a in family])
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
