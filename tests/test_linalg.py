import importlib
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import dense_unimodular, diagonal_values, is_hermitian, last_column_scaled
from liepoisson.linalg import (
    _kernel_flag,
    _kernel_vectors,
    _row_product,
    _rref_rows,
    BasisChange,
    ExactMatrix,
    LinalgError,
    NotCommuting,
    SplitFailure,
    characteristic_polynomial,
    eigenvalues_gaussian,
    inverse,
    noncommuting_pair,
    null_space,
    pseudoinverse,
    rank,
    rref,
    simultaneous_triangularize,
)
from liepoisson.classify import catalog, classify
from liepoisson.extension import append_semisimple, crmhd, leibniz
from liepoisson.transform import apply, congruence_diagonalize
from liepoisson.scalars import Fraction as F, GaussianRational, I, ONE, ZERO, as_scalar, gr

M = ExactMatrix.from_rows


def random_matrix(rng, rows, cols, span=4, complex_prob=0.3):
    ents = []
    for _ in range(rows * cols):
        re = Fraction(rng.randint(-span, span), rng.randint(1, 3))
        im = Fraction(rng.randint(-span, span), rng.randint(1, 3)) if rng.random() < complex_prob else 0
        ents.append(gr(re, im))
    return ExactMatrix(rows, cols, ents)


def random_rank_deficient(rng, n, r):
    # product of random n x r and r x n has rank <= r
    a = random_matrix(rng, n, r) if r else ExactMatrix.zeros(n, 0)
    b = random_matrix(rng, r, n) if r else ExactMatrix.zeros(0, n)
    return a @ b if r else ExactMatrix.zeros(n, n)


def test_rref_and_rank():
    a = M([[1, 1], [2, 2]])
    r, pivots = rref(a)
    assert pivots == [0]
    assert rank(a) == 1
    assert rank(ExactMatrix.identity(3)) == 3
    assert rank(ExactMatrix.zeros(2, 2)) == 0


def test_null_space_examples():
    # full rank -> no basis rows
    assert null_space(ExactMatrix.identity(2)) == ExactMatrix.zeros(0, 2)
    # zero map -> two independent rows spanning the plane
    basis = null_space(ExactMatrix.zeros(2, 2))
    assert basis.rows == 2 and rank(basis) == 2
    # hand row-reduction: kernel of [[1,1],[2,2]] is spanned by (-1, 1)
    basis = null_space(M([[1, 1], [2, 2]]))
    assert basis.rows == 1
    assert basis[0, 0] * gr(-1) == basis[0, 1]
    assert basis == M([[-1, 1]])


def test_null_space_properties_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        r = rng.randint(0, n)
        a = random_rank_deficient(rng, n, r)
        basis = null_space(a)
        assert basis.rows == n - rank(a) and basis.cols == n
        assert (a @ basis.transpose()).is_zero()
        assert rank(basis) == basis.rows


class DenseMatrix:
    """The dense ExactMatrix that the sparse rows replaced, entries stored row-major: the reference."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(as_scalar(x) for x in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows, self.cols, self.entries = rows, cols, entries

    @staticmethod
    def from_rows(rows):
        return DenseMatrix(len(rows), len(rows[0]) if rows else 0, [x for row in rows for x in row])

    @staticmethod
    def identity(n):
        return DenseMatrix(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, row_idx, col_idx):
        return DenseMatrix(len(row_idx), len(col_idx), [self[i, j] for i in row_idx for j in col_idx])

    def __matmul__(self, other):
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    if ri[k]:
                        acc = acc + ri[k] * other.entries[k * other.cols + j]
                out.append(acc)
        return DenseMatrix(self.rows, other.cols, out)

    def conjugate_transpose(self):
        return DenseMatrix(self.cols, self.rows,
                           [self[i, j].conjugate() for j in range(self.cols) for i in range(self.rows)])

    def __eq__(self, other):
        return self.rows == other.rows and self.cols == other.cols and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))


def dense(a):
    return DenseMatrix(a.rows, a.cols, a.entries)


def same(a, d):
    """Whether the sparse matrix ``a`` and the dense ``d`` hold the same entries (None matches None)."""
    if a is None or d is None:
        return a is None and d is None
    return (a.rows, a.cols, a.entries) == (d.rows, d.cols, d.entries)


def stores_no_zero(m):
    """One zero-free ``{column: value}`` dict of scalars per row, columns in range."""
    return len(m.nz) == m.rows and all(
        type(r) is dict and all(type(x) is GaussianRational and x and 0 <= j < m.cols for j, x in r.items())
        for r in m.nz
    )


def dense_rref(a):
    """The dense Gauss-Jordan loop that rref was before the sparse core: the reference."""
    m = a.to_rows()
    rows, cols = a.rows, a.cols
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return (DenseMatrix(rows, cols, [x for row in m for x in row]), pivots)


def dense_null_space(a):
    """The kernel basis as the rows of a dense matrix, one per free column: the reference."""
    r, pivots = dense_rref(a)
    basis = []
    for f in range(a.cols):
        if f not in pivots:
            v = [ZERO] * a.cols
            v[f] = ONE
            for i, p in enumerate(pivots):
                v[p] = -r[i, f]
            basis.append(v)
    return DenseMatrix(len(basis), a.cols, [x for v in basis for x in v])


def random_oracle_inputs(seed):
    """Seeded Q(i) matrices: dense and ~10% sparse, square and rectangular,
    rank-deficient, with zero and repeated rows, and with no rows at all."""
    rng = random.Random(seed)
    out = [ExactMatrix.zeros(0, 0), ExactMatrix.zeros(0, 4), ExactMatrix.zeros(3, 0),
           ExactMatrix.zeros(3, 5), ExactMatrix.identity(4)]
    for _ in range(120):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        kind = rng.choice(("dense", "sparse", "deficient"))
        if kind == "deficient":
            k = rng.randint(1, min(rows, cols))
            a = random_matrix(rng, rows, k, span=3) @ random_matrix(rng, k, cols, span=3)
        else:
            a = random_matrix(rng, rows, cols, complex_prob=0.4)
            if kind == "sparse":
                a = ExactMatrix(rows, cols, [x if rng.random() < 0.1 else ZERO for x in a.entries])
        m = a.to_rows()
        if rng.random() < 0.3:
            m[rng.randrange(rows)] = [ZERO] * cols
        if rng.random() < 0.3:
            m.append(list(m[rng.randrange(rows)]))
        rng.shuffle(m)
        out.append(ExactMatrix(len(m), cols, [x for row in m for x in row]))
    for _ in range(12):
        a = random_matrix(rng, rng.randint(10, 20), rng.randint(10, 20), complex_prob=0.5)
        out.append(ExactMatrix(a.rows, a.cols, [x if rng.random() < 0.1 else ZERO for x in a.entries]))
    return out


def test_rref_matches_dense_oracle():
    for a in random_oracle_inputs(61):
        r, pivots = rref(a)
        want, want_pivots = dense_rref(dense(a))
        assert same(r, want) and pivots == want_pivots
        assert rank(a) == len(pivots)


def test_null_space_matches_dense_matrix():
    rng = random.Random(62)
    for a in random_oracle_inputs(62):
        # the same system with an empty row and repeated rows, shuffled, as a trusted sparse matrix
        rows = list(a.nz) + [{}] + [a.nz[rng.randrange(a.rows)] for _ in range(2) if a.rows]
        rng.shuffle(rows)
        expected = dense_null_space(dense(a))
        assert same(null_space(a), expected)
        assert same(null_space(ExactMatrix._of(len(rows), a.cols, rows)), expected)
    assert null_space(ExactMatrix.zeros(0, 3)) == ExactMatrix.identity(3)
    # plain integers and explicit zeros through the public constructor
    assert null_space(ExactMatrix(1, 3, [1, -1, 0])) == null_space(ExactMatrix._of(1, 3, [{0: ONE, 1: -ONE}]))


def dense_quadratic_casimir_system(t):
    """The quadratic Casimir equations as the dense rows built before the sparse builder."""
    n = t.n
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: k for k, p in enumerate(pairs)}
    rows = []
    for nu in range(n):
        for lam in range(n):
            for sig in range(lam):
                row = [ZERO] * len(pairs)
                for mu in range(n):
                    w1 = t.entry(lam, mu, nu)
                    if w1:
                        key = (mu, sig) if mu <= sig else (sig, mu)
                        row[index[key]] = row[index[key]] + w1
                    w2 = t.entry(sig, mu, nu)
                    if w2:
                        key = (mu, lam) if mu <= lam else (lam, mu)
                        row[index[key]] = row[index[key]] - w2
                if any(row):
                    rows.append(row)
    return ExactMatrix(len(rows), len(pairs), [x for row in rows for x in row]), index


def test_quadratic_casimir_basis_matches_dense_oracle_at_n16():
    from liepoisson.casimir import quadratic_casimir_basis
    from liepoisson.extension import direct_sum, leibniz

    t = direct_sum(leibniz(8), leibniz(8))
    start = time.thread_time()
    basis = quadratic_casimir_basis(t)
    elapsed = time.thread_time() - start
    system, index = dense_quadratic_casimir_system(t)
    system = dense(system)
    assert system.rows == 728 and system.cols == 136
    kernel = dense_null_space(system)
    expected = []
    for v in map(kernel.row, range(kernel.rows)):
        q = [[ZERO] * t.n for _ in range(t.n)]
        for (i, j), k in index.items():
            q[i][j] = q[j][i] = v[k]
        expected.append(M(q))
    assert basis == expected
    assert elapsed < 1.0


def solve(a, b):
    """One exact solution X of a @ X = b from rref([a | b]), or None when inconsistent: the reference."""
    if a.rows != b.rows:
        raise ValueError("incompatible shapes")
    r, pivots = rref(ExactMatrix(a.rows, a.cols + b.cols, [x for i in range(a.rows) for x in a.row(i) + b.row(i)]))
    if any(p >= a.cols for p in pivots):
        return None
    out = [[ZERO] * b.cols for _ in range(a.cols)]
    for i, p in enumerate(pivots):
        for j in range(b.cols):
            out[p][j] = r[i, a.cols + j]
    return ExactMatrix(a.cols, b.cols, [x for row in out for x in row])


def test_solve_and_inverse():
    a = M([[1, 2], [3, 5]])
    x = solve(a, ExactMatrix.identity(2))
    assert a @ x == ExactMatrix.identity(2)
    assert inverse(a) == x
    assert solve(M([[1, 1], [1, 1]]), M([[1], [2]])) is None


def test_singular_matrix_has_no_inverse():
    singular = (
        M([[1, 1], [1, 1]]),
        M([[1, 2, 3], [0, 1, 1], [1, 3, 4]]),
        M([[0, 0, 0], [1, I, 0], [0, 0, 1]]),
        ExactMatrix.zeros(2, 2),
    )
    for a in singular:
        with pytest.raises(LinalgError):
            inverse(a)
        with pytest.raises(LinalgError):
            BasisChange(a)


def dense_inverse(a):
    """a^-1 from the dense reference elimination of [a | I], or None when a is singular."""
    n = a.rows
    aug = DenseMatrix(n, 2 * n, [x for i in range(n) for x in a.row(i) + DenseMatrix.identity(n).row(i)])
    r, pivots = dense_rref(aug)
    if pivots != list(range(n)):
        return None
    return r.submatrix(range(n), range(n, 2 * n))


def dense_pseudoinverse(a):
    """C* (C C*)^-1 (B* B)^-1 B* on dense matrices, from the dense rref: the reference."""
    r, pivots = dense_rref(a)
    if not pivots:
        return DenseMatrix(a.cols, a.rows, [ZERO] * (a.rows * a.cols))
    b = a.submatrix(range(a.rows), pivots)
    c = r.submatrix(range(len(pivots)), range(a.cols))
    ch, bh = c.conjugate_transpose(), b.conjugate_transpose()
    return ch @ dense_inverse(c @ ch) @ dense_inverse(bh @ b) @ bh


def elementary_and_random_square(seed):
    """Shears, permutations, diagonals, their products, and the square oracle inputs."""
    rng = random.Random(seed)
    out = [a for a in random_oracle_inputs(seed) if a.rows == a.cols]
    for _ in range(60):
        n = rng.randint(1, 6)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        shear = ExactMatrix.identity(n).with_entry(i, j, gr(rng.randint(-3, 3), rng.randint(-1, 1)))
        perm = list(range(n))
        rng.shuffle(perm)
        perm = ExactMatrix(n, n, [ONE if perm[c] == r else ZERO for r in range(n) for c in range(n)])
        diag = ExactMatrix.diagonal([gr(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)),
                                        rng.randint(-1, 1)) for _ in range(n)])
        out += [shear, perm, diag, perm @ shear @ diag, random_rank_deficient(rng, n, rng.randint(0, n))]
    return out


def triangular_square(seed):
    """Triangular matrices, lower and upper: diagonals, single- and multi-entry shears,
    dense triangular matrices, and triangular matrices with one zero diagonal entry."""
    rng = random.Random(seed)
    out = []
    for _ in range(30):
        n = rng.randint(1, 6)
        below = [(i, j) for i in range(n) for j in range(i)]

        def value():
            return gr(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)), rng.randint(-1, 1))

        def lower(cells, diag):
            return ExactMatrix(n, n, [diag[i] if i == j else (value() if (i, j) in cells else ZERO)
                                      for i in range(n) for j in range(n)])

        unit, scaled = [ONE] * n, [value() for _ in range(n)]
        zero_at = list(scaled)
        zero_at[rng.randrange(n)] = ZERO
        shear = set(rng.sample(below, 1)) if below else set()
        several = set(rng.sample(below, rng.randint(1, len(below)))) if below else set()
        for a in (lower(set(), scaled), lower(shear, unit), lower(several, unit),
                  lower(set(below), scaled), lower(set(below), zero_at)):
            out += [a, a.transpose()]
    return out


def test_inverse_matches_solve_and_dense_oracle():
    counts = {False: [0, 0], True: [0, 0]}  # triangular? -> [inverted, singular]
    cases = [(a, False) for a in elementary_and_random_square(71)]
    for a, tri in cases + [(a, True) for a in triangular_square(73)]:
        x = solve(a, ExactMatrix.identity(a.rows))
        assert same(x, dense_inverse(dense(a)))
        if x is None:
            counts[tri][1] += 1
            with pytest.raises(LinalgError):
                inverse(a)
            continue
        counts[tri][0] += 1
        assert inverse(a) == x and stores_no_zero(inverse(a))
        assert a @ x == ExactMatrix.identity(a.rows) == x @ a
    assert counts[False][0] > 200 and counts[False][1] > 40
    # four invertible kinds and one singular kind, each lower and upper
    assert counts[True] == [240, 60]
    assert inverse(ExactMatrix.zeros(0, 0)) == ExactMatrix.zeros(0, 0)
    assert BasisChange(ExactMatrix.zeros(0, 0)).m_inv == ExactMatrix.zeros(0, 0)


def dense_check_family(family):
    """The dense-product commutation check, the first noncommuting pair or None: the reference."""
    family = [dense(a) for a in family]
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            if family[i] @ family[j] != family[j] @ family[i]:
                return (i, j)
    return None


def test_check_family_matches_dense_products():
    rng = random.Random(29)
    families = [list(f) for f in SLICE_FAMILIES]
    for family in SLICE_FAMILIES[::3]:
        # the same slices in a dense basis
        n = family[0].rows
        m = random_matrix(rng, n, n, span=2, complex_prob=0)
        if rank(m) == n:
            families.append([inverse(m) @ a @ m for a in family])
    for _ in range(40):
        n = rng.randint(1, 5)
        base = random_matrix(rng, n, n, span=2)
        sparse = ExactMatrix(n, n, [x if rng.random() < 0.3 else ZERO for x in base.entries])
        for b in (base, sparse):
            families.append([b, b @ b + b.scale(3), ExactMatrix.identity(n) + b.scale(gr(1, 1)), b @ b @ b])
    # one entry of one member changed: most of these stop commuting, at varying pairs
    for family in list(families):
        n = family[0].rows
        k = rng.randrange(len(family))
        bumped = family[k].with_entry(rng.randrange(n), rng.randrange(n), gr(rng.randint(1, 3)))
        families.append(family[:k] + [bumped] + family[k + 1:])
    raised = triangularized = 0
    for family in families:
        want = dense_check_family(family)
        assert noncommuting_pair(family) == want
        if want is None:
            m = _kernel_flag(family, family[0].rows)
            if m is None:
                with pytest.raises(LinalgError, match="more than one block"):
                    simultaneous_triangularize(family)
            else:
                triangularized += 1
                assert simultaneous_triangularize(family).m == m
        else:
            raised += 1
            with pytest.raises(NotCommuting) as err:
                simultaneous_triangularize(family)
            assert err.value.pair == want
    assert raised > 30 and len(families) - raised > 60 and triangularized > 30


def test_public_constructors_coerce():
    want = [gr(3), gr(Fraction(-1, 2)), gr(Fraction(1, 3), 2), gr(0, 1)]
    for m in (ExactMatrix(2, 2, [3, Fraction(-1, 2), "1/3+2i", "i"]),
              ExactMatrix.from_rows([[3, Fraction(-1, 2)], ["1/3+2i", "i"]])):
        assert list(m.entries) == want
        assert all(type(x) is GaussianRational for x in m.entries)
    for i, j in ((0, 2), (0, 5), (2, 0), (-1, 0), (0, -1)):
        with pytest.raises(IndexError):
            ExactMatrix.identity(2).with_entry(i, j, 1)
        with pytest.raises(IndexError):
            ExactMatrix.identity(2)[i, j]
    for bad in (0.5, None, 1j, object()):
        with pytest.raises(TypeError):
            ExactMatrix(1, 1, [bad])
        with pytest.raises(TypeError):
            ExactMatrix.from_rows([[1, bad]])


def test_computed_matrices_hold_only_scalars():
    rng = random.Random(31)
    a = M([[1, 2, 0], [0, 1, Fraction(1, 2)], [3, 0, 1]])
    b = random_matrix(rng, 3, 3, complex_prob=0.5)
    t = append_semisimple(catalog(3).lookup("n3-case4"))
    results = [
        a + b, a - b, -a, a @ b, a.scale(2), a.scale(gr(1, 1)), a.transpose(),
        a.conjugate_transpose(), a.submatrix([0, 2], [1, 2]), a.with_entry(0, 1, 5),
        ExactMatrix.identity(3), ExactMatrix.zeros(2, 3), ExactMatrix.diagonal([1, 2]),
        rref(a)[0], rref(random_rank_deficient(rng, 4, 2))[0], inverse(a),
        pseudoinverse(random_rank_deficient(rng, 3, 2)), null_space(random_rank_deficient(rng, 4, 2)),
        a @ a @ a, BasisChange(last_column_scaled(a, gr(2))).m, BasisChange(a).m_inv,
    ]
    results += [t.slice_upper(nu) for nu in range(t.n)] + [t.slice_lower(lam) for lam in range(t.n)]
    for m in results:
        assert stores_no_zero(m), m
        assert len(m.entries) == m.rows * m.cols
        assert all(type(x) is GaussianRational for x in m.entries), m


# -- the sparse rows against the dense oracle ----------------------------------

SMALL_GAUSSIANS = st.builds(
    gr,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.one_of(st.just(0), st.fractions(min_value=-2, max_value=2, max_denominator=2)),
)


@st.composite
def raw_entries(draw, rows, cols):
    """rows * cols scalars, either dense or mostly zero."""
    value = SMALL_GAUSSIANS if draw(st.booleans()) else st.one_of(st.just(ZERO), st.just(ZERO), SMALL_GAUSSIANS)
    return draw(st.lists(value, min_size=rows * cols, max_size=rows * cols))


@st.composite
def matrix_pairs(draw, rows, cols):
    """The same random Q(i) matrix as an ExactMatrix and as the dense oracle."""
    entries = draw(raw_entries(rows, cols))
    return ExactMatrix(rows, cols, entries), DenseMatrix(rows, cols, entries)


@st.composite
def oracle_cases(draw):
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    a, da = draw(matrix_pairs(r, k))
    b, db = draw(matrix_pairs(k, c))
    # a second matrix of a's shape, equal to a unless one entry is redrawn
    entries = list(da.entries)
    if entries and draw(st.booleans()):
        entries[draw(st.integers(0, len(entries) - 1))] = draw(SMALL_GAUSSIANS)
    n = draw(st.integers(0, 5))
    return (a, da), (b, db), (ExactMatrix(r, k, entries), DenseMatrix(r, k, entries)), draw(matrix_pairs(n, n))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(oracle_cases())
def test_sparse_rows_agree_with_the_dense_oracle(case):
    (a, da), (b, db), (a2, da2), (s, ds) = case
    assert same(a, da) and hash(a) == hash(da)
    assert same(a @ b, da @ db)
    r, pivots = rref(a)
    want, want_pivots = dense_rref(da)
    assert same(r, want) and pivots == want_pivots
    assert same(null_space(a), dense_null_space(da))
    assert same(pseudoinverse(a), dense_pseudoinverse(da))
    want = dense_inverse(ds)
    if want is None:
        with pytest.raises(LinalgError):
            inverse(s)
    else:
        assert same(inverse(s), want)
    assert (a == a2) == (da == da2)
    if a == a2:
        assert hash(a) == hash(a2) == hash(da2)


@st.composite
def invertible_triangular(draw):
    """A random lower or upper triangular Q(i) matrix of size 0..5 with a nonzero diagonal."""
    n = draw(st.integers(0, 5))
    diag = draw(st.lists(SMALL_GAUSSIANS.filter(bool) | st.just(ONE), min_size=n, max_size=n))
    below = draw(raw_entries(n, n))
    a = ExactMatrix(n, n, [diag[i] if i == j else below[i * n + j] if j < i else ZERO
                           for i in range(n) for j in range(n)])
    return a.transpose() if draw(st.booleans()) else a


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(invertible_triangular())
def test_triangular_inverse_is_the_row_reduction_inverse(a):
    x = inverse(a)
    assert a @ x == ExactMatrix.identity(a.rows)
    assert x == solve(a, ExactMatrix.identity(a.rows))
    assert stores_no_zero(x)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(oracle_cases())
def test_null_space_rows_are_a_kernel_basis(case):
    for a, da in case:
        basis = null_space(a)
        assert (a @ basis.transpose()).is_zero()
        assert basis.rows == a.cols - rank(a) and basis.cols == a.cols
        assert rank(basis) == basis.rows
        assert same(basis, dense_null_space(da))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(oracle_cases(), st.data())
def test_no_operation_stores_a_zero(case, data):
    (a, _), (b, _), (a2, _), (s, _) = case
    r, k = a.rows, a.cols
    x = data.draw(st.one_of(st.just(ZERO), SMALL_GAUSSIANS))
    zero_row = data.draw(st.lists(st.sampled_from([0, ZERO, Fraction(0), "0"]), min_size=3, max_size=3))
    results = [
        a, b, a2, s, a + a2, a - a2, a - a, a + -a, -a, a.scale(x), a.scale(0), a @ b, (a - a) @ b,
        a.transpose(), a.conjugate_transpose(), rref(a)[0], pseudoinverse(a), null_space(a),
        ExactMatrix.identity(k), ExactMatrix.zeros(r, k), ExactMatrix.diagonal([x, 0, 1]),
        ExactMatrix(3, 1, zero_row), ExactMatrix.from_rows([zero_row, [1, 0, x]]),
        ExactMatrix(1, 3, zero_row),
    ]
    if r and k:
        i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, k - 1))
        results += [a.with_entry(i, j, x), a.with_entry(i, j, 0), a.submatrix([i, 0], [j, k - 1])]
    try:
        results += [inverse(s), BasisChange(last_column_scaled(s, gr(2))).m, BasisChange(s).m_inv]
    except LinalgError:
        pass
    for m in results:
        assert stores_no_zero(m), m


# -- the column-indexed elimination against the row-scanning one --------------

def scanning_rref_rows(rows):
    """The row-scanning sparse Gauss-Jordan that the column index replaced: the oracle.

    For every pivot column it scans every remaining row for the shortest one
    holding the column, swaps it up, and scans every row again for the update.
    """
    m = [dict(row) for row in rows if row]
    pivots = []
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


def triples(rows):
    """Each row's entries as integer triples (a, b, d) of (a + b i)/d, so equal means bit-identical."""
    return [{j: (x._a, x._b, x._d) for j, x in row.items()} for row in rows]


NONZERO_GAUSSIANS = SMALL_GAUSSIANS.filter(bool)


@st.composite
def wide_sparse_rows(draw):
    """Up to 30 rows of 1-3 entries over up to 24 columns, with repeats, multiples and sums of earlier rows."""
    cols = draw(st.integers(1, 24))
    entry = st.tuples(st.integers(0, cols - 1), NONZERO_GAUSSIANS)
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["new", "new", "repeat", "multiple", "sum"])) if rows else "new"
        if kind == "new":
            rows.append(dict(draw(st.lists(entry, min_size=1, max_size=3))))
        elif kind == "repeat":
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind == "multiple":
            f = draw(NONZERO_GAUSSIANS)
            rows.append({j: f * x for j, x in draw(st.sampled_from(rows)).items()})
        else:
            # a combination of two earlier rows: it cancels to zero in the elimination
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f = draw(NONZERO_GAUSSIANS)
            s = {j: a.get(j, ZERO) + f * b.get(j, ZERO) for j in {**a, **b}}
            rows.append({j: x for j, x in s.items() if x})
    return rows


@st.composite
def identity_augmented_rows(draw):
    """The rows of [A | I] that inverse and pseudoinverse eliminate, A up to 6 x 6."""
    n = draw(st.integers(0, 6))
    a = ExactMatrix(n, n, draw(raw_entries(n, n)))
    return [{**r, n + i: ONE} for i, r in enumerate(a.nz)]


@st.composite
def kernel_flag_stacks(draw):
    """The rows of one kernel-flag level: Q N_i stacked over a family of up to 4 members."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    q = ExactMatrix(k, n, draw(raw_entries(k, n)))
    family = [ExactMatrix(n, n, draw(raw_entries(n, n))) for _ in range(draw(st.integers(1, 4)))]
    return [_row_product(qrow, s.nz) for s in family for qrow in q.nz]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.one_of(wide_sparse_rows(), identity_augmented_rows(), kernel_flag_stacks()))
def test_column_indexed_elimination_matches_the_row_scanning_one(rows):
    before = triples(rows)
    reduced, pivots = _rref_rows(rows)
    want, want_pivots = scanning_rref_rows(rows)
    assert pivots == want_pivots
    assert triples(reduced) == triples(want)
    assert triples(rows) == before  # the input rows are copied, never changed


def deduping_casimir_basis(t):
    """quadratic_casimir_basis as it was before repeated equations went to the elimination:
    a tuple-keyed pair index, zero and repeated equations dropped by a frozenset, and the
    row-scanning elimination.  The oracle."""
    n = t.n
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: k for k, p in enumerate(pairs)}
    equations = {}
    for lam, mu, nu, w in t.nonzeros():
        for sig in range(n):
            if sig == lam:
                continue
            key, x = ((nu, lam, sig), w) if sig < lam else ((nu, sig, lam), -w)
            eq = equations.setdefault(key, {})
            k = index[(mu, sig) if mu <= sig else (sig, mu)]
            y = eq.get(k, ZERO) + x
            if y:
                eq[k] = y
            else:
                eq.pop(k, None)
    distinct = list({frozenset(eq.items()): eq for eq in equations.values() if eq}.values())
    basis = []
    for v in _kernel_vectors(*scanning_rref_rows(distinct), len(pairs)):
        q = [{} for _ in range(n)]
        for k, x in v.items():
            i, j = pairs[k]
            q[i][j] = q[j][i] = x
        basis.append(q)
    return basis


def test_quadratic_casimir_basis_and_monitors_match_the_deduping_oracle():
    import numpy as np

    from liepoisson.casimir import quadratic_casimir_basis
    from liepoisson.dynamics import exact_monitors
    from liepoisson.extension import direct_sum

    tensors = [t for order in (2, 3, 4) for _, t in catalog(order).entries]
    tensors += [append_semisimple(t) for _, t in catalog(3).entries]
    tensors += [leibniz(k, semidirect=s) for k in range(1, 9) for s in (False, True)]
    tensors += [crmhd(beta) for beta in (1, F(5, 2), -3)]
    tensors += [direct_sum(leibniz(3), leibniz(4)), direct_sum(crmhd(2), leibniz(2)),
                direct_sum(leibniz(8), leibniz(8))]
    for t in tensors:
        want = deduping_casimir_basis(t)
        basis = quadratic_casimir_basis(t)
        assert [triples(q.nz) for q in basis] == [triples(q) for q in want], t
        expected = []
        for k, q in enumerate(want):
            re, im = np.zeros((t.n, t.n)), np.zeros((t.n, t.n))
            for i, row in enumerate(q):
                for j, x in row.items():
                    re[i, j], im[i, j] = x._a / x._d, x._b / x._d
            expected += [(f"Q{k}", re)] * bool(np.any(re)) + [(f"Q{k}_im", im)] * bool(np.any(im))
        got = exact_monitors(t)
        assert [name for name, _ in got] == [name for name, _ in expected]
        assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(got, expected))


# -- pseudoinverse -----------------------------------------------------------

def mp_identities_hold(a, p):
    if (a @ p @ a) != a:
        return False
    if (p @ a @ p) != p:
        return False
    if not is_hermitian(a @ p):
        return False
    if not is_hermitian(p @ a):
        return False
    return True


def test_pseudoinverse_known_values():
    # self-inverse singular example
    a = M([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    assert pseudoinverse(a) == a
    # 2x2 antidiagonal with parameter beta = 1
    b = M([[0, -1], [-1, 0]])
    assert pseudoinverse(b) == M([[0, -1], [-1, 0]])
    # beta = 5/2: inverse is antidiag(-1/beta)
    beta = F(5, 2)
    c = ExactMatrix.from_rows([[0, gr(-beta)], [gr(-beta), 0]])
    assert pseudoinverse(c) == ExactMatrix.from_rows([[0, gr(-1 / beta)], [gr(-1 / beta), 0]])


def test_pseudoinverse_of_invertible_is_inverse():
    a = M([[1, 2, 0], [0, 1, 4], [1, 0, 1]])
    assert pseudoinverse(a) == inverse(a)


def test_invertible_pseudoinverse_is_the_inverse_without_a_rank_factorization(monkeypatch):
    """A square matrix of full rank skips C* (C C*)^-1 (B* B)^-1 B*; every other keeps it."""
    calls = []
    conjugate_transpose = ExactMatrix.conjugate_transpose

    def counting(self):
        calls.append((self.rows, self.cols))
        return conjugate_transpose(self)

    cases = elementary_and_random_square(83) + random_oracle_inputs(84)
    invertible = [a for a in cases if a.rows == a.cols and rank(a) == a.rows and a.rows]
    deficient = [a for a in cases if rank(a) < min(a.rows, a.cols)]
    assert len(invertible) > 100 and len(deficient) > 50
    monkeypatch.setattr(ExactMatrix, "conjugate_transpose", counting)
    for a in invertible:
        assert pseudoinverse(a) == inverse(a)
    assert calls == []
    for a in deficient:
        calls.clear()
        p = pseudoinverse(a)
        assert mp_identities_hold(a, p)
        assert same(p, dense_pseudoinverse(dense(a)))
        assert calls or rank(a) == 0


def test_invertible_pseudoinverse_row_reduces_once(count_calls):
    """rank, rref(A) and A^-1 come off one elimination of [A | I], also for the anti-diagonal
    Wn of Leibniz and CRMHD, which is not triangular."""
    from liepoisson import linalg

    counts = count_calls(linalg._rref_rows)
    for a in (M([[1, 2, 0], [0, 1, 4], [1, 0, 1]]), M([[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
              M([[0, gr(-5)], [gr(-5), 0]]), M([[1, I], [2, 3]])):
        counts["_rref_rows"] = 0
        p = pseudoinverse(a)
        assert counts["_rref_rows"] == 1
        assert p == inverse(a)


@st.composite
def rank_deficient(draw):
    """B C with B n x r and C r x m, r < min(n, m): rank at most r, short of full."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    r = draw(st.integers(0, min(n, m) - 1))
    return ExactMatrix(n, r, draw(raw_entries(n, r))) @ ExactMatrix(r, m, draw(raw_entries(r, m)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(rank_deficient())
def test_moore_penrose_identities_on_rank_deficient_matrices(a):
    assert rank(a) < min(a.rows, a.cols)
    p = pseudoinverse(a)
    assert (p.rows, p.cols) == (a.cols, a.rows)
    assert mp_identities_hold(a, p)
    assert same(p, dense_pseudoinverse(dense(a)))


def test_pseudoinverse_property_suite():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(1, 4)
        m_ = rng.randint(1, 4)
        r = rng.randint(0, min(n, m_))
        a = (random_matrix(rng, n, r) @ random_matrix(rng, r, m_)) if r else ExactMatrix.zeros(n, m_)
        p = pseudoinverse(a)
        assert mp_identities_hold(a, p)


# -- characteristic polynomial / eigenvalues ---------------------------------

def test_characteristic_polynomial():
    a = M([[2, 0], [0, 3]])
    # (x-2)(x-3) = x^2 - 5x + 6
    assert characteristic_polynomial(a) == [gr(6), gr(-5), ONE]


def test_eigenvalues_examples():
    assert eigenvalues_gaussian(M([[0, 0], [1, 0]])) == [(ZERO, 2)]
    assert eigenvalues_gaussian(M([[1, 0], [1, 1]])) == [(ONE, 2)]
    # rotation matrix: eigenvalues +-i
    eigs = eigenvalues_gaussian(M([[0, -1], [1, 0]]))
    assert eigs == [(-I, 1), (I, 1)] or eigs == [(I, 1), (-I, 1)]
    assert sorted(e.sort_key() for e, _ in eigs) == [(-I).sort_key(), I.sort_key()]


def test_eigenvalues_triangular_reads_diagonal():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, complex_prob=0)
        rows = a.to_rows()
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = ZERO
            rows[i][i] = gr(rng.randint(-2, 2))
        t = ExactMatrix.from_rows(rows)
        eigs = dict(eigenvalues_gaussian(t))
        diag = diagonal_values(t)
        for lam, mult in eigs.items():
            assert diag.count(lam) == mult


def test_eigenvalues_split_failure():
    # x^2 - 2 has no Q(i) roots
    with pytest.raises(SplitFailure):
        eigenvalues_gaussian(M([[0, 2], [1, 0]]))


def test_eigenvalues_rational_and_gaussian_mix():
    a = M([[F(1, 2), 0], [1, F(1, 2)]])
    assert eigenvalues_gaussian(a) == [(gr(F(1, 2)), 2)]


# -- simultaneous triangularization -------------------------------------------

def test_triangularize_jordan_flip():
    fam = [M([[0, 1], [0, 0]])]
    bc = simultaneous_triangularize(fam)
    out = bc.m_inv @ fam[0] @ bc.m
    assert out.is_lower_triangular()
    assert not out.is_zero()
    assert simultaneous_triangularize([ExactMatrix.zeros(0, 0)]).n == 0


def test_triangularize_identity_plus_nilpotent():
    fam = [ExactMatrix.identity(3), M([[0, 0, 0], [1, 0, 0], [0, 1, 0]])]
    bc = simultaneous_triangularize(fam)
    for a in fam:
        assert (bc.m_inv @ a @ bc.m).is_lower_triangular()


def test_triangularize_commuting_random_family():
    rng = random.Random(13)
    rejected = 0
    for _ in range(15):
        n = rng.randint(2, 4)
        base = random_matrix(rng, n, n, span=2, complex_prob=0)
        # polynomials in a common matrix commute; shift keeps eigenvalues rational
        base = base @ base  # may not split -> use a triangular base instead
        rows = base.to_rows()
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = ZERO
        # a constant diagonal is one block and is triangularized; distinct
        # diagonal entries are more than one block and are rejected
        one_block = [[rows[0][0] if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
        for base in (ExactMatrix.from_rows(rows), ExactMatrix.from_rows(one_block)):
            fam = [base, base @ base + base.scale(3), ExactMatrix.identity(n) + base.scale(2)]
            if len(set(diagonal_values(base))) > 1:
                rejected += 1
                with pytest.raises(LinalgError, match="more than one block"):
                    simultaneous_triangularize(fam)
                continue
            bc = simultaneous_triangularize(fam)
            for a in fam:
                assert (bc.m_inv @ a @ bc.m).is_lower_triangular()
    assert rejected > 5


def test_triangularize_rejects_noncommuting():
    with pytest.raises(NotCommuting):
        simultaneous_triangularize([M([[0, 1], [0, 0]]), M([[0, 0], [1, 0]])])


# -- reference: the recursive common-eigenvector triangularization -----------

def common_eigenvector(family, n):
    """One simultaneous eigenvector: restrict to each member's first eigenspace in turn."""
    v = ExactMatrix.identity(n)
    for a in family:
        r = solve(v, a @ v)
        lam = eigenvalues_gaussian(r)[0][0]
        v = v @ null_space(r - ExactMatrix.identity(r.rows).scale(lam)).transpose()
    vec = v.col(0)
    lead = next(x for x in vec if x)
    return [x / lead for x in vec]


def complete_basis(v, n):
    """Every standard vector except the one at v's last nonzero index, then v last."""
    last = max(i for i in range(n) if v[i])
    return ExactMatrix.from_rows(
        [[ONE if i == j else ZERO for j in range(n) if j != last] + [v[i]] for i in range(n)]
    )


def recursive_triangularize(family):
    """M with every M^-1 A M lower-triangular, by recursive eigenvector extraction.

    A shared eigenvector is placed as the last basis vector, the family is
    projected onto the standard-vector complement, and the process repeats
    on the quotient.  It searches every eigenvalue through the
    characteristic polynomial, so it shares no step with the kernel flag.
    """
    n = family[0].rows
    if n <= 1:
        return ExactMatrix.identity(n)
    p = complete_basis(common_eigenvector(family, n), n)
    p_inv = inverse(p)
    q = recursive_triangularize([(p_inv @ a @ p).submatrix(range(n - 1), range(n - 1)) for a in family])
    q_full = ExactMatrix.from_rows(
        [list(q.row(i)) + [ZERO] for i in range(n - 1)] + [[ZERO] * (n - 1) + [ONE]]
    )
    return p @ q_full


def _slice_families():
    entries = [entry for order in (2, 3, 4) for _, entry in catalog(order).entries]
    tensors = entries + [append_semisimple(t) for t in entries]
    tensors += [leibniz(k) for k in range(1, 6)] + [crmhd(1), crmhd(F(5, 2))]
    return [t.slices_upper() for t in tensors]


SLICE_FAMILIES = _slice_families()
SMALL_FAMILIES = [fam for fam in SLICE_FAMILIES if fam[0].rows <= 3]
GAUSSIAN_SHIFTS = st.builds(gr, st.integers(-3, 3), st.integers(-2, 2))


@st.composite
def dense_conjugate(draw, family):
    """The family moved by one dense GL_n(Z) matrix: shears times a diagonal."""
    n = family[0].rows
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        for row in m:
            row[j] += c * row[i]
    d = draw(st.lists(st.sampled_from((1, -1, 2, 3)), min_size=n, max_size=n))
    p = M([[m[i][j] * d[j] for j in range(n)] for i in range(n)])
    p_inv = inverse(p)
    return [p_inv @ a @ p for a in family]


@st.composite
def single_block_families(draw):
    return draw(dense_conjugate(draw(st.sampled_from(SLICE_FAMILIES))))


@st.composite
def split_families(draw):
    """Two shifted slice families side by side; member 0 has distinct eigenvalues."""
    a, b = draw(st.sampled_from(SMALL_FAMILIES)), draw(st.sampled_from(SMALL_FAMILIES))
    na, nb, k = a[0].rows, b[0].rows, max(len(a), len(b))
    shifts = draw(st.lists(st.tuples(GAUSSIAN_SHIFTS, GAUSSIAN_SHIFTS), min_size=k, max_size=k))
    lam0 = shifts[0][0]
    shifts[0] = (lam0, draw(GAUSSIAN_SHIFTS.filter(lambda mu: mu != lam0)))
    family = []
    for x, (lam, mu) in enumerate(shifts):
        top = (a[x] if x < len(a) else ExactMatrix.zeros(na, na)) + ExactMatrix.identity(na).scale(lam)
        bottom = (b[x] if x < len(b) else ExactMatrix.zeros(nb, nb)) + ExactMatrix.identity(nb).scale(mu)
        family.append(M(
            [list(top.row(i)) + [ZERO] * nb for i in range(na)]
            + [[ZERO] * na + list(bottom.row(i)) for i in range(nb)]
        ))
    return draw(dense_conjugate(family))


def diagonals(m, family):
    m_inv = inverse(m)
    out = []
    for a in family:
        t = m_inv @ a @ m
        assert t.is_lower_triangular()
        out.append(diagonal_values(t))
    return out


def dense_kernel_flag(family, n):
    """The flag of common kernels on dense matrices, one rref and one matmul per member and level: the reference."""
    shifted = [a - ExactMatrix.identity(n).scale(a.trace() / gr(n)) for a in family] if n else []
    q = ExactMatrix.identity(n)
    free = []
    columns = []
    while len(free) < n:
        stacked = [x for s in shifted for x in (q @ s).entries]
        r, pivots = rref(ExactMatrix(q.rows * len(shifted), n, stacked))
        q = r.submatrix(range(len(pivots)), range(n))
        kernel = null_space(q)
        now = [f for f in range(n) if f not in pivots]
        new = [kernel.row(x) for x, f in enumerate(now) if f not in free]
        if not new:
            return None
        columns[:0] = new
        free = now
    return ExactMatrix(n, n, [v[i] for i in range(n) for v in columns])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(single_block_families())
def test_kernel_flag_matches_recursion_on_single_blocks(family):
    n = family[0].rows
    m = _kernel_flag(family, n)
    assert m is not None and m == dense_kernel_flag(family, n)
    assert simultaneous_triangularize(family).m == m
    assert diagonals(m, family) == diagonals(recursive_triangularize(family), family)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(split_families())
def test_split_families_raise_more_than_one_block(family):
    assert _kernel_flag(family, family[0].rows) is None
    assert dense_kernel_flag(family, family[0].rows) is None
    with pytest.raises(LinalgError, match="more than one block"):
        simultaneous_triangularize(family)


def test_basis_change_roundtrip_json():
    b = BasisChange(last_column_scaled(M([[1, 1], [0, 1]]), gr(2)))
    again = BasisChange.from_json(b.to_json())
    assert again == b
    assert b.m == M([[1, 2], [0, 2]])
    assert (b.m @ b.m_inv).is_identity()
    assert b.to_json() == {"m": [["1", "2"], ["0", "2"]], "scale": "1"}
    assert b.scale == ONE and not hasattr(b, "matrix")


def test_a_document_scale_multiplies_the_last_column():
    doc = {"m": [["1", "1"], ["0", "1"]], "scale": "2"}
    b = BasisChange.from_json(doc)
    assert b.m == M([[1, 2], [0, 2]])
    assert b.to_json() == {"m": [["1", "2"], ["0", "2"]], "scale": "1"}
    assert BasisChange.from_json({"m": doc["m"]}).m == M([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="scale must be nonzero"):
        BasisChange.from_json({**doc, "scale": "0"})


def test_sums_of_two_shapes_raise():
    a, b = M([[1, 2, 3], [4, 5, 6]]), M([[1, 2], [3, 4]])
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="shape mismatch"):
            x + y
        with pytest.raises(ValueError, match="shape mismatch"):
            x - y


# -- the stored-row contract: every matrix holds {column: value} rows with no zero ------------

classify_mod = importlib.import_module("liepoisson.classify")


def assert_stored(m):
    """Every row of ``m`` is a ``{column: value}`` dict of in-range columns holding no zero.

    ``ExactMatrix._of`` keeps its rows as given, and ``is_identity``, ``__eq__`` and
    ``transform.apply`` compare and read them as they are, so a dense row or a stored zero
    would go unseen there.
    """
    assert len(m.nz) == m.rows
    for row in m.nz:
        assert type(row) is dict and all(x and 0 <= j < m.cols for j, x in row.items()), row


def test_the_trusted_constructor_keeps_the_rows_it_is_given():
    rows = [{1: ONE}, {}, {0: I, 2: -ONE}]
    m = ExactMatrix._of(3, 3, rows)
    assert len(m.nz) == 3 and all(kept is given for kept, given in zip(m.nz, rows))
    # the public constructor builds the stored rows of its coerced entries, zeros dropped
    public = ExactMatrix(2, 3, [0, 1, "0", Fraction(0), 0, "2i"])
    assert public.nz == ({1: ONE}, {2: gr(0, 2)})
    assert_stored(public)


def test_classify_builds_every_move_from_stored_rows(monkeypatch):
    """Over seeded catalog orbits, solvable and semidirect, moved by dense changes, every witness
    step and its inverse hold stored rows, and so do the moves of each builder on the way: the
    kernel flag, the congruence, the permutations and the complex-pair maps; the head pencil
    finishes with its own move on some inputs."""
    ran = Counter()

    def checking(name, f):
        def wrapper(*args, **kwargs):
            out = f(*args, **kwargs)
            ran[name] += 1
            if name == "_pencil_reduce":
                ran["pencil move"] += out[1]
            elif isinstance(out, ExactMatrix):
                assert_stored(out)
            elif out is not None:
                assert_stored(out[0])
            return out

        return wrapper

    for name in ("_kernel_flag", "_pencil_reduce", "congruence_move", "_perm_columns", "_complex_pair_map"):
        monkeypatch.setattr(classify_mod, name, checking(name, getattr(classify_mod, name)))
    rng = random.Random(39)
    steps = 0
    for order in (2, 3, 4):
        for _, entry in catalog(order).entries:
            for t in (entry, append_semisimple(entry)):
                moves = [dense_unimodular(t.n)]
                while len(moves) < 2:
                    m = M([[rng.randint(-2, 2) for _ in range(t.n)] for _ in range(t.n)])
                    if rank(m) == t.n:
                        moves.append(BasisChange(m))
                for b in moves:
                    _, chain = classify(apply(t, b))
                    for step in chain:
                        assert_stored(step.m)
                        assert_stored(step.m_inv)
                    steps += len(chain)
    assert steps and all(ran[name] for name in (
        "_kernel_flag", "pencil move", "congruence_move", "_perm_columns", "_complex_pair_map")), ran


def test_permutations_pair_maps_and_congruences_are_stored_rows():
    assert classify_mod._perm_columns(4, [0, 3, 2, 1]) == M(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
    assert classify_mod._perm_columns(3, [2, 0, 1]) == M([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    for n in (3, 4):
        tail = [[int(i == j) * (2 if i == 2 else 1) for j in range(n)] for i in range(2, n)]
        pad = [0] * (n - 2)
        assert classify_mod._complex_pair_map(n, True) == M([[1, 1, *pad], [I, -I, *pad], *tail])
        assert classify_mod._complex_pair_map(n, False) == M([[1, 1, *pad], [1, -1, *pad], *tail])
    rng = random.Random(391)
    for _ in range(30):
        k = rng.randint(1, 4)
        a = M([[gr(rng.choice([0, 0, 1, -2, 3])) for _ in range(k)] for _ in range(k)])
        sym = a + a.transpose()
        c, diag = congruence_diagonalize(sym)
        assert_stored(c)
        assert c.transpose() @ sym @ c == ExactMatrix.diagonal(diag)
