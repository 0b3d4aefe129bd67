import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import cpu_seconds_at_most, gaussian_ints, last_column_scaled, stepwise_w0, stored_rows
from liepoisson.classify import ClassificationError, catalog, classify
from liepoisson.extension import (
    ExtensionTensor,
    abelian,
    append_semisimple,
    crmhd,
    direct_sum,
    from_lower_slices,
    leibniz,
    pure_semidirect,
    validate,
)
from liepoisson.linalg import BasisChange, ExactMatrix, LinalgError, inverse, rank
from liepoisson.scalars import I, ONE, ZERO, gr, sqrt_gaussian
from liepoisson.transform import (
    apply,
    apply_chain,
    congruence_diagonalize,
    congruence_move,
    congruence_normalize,
    normalize_w0_to_identity,
)

M = ExactMatrix.from_rows


def unit_lower(rng, n, span=2):
    rows = [[gr(rng.randint(-span, span), 0) if j < i else (ONE if i == j else ZERO) for j in range(n)] for i in range(n)]
    return ExactMatrix.from_rows(rows)


def test_apply_identity_is_noop():
    t = crmhd(1)
    assert apply(t, BasisChange(ExactMatrix.identity(4))) == t


def test_apply_inverse_round_trip():
    rng = random.Random(4)
    t = leibniz(3)
    for _ in range(10):
        b = BasisChange(unit_lower(rng, 3))
        assert apply(apply(t, b), b.inverse()) == t


def test_apply_group_action():
    rng = random.Random(6)
    t = crmhd(1)
    for _ in range(10):
        b1 = BasisChange(unit_lower(rng, 4))
        b2 = BasisChange(unit_lower(rng, 4))
        assert apply(apply(t, b2), b1) == apply(t, BasisChange(b2.m @ b1.m))


def test_apply_preserves_validity_random():
    rng = random.Random(8)
    pool = [crmhd(1), leibniz(4), direct_sum(leibniz(2), leibniz(2))]
    for _ in range(30):
        t = rng.choice(pool)
        b = BasisChange(unit_lower(rng, t.n))
        validate(apply(t, b).w)  # raises on violation


def test_apply_complex_map_example():
    # diag(1,1) tail becomes the antidiagonal under the documented complex map
    t = from_lower_slices([None, None, ExactMatrix.diagonal([1, 1, 0])], 3)
    m = M([[1, 1, 0], [I, -I, 0], [0, 0, 1]])
    # check the congruence identity the witness relies on
    block = m.submatrix(range(2), range(2))
    assert block.transpose() @ ExactMatrix.identity(2) @ block == M([[0, 2], [2, 0]])
    out = apply(t, BasisChange(last_column_scaled(m, gr(2))))
    assert out.slice_lower(2) == M([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert out.slice_lower(0).is_zero() and out.slice_lower(1).is_zero()


def _contract(t, m):
    """Wbar_b^{a g} = sum (M^-1)_b^lam W_lam^{mu nu} M_mu^a M_nu^g, entry by entry."""
    n = t.n
    m_inv = inverse(m).to_rows()
    m = m.to_rows()
    out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for lam in range(n):
        for mu in range(n):
            for nu in range(n):
                x = t.w[lam][mu][nu]
                if not x:
                    continue
                for b in range(n):
                    xb = m_inv[b][lam] * x
                    for a in range(n):
                        xba = xb * m[mu][a]
                        for g in range(n):
                            out[b][a][g] += xba * m[nu][g]
    return tuple(tuple(tuple(row) for row in plane) for plane in out)


def dense_gaussian(rng, n):
    """A dense invertible matrix with nonzero entries p/d + (q/e) i, d and e in 1..3."""
    while True:
        rows = [[gr(Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)),
                    Fraction(rng.randint(-1, 1), rng.randint(1, 3))) for _ in range(n)]
                for _ in range(n)]
        m = M(rows)
        if rank(m) == n:
            return m


def test_apply_matches_entrywise_contraction():
    rng = random.Random(12)
    pool = [entry for order in range(1, 5) for _, entry in catalog(order).entries]
    pool += [append_semisimple(entry) for order in range(1, 5) for _, entry in catalog(order).entries]
    pool += [leibniz(k) for k in range(1, 6)] + [leibniz(k, semidirect=True) for k in range(1, 5)]
    pool += [crmhd(1), crmhd(Fraction(-5, 3))]
    assert {t.n for t in pool} == {1, 2, 3, 4, 5}
    for k, t in enumerate(pool):
        # every other change has its last column multiplied by a complex factor
        b = BasisChange(last_column_scaled(dense_gaussian(rng, t.n), gr(Fraction(2, 3), 1) if k % 2 else ONE))
        checked = apply(t, b)
        assert checked.w == _contract(t, b.m)
        # the trusted result passes the public door, which checks both laws
        assert ExtensionTensor(t.n, checked.w) == checked
        # the slice traces move by M^T, so whether one is nonzero does not change
        assert checked.semidirect == t.semidirect


SPARSE_POOL = (
    [entry for order in range(1, 5) for _, entry in catalog(order).entries]
    + [append_semisimple(entry) for order in range(1, 4) for _, entry in catalog(order).entries]
    + [leibniz(k) for k in range(1, 6)] + [leibniz(k, semidirect=True) for k in range(1, 5)]
    + [crmhd(1), crmhd(Fraction(-5, 3)), direct_sum(leibniz(2), leibniz(2))]
)
# small entries of both signs, so that many sums cancel exactly
SPARSE_VALUES = [ONE, -ONE, gr(2), I, -I, gr(Fraction(1, 2)), gr(Fraction(-1, 3), 1)]


@st.composite
def sparse_changes(draw):
    """A sparse catalog-type tensor and P L D: a permutation, a sparse unit-lower shear, a diagonal.

    Half of the draws move the tensor by that change first and return the
    moved tensor with the inverse change, which lands back on the sparse
    tensor, so that most sums in T1, T2 and the output cancel exactly.
    """
    t = draw(st.sampled_from(SPARSE_POOL))
    n = t.n
    perm = draw(st.permutations(range(n)))
    value = st.sampled_from(SPARSE_VALUES)
    shear = [[(ONE if i == j else draw(st.one_of(st.just(ZERO), value)) if j < i else ZERO)
              for j in range(n)] for i in range(n)]
    diag = [draw(value) for _ in range(n)]
    p = M([[ONE if perm[j] == i else ZERO for j in range(n)] for i in range(n)])
    m = p @ M(shear) @ ExactMatrix.diagonal(diag)
    b = BasisChange(last_column_scaled(m, draw(st.sampled_from([ONE, -ONE, I, gr(Fraction(2, 3))]))))
    if draw(st.booleans()):
        return apply(t, b), b.inverse()
    return t, b


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(sparse_changes())
def test_apply_matches_contraction_on_sparse_changes(case):
    t, b = case
    out = apply(t, b)
    assert out.w == _contract(t, b.m)
    assert ExtensionTensor(t.n, out.w) == out


@st.composite
def diagonal_and_shear_steps(draw):
    """A sparse tensor and a pure diagonal step (unit and non-unit entries, the last one sometimes
    multiplied again) or a single unit shear I + c E_ij, with i < j or i > j.

    Half of the draws move the tensor first and return the inverse step, so that sums cancel.
    """
    t = draw(st.sampled_from(SPARSE_POOL))
    n = t.n
    value = st.sampled_from(SPARSE_VALUES)
    if n == 1 or draw(st.booleans()):
        d = ExactMatrix.diagonal([draw(st.one_of(st.just(ONE), value)) for _ in range(n)])
        b = BasisChange(last_column_scaled(d, draw(st.sampled_from([ONE, ONE, -ONE, I, gr(Fraction(2, 3))]))))
    else:
        i, j = draw(st.permutations(range(n)))[:2]
        b = BasisChange(ExactMatrix.identity(n).with_entry(i, j, draw(value)))
    if draw(st.booleans()):
        return apply(t, b), b.inverse()
    return t, b


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(diagonal_and_shear_steps())
def test_diagonal_and_shear_steps_match_the_contraction_without_an_inverse(case):
    t, b = case
    assert b.kind in ("diagonal", "shear")
    out = apply(t, b)
    # neither the construction nor apply built M^-1
    assert b._m_inv is None
    assert out.w == _contract(t, b.m)
    assert all(x for plane in out.nz for row in plane for x in row.values())
    assert b.m_inv == inverse(b.m)


def test_a_singular_diagonal_step_raises_at_construction():
    with pytest.raises(LinalgError):
        BasisChange(ExactMatrix.diagonal([ONE, ZERO, gr(2)]))
    with pytest.raises(LinalgError):
        BasisChange(last_column_scaled(ExactMatrix.diagonal([ONE, ZERO]), gr(3)))


def test_apply_drops_exact_cancellations():
    # W_0^{00} = W_1^{00} = 1; row 0 of M^-1 is (1, -1), so T1's (0, 0) entry is 1 - 1
    w = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
    w[0][0][0] = w[1][0][0] = ONE
    t = validate(w)
    b = BasisChange(M([[1, 1], [0, 1]]))
    assert b.m_inv.row(0) == (ONE, -ONE)
    out = apply(t, b)
    assert out.w == _contract(t, b.m)
    assert not any(x for row in out.w[0] for x in row)
    assert out.w[1][0][0] == ONE


# ---------------------------------------------------------------------------
# The stored rows against dense definitions, on random cubes (unsymmetric
# ones included, built through the trusted constructor) and on chains of
# transformed tensors
# ---------------------------------------------------------------------------

def assert_views_match_the_cube(t, cube):
    """Every view of ``t`` equals its dense definition on the nested-tuple cube ``cube``."""
    n = len(cube)
    span = range(n)
    assert t.n == n
    assert t.semidirect == any(sum((cube[lam][lam][nu] for lam in span), ZERO) for nu in span)
    assert all(x and nu in span for plane in t.nz for row in plane for nu, x in row.items())
    assert t.w == cube
    assert all(type(plane) is tuple and all(type(row) is tuple for row in plane) for plane in t.w)
    assert all(t.entry(lam, mu, nu) == cube[lam][mu][nu] for lam in span for mu in span for nu in span)
    assert t.nonzeros() == tuple((lam, mu, nu, cube[lam][mu][nu])
                                 for lam in span for mu in span for nu in span if cube[lam][mu][nu])
    for k in span:
        assert t.slice_upper(k) == M([[cube[lam][mu][k] for mu in span] for lam in span])
        assert t.slice_lower(k) == M([list(row) for row in cube[k]])
        assert t.slice_diagonal(k) == [cube[lam][lam][k] for lam in span]
        assert t.slice_is_identity(k) == all(cube[lam][mu][k] == (ONE if lam == mu else ZERO)
                                             for lam in span for mu in span)
    assert t.is_lower_triangular() == all(not x for lam in span for mu in span if mu > lam for x in cube[lam][mu])
    assert t.is_solvable() == all(not x for lam in span for mu in span if mu >= lam for x in cube[lam][mu])
    rebuilt = ExtensionTensor._of(n, stored_rows(cube))
    assert t == rebuilt and hash(t) == hash(rebuilt)
    lam, mu, nu = n - 1, 0, n // 2
    bumped = [[list(row) for row in plane] for plane in cube]
    bumped[lam][mu][nu] += ONE
    assert t != ExtensionTensor._of(n, stored_rows(bumped))


CUBE_VALUES = st.sampled_from([ONE, -ONE, gr(2), I, gr(Fraction(-1, 3), 1), gr(Fraction(5, 2))])


@st.composite
def random_cubes(draw):
    """An n-cube, n = 1..4, mostly zeros and with no symmetry, optionally cut to a predicate's shape."""
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["any", "lower", "solvable", "identity0", "diagonal0"]))
    cube = [[[draw(st.one_of(st.just(ZERO), st.just(ZERO), CUBE_VALUES)) for _ in range(n)]
             for _ in range(n)] for _ in range(n)]
    for lam in range(n):
        for mu in range(n):
            if shape == "lower" and mu > lam or shape == "solvable" and mu >= lam:
                cube[lam][mu] = [ZERO] * n
            elif shape == "identity0" or shape == "diagonal0" and lam == mu:
                cube[lam][mu][0] = ONE if lam == mu else ZERO
    return tuple(tuple(tuple(row) for row in plane) for plane in cube)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(random_cubes())
def test_stored_rows_of_a_random_cube_match_its_dense_definitions(cube):
    assert_views_match_the_cube(ExtensionTensor._of(len(cube), stored_rows(cube)), cube)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.data())
def test_chained_apply_rows_match_the_dense_contraction(data):
    t = data.draw(st.sampled_from(SPARSE_POOL))
    cube = t.w
    for _ in range(data.draw(st.integers(1, 3))):
        n = t.n
        if data.draw(st.booleans()):
            m = dense_gaussian(random.Random(data.draw(st.integers(0, 2 ** 16))), n)
        else:  # a permutation times a sparse unit-lower shear times a diagonal
            perm = data.draw(st.permutations(range(n)))
            value = st.sampled_from(SPARSE_VALUES)
            m = M([[ONE if perm[j] == i else ZERO for j in range(n)] for i in range(n)]) @ M(
                [[(ONE if i == j else data.draw(st.one_of(st.just(ZERO), value)) if j < i else ZERO)
                  for j in range(n)] for i in range(n)]) @ ExactMatrix.diagonal([data.draw(value) for _ in range(n)])
        b = BasisChange(last_column_scaled(m, data.draw(st.sampled_from([ONE, gr(Fraction(2, 3), 1)]))))
        # the oracle contracts a tensor backed by the previous dense cube, never by apply's rows
        cube = _contract(ExtensionTensor._of(t.n, stored_rows(cube)), b.m)
        t = apply(t, b)
        assert_views_match_the_cube(t, cube)


def semidirect_forms():
    """The 16 semidirect catalog forms of orders 1-4, semidirect Leibniz 2-6 and CRMHD."""
    forms = [append_semisimple(entry) for order in (1, 2, 3, 4) for _, entry in catalog(order).entries]
    return forms + [leibniz(order, semidirect=True) for order in range(2, 7)] + [crmhd(1), crmhd(Fraction(-5, 2))]


def test_normalize_w0_already_identity():
    # slot 0 is the unit and the other slices have zero trace: the move is the identity, so
    # the caller records no step and a semidirect normal form stays a fixed point
    forms = semidirect_forms()
    assert len(forms) == 23
    for t in forms:
        assert normalize_w0_to_identity(t).is_identity()


def test_normalize_w0_unipotent_first_slice():
    # order-1 semidirect-style input with W^(0) = [[1,0],[1,1]]
    w = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
    w[0][0][0] = ONE
    w[1][0][0] = ONE
    w[1][1][0] = ONE
    w[1][0][1] = ONE
    t = validate(w)
    m = normalize_w0_to_identity(t)
    assert m == M([[1, 0], [-1, 1]])
    out = apply(t, BasisChange(m))
    assert out.slice_upper(0).is_identity()
    assert out.semidirect


def test_normalize_w0_rescales_eigenvalue():
    t = crmhd(1)
    b = BasisChange(ExactMatrix.identity(4).scale(gr(Fraction(3, 2))))
    scaled = apply(t, b)  # W^(0) eigenvalue becomes 3/2
    m = normalize_w0_to_identity(scaled)
    # the unit is (2/3) e_0; the other slices have zero trace and span ker phi as they are
    assert m == ExactMatrix.diagonal([gr(Fraction(2, 3)), 1, 1, 1])
    assert apply(scaled, BasisChange(m)).slice_upper(0).is_identity()


def test_normalize_w0_runs_no_check(monkeypatch):
    from liepoisson import extension, transform

    # a scaled unit-lower-triangular move leaves W^(0) = 2I + (lower terms):
    # normalizing it takes the rescaling and one move per nonzero W_lam^{00}
    t = leibniz(3, semidirect=True)
    m = M([[2, 0, 0, 0], [1, 2, 0, 0], [-1, 3, 2, 0], [2, 1, -1, 2]])
    moved = apply(t, BasisChange(m))
    assert sum(1 for lam in range(1, 4) if moved.entry(lam, 0, 0)) >= 2
    calls = []
    check = extension._check_laws
    counting = lambda *a, **k: calls.append(a) or check(*a, **k)  # noqa: E731
    monkeypatch.setattr(extension, "_check_laws", counting)
    # apply checks no law, so transform holds no reference to the check
    assert not hasattr(transform, "_check_laws")
    out = apply(moved, BasisChange(normalize_w0_to_identity(moved)))
    # the moves are invertible changes of a certified tensor: no law is re-checked
    assert calls == []
    assert out.slice_upper(0).is_identity() and out.semidirect
    assert validate(out.w, semidirect=True) == out  # the raw entries pass the full check


def dense_integer_change(rng, n):
    """A random invertible integer matrix with entries in [-2, 2]."""
    while True:
        m = M([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if rank(m) == n:
            return m


def test_normalize_w0_splits_off_the_unit_of_any_moved_form(monkeypatch):
    """In any basis the move makes slot 0 the unit with ker phi an ideal: W^(0) = I and the rows
    (0, mu >= 1) empty.  Reading it off applies nothing.  The unit is unique, so on a
    lower-triangular input its first column is the one of the old rescale-and-shear reduction."""
    from liepoisson import transform

    rng = random.Random(20)
    cases = []
    for t in semidirect_forms():
        scale = ExactMatrix.identity(t.n).scale(gr(rng.choice([1, 2, -3]), rng.choice([0, 1])))
        cases.append((apply(t, BasisChange(scale @ unit_lower(rng, t.n))), True))
        cases.append((apply(t, BasisChange(dense_integer_change(rng, t.n))), False))
    applied = []
    inner = transform.apply
    monkeypatch.setattr(transform, "apply", lambda t, b: applied.append(b) or inner(t, b))
    moved = 0
    for t, triangular in cases:
        del applied[:]
        m = normalize_w0_to_identity(t)
        assert applied == []
        out = inner(t, BasisChange(m))
        assert out.slice_upper(0).is_identity() and not any(out.nz[0][1:]), t
        if triangular:
            _, total = stepwise_w0(t)
            assert m.col(0) == total.col(0)
        moved += not m.is_identity()
    assert moved == len(cases)


def test_normalize_w0_refuses_what_has_no_unit_split():
    # two blocks: the bare base bracket beside an abelian field, in either order; the Neumann
    # sum of the unit never ends, since N has the eigenvalue -1
    for t in (direct_sum(pure_semidirect(0), abelian(1)), direct_sum(abelian(1), pure_semidirect(0))):
        assert t.semidirect and normalize_w0_to_identity(t) is None
    # a solvable tensor has no slice trace, so no unit to split off
    assert normalize_w0_to_identity(leibniz(2)) is None
    # the triangular precondition is gone: a flipped single block has its move
    flipped = apply(pure_semidirect(1), BasisChange(M([[0, 1], [1, 0]])))
    assert not flipped.is_lower_triangular()
    assert apply(flipped, BasisChange(normalize_w0_to_identity(flipped))) == pure_semidirect(1)


def test_congruence_diagonalize_random():
    rng = random.Random(12)
    for _ in range(30):
        k = rng.randint(1, 4)
        a = ExactMatrix.from_rows(
            [[gr(rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)]
        )
        sym = a + a.transpose()
        c, diag = congruence_diagonalize(sym)
        out = c.transpose() @ sym @ c
        assert out == ExactMatrix.diagonal(diag)


def test_repair_classes_takes_the_first_entry_of_each_class(monkeypatch):
    """_repair_classes' candidate order fixes C and c on a block with no common square class.

    -3, 7, 3 and 7 give no single factor c with every c/d or -c/d a square, so
    the entries are first moved into one class tau.  The candidate classes are
    the first entry of each class, compared by the square root of a ratio and
    never factored, so the first tau is -3, the first entry.
    """
    import liepoisson.transform as transform

    calls = []
    repair = transform._repair_classes
    monkeypatch.setattr(transform, "_repair_classes", lambda *a: calls.append(a) or repair(*a))
    block = ExactMatrix.diagonal([-3, 7, 3, 7])
    cm, signs, c = congruence_normalize(block)
    assert len(calls) == 1
    f = Fraction
    assert cm == M([[1, 0, 0, 0], [0, gr(f(2, 7)), gr(0, f(5, 7)), 0], [0, 0, 0, 1], [0, gr(0, f(5, 7)), gr(f(-2, 7)), 0]])
    assert signs == [1, 1, 1, -1] and c == gr(-3)
    assert cm.transpose() @ block @ cm == ExactMatrix.diagonal([c * s for s in signs])


def test_the_even_repair_factors_no_entry():
    """diag(3, 12, p, 4p), p = 2^61 - 1: two classes, 3 and p, with a square product.

    The even branch of the repair compares the entries by the square roots of their
    ratios and takes its candidates from the entries, so the prime is never factored.
    """
    p = 2**61 - 1
    block = ExactMatrix.diagonal([3, 12, p, 4 * p])
    with cpu_seconds_at_most(2):
        cm, signs, c = congruence_normalize(block)
    assert cm.transpose() @ block @ cm == ExactMatrix.diagonal([c * s for s in signs])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(gaussian_ints(30, nonzero=True), gaussian_ints(30, nonzero=True), st.integers(1, 12), st.integers(1, 12))
def test_a_refused_two_entry_tail_has_a_nonsquare_product_and_no_repair(z1, z2, q1, q2):
    """A tail of two nonzero entries that no global factor scales is two entries in two classes.

    ``classify`` builds 2x2 and 3x3 tails only, so every even count that reaches
    :func:`_repair_classes` is this case: d1/d2 is no square (-1 = i^2 is one), so
    neither is d1 d2 = d2^2 (d1/d2), and the even branch returns None.
    """
    from liepoisson.scalars import square_class_of_product
    from liepoisson.transform import _normalize_diagonal, _repair_classes

    diag = [gr(Fraction(z1[0], q1), Fraction(z1[1], q1)), gr(Fraction(z2[0], q2), Fraction(z2[1], q2))]
    assume(_normalize_diagonal(list(diag)) is None)
    assert square_class_of_product(diag) not in (ONE, -ONE)
    assert _repair_classes([[ONE, ZERO], [ZERO, ONE]], list(diag)) is None


# square-free Gaussian integers: a unit times a product of distinct primes, 1 + i the ramified one
SQUARE_FREE = st.builds(lambda unit, primes: unit * math.prod(primes, start=ONE),
                        st.sampled_from([ONE, I]),
                        st.sets(st.sampled_from([gr(1, 1), gr(2, 1), gr(2, -1), gr(3), gr(3, 2)]), max_size=2))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(SQUARE_FREE, SQUARE_FREE, st.lists(gaussian_ints(40, nonzero=True), min_size=4, max_size=4), st.permutations(range(4)))
def test_two_classes_with_a_square_product_normalize(a, b, ss, order):
    """a s1^2, a s2^2, b s3^2, b s4^2 in any order: an even count with a square discriminant.

    Over Q(i) the form is two hyperbolic planes, so c diag(+-1, ...) is always reached;
    when a and b lie in different classes no single c fits before the repair.
    """
    from liepoisson.transform import _normalize_diagonal

    entries = [a, a, b, b]
    diag = [entries[k] * gr(*ss[k]) ** 2 for k in order]
    if sqrt_gaussian(a / b) is None:
        assert _normalize_diagonal(list(diag)) is None
    block = ExactMatrix.diagonal(diag)
    norm = congruence_normalize(block)
    assert norm is not None
    cm, signs, c = norm
    assert cm.transpose() @ block @ cm == ExactMatrix.diagonal([c * s for s in signs])


def test_a_failed_merge_makes_the_block_unreachable(monkeypatch):
    """x^2 + 2y^2 + 5z^2 has no Q(i) congruence to c diag(+-1, +-1, +-1), and the repair says so.

    The entries 1, 2 and 5 lie in three square classes and their product 10 is the one
    candidate class.  With no same-class pair, the repair merges 1 and 2 into the class of
    1 * 2 * 10, that is 5, and x^2 + 2y^2 = +-5 has no Q(i) point: the Hilbert symbol (5, 10)
    is -1 at the prime 2 + i, where 2 is not a square mod 5.  So ``_pair_move`` and
    ``_execute_repair`` return False and ``_repair_classes`` None.  None is the right
    answer: c would lie in class 10, and c diag(1, 1, 1) has Hasse invariant
    (10, 10) = (10, -1) = 1 where the form's is (2, 5) = -1 at 2 + i.
    """
    import liepoisson.transform as transform

    seen = {"_pair_move": [], "_execute_repair": [], "_repair_classes": []}
    for name, out in seen.items():
        real = getattr(transform, name)
        monkeypatch.setattr(transform, name, lambda *a, real=real, out=out: out.append(real(*a)) or out[-1])
    assert congruence_normalize(ExactMatrix.diagonal([1, 2, 5])) is None
    assert seen == {"_pair_move": [False], "_execute_repair": [False], "_repair_classes": [None]}
    t = from_lower_slices([None, None, None, ExactMatrix.diagonal([1, 2, 5, 0])], 4)
    with pytest.raises(ClassificationError, match="tail cannot be scaled"):
        classify(t)


def _move_tail(t):
    """The congruence move on the last slice, as a witness, and the tensor it gives."""
    witness = BasisChange(congruence_move(t, t.n - 1)[0])
    return apply(t, witness), witness


def test_congruence_move_examples():
    # the classifier's one tail step is the congruence move times the fixed map of its sign pattern
    swap = ExactMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    # rescale: diag(2,0,0) -> diag(1,0,0), then the swap puts the zero slot at 1
    t = from_lower_slices([None, None, ExactMatrix.diagonal([2, 0, 0])], 3)
    out, witness = _move_tail(t)
    assert out.slice_lower(2) == ExactMatrix.diagonal([1, 0, 0])
    assert apply(t, witness) == out
    assert classify(t)[1] == [BasisChange(witness.m @ swap)]
    # hyperbolic pair: 3 antidiag -> diag(1,-1,0), then the real complex pair map
    t = from_lower_slices([None, None, M([[0, 3, 0], [3, 0, 0], [0, 0, 0]])], 3)
    out, witness = _move_tail(t)
    assert out.slice_lower(2) == ExactMatrix.diagonal([1, -1, 0])
    assert classify(t)[1] == [BasisChange(witness.m @ M([[1, 1, 0], [1, -1, 0], [0, 0, 2]]))]
    # already reduced: the move is the identity, and the one step is the imaginary complex pair map
    t = from_lower_slices([None, None, ExactMatrix.diagonal([1, 1, 0])], 3)
    out, witness = _move_tail(t)
    assert out == t and witness.m.is_identity()
    assert classify(t)[1] == [BasisChange(M([[1, 1, 0], [I, -I, 0], [0, 0, 2]]))]


def test_congruence_move_signature_invariance():
    """Congruent inputs reduce to the identical normal tail."""
    rng = random.Random(19)
    target = ExactMatrix.diagonal([1, -1, 0, 0])
    for _ in range(10):
        m = unit_lower(rng, 3)
        c = gr(rng.choice([1, 2, -1, Fraction(1, 2)]))
        w = m.transpose() @ target.submatrix(range(3), range(3)) @ m
        w = w.scale(c)
        t = from_lower_slices([None, None, None, _pad(w, 4)], 4)
        out, _ = _move_tail(t)
        assert out.slice_lower(3) == target


def _pad(w, n):
    rows = [[w[i, j] if i < w.rows and j < w.cols else ZERO for j in range(n)] for i in range(n)]
    return ExactMatrix.from_rows(rows)


def test_apply_chain_replay():
    rng = random.Random(21)
    t = crmhd(1)
    chain = [BasisChange(unit_lower(rng, 4)) for _ in range(3)]
    step = t
    for b in chain:
        step = apply(step, b)
    assert apply_chain(t, chain) == step


def test_apply_and_classify_never_read_the_dense_view(monkeypatch):
    rng = random.Random(18)
    inputs = []
    for order in range(2, 5):
        for _, entry in catalog(order).entries:
            for t in (entry, append_semisimple(entry)):
                # a dense unimodular L U, so that classify triangularizes first
                inputs.append(apply(t, BasisChange(unit_lower(rng, t.n) @ unit_lower(rng, t.n).transpose())))
    reads = []
    dense = ExtensionTensor.w
    monkeypatch.setattr(ExtensionTensor, "w", property(lambda t: reads.append(t) or dense.fget(t)))
    for t in inputs:
        label, chain = classify(t)
        apply_chain(t, chain)
    assert reads == []
    # the counter is live
    assert inputs[0].w and len(reads) == 1


def test_signs_are_read_off_the_integer_triple(monkeypatch):
    """_normalize_diagonal and represent_binary's closed forms read no .re or .im (each builds a Fraction)."""
    from liepoisson.conics import represent_binary
    from liepoisson.scalars import GaussianRational
    from liepoisson.transform import _normalize_diagonal

    reads = []
    for name in ("re", "im"):
        part = getattr(GaussianRational, name)
        monkeypatch.setattr(GaussianRational, name,
                            property(lambda z, part=part, name=name: reads.append(name) or part.fget(z)))
    values = [gr(2), gr(-3), gr(Fraction(-1, 2)), gr(Fraction(9, 4)), gr(-5), ZERO, I, gr(1, -2)]
    diags = [[a, b, c] for a in values for b in values for c in values[::2]]
    results = [_normalize_diagonal(d) for d in diags]
    # real hyperbolic pairs, sums of two squares with and without a real point, and a complex form
    forms = [(gr(1), gr(-4), gr(3)), (gr(2), gr(-Fraction(1, 2)), gr(-5)), (gr(1), gr(1), gr(5)),
             (gr(1), gr(4), gr(Fraction(13, 4))), (gr(1), gr(1), gr(3)), (gr(1), gr(-1), I), (I, gr(1, 0), gr(2))]
    points = [represent_binary(a, b, v) for a, b, v in forms]
    assert reads == []
    for d, out in zip(diags, results):
        if out is not None:
            ts, signs, c = out
            assert all(t * t * x / c == s for t, x, s in zip(ts, d, signs))
    for (a, b, v), (x, y) in zip(forms, points):
        assert a * x * x + b * y * y == v and x
    # the counter is live
    assert gr(1).re == 1 and reads == ["re"]
