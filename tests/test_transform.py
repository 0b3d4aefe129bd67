import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liepoisson.classify import catalog, classify
from liepoisson.extension import (
    append_semisimple,
    crmhd,
    direct_sum,
    from_lower_slices,
    leibniz,
    pure_semidirect,
    validate,
)
from liepoisson.linalg import BasisChange, ExactMatrix, inverse, rank
from liepoisson.scalars import I, ONE, ZERO, gr
from liepoisson.transform import (
    DegenerateEigenvalueMismatch,
    NotTriangular,
    apply,
    apply_chain,
    coboundary_change,
    congruence_diagonalize,
    congruence_reduce_tail,
    normalize_w0_to_identity,
    remove_coboundary,
)

M = ExactMatrix.from_rows


def unit_lower(rng, n, span=2):
    rows = [[gr(rng.randint(-span, span), 0) if j < i else (ONE if i == j else ZERO) for j in range(n)] for i in range(n)]
    return ExactMatrix.from_rows(rows)


def test_apply_identity_is_noop():
    t = crmhd(1)
    assert apply(t, BasisChange.identity(4)) == t


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
        assert apply(apply(t, b2), b1) == apply(t, b2.then(b1))


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
    out = apply(t, BasisChange(m, scale=gr(2)))
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
        # every other change carries a complex trailing scale factor
        b = BasisChange(dense_gaussian(rng, t.n), scale=gr(Fraction(2, 3), 1) if k % 2 else ONE)
        checked = apply(t, b)
        assert checked.w == _contract(t, b.matrix)
        assert apply(t, b, check=False).w == checked.w
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
    b = BasisChange(m, scale=draw(st.sampled_from([ONE, -ONE, I, gr(Fraction(2, 3))])))
    if draw(st.booleans()):
        return apply(t, b), b.inverse()
    return t, b


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(sparse_changes())
def test_apply_matches_contraction_on_sparse_changes(case):
    t, b = case
    out = apply(t, b, check=False)
    assert out.w == _contract(t, b.matrix)
    assert apply(t, b).w == out.w


def test_apply_drops_exact_cancellations():
    # W_0^{00} = W_1^{00} = 1; row 0 of M^-1 is (1, -1), so T1's (0, 0) entry is 1 - 1
    w = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
    w[0][0][0] = w[1][0][0] = ONE
    t = validate(w)
    b = BasisChange(M([[1, 1], [0, 1]]))
    assert b.m_inv.row(0) == (ONE, -ONE)
    out = apply(t, b)
    assert out.w == _contract(t, b.matrix)
    assert not any(x for row in out.w[0] for x in row)
    assert out.w[1][0][0] == ONE


def test_normalize_w0_already_identity():
    t = crmhd(1)
    out, witness = normalize_w0_to_identity(t)
    assert out == t
    assert witness.matrix.is_identity()


def test_normalize_w0_unipotent_first_slice():
    # order-1 semidirect-style input with W^(0) = [[1,0],[1,1]]
    w = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
    w[0][0][0] = ONE
    w[1][0][0] = ONE
    w[1][1][0] = ONE
    w[1][0][1] = ONE
    t = validate(w)
    out, witness = normalize_w0_to_identity(t)
    assert out.slice_upper(0).is_identity()
    assert out.semidirect
    assert apply(t, witness).w == out.w


def test_normalize_w0_rescales_eigenvalue():
    t = crmhd(1)
    b = BasisChange(ExactMatrix.identity(4).scale(gr(Fraction(3, 2))))
    scaled = apply(t, b)  # W^(0) eigenvalue becomes 3/2
    out, witness = normalize_w0_to_identity(scaled)
    assert out.slice_upper(0).is_identity()
    assert apply(scaled, witness).w == out.w


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
    monkeypatch.setattr(transform, "_check_laws", counting)
    out, witness = normalize_w0_to_identity(moved)
    # the moves are invertible changes of a certified tensor: no law is re-checked
    assert calls == []
    assert out.slice_upper(0).is_identity() and out.semidirect
    assert validate(out.w, semidirect=True) == out  # the raw entries pass the full check
    assert apply(moved, witness).w == out.w


def test_normalize_w0_errors():
    flipped = apply(pure_semidirect(1), BasisChange(M([[0, 1], [1, 0]])))
    with pytest.raises(NotTriangular):
        normalize_w0_to_identity(flipped)
    with pytest.raises(DegenerateEigenvalueMismatch):
        normalize_w0_to_identity(leibniz(2))  # eigenvalue zero


def test_remove_coboundary_trivial():
    t = leibniz(3)
    k = ExactMatrix.zeros(1, 2)
    assert remove_coboundary(t, k) == t


def test_remove_coboundary_kills_w3_11():
    # n=3, zeta1=1 raw form with W_3^{11} = a removed by a multiple of W_(2)
    a = gr(5)
    w2 = M([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    w3 = ExactMatrix.from_rows([[a, 1, 0], [1, 0, 0], [0, 0, 0]])
    t = from_lower_slices([None, w2, w3], 3)
    k = ExactMatrix(1, 2, [ZERO, a])
    out = remove_coboundary(t, k)
    assert out.slice_lower(1) == w2
    assert out.entry(2, 0, 0) == ZERO
    assert out.entry(2, 0, 1) == ONE


def test_remove_coboundary_n4_case4_raw():
    # leibniz(4) with coboundary dirt on W_(4) at (1,1) and (2,1)
    base = leibniz(4)
    w4 = base.slice_lower(3)
    dirty = w4.with_entry(0, 0, 3).with_entry(0, 1, w4[0, 1] + gr(7)).with_entry(1, 0, w4[1, 0] + gr(7))
    t = from_lower_slices([None, base.slice_lower(1), base.slice_lower(2), dirty], 4)
    k = ExactMatrix(1, 3, [ZERO, gr(3), gr(7)])
    out = remove_coboundary(t, k)
    assert out == base


def test_coboundary_change_shape():
    b = coboundary_change(3, ExactMatrix(1, 2, [gr(4), gr(5)]), scale=gr(2))
    assert b.matrix == M([[1, 0, 0], [0, 1, 0], [4, 5, 2]])


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


def test_congruence_reduce_tail_examples():
    # rescale: diag(2,0,0) -> diag(1,0,0)
    t = from_lower_slices([None, None, ExactMatrix.diagonal([2, 0, 0])], 3)
    out, witness = congruence_reduce_tail(t)
    assert out.slice_lower(2) == ExactMatrix.diagonal([1, 0, 0])
    assert apply(t, witness) == out
    # the classifier's first step is the same congruence move
    assert classify(t)[1][0] == witness
    # hyperbolic pair: antidiag -> diag(1,-1,0)
    t = from_lower_slices([None, None, M([[0, 1, 0], [1, 0, 0], [0, 0, 0]])], 3)
    out, witness = congruence_reduce_tail(t)
    assert out.slice_lower(2) == ExactMatrix.diagonal([1, -1, 0])
    assert classify(t)[1][0] == witness
    # already reduced
    t = from_lower_slices([None, None, ExactMatrix.diagonal([1, 1, 0])], 3)
    out, witness = congruence_reduce_tail(t)
    assert out.slice_lower(2) == ExactMatrix.diagonal([1, 1, 0])
    assert classify(t)[1][0] == witness


def test_congruence_reduce_tail_signature_invariance():
    """Congruent inputs reduce to the identical normal tail."""
    rng = random.Random(19)
    target = ExactMatrix.diagonal([1, -1, 0, 0])
    for _ in range(10):
        m = unit_lower(rng, 3)
        c = gr(rng.choice([1, 2, -1, Fraction(1, 2)]))
        w = m.transpose() @ target.submatrix(range(3), range(3)) @ m
        w = w.scale(c)
        t = from_lower_slices([None, None, None, _pad(w, 4)], 4)
        out, _ = congruence_reduce_tail(t)
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
