import random
from fractions import Fraction

import pytest

from liepoisson.extension import (
    CommutationViolation,
    ExtensionTensor,
    NotSolvable,
    SymmetryViolation,
    ZeroParameter,
    abelian,
    append_semisimple,
    crmhd,
    direct_sum,
    leibniz,
    low_beta_rmhd,
    pure_semidirect,
    strip_semisimple,
    validate,
)
from liepoisson.classify import catalog
from liepoisson.linalg import ExactMatrix
from liepoisson.scalars import ONE, ZERO, gr


def test_crmhd_slice_matrices():
    t = crmhd(1)
    assert t.n == 4 and t.semidirect
    assert t.slice_upper(0).is_identity()
    w1 = t.slice_upper(1)
    assert w1[1, 0] == ONE and w1[3, 2] == gr(-1)
    assert sum(1 for x in w1.entries if x) == 2
    w2 = t.slice_upper(2)
    assert w2[2, 0] == ONE and w2[3, 1] == gr(-1)
    w3 = t.slice_upper(3)
    assert w3[3, 0] == ONE and sum(1 for x in w3.entries if x) == 1


def test_crmhd_validates_for_rational_beta():
    rng = random.Random(2)
    for _ in range(5):
        beta = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
        t = crmhd(beta)
        assert validate(t.w, semidirect=True) == t


def test_crmhd_rejects_bad_beta():
    with pytest.raises(ZeroParameter):
        crmhd(0)
    with pytest.raises(ZeroParameter):
        crmhd(gr(0, 1))


def test_low_beta_rmhd_valid():
    t = low_beta_rmhd()
    assert t.slice_upper(0).is_identity()
    assert t.slice_upper(1) == ExactMatrix.from_rows([[0, 0], [1, 0]])


def test_symmetry_violation_reported_with_indices():
    t = crmhd(1)
    w = [[[t.w[l][m][n] for n in range(4)] for m in range(4)] for l in range(4)]
    w[3][2][1] = gr(1)  # flip -beta to +beta, leave (3,1,2) alone
    with pytest.raises(SymmetryViolation) as err:
        validate(w)
    assert err.value.indices == (3, 1, 2) or err.value.indices == (3, 2, 1)


def test_commutation_violation():
    # symmetric in upper indices but slices do not commute
    w = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
    w[1][0][0] = ONE  # W_2^{11} = 1
    w[2][1][1] = ONE  # W_3^{22} = 1, forbidden when zeta1 = 1
    with pytest.raises(CommutationViolation):
        validate(w)


def test_validate_keeps_the_semidirect_flag():
    t = crmhd(1)
    assert validate(t) == t
    assert validate(leibniz(3)) == leibniz(3)
    # a raw array is solvable-form unless the flag is given
    raw = [[list(row) for row in plane] for plane in t.w]
    assert not validate(raw).semidirect
    assert validate(raw, semidirect=True) == t
    assert not validate(t, semidirect=False).semidirect


def test_leibniz_slices_are_jordan_powers():
    for order in range(1, 9):
        t = leibniz(order)
        n = power = t.slice_upper(0)
        for nu in range(order):
            assert t.slice_upper(nu) == power
            power = power @ n
        assert validate(t.w) == t


def test_leibniz_small_cases():
    t2 = leibniz(2)
    assert t2.entry(1, 0, 0) == ONE
    assert sum(1 for p in t2.w for r in p for x in r if x) == 1
    t3 = leibniz(3)
    nz = {(l, m, n) for l in range(3) for m in range(3) for n in range(3) if t3.entry(l, m, n)}
    assert nz == {(1, 0, 0), (2, 0, 1), (2, 1, 0)}


def test_leibniz_semidirect_appends_identity():
    t = leibniz(1, semidirect=True)
    assert t == low_beta_rmhd()
    for order in range(1, 6):
        ts = leibniz(order, semidirect=True)
        assert ts.slice_upper(0).is_identity()
        assert strip_semisimple(ts) == leibniz(order)


def test_append_semisimple():
    assert append_semisimple(abelian(1)) == pure_semidirect(1)
    for order in (1, 2, 3, 4):
        assert append_semisimple(leibniz(order)) == leibniz(order, semidirect=True)
    with pytest.raises(NotSolvable):
        append_semisimple(pure_semidirect(1))


def test_direct_sum_block_structure():
    a = leibniz(2)
    s = direct_sum(a, a)
    assert s.n == 4 and not s.semidirect
    nz = {(l, m, n) for l in range(4) for m in range(4) for n in range(4) if s.entry(l, m, n)}
    assert nz == {(1, 0, 0), (3, 2, 2)}
    # abelian summand pads with zeros
    padded = direct_sum(a, abelian(1))
    assert padded.n == 3
    assert padded.entry(1, 0, 0) == ONE
    assert sum(1 for p in padded.w for r in p for x in r if x) == 1
    assert direct_sum(abelian(2), abelian(1)) == abelian(3)


def test_fuzz_single_entry_mutations():
    """Mutations either fail validation or still satisfy both laws.

    The independent recheck derives the triple-product symmetry directly:
    W_lam^{s t} W_s^{mu nu} must be symmetric in (t, mu, nu).
    """
    rng = random.Random(31)
    pool = [crmhd(1), leibniz(3), leibniz(2, semidirect=True), direct_sum(leibniz(2), leibniz(2))]
    for _ in range(100):
        t = rng.choice(pool)
        n = t.n
        l, m, v = (rng.randrange(n) for _ in range(3))
        delta = gr(rng.choice([1, -1, 2]))
        w = [[[t.w[a][b][c] for c in range(n)] for b in range(n)] for a in range(n)]
        w[l][m][v] = w[l][m][v] + delta
        try:
            mutated = validate(w)
        except (SymmetryViolation, CommutationViolation):
            continue
        assert triple_product_symmetric(mutated)


def _first_noncommuting_pair(w):
    """Reference for the commutation law: the first pair nu < sigma whose
    slice matrices W^(nu) (rows lam, columns mu) fail to commute, by matmul."""
    n = len(w)
    slices = [ExactMatrix.from_rows([[w[lam][mu][nu] for mu in range(n)] for lam in range(n)])
              for nu in range(n)]
    for nu in range(n):
        for sigma in range(nu + 1, n):
            if slices[nu] @ slices[sigma] != slices[sigma] @ slices[nu]:
                return nu, sigma
    return None


def test_validate_reports_the_reference_violation():
    rng = random.Random(47)
    pool = [entry for order in range(1, 5) for _, entry in catalog(order).entries]
    pool += [append_semisimple(entry) for order in range(2, 5) for _, entry in catalog(order).entries]
    pool += [leibniz(k) for k in range(2, 6)] + [leibniz(k, semidirect=True) for k in range(1, 5)]
    pool += [crmhd(1), crmhd(Fraction(-7, 3))]
    broken = 0
    for t in pool:
        assert validate(t, semidirect=t.semidirect) == t
        assert validate(t.w, semidirect=t.semidirect) == t
        n = t.n
        for _ in range(4):
            lam, mu, nu = (rng.randrange(n) for _ in range(3))
            delta = rng.choice([gr(1), gr(-2), gr(Fraction(1, 3), 1)])
            w = [[list(row) for row in plane] for plane in t.w]
            w[lam][mu][nu] += delta
            if mu != nu:
                # one-sided change: the symmetry check reports it first
                with pytest.raises(SymmetryViolation) as err:
                    validate(w)
                assert err.value.indices == (lam, min(mu, nu), max(mu, nu))
                w[lam][nu][mu] += delta
            pair = _first_noncommuting_pair(w)
            frozen = tuple(tuple(tuple(row) for row in plane) for plane in w)
            if pair is None:
                assert validate(w).w == frozen
                continue
            broken += 1
            for raw in (w, ExtensionTensor(n, t.semidirect, frozen)):
                with pytest.raises(CommutationViolation) as err:
                    validate(raw)
                assert err.value.pair == pair
    assert broken > len(pool)


def triple_product_symmetric(t):
    n = t.n
    for lam in range(n):
        for tau in range(n):
            for mu in range(n):
                for nu in range(n):
                    lhs = sum(
                        (t.entry(lam, sig, tau) * t.entry(sig, mu, nu) for sig in range(n)),
                        ZERO,
                    )
                    rhs = sum(
                        (t.entry(lam, sig, nu) * t.entry(sig, tau, mu) for sig in range(n)),
                        ZERO,
                    )
                    if lhs != rhs:
                        return False
    return True


def test_json_round_trip():
    for t in (crmhd(Fraction(5, 2)), leibniz(3), abelian(2)):
        doc = t.to_json()
        assert ExtensionTensor.from_json(doc) == t
        assert doc["w"][0][0][0] in ("0", "1")


def test_stored_entry_views_match_slice_matrices():
    from liepoisson.linalg import BasisChange
    from liepoisson.transform import apply

    rng = random.Random(23)
    entries = [entry for order in range(1, 5) for _, entry in catalog(order).entries]
    pool = entries + [append_semisimple(t) for t in entries] + [leibniz(5), crmhd(Fraction(5, 2))]
    tensors = []
    for t in pool:
        n = t.n
        # unit-lower changes keep every slice lower-triangular, the others need not
        lower = ExactMatrix(n, n, [int(i == j) or (rng.randint(-2, 2) if j < i else 0)
                                   for i in range(n) for j in range(n)])
        scaled = ExactMatrix.diagonal([gr(rng.choice([1, 2, -3]), rng.randint(0, 1)) for _ in range(n)])
        flip = ExactMatrix(n, n, [int(i + j == n - 1) for i in range(n) for j in range(n)])
        tensors += [t] + [apply(t, BasisChange(m)) for m in (lower, lower @ scaled, lower @ flip)]
    outcomes = set()
    for t in tensors:
        slices = t.slices_upper()
        triangular = all(s.is_lower_triangular() for s in slices)
        solvable = triangular and not any(x for s in slices for x in s.diagonal_values())
        assert t.is_lower_triangular() == triangular
        assert t.is_solvable() == solvable
        for nu, s in enumerate(slices):
            assert t.slice_diagonal(nu) == s.diagonal_values()
            assert t.slice_is_identity(nu) == s.is_identity()
        outcomes.add((triangular, solvable, t.slice_is_identity(0)))
    # every reachable combination occurs
    assert outcomes == {(False, False, False), (True, False, False), (True, True, False), (True, False, True)}


def test_nonzeros_match_a_full_scan_and_are_computed_once():
    entries = [entry for order in range(1, 5) for _, entry in catalog(order).entries]
    pool = entries + [leibniz(k) for k in range(1, 8)] + [leibniz(k, semidirect=True) for k in range(1, 7)]
    pool += [crmhd(Fraction(5, 2)), crmhd(-3), direct_sum(leibniz(3), crmhd(1)), abelian(3)]
    for t in pool:
        scan = tuple((lam, mu, nu, t.entry(lam, mu, nu))
                     for lam in range(t.n) for mu in range(t.n) for nu in range(t.n)
                     if t.entry(lam, mu, nu))
        first = t.nonzeros()
        assert first == scan
        assert t.nonzeros() is first
        # the cached listing changes neither equality, hashing nor immutability
        fresh = validate(t.w, semidirect=t.semidirect)
        assert fresh == t and hash(fresh) == hash(t)
        with pytest.raises(AttributeError):
            t._nonzeros = ()
