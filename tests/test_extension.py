import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liepoisson.extension import (
    CommutationViolation,
    ExtensionTensor,
    NotSolvable,
    SymmetryViolation,
    TensorError,
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
from liepoisson.classify import catalog, catalog_entry, classify
from liepoisson.cli import EXIT_INVALID, main
from liepoisson.linalg import BasisChange, ExactMatrix
from liepoisson.scalars import GaussianRational, I, ONE, ZERO, gr
from liepoisson.transform import apply, normalize_w0_to_identity


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
    # the flag is read off the entries; a declared value must agree with them
    raw = [[list(row) for row in plane] for plane in t.w]
    assert validate(raw).semidirect and validate(raw) == t
    assert validate(raw, semidirect=True) == t
    for tensor, wrong in ((raw, False), (t, False), (leibniz(3), True), (leibniz(3).w, True)):
        with pytest.raises(ValueError, match="declared"):
            validate(tensor, semidirect=wrong)


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
            with pytest.raises(CommutationViolation) as err:
                validate(w)
            assert err.value.pair == pair
            # the public constructor is a door too and reports the same pair
            with pytest.raises(CommutationViolation) as err:
                ExtensionTensor(n, frozen)
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


# ---------------------------------------------------------------------------
# Where tensors are checked: every public door checks both laws, and every
# trusted construction yields a tensor that passes them
# ---------------------------------------------------------------------------

def test_order_zero_is_rejected_at_every_door():
    for door in (lambda: validate([]), lambda: ExtensionTensor(0, ()),
                 lambda: ExtensionTensor.from_json({"n": 0, "w": []})):
        with pytest.raises(TensorError, match="at least one field"):
            door()
    # the bare base bracket has no solvable part to strip
    with pytest.raises(TensorError, match="no solvable part"):
        strip_semisimple(pure_semidirect(0))


def test_from_json_requires_json_types():
    doc = leibniz(2).to_json()
    del doc["semidirect"]
    assert ExtensionTensor.from_json(doc) == leibniz(2)
    for field, value in (("semidirect", "false"), ("semidirect", 1), ("semidirect", None),
                         ("n", 2.7), ("n", 2.0), ("n", True), ("n", "2")):
        with pytest.raises(TypeError):
            ExtensionTensor.from_json({**doc, field: value})


def test_constructor_coerces_and_checks_the_declared_order():
    raw = [[[0, 0], [0, 0]], [["1", 0], [0, Fraction(0)]]]
    assert ExtensionTensor(2, raw) == leibniz(2)
    with pytest.raises(TensorError, match="declared order 3"):
        ExtensionTensor(3, raw)
    with pytest.raises(TensorError, match="not cubic"):
        ExtensionTensor(2, [[[0, 0], [0]], [[0, 0], [0, 0]]])


def _assert_certified(t):
    """Both laws by the dense reference, and the checking constructor accepts the stored cube."""
    n = t.n
    assert n >= 1 and isinstance(t.w, tuple) and len(t.w) == n
    for plane in t.w:
        assert isinstance(plane, tuple) and len(plane) == n
        for row in plane:
            assert isinstance(row, tuple) and len(row) == n
            assert all(isinstance(x, GaussianRational) for x in row)
    assert all(t.w[lam][mu][nu] == t.w[lam][nu][mu] for lam in range(n) for mu in range(n) for nu in range(n))
    assert _first_noncommuting_pair(t.w) is None
    assert ExtensionTensor(n, t.w) == t


CATALOG = [entry for order in range(1, 5) for _, entry in catalog(order).entries]


def test_named_and_catalog_constructions_pass_the_full_check():
    pool = CATALOG + [append_semisimple(e) for e in CATALOG]
    pool += [leibniz(k) for k in range(1, 9)] + [leibniz(k, semidirect=True) for k in range(1, 9)]
    pool += [abelian(k) for k in (1, 2, 4)] + [pure_semidirect(k) for k in range(4)] + [low_beta_rmhd()]
    for t in pool:
        _assert_certified(t)


# small certified tensors (n <= 5) for the drawn constructions
SMALL_POOL = CATALOG + [append_semisimple(e) for e in CATALOG if e.n < 4]
SMALL_POOL += [leibniz(k) for k in range(1, 5)] + [leibniz(k, semidirect=True) for k in range(1, 5)]
SMALL_POOL += [crmhd(1), crmhd(Fraction(-7, 3)), pure_semidirect(2)]
BETAS = st.fractions(min_value=-12, max_value=12, max_denominator=12).filter(bool)
UNITS_AND_SMALL = st.builds(gr, st.integers(-3, 3), st.integers(-1, 1)).filter(bool)


def _dense_change(data, n):
    """L D U with random unit-triangular L, U and a nonzero diagonal D: invertible and mostly dense."""
    entry = st.builds(gr, st.fractions(-2, 2, max_denominator=2), st.integers(-1, 1))
    lower = [[data.draw(entry) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[data.draw(entry) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    diag = [data.draw(UNITS_AND_SMALL) for _ in range(n)]
    return ExactMatrix.from_rows(lower) @ ExactMatrix.diagonal(diag) @ ExactMatrix.from_rows(upper)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.data(), BETAS)
def test_trusted_results_pass_the_full_check(data, beta):
    t = crmhd(beta)
    _assert_certified(t)
    _assert_certified(strip_semisimple(t))
    a = data.draw(st.sampled_from(SMALL_POOL))
    b = data.draw(st.sampled_from(SMALL_POOL))
    _assert_certified(direct_sum(a, b))
    moved = apply(a, BasisChange(_dense_change(data, a.n)))
    _assert_certified(moved)
    _assert_certified(validate(moved, semidirect=moved.semidirect))
    with pytest.raises(ValueError, match="declared"):
        validate(moved, semidirect=not moved.semidirect)
    # a scaled unit-lower change keeps a semidirect tensor lower-triangular with
    # one eigenvalue in W^(0): the input normalize_w0_to_identity expects
    s = data.draw(st.sampled_from([x for x in SMALL_POOL if x.semidirect]))
    c = data.draw(UNITS_AND_SMALL)
    lower = [[c if i == j else (data.draw(st.integers(-2, 2)) if j < i else 0) for j in range(s.n)]
             for i in range(s.n)]
    shifted = apply(s, BasisChange(ExactMatrix.from_rows(lower)))
    normal, _ = normalize_w0_to_identity(shifted)
    _assert_certified(normal)
    if s.n > 1:
        _assert_certified(strip_semisimple(normal))
        _assert_certified(catalog_entry(classify(shifted)[0]))


def _violation(door):
    """What a door makes of an array: ("valid",) or the violation with its indices."""
    try:
        door()
    except SymmetryViolation as err:
        return ("symmetry", err.indices)
    except CommutationViolation as err:
        return ("commutation", err.pair)
    return ("valid",)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([gr(1), gr(-2), gr(Fraction(1, 3), 1), I]))
def test_one_entry_perturbation_is_rejected_at_every_door(tmp_path_factory, data, delta):
    t = data.draw(st.sampled_from(SMALL_POOL))
    n = t.n
    lam, mu, nu = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    mirrored = data.draw(st.booleans())
    w = [[list(row) for row in plane] for plane in t.w]
    w[lam][mu][nu] += delta
    if mirrored and mu != nu:
        w[lam][nu][mu] += delta
    if mu != nu and not mirrored:
        expected = ("symmetry", (lam, min(mu, nu), max(mu, nu)))
    else:
        pair = _first_noncommuting_pair(w)
        expected = ("commutation", pair) if pair else ("valid",)
    # no declared semidirect: a perturbed diagonal entry may change it
    doc = {"n": n, "w": [[[str(x) for x in row] for row in plane] for plane in w]}
    path = tmp_path_factory.getbasetemp() / "perturbed.json"
    path.write_text(json.dumps(doc))
    assert _violation(lambda: ExtensionTensor(n, w)) == expected
    assert _violation(lambda: validate(w)) == expected
    assert _violation(lambda: ExtensionTensor.from_json(json.loads(path.read_text()))) == expected
    assert main(["validate", str(path)]) == (0 if expected == ("valid",) else EXIT_INVALID)


def test_strip_semisimple_requires_a_decoupled_slot_zero(monkeypatch):
    from liepoisson import extension

    calls = []
    check = extension._check_laws
    monkeypatch.setattr(extension, "_check_laws", lambda w: calls.append(w) or check(w))
    for t in (crmhd(2), leibniz(3, semidirect=True), pure_semidirect(2)):
        strip_semisimple(t)
    assert calls == []
    # a dense change of a valid tensor couples slot 0 to the rest, and the
    # dropped slices need not commute: that is a precondition, not a law
    moved = apply(crmhd(2), BasisChange(ExactMatrix.from_rows(
        [[1, 2, 0, 1], [0, 1, -1, 0], [1, 0, 1, 2], [0, 1, 0, 1]])))
    assert any(any(row[1:]) for row in moved.w[0][1:])
    sub = [[list(row[1:]) for row in plane[1:]] for plane in moved.w[1:]]
    assert _violation(lambda: validate(sub))[0] == "commutation"
    calls.clear()
    with pytest.raises(TensorError, match="slot 0 is coupled; normalize W\\^\\(0\\) first") as err:
        strip_semisimple(moved)
    assert type(err.value) is TensorError
    assert calls == []


def test_strip_semisimple_reads_every_coupling_entry():
    # one coupling entry W_0^{mu nu} = W_0^{nu mu} (mu, nu >= 1) on top of pure_semidirect(2)
    # is enough to refuse; the rows are given to the trusted constructor, since only the
    # precondition is under test
    base = pure_semidirect(2)
    for mu in range(1, 3):
        for nu in range(mu, 3):
            w = [[list(row) for row in plane] for plane in base.w]
            w[0][mu][nu] = w[0][nu][mu] = gr(3)
            with pytest.raises(TensorError, match="slot 0 is coupled"):
                strip_semisimple(ExtensionTensor._of(3, w))
    assert strip_semisimple(base) == abelian(2)
