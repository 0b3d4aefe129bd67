import importlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import cpu_seconds_at_most, dense_unimodular
from liepoisson.classify import (
    CaseLabel,
    ClassificationError,
    NotSingleBlock,
    OrderTooHigh,
    catalog,
    catalog_entry,
    classify,
    derived_series_dims,
    equivalence_check,
    fingerprint,
)
from liepoisson.extension import (
    abelian,
    append_semisimple,
    crmhd,
    direct_sum,
    from_lower_slices,
    leibniz,
    strip_semisimple,
    validate,
)
from liepoisson.linalg import BasisChange, ExactMatrix, LinalgError, simultaneous_triangularize
from liepoisson.scalars import I, ONE, ZERO, gr
from liepoisson.transform import apply, apply_chain

M = ExactMatrix.from_rows
classify_mod = importlib.import_module("liepoisson.classify")
transform_mod = importlib.import_module("liepoisson.transform")


def test_catalog_counts_and_validity():
    assert len(catalog(2)) == 2
    assert len(catalog(3)) == 4
    assert len(catalog(4)) == 9
    for order in (1, 2, 3, 4):
        for label, t in catalog(order).entries:
            validate(t.w)
            assert label.order == order
            assert label.name.startswith(f"n{order}-")


def test_catalog_entries_are_zero_one():
    for order in (2, 3, 4):
        for _, t in catalog(order).entries:
            for plane in t.w:
                for row in plane:
                    for x in row:
                        assert x == ZERO or x == ONE


def test_catalog_order_out_of_range():
    with pytest.raises(OrderTooHigh):
        catalog(5)


def test_catalog_entries_pairwise_distinct_fingerprints():
    for order in (2, 3, 4):
        prints = [
            (label.name, tuple(fingerprint(t)["slice_ranks"]),
             tuple(fingerprint(t)["derived_dims"]), fingerprint(t)["tail_nullity"])
            for label, t in catalog(order).entries
        ]
        seen = {}
        for name, ranks, derived, nullity in prints:
            key = (ranks, derived, nullity)
            assert key not in seen, f"{name} and {seen.get(key)} share a fingerprint"
            seen[key] = name


def test_semidirect_forms_are_perfect():
    """The semisimple slot makes every semidirect form its own derived algebra."""
    for order in (1, 2, 3, 4):
        for label, entry in catalog(order).entries:
            assert derived_series_dims(append_semisimple(entry)) == [order + 1, order + 1], label.name


def test_classify_normal_forms_fixed_points():
    for order in (1, 2, 3, 4):
        for label, t in catalog(order).entries:
            got, chain = classify(t)
            assert got == label
            assert apply_chain(t, chain).w == t.w


def test_classify_leibniz():
    assert classify(leibniz(3))[0] == CaseLabel(3, "n3-case4", False)
    assert classify(leibniz(4))[0] == CaseLabel(4, "n4-case4b", False)
    assert classify(leibniz(2))[0] == CaseLabel(2, "n2-case2", False)


def test_classify_crmhd_solvable_part():
    label, chain = classify(strip_semisimple(crmhd(1)))
    assert label == CaseLabel(3, "n3-case2", False)
    label, chain = classify(strip_semisimple(crmhd(Fraction(5, 2))))
    assert label.name == "n3-case2"


def test_classify_crmhd_semidirect():
    label, chain = classify(crmhd(1))
    assert label == CaseLabel(3, "n3-case2", True)
    replay = apply_chain(crmhd(1), chain)
    assert replay.w == append_semisimple(catalog(3).lookup("n3-case2")).w


def test_classify_diag11_complex_route():
    t = from_lower_slices([None, None, ExactMatrix.diagonal([1, 1, 0])], 3)
    label, chain = classify(t)
    assert label.name == "n3-case2"
    assert apply_chain(t, chain).w == catalog(3).lookup("n3-case2").w


def test_classify_direct_sum_of_leibniz2():
    t = direct_sum(leibniz(2), leibniz(2))
    label, chain = classify(t)
    assert label == CaseLabel(4, "n4-case3b", False)
    assert apply_chain(t, chain).w == catalog(4).lookup("n4-case3b").w


def _order4(entries):
    """The solvable order-4 tensor with W_lam^{mu nu} = W_lam^{nu mu} = x for each (lam, mu, nu, x)."""
    w = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for lam, mu, nu, x in entries:
        w[lam][mu][nu] = w[lam][nu][mu] = x
    return validate(w)


def test_stage4_case3_window_with_d_zero_swaps_slots_2_and_3():
    # n4-case4a with slots 2 and 3 swapped: over the n3-case3 window, W_3^{01} = a != 0 and
    # W_3^{22} = d = 0, so stage 4 scales slot 3 by a and swaps it with slot 2
    t = _order4([(1, 0, 0, 1), (3, 0, 1, 3)])
    label, chain = classify(t)
    assert label == CaseLabel(4, "n4-case4a", False)
    assert [b.kind for b in chain] == ["diagonal", None]
    assert apply_chain(t, chain) == catalog(4).lookup(label.name)


def test_head_pencil_with_both_determinants_zero_splits_in_one_step():
    # the head slices diag(2, 0) and diag(0, -5) are both singular, so the pencil's roots are
    # the two coordinate lines (1, 0) and (0, 1)
    t = _order4([(2, 0, 0, 2), (3, 1, 1, -5)])
    label, chain = classify(t)
    assert label == CaseLabel(4, "n4-case3b", False)
    assert [b.kind for b in chain] == [None]
    assert apply_chain(t, chain) == catalog(4).lookup(label.name)


def test_catalog_forms_classify_with_an_empty_chain():
    """A normal form reduces to itself with no step, except where its terminal cocycle holds a
    hyperbolic pair: the congruence splits the pair into +1 and -1 and the complex pair map puts it
    back, two steps whose product is an automorphism of the form other than the identity."""
    forms = [(label, entry) for order in (1, 2, 3, 4) for label, entry in catalog(order).entries]
    forms += [(label._replace(semidirect=True), append_semisimple(entry)) for label, entry in forms
              if label.order < 4]
    round_trips = set()
    for label, t in forms:
        got, chain = classify(t)
        assert got == label
        if chain:
            round_trips.add((label.name, label.semidirect))
            assert len(chain) == 2, label
            product = BasisChange(chain[0].m @ chain[1].m)
            assert not product.m.is_identity() and apply(t, product) == t
    assert len(forms) == 23
    assert round_trips == {("n3-case2", False), ("n3-case2", True), ("n4-case1b", False), ("n4-case2", False)}


def test_classify_order_too_high():
    with pytest.raises(OrderTooHigh):
        classify(leibniz(5))


def test_classify_multi_block_rejected():
    t = validate([[[1]]])  # bare base bracket, eigenvalue 1 on a 1x1 block
    two = direct_sum(t, abelian(1))
    with pytest.raises(NotSingleBlock):
        classify(two)


def random_transform(rng, n):
    """Random invertible move: unit lower triangular + diagonal + occasional swap."""
    rows = [
        [gr(Fraction(rng.randint(-2, 2), rng.randint(1, 2))) if j < i else (ONE if i == j else ZERO)
         for j in range(n)]
        for i in range(n)
    ]
    m = ExactMatrix.from_rows(rows)
    diag = ExactMatrix.diagonal(
        [gr(Fraction(rng.choice([1, 1, 2, 3, -1]), rng.choice([1, 2]))) for _ in range(n)]
    )
    m = m @ diag
    if n >= 2 and rng.random() < 0.3:
        perm = list(range(n))
        i, j = rng.sample(range(n), 2)
        perm[i], perm[j] = perm[j], perm[i]
        pm = ExactMatrix.from_rows([[ONE if perm[c] == r else ZERO for c in range(n)] for r in range(n)])
        m = m @ pm
    if rng.random() < 0.25:
        m = m @ ExactMatrix.diagonal([I if k == rng.randrange(n) else ONE for k in range(n)])
    return BasisChange(m)


def test_round_trip_solvable_catalog():
    rng = random.Random(99)
    for order in (2, 3, 4):
        for label, entry in catalog(order).entries:
            for _ in range(6):
                b = random_transform(rng, order)
                moved = apply(entry, b)
                got, chain = classify(moved)
                assert got == label, f"{label.name}: got {got.name}"
                assert apply_chain(moved, chain).w == entry.w


def test_round_trip_semidirect():
    rng = random.Random(7)
    for order in (1, 2, 3):
        for label, entry in catalog(order).entries:
            sd = append_semisimple(entry)
            for _ in range(4):
                b = random_transform(rng, sd.n)
                moved = apply(sd, b)
                got, chain = classify(moved)
                assert got == CaseLabel(order, label.name, True)
                assert apply_chain(moved, chain).w == sd.w


def test_each_witness_step_is_applied_once(monkeypatch):
    inputs = [crmhd(Fraction(5, 2))]
    for order in (2, 3, 4):
        for _, entry in catalog(order).entries:
            sd = append_semisimple(entry)
            inputs += [apply(entry, dense_unimodular(entry.n)), apply(sd, dense_unimodular(sd.n))]
    reached = []
    for module in (classify_mod, transform_mod):
        real = module.apply
        monkeypatch.setattr(module, "apply", lambda t, b, real=real: reached.append(b) or real(t, b))
    steps = 0
    for t in inputs:
        reached.clear()
        label, chain = classify(t)
        counts = Counter(map(id, reached))
        # every step is applied exactly once: the reduced tensor is the input moved by the chain
        assert [counts[id(b)] for b in chain] == [1] * len(chain), label
        steps += len(chain)
    assert steps > len(inputs)
    reached.clear()
    assert classify_mod.apply(inputs[0], dense_unimodular(inputs[0].n)) and len(reached) == 1


def test_a_wrong_semidirect_lift_fails_the_bit_exact_gate(monkeypatch):
    lift = classify_mod._lift
    # 2 in slot 0 leaves the solvable part as it was but makes W^(0) = 2 I
    monkeypatch.setattr(classify_mod, "_lift", lambda m: lift(m).with_entry(0, 0, 2))
    inputs = {label.name: apply(append_semisimple(entry), dense_unimodular(4)) for label, entry in catalog(3).entries}
    # the solvable part of the moved abelian entry is in normal form once W^(0) = I: it lifts nothing
    abelian_sd = inputs.pop("n3-case1")
    for t in [*inputs.values(), crmhd(1)]:
        with pytest.raises(ClassificationError, match="does not reproduce the normal form"):
            classify(t)
    # inputs that lift nothing still classify
    assert classify(abelian_sd)[0] == CaseLabel(3, "n3-case1", True)
    assert classify(strip_semisimple(crmhd(1)))[0].name == "n3-case2"


def test_classification_is_class_function():
    rng = random.Random(1234)
    entry = catalog(4).lookup("n4-case3c")
    labels = set()
    for _ in range(8):
        b = random_transform(rng, 4)
        labels.add(classify(apply(entry, b))[0])
    assert labels == {CaseLabel(4, "n4-case3c", False)}


def test_equivalence_check_trivial():
    t = leibniz(3)
    verdict = equivalence_check(t, t)
    assert verdict.kind == "equivalent"
    assert verdict.witness == ()


def test_equivalence_check_distinct_by_rank():
    v = equivalence_check(catalog(3).lookup("n3-case2"), catalog(3).lookup("n3-case4"))
    assert v.kind == "distinct"
    assert "slice_ranks" in v.reason


def test_equivalence_check_case1b_vs_case3d():
    v = equivalence_check(catalog(4).lookup("n4-case1b"), catalog(4).lookup("n4-case3d"))
    assert v.kind == "distinct"
    assert "slice_ranks" in v.reason


def test_equivalence_check_witness_replay():
    rng = random.Random(5)
    entry = catalog(3).lookup("n3-case4")
    a = apply(entry, random_transform(rng, 3))
    b = apply(entry, random_transform(rng, 3))
    v = equivalence_check(a, b)
    assert v.kind == "equivalent"
    assert apply_chain(a, list(v.witness)).w == b.w


def test_qi_obstruction_is_reported():
    # leading case2 with tail diag(1, 2): the head pencil's discriminant 8 is not a square in Q(i)
    w3 = M([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    w4 = ExactMatrix.diagonal([1, 2, 0, 0])
    t = from_lower_slices([None, None, w3, w4], 4)
    with pytest.raises(ClassificationError):
        classify(t)


def test_leading_case2_box_classifies_or_refuses_by_type(monkeypatch):
    """Slice 2 = (0, 1) and every slice-3 head (W_3^00, W_3^01, W_3^11) in {-1, 0, 1, 2}^3, as
    given and moved by two fixed matrices: each draw classifies, through the bit-exact gate,
    or raises a typed Q(i) refusal, never an internal error.  The draws that reach the stage-4
    n3-case2 window find slice 3 already cleared by the head pencil."""
    reached = []
    case2 = classify_mod._stage4_leading_case2

    def counting(t):
        reached.append(t)
        return case2(t)

    monkeypatch.setattr(classify_mod, "_stage4_leading_case2", counting)
    moves = [M([[1, 0, 0, 0], [2, 1, 0, 0], [1, 3, 1, 0], [0, 1, 2, 1]]),
             M([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])]
    labels = Counter()
    for a, b, c in itertools.product((-1, 0, 1, 2), repeat=3):
        head = [[0, 1, 0, 0], [1, 0, 0, 0]], [[a, b, 0, 0], [b, c, 0, 0]]
        t = validate([[[0] * 4] * 4] * 2 + [rows + [[0] * 4] * 2 for rows in head])
        for moved in [t] + [apply(t, BasisChange(m)) for m in moves]:
            try:
                labels[classify(moved)[0].name] += 1
            except ClassificationError as err:
                assert "internal error" not in str(err)
                labels["refused"] += 1
    assert set(labels) == {"n4-case2", "n4-case3b", "n4-case3c", "refused"}
    assert sum(labels.values()) == 3 * 64 and reached


@pytest.mark.parametrize("tail, label, cols", [
    ((1, 0, 1), "n4-case2", [0, 1, 3, 2]),
    ((1, 0, -1), "n4-case2", [0, 1, 3, 2]),
    ((2, 0, -8), "n4-case2", [0, 1, 3, 2]),
    ((0, 0, 1), "n4-case3a", [0, 3, 2, 1]),
], ids=["pattern-1-1-0", "pattern-1-m1-0", "pattern-1-m1-0-scaled", "pattern-1-0-0"])
def test_abelian_window_tails_with_a_zero_sign(monkeypatch, tail, label, cols):
    """Slices 0-2 zero and a raw slice-3 tail diag(tail): the stage-4 abelian window's sign
    patterns (1, 1, 0), (1, -1, 0) and (1, 0, 0) swap the zero slot out with one column
    permutation, and the witness replays bit-exactly to the catalog entry."""
    swaps = []
    perm = classify_mod._perm_columns
    monkeypatch.setattr(classify_mod, "_perm_columns", lambda n, c: swaps.append(list(c)) or perm(n, c))
    t = from_lower_slices([None, None, None, ExactMatrix.diagonal([*tail, 0])], 4)
    found, chain = classify(t)
    assert (found.name, found.semidirect) == (label, False)
    assert swaps == [cols]
    assert apply_chain(t, chain).nz == catalog_entry(found).nz


def test_catalog_entry_semidirect():
    lab = CaseLabel(2, "n2-case2", True)
    assert catalog_entry(lab).w == append_semisimple(catalog(2).lookup("n2-case2")).w


def test_triangularize_crmhd_family_postcondition():
    # the CRMHD slice matrices are already lower-triangular; any witness
    # satisfying the postcondition is acceptable
    from liepoisson.linalg import simultaneous_triangularize

    fam = crmhd(1).slices_upper()
    bc = simultaneous_triangularize(fam)
    for a in fam:
        assert (bc.m_inv @ a @ bc.m).is_lower_triangular()


def test_append_semisimple_case2_equivalent_to_crmhd():
    sd = append_semisimple(catalog(3).lookup("n3-case2"))
    verdict = equivalence_check(sd, crmhd(1))
    assert verdict.kind == "equivalent"
    assert apply_chain(sd, list(verdict.witness)).w == crmhd(1).w


def test_equivalence_check_unknown_above_order_four():
    verdict = equivalence_check(leibniz(5), leibniz(5))
    assert verdict.kind == "equivalent"  # bit-equal short-circuits
    verdict = equivalence_check(leibniz(5), abelian(5))
    assert verdict.kind == "unknown"


def test_catalog_case4b_tail_pattern():
    t = catalog(4).lookup("n4-case4b")
    assert t.slice_lower(3) == M([
        [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]])
    assert t.slice_lower(1) == M([
        [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])


def test_classify_bare_base_bracket_clear_error():
    from liepoisson.extension import pure_semidirect

    with pytest.raises(ClassificationError, match="no solvable part"):
        classify(pure_semidirect(0))


def two_blocks_2p61():
    """W^(0) = diag(2^61 - 1, 0) moved by [[1, 1], [1, 2]]: two blocks, one eigenvalue a large prime."""
    t = validate([[[2**61 - 1, 0], [0, 0]], [[0, 0], [0, 0]]])
    return apply(t, BasisChange(M([[1, 1], [1, 2]])))


def test_multi_block_with_a_large_prime_eigenvalue_is_rejected_at_once():
    # an eigenvalue search would have to factor 2^61 - 1; the stalled kernel flag needs none
    t = two_blocks_2p61()
    assert not t.is_lower_triangular()
    with cpu_seconds_at_most(0.5), pytest.raises(NotSingleBlock, match="more than one block"):
        classify(t)


def test_triangularize_rejects_the_large_prime_two_block_family_at_once():
    # the same slices given to linalg: no divisor enumeration of 2^61 - 1 behind the stalled flag
    family = two_blocks_2p61().slices_upper()
    with cpu_seconds_at_most(1.0), pytest.raises(LinalgError, match="more than one block"):
        simultaneous_triangularize(family)


@pytest.mark.parametrize("name, scale", [("n3-case2", gr(2**61 - 1)), ("n4-case2", I * (2**61 - 1))])
def test_a_tail_entry_with_a_prime_above_2_60_classifies_at_once(name, scale):
    # slot 0 rescaled by a prime above 2^60: the congruence's size reduction strips only the
    # squares of primes below 2^16, so it never factors the prime by trial division
    entry = catalog(int(name[1])).lookup(name)
    t = apply(entry, BasisChange(ExactMatrix.diagonal([scale] + [1] * (entry.n - 1))))
    with cpu_seconds_at_most(2):
        label, chain = classify(t)
    assert label == CaseLabel(entry.n, name, False)
    assert apply_chain(t, chain) == entry


def test_equivalence_check_distinct_orders():
    v = equivalence_check(leibniz(2), leibniz(3))
    assert v.kind == "distinct"
    assert v.reason == "orders differ: 2 vs 3"


def test_equivalence_check_distinct_labels_of_moved_inputs():
    rng = random.Random(17)
    a = apply(catalog(3).lookup("n3-case3"), random_transform(rng, 3))
    b = apply(catalog(3).lookup("n3-case4"), random_transform(rng, 3))
    v = equivalence_check(a, b)
    assert v.kind == "distinct"
    assert v.reason == "slice_ranks differs: [0, 1, 0] vs [0, 1, 2]"


def test_equivalence_check_witness_replays_through_triangularization():
    # dense moves: both inputs go through the kernel flag, the witness maps a onto b
    entry = append_semisimple(catalog(4).lookup("n4-case3d"))
    lower = M([[int(i == j) + (j < i) for j in range(5)] for i in range(5)])
    upper = M([[int(i == j) + 2 * (j > i) for j in range(5)] for i in range(5)])
    a = apply(entry, BasisChange(lower @ upper))
    b = apply(entry, BasisChange(upper @ lower))
    assert not a.is_lower_triangular() and not b.is_lower_triangular()
    v = equivalence_check(a, b)
    assert v.kind == "equivalent"
    assert apply_chain(a, list(v.witness)).w == b.w


def test_equivalence_check_unknown_when_classification_fails():
    # the sqrt(2) obstruction: case-2 leading part with tail diag(1, 2)
    w3 = M([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    obstruction = from_lower_slices([None, None, w3, ExactMatrix.diagonal([1, 2, 0, 0])], 4)
    with cpu_seconds_at_most(0.5):
        v = equivalence_check(obstruction, catalog(4).lookup("n4-case2"))
        w = equivalence_check(two_blocks_2p61(), abelian(2))
    assert v.kind == "unknown" and "not a square in Q(i)" in v.reason
    assert w.kind == "unknown" and "more than one block" in w.reason


def test_no_recorded_step_is_the_identity(monkeypatch, count_calls):
    """An identity move is no witness step: it joins no chain, builds no BasisChange and applies nothing.

    Every move of classify, the W^(0) normalization included, enters through one door, so the
    BasisChange count is the chain length on solvable, semidirect and moved semidirect inputs alike.
    """
    counts = count_calls(apply)
    counts["BasisChange"] = 0
    init = BasisChange.__init__

    def counting_init(self, m):
        counts["BasisChange"] += 1
        init(self, m)

    monkeypatch.setattr(BasisChange, "__init__", counting_init)
    t = leibniz(3)
    r = classify_mod._Reduction(t)
    assert r.step(ExactMatrix.identity(3)) is t
    assert counts == {"apply": 0, "BasisChange": 0} and r.full is t and r.chain == []
    r.step(M([[1, 0, 0], [1, 1, 0], [0, 0, 1]]))
    assert counts == {"apply": 1, "BasisChange": 1} and len(r.chain) == 1
    # past a split the identity is not lifted either
    sd = append_semisimple(leibniz(2))
    r = classify_mod._Reduction(sd)
    r.split_semisimple()
    assert r.step(ExactMatrix.identity(2)) == leibniz(2) and r.chain == [] and r.full is sd
    steps = 0
    solvable = [entry for order in (2, 3, 4) for _, entry in catalog(order).entries]
    # a semidirect catalog form has W^(0) = I as written, so its W^(0) move is the identity
    inputs = [*solvable, *map(append_semisimple, solvable)]
    inputs += [apply(t, dense_unimodular(t.n)) for t in inputs]
    for t in inputs:
        before = dict(counts)
        _, chain = classify(t)
        assert not any(b.m.is_identity() for b in chain)
        assert counts["apply"] - before["apply"] == len(chain)
        assert counts["BasisChange"] - before["BasisChange"] == len(chain)
        steps += len(chain)
    assert sum(t.semidirect for t in inputs) == len(inputs) // 2
    assert steps > len(inputs)
