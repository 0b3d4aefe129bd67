import importlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import classify_by_the_flag_at_order_n_plus_1, cpu_seconds_at_most, dense_unimodular
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
    ExtensionTensor,
    abelian,
    append_semisimple,
    crmhd,
    direct_sum,
    from_lower_slices,
    leibniz,
    pure_semidirect,
    strip_semisimple,
    validate,
)
from liepoisson.linalg import BasisChange, ExactMatrix, LinalgError, rank, simultaneous_triangularize
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
    # W_3^{22} = d = 0, so stage 4 scales slot 3 by a and swaps it with slot 2, in one general step
    t = _order4([(1, 0, 0, 1), (3, 0, 1, 3)])
    label, chain = classify(t)
    assert label == CaseLabel(4, "n4-case4a", False)
    assert [b.kind for b in chain] == [None]
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
    """A normal form reduces to itself with no step.  Where its terminal cocycle holds a hyperbolic
    pair, the congruence and the complex pair map are one move whose product is an automorphism of
    the form, and a move that leaves the tensor unchanged is not recorded."""
    forms = [(label, entry) for order in (1, 2, 3, 4) for label, entry in catalog(order).entries]
    forms += [(label._replace(semidirect=True), append_semisimple(entry)) for label, entry in forms
              if label.order < 4]
    assert len(forms) == 23
    for label, t in forms:
        assert classify(t) == (label, []), label


def test_classify_order_too_high():
    with pytest.raises(OrderTooHigh):
        classify(leibniz(5))


def test_classify_multi_block_rejected():
    t = validate([[[1]]])  # bare base bracket, eigenvalue 1 on a 1x1 block
    # in the second order W_1^{11} = 1 is the only entry: slice 0's diagonal is constant, slice 1's varies
    assert direct_sum(abelian(1), t).slice_diagonal(0) == [ZERO, ZERO]
    for two in (direct_sum(t, abelian(1)), direct_sum(abelian(1), t)):
        assert per_slice_refusal(two)
        with pytest.raises(NotSingleBlock, match="distinct eigenvalues; split it first"):
            classify(two)


def per_slice_refusal(t):
    """The per-slice definition of one block on a lower-triangular tensor, the oracle of
    ``_require_single_block``: some slice diagonal is not constant, or a slice past the first
    has a nonzero eigenvalue."""
    diagonals = [t.slice_diagonal(nu) for nu in range(t.n)]
    return any(x != d[0] for d in diagonals for x in d) or any(d[0] for d in diagonals[1:])


SOLVABLE_BLOCKS = [entry for order in (1, 2, 3, 4) for _, entry in catalog(order).entries]
SINGLE_BLOCKS = [*SOLVABLE_BLOCKS, pure_semidirect(0), *(append_semisimple(b) for b in SOLVABLE_BLOCKS if b.n < 4)]


@st.composite
def lower_triangular_tensors(draw):
    """Catalog entries, their semidirect forms and direct sums of two of them (so blocks with
    different eigenvalues), each moved or not by a lower-triangular change with a nonzero
    diagonal, which keeps every slice lower-triangular and may rescale an eigenvalue."""
    blocks = draw(st.lists(st.sampled_from(SINGLE_BLOCKS), min_size=1, max_size=2))
    t = blocks[0] if len(blocks) == 1 else direct_sum(*blocks)
    if t.n <= 6 and draw(st.booleans()):
        entry = st.sampled_from([0, 0, 1, -1, 2])
        rows = [[draw(st.sampled_from([1, 2, -1, I])) if i == j else draw(entry) if j < i else 0 for j in range(t.n)]
                for i in range(t.n)]
        t = apply(t, BasisChange(M(rows)))
    return t


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(lower_triangular_tensors())
def test_single_block_check_refuses_exactly_when_the_per_slice_one_does(t):
    """classify refuses a lower-triangular tensor as more than one block exactly when the per-slice
    definition does; one block gets a label, OrderTooHigh past the catalog, or the bare base
    bracket's refusal."""
    assert t.is_lower_triangular()
    refused = per_slice_refusal(t)
    try:
        classify(t)
    except NotSingleBlock as err:
        assert refused and str(err) == "tensor has more than one block, with distinct eigenvalues; split it first"
        return
    except OrderTooHigh:
        assert t.n - t.semidirect > 4
    except ClassificationError as err:
        assert t.n == 1 and str(err).startswith("bare base bracket")
    assert not refused


def test_a_unit_whose_complement_is_no_ideal_is_refused():
    """Q(i) x Q(i) in the basis (1, 1), (1, 0): slot 0 is the unit, W^(0) = I and the tensor is
    lower-triangular, but ker phi is spanned by (1, 0) - (1, 1)/2, whose square (1, 1)/4 lies
    off it.  So ker phi is no ideal and the tensor is two blocks, refused before any strip."""
    t = ExtensionTensor.from_json({"n": 2, "w": [[[1, 0], [0, 0]], [[0, 1], [1, 1]]]})
    assert t.slice_is_identity(0) and t.is_lower_triangular()
    with pytest.raises(NotSingleBlock, match="more than one block, with distinct eigenvalues; split it first"):
        classify(t)


SOLVABLE_PARTS = [entry for order in (1, 2, 3) for _, entry in catalog(order).entries]
SUMMANDS = SOLVABLE_PARTS + [append_semisimple(entry) for entry in SOLVABLE_PARTS]


@st.composite
def moved_semidirect_inputs(draw):
    """Semidirect catalog forms of orders 1-4, semidirect Leibniz 2-5, CRMHD at a random beta and
    direct sums of two semidirect or solvable parts of orders 1-3 (at most 6 fields), each moved by
    a random invertible integer matrix."""
    kind = draw(st.sampled_from(["catalog", "leibniz", "crmhd", "sum"]))
    if kind == "catalog":
        t = append_semisimple(draw(st.sampled_from(SOLVABLE_BLOCKS)))
    elif kind == "leibniz":
        t = leibniz(draw(st.integers(2, 5)), semidirect=True)
    elif kind == "crmhd":
        t = crmhd(Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9))))
    else:
        a = draw(st.sampled_from(SUMMANDS))
        t = direct_sum(a, draw(st.sampled_from([b for b in SUMMANDS if a.n + b.n <= 6])))
    entries = st.lists(st.integers(-2, 2), min_size=t.n, max_size=t.n)
    rows = draw(st.lists(entries, min_size=t.n, max_size=t.n).filter(lambda rows: rank(M(rows)) == t.n))
    return apply(t, BasisChange(M(rows)))


def label_or_refusal(label_of, t):
    try:
        return label_of(t)
    except ClassificationError as err:
        return type(err)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(moved_semidirect_inputs())
def test_the_unit_split_agrees_with_the_flag_at_order_n_plus_1(t):
    """classify splits off the unit first; the path it replaced, the kernel flag on all n + 1
    slices, the W^(0) rescale and shears, then the split, gives the same label or refusal class."""
    assert label_or_refusal(lambda t: classify(t)[0], t) == label_or_refusal(classify_by_the_flag_at_order_n_plus_1, t)


CATALOG_FORMS = [(label, entry) for order in (1, 2, 3, 4) for label, entry in catalog(order).entries]
CATALOG_FORMS += [(label._replace(semidirect=True), append_semisimple(entry)) for label, entry in CATALOG_FORMS]


@st.composite
def moved_catalog_forms(draw):
    """A catalog form of order 1-4, with or without the semisimple slot, and the form moved by a
    random dense invertible integer matrix."""
    label, t = draw(st.sampled_from(CATALOG_FORMS))
    entries = st.lists(st.integers(-3, 3), min_size=t.n, max_size=t.n)
    rows = draw(st.lists(entries, min_size=t.n, max_size=t.n).filter(lambda rows: rank(M(rows)) == t.n))
    return label, apply(t, BasisChange(M(rows)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(moved_catalog_forms())
def test_classify_is_idempotent(case):
    """The end point of a witness chain is a normal form, so it classifies to the same label with
    an empty chain."""
    label, t = case
    got, chain = classify(t)
    assert got == label
    assert classify(apply_chain(t, chain)) == (label, [])


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


@pytest.mark.parametrize("name, scale", [
    ("n3-case2", gr(2**61 - 1)),
    ("n4-case2", I * (2**61 - 1)),
    ("n4-case1b", gr(2**61 - 1)),
    ("n4-case1b", I * (2**61 - 1)),
    ("n4-case1b", gr(4611686018427387817)),  # a 62-bit prime p = 1 mod 4
])
def test_a_tail_entry_with_a_prime_above_2_60_classifies_at_once(name, scale):
    # slot 0 rescaled by a prime above 2^60: the congruence's size reduction strips only the
    # squares of primes below 2^16, and the square-class repair of n4-case1b's tail, whose two
    # entries both carry the prime, takes the class of their product from the factors; neither
    # factors the prime by trial division
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
    """A chain holds only moves that change the tensor.  An identity move builds no BasisChange and
    applies nothing; a move whose result has the tensor's stored rows is applied once and not recorded.

    Every move of classify, the unit split included, enters through one door, so the apply and
    BasisChange counts are the chain length plus the dropped moves, on solvable, semidirect and moved
    semidirect inputs alike.
    """
    counts = count_calls(apply)
    counts["BasisChange"] = 0
    init = BasisChange.__init__

    def counting_init(self, m):
        counts["BasisChange"] += 1
        init(self, m)

    monkeypatch.setattr(BasisChange, "__init__", counting_init)
    dropped = []
    counted = classify_mod.apply

    def detecting(t, b):
        out = counted(t, b)
        if out.nz == t.nz:
            dropped.append(b)
        return out

    monkeypatch.setattr(classify_mod, "apply", detecting)
    t = leibniz(3)
    r = classify_mod._Reduction(t)
    assert r.step(ExactMatrix.identity(3)) is t
    assert counts == {"apply": 0, "BasisChange": 0} and r.full is t and r.chain == []
    r.step(M([[1, 0, 0], [1, 1, 0], [0, 0, 1]]))
    assert counts == {"apply": 1, "BasisChange": 1} and len(r.chain) == 1
    # an automorphism of n3-case2 other than the identity: applied once, then dropped
    t = catalog(3).lookup("n3-case2")
    r = classify_mod._Reduction(t)
    assert r.step(M([[0, 2, 0], [2, 0, 0], [0, 0, 4]])) is t
    assert counts == {"apply": 2, "BasisChange": 2} and r.full is t and r.chain == [] and len(dropped) == 1
    # past a split the identity is not lifted either
    sd = append_semisimple(leibniz(2))
    r = classify_mod._Reduction(sd)
    r.split_semisimple(ExactMatrix.identity(3))
    assert r.step(ExactMatrix.identity(2)) == leibniz(2) and r.chain == [] and r.full is sd
    steps = 0
    solvable = [entry for order in (2, 3, 4) for _, entry in catalog(order).entries]
    # a semidirect catalog form has its unit at slot 0 as written, so its unit split is the identity
    inputs = [*solvable, *map(append_semisimple, solvable)]
    inputs += [apply(t, dense_unimodular(t.n)) for t in inputs]
    for t in inputs:
        before, first = dict(counts), len(dropped)
        _, chain = classify(t)
        assert not any(b.m.is_identity() for b in chain)
        for b in chain:
            moved = apply(t, b)
            assert moved.nz != t.nz
            t = moved
        moves = len(chain) + len(dropped) - first
        assert counts["apply"] - before["apply"] == counts["BasisChange"] - before["BasisChange"] == moves
        steps += len(chain)
    assert sum(t.semidirect for t in inputs) == len(inputs) // 2
    assert steps > len(inputs) and dropped
