"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are exact for all symbolic criteria; the dynamics
criterion uses the stated floating-point thresholds.
"""

import random
import time
from fractions import Fraction

import numpy as np

from helpers import is_hermitian, leibniz_direction_one_fixtures, uses_variable
from liepoisson.casimir import (
    build_coextension,
    casimir_condition_check,
    families_equal,
    family_sets_equal,
    leibniz_casimirs_closed_form,
    synthesize_casimirs,
)
from liepoisson.classify import catalog, classify
from liepoisson.dynamics import (
    FieldState,
    HamiltonianSpec,
    analytic_conservation_residual,
    exact_monitors,
    heavy_top_tensor,
    rigid_body_tensor,
    simulate,
)
from liepoisson.extension import (
    append_semisimple,
    crmhd,
    direct_sum,
    leibniz,
    validate,
    CommutationViolation,
    SymmetryViolation,
)
from liepoisson.linalg import BasisChange, ExactMatrix, pseudoinverse
from liepoisson.scalars import ONE, ZERO, I, gr
from liepoisson.tables import crmhd_families, semidirect_extra_table, solvable_table
from liepoisson.transform import apply, apply_chain

M = ExactMatrix.from_rows


def report(num, text, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {text}{(' -- ' + extra) if extra else ''}")
    assert ok, f"criterion {num} failed: {text} {extra}"


def test_criterion_1_catalog_counts():
    start = time.time()
    ok = True
    for order, want in ((2, 2), (3, 4), (4, 9)):
        entries = catalog(order).entries
        ok = ok and len(entries) == want
        for label, t in entries:
            validate(t.w)
    report(1, "catalog counts 2/4/9 with every entry valid", ok,
           f"{time.time() - start:.2f}s")


def spec_random_transform(rng, n):
    """Random unit-lower-triangular matrix times permissible rescalings."""
    rows = [
        [gr(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) if j < i
         else (ONE if i == j else ZERO) for j in range(n)]
        for i in range(n)
    ]
    m = ExactMatrix.from_rows(rows)
    scalars = []
    for _ in range(n):
        v = gr(Fraction(rng.choice([1, 2, 3, 5, -1, -2, -3]), rng.choice([1, 2, 3])))
        if rng.random() < 0.25:
            v = v * I
        scalars.append(v)
    return BasisChange(m @ ExactMatrix.diagonal(scalars))


def test_criterion_2_classification_round_trip():
    start = time.time()
    rng = random.Random(20260808)
    checked = 0
    for order in (2, 3, 4):
        for label, entry in catalog(order).entries:
            for _ in range(50):
                b = spec_random_transform(rng, order)
                moved = apply(entry, b)
                got, chain = classify(moved)
                assert got == label, f"{label.name} -> {got.name}"
                assert apply_chain(moved, chain).w == entry.w
                checked += 1
    elapsed = time.time() - start
    report(2, "classification round trip with bit-exact witness replay",
           checked == 50 * 15 and elapsed < 30, f"{checked} trips, {elapsed:.1f}s")


def test_criterion_3_table2_reproduction():
    start = time.time()
    ok = all(families_equal(leibniz_casimirs_closed_form(n, 1), fixture)
             for n, fixture in enumerate(leibniz_direction_one_fixtures(), 1))
    report(3, "Leibniz closed forms match the reference table (n = 1..5)",
           ok, f"{time.time() - start:.2f}s")


def test_criterion_4_tables_3_4_5_reproduction():
    start = time.time()
    table = solvable_table()
    extras = semidirect_extra_table()
    ok = True
    for order in (1, 2, 3, 4):
        for label, t in catalog(order).entries:
            fams = synthesize_casimirs(t)
            ok = ok and family_sets_equal(fams, table[label.name])
            for fam in table[label.name]:
                ok = ok and bool(casimir_condition_check(t, fam))
            sd = append_semisimple(t)
            sd_fams = synthesize_casimirs(sd)
            with_zero = [f for f in sd_fams if any(uses_variable(term.poly, 0) for term in f.terms)]
            if label.name in extras:
                ok = ok and len(with_zero) == 1
                ok = ok and families_equal(with_zero[0], extras[label.name])
                ok = ok and bool(casimir_condition_check(sd, extras[label.name]))
            else:
                ok = ok and not with_zero
    elapsed = time.time() - start
    report(4, "Tables of solvable and semidirect Casimirs reproduced exactly",
           ok and elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_5_crmhd_end_to_end():
    start = time.time()
    ok = True
    for beta in (1, Fraction(5, 2)):
        t = crmhd(beta)
        co = build_coextension(t)
        b = gr(beta)
        ok = ok and co.wn == ExactMatrix.from_rows([[ZERO, -b], [-b, ZERO]])
        ok = ok and co.wn_pinv == ExactMatrix.from_rows([[ZERO, -1 / b], [-1 / b, ZERO]])
        ok = ok and all(not c for plane in co.cow for row in plane for c in row)
        ok = ok and co.nonsingular and co.solvable_ok and co.coext_ok
        fams = synthesize_casimirs(t)
        ok = ok and family_sets_equal(fams, crmhd_families(beta))
        ok = ok and all(casimir_condition_check(t, f) for f in fams)
    report(5, "CRMHD end-to-end: trivial coextension and the four families",
           ok, f"{time.time() - start:.2f}s")


def test_criterion_6_singular_tail_example():
    start = time.time()
    t = catalog(4).lookup("n4-case3c")
    co = build_coextension(t)
    ok = co.projector == ExactMatrix.diagonal([1, 0, 1])
    ok = ok and co.wn_pinv == co.wn
    ok = ok and [[str(x) for x in row] for row in co.cow[0]] == [
        ["0", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]
    ok = ok and all(not c for plane in co.cow[1:] for row in plane for c in row)
    ok = ok and co.solvable_ok and co.coext_ok and not co.nonsingular
    fams = synthesize_casimirs(t)
    ok = ok and family_sets_equal(fams, solvable_table()["n4-case3c"])
    report(6, "singular-tail example: projector, coextension, three families",
           ok, f"{time.time() - start:.2f}s")


def test_criterion_7_oracle_equivalence():
    start = time.time()
    ok = True
    for n in range(2, 9):
        fams = synthesize_casimirs(leibniz(n))
        closed = [leibniz_casimirs_closed_form(n, nu) for nu in range(1, n + 1)]
        ok = ok and family_sets_equal(fams, closed)
    elapsed = time.time() - start
    report(7, "recursion-synthesized Leibniz Casimirs equal closed forms (n = 2..8)",
           ok and elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_8_pseudoinverse_suite():
    start = time.time()
    rng = random.Random(42)

    def random_matrix(rows, cols):
        return ExactMatrix(rows, cols, [
            gr(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
               Fraction(rng.randint(-2, 2), 1) if rng.random() < 0.3 else 0)
            for _ in range(rows * cols)
        ])

    ok = True
    for _ in range(200):
        n = rng.randint(1, 4)
        m_ = rng.randint(1, 4)
        r = rng.randint(0, min(n, m_))
        a = (random_matrix(n, r) @ random_matrix(r, m_)) if r else ExactMatrix.zeros(n, m_)
        p = pseudoinverse(a)
        ok = ok and (a @ p @ a) == a
        ok = ok and (p @ a @ p) == p
        ok = ok and is_hermitian(a @ p)
        ok = ok and is_hermitian(p @ a)
    elapsed = time.time() - start
    report(8, "200 random pseudoinverses satisfy all four identities exactly",
           ok and elapsed < 10, f"{elapsed:.1f}s")


def triple_product_symmetric(t):
    n = t.n
    for lam in range(n):
        for tau in range(n):
            for mu in range(n):
                for nu in range(n):
                    lhs = sum((t.entry(lam, sig, tau) * t.entry(sig, mu, nu)
                               for sig in range(n)), ZERO)
                    rhs = sum((t.entry(lam, sig, nu) * t.entry(sig, tau, mu)
                               for sig in range(n)), ZERO)
                    if lhs != rhs:
                        return False
    return True


def test_criterion_9_jacobi_fuzzing():
    start = time.time()
    rng = random.Random(31)
    pool = [crmhd(1), leibniz(3), leibniz(2, semidirect=True),
            direct_sum(leibniz(2), leibniz(2))]
    ok = True
    for _ in range(100):
        t = rng.choice(pool)
        n = t.n
        l, m_, v = (rng.randrange(n) for _ in range(3))
        w = [[[t.w[a][b][c] for c in range(n)] for b in range(n)] for a in range(n)]
        w[l][m_][v] = w[l][m_][v] + gr(rng.choice([1, -1, 2]))
        try:
            mutated = validate(w)
        except (SymmetryViolation, CommutationViolation):
            continue
        # accepted by the validator: confirm both laws independently
        sym = all(
            mutated.entry(a, b, c) == mutated.entry(a, c, b)
            for a in range(n) for b in range(n) for c in range(n)
        )
        ok = ok and sym and triple_product_symmetric(mutated)
    elapsed = time.time() - start
    report(9, "100 single-entry mutations rejected or independently confirmed",
           ok and elapsed < 5, f"{elapsed:.1f}s")


def test_criterion_10_dynamics():
    start = time.time()
    ok = True
    # (a) analytic conservation at 100 random states per case
    rng = np.random.default_rng(12)
    cases = [
        (rigid_body_tensor(), HamiltonianSpec.rigid_body([1.0, 2.0, 3.0])),
        (heavy_top_tensor(), HamiltonianSpec.isotropic(2)),
        (crmhd(1), HamiltonianSpec.isotropic(4)),
    ]
    for t, h in cases:
        monitors = exact_monitors(t)
        assert monitors
        for _ in range(100):
            state = rng.normal(size=(t.n, 3))
            for _, q in monitors:
                ok = ok and analytic_conservation_residual(t, h, q, state) <= 1e-12
    # (b) rigid body drift over T = 10 at dt = 1e-3
    t = rigid_body_tensor()
    h = HamiltonianSpec.rigid_body([1.0, 2.0, 3.0])
    s0 = FieldState.from_vectors([[1.0, 1.0, 1.0]])
    mons = exact_monitors(t)
    record = simulate(t, h, s0, dt=1e-3, steps=10000, monitors=mons, sample_every=1000)
    ok = ok and record.drifts["H"] < 1e-8
    ok = ok and all(d < 1e-8 for name, d in record.drifts.items())
    # (c) halving dt shrinks each drift by a fourth-order factor; an
    # anisotropic block makes all heavy-top monitors genuinely dynamical,
    # and monitors already at round-off are exempt from the ratio window
    ht_blocks = np.zeros((2, 2, 3, 3))
    ht_blocks[0, 0] = np.diag([1.0, 0.5, 1.0 / 3.0])
    ht_blocks[1, 1] = np.diag([1.0, 0.25, 0.75])
    for t2, h2, s2 in (
        (t, h, s0),
        (heavy_top_tensor(), HamiltonianSpec(ht_blocks),
         FieldState.from_vectors([[0.3, -0.2, 0.9], [0.5, 0.1, -0.4]])),
    ):
        mons2 = exact_monitors(t2)
        coarse = simulate(t2, h2, s2, dt=0.04, steps=250, monitors=mons2)
        fine = simulate(t2, h2, s2, dt=0.02, steps=500, monitors=mons2)
        for name in coarse.drifts:
            if coarse.drifts[name] < 1e-13:
                continue
            ratio = coarse.drifts[name] / max(fine.drifts[name], 1e-300)
            ok = ok and 8 <= ratio <= 32
    elapsed = time.time() - start
    report(10, "dynamics: analytic conservation, drift bounds, RK4 order",
           ok and elapsed < 60, f"{elapsed:.1f}s")
