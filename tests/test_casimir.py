from fractions import Fraction
from functools import lru_cache
from typing import Dict

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import dense_unimodular, leibniz_direction_one_fixtures, uses_variable
from liepoisson import casimir
from liepoisson.casimir import (
    CasimirError,
    ConditionReport,
    CasimirFamily,
    CasimirTerm,
    FormalFunction,
    SynthesisObstruction,
    build_coextension,
    casimir_condition_check,
    families_equal,
    family_sets_equal,
    format_family,
    leibniz_casimirs_closed_form,
    quadratic_casimir_basis,
    synthesize_casimirs,
)
from liepoisson.classify import OrderTooHigh, catalog, classify
from liepoisson.dynamics import rigid_body_tensor
from liepoisson.extension import (
    abelian,
    append_semisimple,
    crmhd,
    direct_sum,
    from_lower_slices,
    leibniz,
    pure_semidirect,
)
from liepoisson.linalg import BasisChange, ExactMatrix, inverse, pseudoinverse, rank, rref
from liepoisson.polynomials import Poly
from liepoisson.scalars import ONE, ZERO, gr
from liepoisson.tables import (
    crmhd_families,
    semidirect_extra_table,
    solvable_table,
)
from liepoisson.transform import apply, apply_chain

M = ExactMatrix.from_rows


def unit(n, i):
    return tuple(ONE if m == i else ZERO for m in range(n))


# -- condition checker --------------------------------------------------------

def test_crmhd_family_passes():
    t = crmhd(1)
    for fam in crmhd_families(1):
        assert casimir_condition_check(t, fam)


def test_wrong_sign_crmhd_family_fails():
    t = crmhd(1)
    f = FormalFunction("f", (unit(4, 3),))
    bad = CasimirFamily((
        CasimirTerm(Poly(4, {(1, 0, 0, 0): ONE}), f, (0,)),
        CasimirTerm(Poly(4, {(0, 1, 1, 0): ONE}), f, (1,)),  # sign flipped
    ), 4, True)
    report = casimir_condition_check(t, bad)
    assert not report
    assert report.failure is not None
    lam, sig, nu = report.failure
    assert report.residual  # nonzero residual polynomial at the cited triple


def test_local_coordinate_family_passes_everywhere():
    # the last coordinate of a solvable tensor is locally conserved
    for order in (2, 3, 4):
        for label, t in catalog(order).entries:
            f = FormalFunction("f", (unit(t.n, t.n - 1),))
            fam = CasimirFamily((CasimirTerm(Poly.constant(t.n, 1), f, (0,)),), t.n)
            assert casimir_condition_check(t, fam)


# -- the Poly-based check, kept as the oracle of casimir_condition_check ----------

def poly_second_derivatives(fam):
    """Hessian of the density as {(label, deriv): Poly} per index pair, by Poly.diff and scale."""
    n = fam.n
    hess: Dict = {}

    def add(mu, sig, key, poly):
        if poly.is_zero():
            return
        cell = hess.setdefault((mu, sig), {})
        cell[key] = cell.get(key, Poly.zero(n)) + poly
        if cell[key].is_zero():
            del cell[key]

    for term in fam.terms:
        key0 = (term.func.label if term.func else None, term.deriv)
        args = term.func.args if term.func else ()
        for mu in range(n):
            p_mu = term.poly.diff(mu)
            for sig in range(n):
                add(mu, sig, key0, p_mu.diff(sig))
                for a, u in enumerate(args):
                    if u[sig]:
                        bumped = list(term.deriv)
                        bumped[a] += 1
                        add(mu, sig, (term.func.label, tuple(bumped)), p_mu.scale(u[sig]))
            for a, u in enumerate(args):
                if not u[mu]:
                    continue
                bumped = list(term.deriv)
                bumped[a] += 1
                key1 = (term.func.label, tuple(bumped))
                for sig in range(n):
                    add(mu, sig, key1, term.poly.diff(sig).scale(u[mu]))
                    for b, u2 in enumerate(args):
                        if u2[sig]:
                            bumped2 = list(bumped)
                            bumped2[b] += 1
                            add(mu, sig, (term.func.label, tuple(bumped2)),
                                term.poly.scale(u[mu] * u2[sig]))
    return hess


def poly_condition_check(t, fam):
    """The symmetry condition contracted over every mu with Poly arithmetic, triple by triple."""
    n = t.n
    hess = poly_second_derivatives(fam)

    def contract(lam, sig, nu):
        out: Dict = {}
        for mu in range(n):
            w = t.entry(lam, mu, nu)
            if not w:
                continue
            for key, poly in hess.get((mu, sig), {}).items():
                out[key] = out.get(key, Poly.zero(n)) + poly.scale(w)
        return {k: p for k, p in out.items() if not p.is_zero()}

    for nu in range(n):
        for lam in range(n):
            for sig in range(lam):
                lhs = contract(lam, sig, nu)
                rhs = contract(sig, lam, nu)
                if lhs != rhs:
                    residual = dict(lhs)
                    for key, poly in rhs.items():
                        residual[key] = residual.get(key, Poly.zero(n)) - poly
                    residual = {k: p for k, p in residual.items() if not p.is_zero()}
                    return ConditionReport(False, (lam, sig, nu), residual)
    return ConditionReport(True)


@lru_cache(maxsize=None)
def synthesized_pool():
    """(tensor, family) for every family synthesized on the catalog entries with and
    without the semisimple slot, and on Leibniz 2-7 solvable and semidirect."""
    tensors = []
    for order in (1, 2, 3, 4):
        for _, entry in catalog(order).entries:
            tensors += [entry, append_semisimple(entry)]
    tensors += [leibniz(k, semidirect=sd) for k in range(2, 8) for sd in (False, True)]
    return tuple((t, fam) for t in tensors for fam in synthesize_casimirs(t))


def with_terms(fam, terms):
    return CasimirFamily(tuple(terms), fam.n, fam.semidirect)


def mutants(fam, delta):
    """Every single-coefficient (c -> c + delta), sign-flip and dropped-term mutant of fam,
    and the family with each argument covector u scaled to (1 + delta) u."""
    terms = list(fam.terms)
    for a in range(len(terms[0].func.args) if terms and terms[0].func else 0):
        args = list(terms[0].func.args)
        args[a] = tuple((ONE + delta) * c for c in args[a])
        func = FormalFunction(terms[0].func.label, args)
        yield with_terms(fam, [CasimirTerm(term.poly, func, term.deriv) for term in terms])
    for i, term in enumerate(terms):
        for e, c in term.poly.terms.items():
            changed = dict(term.poly.terms)
            changed[e] = c + delta
            yield with_terms(fam, terms[:i] + [CasimirTerm(Poly(fam.n, changed), term.func, term.deriv)] + terms[i + 1:])
        yield with_terms(fam, terms[:i] + [CasimirTerm(-term.poly, term.func, term.deriv)] + terms[i + 1:])
        yield with_terms(fam, terms[:i] + terms[i + 1:])


def test_check_matches_poly_oracle_on_synthesized_families():
    pool = synthesized_pool()
    assert len(pool) > 140
    for t, fam in pool:
        report = casimir_condition_check(t, fam)
        assert report == poly_condition_check(t, fam) == ConditionReport(True)


def test_check_matches_poly_oracle_on_mutants():
    failing = 0
    for t, fam in synthesized_pool():
        for bad in mutants(fam, ONE):
            report = casimir_condition_check(t, bad)
            assert report == poly_condition_check(t, bad)
            failing += not report
    assert failing > 300  # the residual path is exercised, not only the verdict


BETAS = st.fractions(min_value=-12, max_value=12, max_denominator=12).filter(bool)
DELTAS = st.builds(gr, st.fractions(-3, 3, max_denominator=4), st.integers(-1, 1)).filter(bool)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(BETAS, DELTAS, st.randoms(use_true_random=False))
def test_check_matches_poly_oracle_on_crmhd(beta, delta, rng):
    t = crmhd(beta)
    for fam in synthesize_casimirs(t):
        assert casimir_condition_check(t, fam) == poly_condition_check(t, fam) == ConditionReport(True)
        bad = rng.choice(list(mutants(fam, delta)))
        assert casimir_condition_check(t, bad) == poly_condition_check(t, bad)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data(), DELTAS)
def test_check_matches_poly_oracle_on_random_mutants(data, delta):
    pool = synthesized_pool()
    t, fam = pool[data.draw(st.integers(0, len(pool) - 1))]
    kinds = list(mutants(fam, delta))
    bad = kinds[data.draw(st.integers(0, len(kinds) - 1))]
    assert casimir_condition_check(t, bad) == poly_condition_check(t, bad)


def test_check_matches_poly_oracle_when_one_key_collects_two_subtracted_terms():
    """(x1^2 + x0 x2) f'(x2) on the semidirect n2-case2 form: at (lam, sig, nu) = (2, 1, 1) two
    Hessian cells land on the subtracted side of the f' key, whose residual is 1.  The order of
    the monomials decides which cell comes first, so both orders are checked."""
    t = append_semisimple(catalog(2).lookup("n2-case2"))
    for monomials in (((0, 2, 0), (1, 0, 1)), ((1, 0, 1), (0, 2, 0))):
        poly = Poly(3, dict.fromkeys(monomials, ONE))
        fam = CasimirFamily((CasimirTerm(poly, FormalFunction("f", (unit(3, 2),)), (1,)),), 3, True)
        report = casimir_condition_check(t, fam)
        assert report == poly_condition_check(t, fam)
        assert report.failure == (2, 1, 1)
        assert report.residual[("f", (1,))] == Poly.constant(3, 1)


SMALL = st.builds(gr, st.integers(-2, 2), st.integers(-1, 1))


@st.composite
def random_families(draw, n):
    """A density of 1-3 terms p(xi) F^(d)(u . xi) with random small p, u and d, or with no F."""
    args = tuple(tuple(draw(SMALL) for _ in range(n)) for _ in range(draw(st.integers(0, 2))))
    func = FormalFunction("f", args) if args else None
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        poly = Poly(n, {tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))): draw(SMALL)
                        for _ in range(draw(st.integers(1, 3)))})
        terms.append(CasimirTerm(poly, func, tuple(draw(st.integers(0, 2)) for _ in args)))
    return CasimirFamily(tuple(terms), n)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(st.data())
def test_check_matches_poly_oracle_on_random_families(data):
    tensors = list(dict.fromkeys(t for t, _ in synthesized_pool() if t.n <= 5))
    t = tensors[data.draw(st.integers(0, len(tensors) - 1))]
    fam = data.draw(random_families(t.n))
    assert casimir_condition_check(t, fam) == poly_condition_check(t, fam)


def test_passing_check_builds_no_poly(monkeypatch):
    cases = [(t, fam) for t in (leibniz(5, semidirect=True), crmhd(Fraction(5, 2)))
             for fam in synthesize_casimirs(t)]
    built = []
    init, trusted = Poly.__init__, Poly._of

    def counting_init(self, *args, **kwargs):
        built.append("init")
        init(self, *args, **kwargs)

    def counting_of(*args):
        built.append("_of")
        return trusted(*args)

    monkeypatch.setattr(Poly, "__init__", counting_init)
    monkeypatch.setattr(Poly, "_of", staticmethod(counting_of))
    for t, fam in cases:
        assert casimir_condition_check(t, fam)
    assert built == []
    # the counters are live: a failing family builds its residual
    t, fam = cases[0]
    bad = with_terms(fam, [CasimirTerm(-fam.terms[0].poly, fam.terms[0].func, fam.terms[0].deriv)] + list(fam.terms[1:]))
    assert not casimir_condition_check(t, bad)
    assert built


# -- the full-Hessian check, kept as the oracle of the cell-driven one ------------

def full_hessian(fam):
    """Both halves of the Hessian as coefficient dicts, every exponent of every monomial scanned."""
    hess: Dict = {}

    def add(mu, sig, key, c):
        cell = hess.setdefault((mu, sig), {})
        acc = cell.pop(key, ZERO) + c
        if acc:
            cell[key] = acc

    for term in fam.terms:
        label, d = term.func.label if term.func else None, term.deriv

        def raised(*slots):
            return (label, tuple(x + slots.count(a) for a, x in enumerate(d)))

        args = [(a, [(m, c) for m, c in enumerate(u) if c])
                for a, u in enumerate(term.func.args if term.func else ())]
        for e, c in term.poly.terms.items():
            for mu, k in enumerate(e):
                if not k:
                    continue
                e1 = e[:mu] + (k - 1,) + e[mu + 1:]
                c1 = c * k
                for sig, k2 in enumerate(e1):
                    if k2:
                        add(mu, sig, ((label, d), e1[:sig] + (k2 - 1,) + e1[sig + 1:]), c1 * k2)
                for a, support in args:
                    key = (raised(a), e1)
                    for sig, u in support:
                        add(mu, sig, key, c1 * u)
                        add(sig, mu, key, c1 * u)
            for a, support in args:
                for b, support2 in args:
                    key = (raised(a, b), e)
                    for mu, u in support:
                        for sig, u2 in support2:
                            add(mu, sig, key, c * u * u2)
    return hess


def full_hessian_condition_check(t, fam):
    """Every tensor nonzero against every sigma of the full Hessian, as the check stood before
    it was driven by the Hessian's cells."""
    hess = full_hessian(fam)
    diffs: Dict = {}
    for lam, mu, nu, w in t.nonzeros():
        for sig in range(t.n):
            cell = hess.get((mu, sig))
            if cell and sig != lam:
                x, triple = (w, (nu, lam, sig)) if sig < lam else (-w, (nu, sig, lam))
                acc = diffs.setdefault(triple, {})
                for key, c in cell.items():
                    total = acc.pop(key, ZERO) + x * c
                    if total:
                        acc[key] = total
    first = min((triple for triple, acc in diffs.items() if acc), default=None)
    if first is None:
        return ConditionReport(True)
    nu, lam, sig = first
    residual: Dict = {}
    for (fkey, e), c in diffs[first].items():
        residual.setdefault(fkey, {})[e] = c
    return ConditionReport(False, (lam, sig, nu), {k: Poly(t.n, v) for k, v in residual.items()})


def test_upper_hessian_is_half_of_the_full_one():
    for t, fam in synthesized_pool():
        full = full_hessian(fam)
        full = {pos: cell for pos, cell in full.items() if cell}
        upper = {pos: {key: c for key, c in cell.items() if c}
                 for pos, cell in casimir._hessian(fam).items()}
        assert all(mu <= sig for mu, sig in upper)
        assert {pos: cell for pos, cell in upper.items() if cell} == \
            {(mu, sig): cell for (mu, sig), cell in full.items() if mu <= sig}
        assert all(full[mu, sig] == full[sig, mu] for mu, sig in full)


@lru_cache(maxsize=None)
def direct_sum_pool():
    """(tensor, family) for the families of direct sums, whose eigenvector families merge
    the null directions of the blocks into one function of several arguments."""
    tensors = [direct_sum(leibniz(2), leibniz(2)), direct_sum(leibniz(2), leibniz(3)),
               direct_sum(leibniz(1), catalog(3).lookup("n3-case2")), direct_sum(abelian(2), leibniz(3))]
    return tuple((t, fam) for t in tensors for fam in synthesize_casimirs(t))


SCALES = st.sampled_from([ONE, gr(0, 1), gr(Fraction(2, 3), -1), gr(-5, 7)])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data(), SCALES, DELTAS)
def test_check_matches_full_hessian_oracle(data, scale, delta):
    pool = synthesized_pool() + direct_sum_pool()
    t, fam = pool[data.draw(st.integers(0, len(pool) - 1))]
    # a Casimir times a Q(i) scalar is a Casimir, with complex coefficients when scale is
    fam = with_terms(fam, [CasimirTerm(term.poly.scale(scale), term.func, term.deriv) for term in fam.terms])
    kinds = [fam] + list(mutants(fam, delta))
    bad = kinds[data.draw(st.integers(0, len(kinds) - 1))]
    report, want = casimir_condition_check(t, bad), full_hessian_condition_check(t, bad)
    assert (report.passed, report.failure, report.residual) == (want.passed, want.failure, want.residual)


def test_multi_argument_families_are_in_the_oracle_pool():
    pool = synthesized_pool() + direct_sum_pool()
    assert any(len(term.func.args) > 1 for _, fam in pool for term in fam.terms if term.func)
    assert any(len(term.func.args) > 1 for _, fam in direct_sum_pool() for term in fam.terms if term.func)


# -- coextension ---------------------------------------------------------------

def test_crmhd_coextension_trivial():
    for beta in (1, Fraction(5, 2)):
        co = build_coextension(crmhd(beta))
        b = gr(beta)
        assert co.wn == ExactMatrix.from_rows([[ZERO, -b], [-b, ZERO]])
        assert co.wn_pinv == ExactMatrix.from_rows([[ZERO, -1 / b], [-1 / b, ZERO]])
        assert all(not c for plane in co.cow for row in plane for c in row)
        assert co.nonsingular and co.solvable_ok and co.coext_ok


def test_case3c_coextension():
    co = build_coextension(catalog(4).lookup("n4-case3c"))
    assert co.wn == M([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    assert co.wn_pinv == co.wn
    assert co.projector == ExactMatrix.diagonal([1, 0, 1])
    assert [[str(x) for x in row] for row in co.cow[0]] == [
        ["0", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]
    assert all(not c for plane in co.cow[1:] for row in plane for c in row)
    assert co.solvable_ok and co.coext_ok and not co.nonsingular


def test_leibniz_coextension_closed_form():
    for n in (3, 5, 7):
        co = build_coextension(leibniz(n))
        k = n - 1
        for mu in range(k):
            for nu in range(k):
                want = ONE if (mu + 1) + (nu + 1) == n else ZERO
                assert co.wn_pinv[mu, nu] == want
        for mu in range(k):
            for tau in range(k):
                for sig in range(k):
                    want = ONE if (mu + 1) + n == (tau + 1) + (sig + 1) else ZERO
                    assert co.cow[mu][tau][sig] == want


def omega_by_definition(t):
    """omega^nu_{lam sig}, summed term by term from its definition."""
    s = 1 if t.semidirect else 0
    last = t.n - 1
    k = last - s
    wn = ExactMatrix(k, k, [t.entry(last, s + mu, s + nu) for mu in range(k) for nu in range(k)])
    p = pseudoinverse(wn)

    def w(lam, rho, nu):
        return t.entry(s + lam, s + rho, s + nu)

    out = [[[ZERO] * k for _ in range(k)] for _ in range(k)]
    for nu in range(k):
        for lam in range(k):
            for sig in range(k):
                acc = ZERO
                for rho in range(k):
                    acc = acc + p[sig, rho] * w(lam, rho, nu) + p[lam, rho] * w(sig, rho, nu)
                    for kap in range(k):
                        for mu in range(k):
                            acc = acc - p[lam, rho] * p[sig, kap] * wn[rho, mu] * w(mu, kap, nu)
                out[nu][lam][sig] = acc
    return out


def test_coextension_matches_definition_on_dense_coefficients():
    primes = [2, 3, 5, 7, 11, 13]
    inputs = [leibniz(n) for n in range(3, 7)] + [catalog(4).lookup("n4-case3c")]
    for t in inputs:
        scaled = apply(t, BasisChange(ExactMatrix.diagonal(primes[:t.n])))
        co = build_coextension(scaled)
        want = omega_by_definition(scaled)
        assert [[list(row) for row in plane] for plane in co.cow] == want
        assert any(c not in (ZERO, ONE) for plane in want for row in plane for c in row)


def test_semidirect_synthesis_builds_coextension_once(monkeypatch):
    calls = []
    builder = casimir._coextension

    def counting(t, idx):
        calls.append(tuple(idx))
        return builder(t, idx)

    monkeypatch.setattr(casimir, "_coextension", counting)
    fams = synthesize_casimirs(leibniz(5, semidirect=True))
    assert calls == [(1, 2, 3, 4, 5)]
    assert family_sets_equal(
        fams, [leibniz_casimirs_closed_form(5, nu, semidirect=True) for nu in range(6)])


def test_coextension_symmetry_invariant():
    for order in (2, 3, 4):
        for label, t in catalog(order).entries:
            co = build_coextension(t)
            k = co.wn.rows
            for mu in range(k):
                for tau in range(k):
                    for sig in range(k):
                        assert co.cow[mu][tau][sig] == co.cow[mu][sig][tau]


def dense_coextension_symmetric(cow, k):
    """The O(k^5) generator sums over the dense view, as the symmetry check stood before it
    was summed from omega's nonzeros."""
    for tau in range(k):
        for sig in range(k):
            for lam in range(k):
                for nu in range(k):
                    lhs = sum((cow[mu][tau][sig] * cow[nu][mu][lam] for mu in range(k)), ZERO)
                    rhs = sum((cow[mu][tau][lam] * cow[nu][mu][sig] for mu in range(k)), ZERO)
                    if lhs != rhs:
                        return False
    return True


def singular_coextensions():
    """(name, coextension) for every singular Wn met on the catalog entries with and without
    the semisimple slot, direct sums, an unnormalized raw tensor and the obstructed order-5 tensor."""
    import json
    from pathlib import Path

    from liepoisson.extension import ExtensionTensor

    tensors = {}
    for order in (2, 3, 4):
        for label, entry in catalog(order).entries:
            tensors[label.name] = entry
            tensors[label.name + "/semidirect"] = append_semisimple(entry)
    tensors["l2+l2"] = direct_sum(leibniz(2), leibniz(2))
    tensors["l2+l3"] = direct_sum(leibniz(2), leibniz(3))
    tensors["l1+n3-case2"] = direct_sum(leibniz(1), catalog(3).lookup("n3-case2"))
    tensors["raw"] = from_lower_slices([None, M([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
                                        M([[1, 0, 0], [0, 0, 0], [0, 0, 0]])], 3)
    doc = Path(__file__).resolve().parent / "data" / "obstructed-order5.json"
    tensors["obstructed-order5"] = ExtensionTensor.from_json(json.loads(doc.read_text()))
    out = []
    for name, t in tensors.items():
        s = 1 if t.semidirect else 0
        for idx in [list(range(s, t.n))] + casimir._support_components(t, s, t.n):
            if len(idx) > 1:
                co = casimir._coextension(t, idx)
                if not co.nonsingular:
                    out.append((f"{name}{idx}", co))
    return out


def test_sparse_coextension_symmetry_matches_the_dense_oracle_on_singular_wn():
    outcomes = {}
    for name, co in singular_coextensions():
        want = dense_coextension_symmetric(co.cow, len(co.omega))
        assert co.coext_ok == casimir._coextension_symmetric(co.omega) == want, name
        outcomes.setdefault(want, []).append(name)
    # both outcomes, on direct sums and on the obstructed tensor among them
    assert any(name.startswith("l2+") for name in outcomes[True])
    assert "n4-case3c[0, 1, 2, 3]" in outcomes[True]
    assert any(name.startswith("obstructed-order5") for name in outcomes[False])
    assert any(name.startswith("raw") for name in outcomes[False])


OMEGA_ENTRIES = st.one_of(st.just(ZERO), st.just(ZERO), st.just(ONE), SMALL)


@st.composite
def omegas(draw):
    """A random omega of k = 1..4 as planes of nonzeros (lam, sig, value), in increasing (lam, sig)."""
    k = draw(st.integers(1, 4))
    planes = []
    for _ in range(k):
        plane = [(lam, sig, draw(OMEGA_ENTRIES)) for lam in range(k) for sig in range(k)]
        planes.append(tuple((lam, sig, x) for lam, sig, x in plane if x))
    return tuple(planes)


def dense_view(omega):
    k = len(omega)
    cow = [[[ZERO] * k for _ in range(k)] for _ in range(k)]
    for nu, plane in enumerate(omega):
        for lam, sig, x in plane:
            cow[nu][lam][sig] = x
    return cow


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(omegas())
@example(((), ()))
@example((((0, 1, ONE), (1, 0, ONE)), ()))
@example((((1, 1, ONE),), ((0, 0, ONE),)))
def test_sparse_coextension_symmetry_matches_the_dense_oracle_on_random_omega(omega):
    assert casimir._coextension_symmetric(omega) == dense_coextension_symmetric(dense_view(omega), len(omega))


# -- the entry-indexed coextension and the Poly recursion, kept as oracles ------

def rank_factorization_pseudoinverse(a):
    """C* (C C*)^-1 (B* B)^-1 B* for A = B C at every rank, with no shortcut for invertible A."""
    reduced, pivots = rref(a)
    if not pivots:
        return ExactMatrix.zeros(a.cols, a.rows)
    b = a.submatrix(range(a.rows), pivots)
    c = reduced.submatrix(range(len(pivots)), range(a.cols))
    ch, bh = c.conjugate_transpose(), b.conjugate_transpose()
    return ch @ inverse(c @ ch) @ inverse(bh @ b) @ bh


def entry_indexed_coextension(t, idx):
    """(Wn, Wn^+, P, cow, nonsingular) of the slots idx, read entry by entry.

    Wn and the slices come from k^2 + k^3 ``t.entry`` calls, cow[nu][lam][sig]
    from index reads B_mu[sig, nu] of B_mu = Wn^+ W_(mu), and the flag from
    the rank of Wn.
    """
    idx = tuple(idx)
    k = len(idx) - 1
    last = idx[-1]
    wn = ExactMatrix(k, k, [t.entry(last, idx[mu], idx[nu]) for mu in range(k) for nu in range(k)])
    wn_pinv = rank_factorization_pseudoinverse(wn)
    sub = [ExactMatrix(k, k, [t.entry(idx[sig], idx[rho], idx[nu]) for rho in range(k) for nu in range(k)])
           for sig in range(k)]
    a = wn_pinv @ wn
    b = [wn_pinv @ m for m in sub]
    cow = [[[ZERO] * k for _ in range(k)] for _ in range(k)]
    for lam in range(k):
        for sig in range(k):
            for nu in range(k):
                acc = b[lam][sig, nu] + b[sig][lam, nu]
                for mu in range(k):
                    acc = acc - a[lam, mu] * b[mu][sig, nu]
                cow[nu][lam][sig] = acc
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in cow)
    return wn, wn_pinv, wn @ wn_pinv, frozen, rank(wn) == k


def poly_hessian_recursion(n, start, cow, local_vars):
    """g^(i) = sum_{t s} xi_t xi_s (sum_mu cow[mu][t][s] g^(i-1)_,mu) / (d (d-1)) in Poly arithmetic."""
    series = [start]
    k = len(local_vars)
    for _ in range(4 * n + 4):
        prev = series[-1]
        if prev.is_zero():
            series.pop()
            break
        partials = [prev.diff(v) for v in local_vars]
        acc = Poly.zero(n)
        for tau in range(k):
            for sig in range(k):
                coeff_poly = Poly.zero(n)
                for mu in range(k):
                    if cow[mu][tau][sig]:
                        coeff_poly = coeff_poly + partials[mu].scale(cow[mu][tau][sig])
                mono = Poly.variable(n, local_vars[tau]) * Poly.variable(n, local_vars[sig])
                acc = acc + mono * coeff_poly
        if acc.is_zero():
            break
        degree = prev.degree() + 1
        series.append(acc.scale(gr(1) / gr(degree * (degree - 1))))
    else:
        raise AssertionError("series failed to terminate")
    return series


CATALOG = {label.name: t for order in (1, 2, 3, 4) for label, t in catalog(order).entries}


def build_recipe(recipe):
    """The tensor a recipe of RECIPES names: a catalog entry, Leibniz, CRMHD or a direct sum."""
    kind = recipe[0]
    if kind == "catalog":
        entry = CATALOG[recipe[1]]
        return append_semisimple(entry) if recipe[2] else entry
    if kind == "leibniz":
        return leibniz(recipe[1], semidirect=recipe[2])
    if kind == "crmhd":
        return crmhd(recipe[1])
    return direct_sum(build_recipe(recipe[1]), build_recipe(recipe[2]))


CATALOG_NAMES = st.sampled_from(list(CATALOG))
BLOCKS = st.one_of(
    st.tuples(st.just("catalog"), CATALOG_NAMES.filter(lambda name: CATALOG[name].n < 4), st.just(False)),
    st.tuples(st.just("leibniz"), st.integers(1, 3), st.just(False)),
)
RECIPES = st.one_of(
    st.tuples(st.just("catalog"), CATALOG_NAMES, st.booleans()),
    st.tuples(st.just("leibniz"), st.integers(2, 8), st.booleans()).filter(lambda r: r[1] < 8 or not r[2]),
    st.tuples(st.just("crmhd"), BETAS),
    st.tuples(st.just("sum"), BLOCKS, BLOCKS),
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(RECIPES)
@example(("catalog", "n4-case3c", False))
@example(("catalog", "n4-case3c", True))
@example(("sum", ("leibniz", 2, False), ("leibniz", 3, False)))
@example(("leibniz", 8, False))
@example(("leibniz", 7, True))
def test_synthesis_layers_match_the_replaced_algorithms(recipe):
    t = build_recipe(recipe)
    s = 1 if t.semidirect else 0
    slots = [list(range(s, t.n))] + casimir._support_components(t, s, t.n)
    for idx in (comp for comp in slots if len(comp) > 1):
        co = casimir._coextension(t, idx)
        wn, wn_pinv, projector, cow, nonsingular = entry_indexed_coextension(t, idx)
        assert (co.wn, co.wn_pinv, co.projector, co.cow, co.nonsingular) == \
            (wn, wn_pinv, projector, cow, nonsingular)
        for plane in co.omega:
            keys = [(lam, sig) for lam, sig, x in plane if x]
            assert keys == sorted(set(keys)) and len(keys) == len(plane)
        k = len(idx) - 1
        local = idx[:k]
        starts = [{tuple(int(m == idx[rho]) for m in range(t.n)): x for rho, x in row.items()}
                  for row in co.projector.nz if row]
        quadratic: Dict = {}
        for tau, row in enumerate(wn_pinv.nz):
            for sig, c in row.items():
                e = tuple((m == local[tau]) + (m == local[sig]) for m in range(t.n))
                quadratic[e] = quadratic.get(e, ZERO) + c / gr(2)
        starts.append({e: c for e, c in quadratic.items() if c})
        for start in starts:
            got = casimir._series_from_hessian_recursion(t.n, start, co.omega, local)
            assert got == poly_hessian_recursion(t.n, Poly(t.n, start), cow, local)


# -- synthesis ------------------------------------------------------------------

def test_crmhd_synthesis_matches_display():
    for beta in (1, Fraction(5, 2)):
        fams = synthesize_casimirs(crmhd(beta))
        assert family_sets_equal(fams, crmhd_families(beta))


def test_crmhd_families_take_every_scalar_form_of_beta():
    # an int, a Fraction, a string and a Q(i) scalar of one value give the same tensor and families
    for forms in ((3, Fraction(3), "3", gr(3)), (Fraction(5, 2), "5/2", gr(Fraction(5, 2)))):
        want = synthesize_casimirs(crmhd(forms[0]))
        for beta in forms:
            assert crmhd(beta) == crmhd(forms[0])
            assert family_sets_equal(crmhd_families(beta), want), beta


def test_case3c_families():
    fams = synthesize_casimirs(catalog(4).lookup("n4-case3c"))
    assert family_sets_equal(fams, solvable_table()["n4-case3c"])


def test_all_solvable_tables_reproduced():
    table = solvable_table()
    for order in (1, 2, 3, 4):
        for label, t in catalog(order).entries:
            fams = synthesize_casimirs(t)
            assert family_sets_equal(fams, table[label.name]), label.name
            for fam in fams:
                assert casimir_condition_check(t, fam)
            for fam in table[label.name]:
                assert casimir_condition_check(t, fam)


def test_semidirect_extra_families():
    extras = semidirect_extra_table()
    for order in (1, 2, 3, 4):
        for label, t in catalog(order).entries:
            sd = append_semisimple(t)
            fams = synthesize_casimirs(sd)
            with_zero = [f for f in fams if any(uses_variable(term.poly, 0) for term in f.terms)]
            if label.name in extras:
                assert len(with_zero) == 1
                assert families_equal(with_zero[0], extras[label.name]), label.name
            else:
                assert not with_zero, label.name


def test_bare_base_bracket_has_only_the_eigenvector_family():
    t = rigid_body_tensor()
    fams = synthesize_casimirs(t)
    assert [format_family(f) for f in fams] == ["f(ξ0)"]
    assert casimir_condition_check(t, fams[0])
    with pytest.raises(CasimirError):
        build_coextension(t)


def test_a_sum_whose_semidirect_operand_comes_second_keeps_slot_0_solvable():
    # the sum is semidirect (its operand's slice keeps a nonzero trace), but W^(0) has a zero
    # diagonal, so synthesis treats slot 0 as solvable and labels from 1, as it always has
    t = direct_sum(leibniz(2), leibniz(1, semidirect=True))
    assert t.semidirect and not any(t.slice_diagonal(0))
    fams = synthesize_casimirs(t)
    assert [format_family(f) for f in fams] == ["ξ1 f(ξ2)", "g(ξ2)"]
    assert not any(f.semidirect for f in fams)
    # a semidirect first slice that is not the identity is refused until it is normalized
    moved = apply(crmhd(1), BasisChange(ExactMatrix.identity(4).scale(gr(2))))
    assert moved.is_lower_triangular() and moved.semidirect
    with pytest.raises(CasimirError, match="normalize the first slice"):
        synthesize_casimirs(moved)


def test_the_cli_and_synthesis_decide_normalization_alike():
    from liepoisson import cli

    forms = [leibniz(k, semidirect=sd) for k in (2, 3, 5) for sd in (False, True)]
    forms += [crmhd(Fraction(5, 2)), crmhd(1)]
    forms += [t for order in (1, 2, 3, 4) for _, entry in catalog(order).entries
              for t in (entry, append_semisimple(entry))]
    moves = [lambda n: BasisChange(ExactMatrix.identity(n).scale(gr(2))),
             lambda n: BasisChange(M([[int(j <= i) for j in range(n)] for i in range(n)])),
             dense_unimodular]
    decided, obstructed = set(), 0
    for t in forms + [apply(t, move(t.n)) for t in forms for move in moves]:
        normalized = casimir.is_normalized(t)
        decided.add(normalized)
        try:
            synthesize_casimirs(t)
            outcome = "families"
        except SynthesisObstruction:
            outcome = "obstructed"
            obstructed += 1
        except CasimirError as err:
            assert "normaliz" in str(err)
            outcome = "refused"
        assert (outcome == "refused") == (not normalized)
        # the CLI synthesizes a normalized tensor as it is, and classifies it only past an obstruction
        try:
            label = cli._casimir_families(t)[0]
        except OrderTooHigh:
            label = "classified past the catalog"
        assert (label is None) == (outcome == "families")
    assert decided == {True, False} and obstructed


def dense_eigenvector_args(t):
    """The joint eigenvectors from the n^2 dense rows of W^(nu) - ev I: the reference."""
    from liepoisson.linalg import null_space

    rows = []
    for nu in range(t.n):
        ev = t.entry(0, 0, nu)
        for lam in range(t.n):
            rows.append([t.entry(lam, mu, nu) - (ev if mu == lam else ZERO) for mu in range(t.n)])
    kernel = null_space(M(rows))
    return tuple(map(kernel.row, range(kernel.rows)))


def test_eigenvector_family_matches_dense_rows():
    tensors = [rigid_body_tensor(), crmhd(1), crmhd(Fraction(-7, 3)), abelian(3)]
    tensors += [leibniz(k, semidirect=s) for k in range(1, 6) for s in (False, True)]
    for order in (2, 3, 4):
        for _, t in catalog(order).entries:
            tensors += [t, append_semisimple(t)]
    for t in tensors:
        fam = casimir._eigenvector_family(t, iter("f"))
        want = dense_eigenvector_args(t)
        if not want:
            assert fam is None
            continue
        args = fam.terms[0].func.args
        assert args == want
        assert [tuple((x._a, x._b, x._d) for x in v) for v in args] == \
            [tuple((x._a, x._b, x._d) for x in v) for v in want]


def test_casimir_synth_pass_makes_no_rank_call(count_calls):
    """The independent projector rows of a component are the pivots of one elimination over the
    projector's columns, not one ``rank`` per row."""
    import sys
    from pathlib import Path

    from liepoisson import linalg

    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    items = workloads.build_casimir_synth(5)
    counts = count_calls(linalg.rank, linalg._rref_rows)
    for item in items:
        assert item.check(item.call()) is None, item.name
    assert counts["rank"] == 0 and counts["_rref_rows"] > len(items)


def test_semidirect_gate_follows_tail_determinant():
    for order in (2, 3, 4):
        for label, t in catalog(order).entries:
            sd = append_semisimple(t)
            co = build_coextension(sd)
            tail = co.wn
            assert co.nonsingular == (rank(tail) == tail.rows)


def test_leibniz_closed_form_table():
    for n, fixture in enumerate(leibniz_direction_one_fixtures(), 1):
        assert families_equal(leibniz_casimirs_closed_form(n, 1), fixture), n


def test_families_that_differ_only_in_an_argument_are_unequal():
    one = Poly.constant(3, 1)
    f_xi3, f_xi2, g_xi3 = (CasimirFamily((CasimirTerm(one, FormalFunction(name, (unit(3, i),)), (0,)),), 3)
                           for name, i in (("f", 2), ("f", 1), ("g", 2)))
    assert families_equal(f_xi3, g_xi3) and not families_equal(f_xi3, f_xi2)
    assert family_sets_equal([f_xi3, f_xi2], [f_xi2, g_xi3])
    assert not family_sets_equal([f_xi3], [f_xi2])


def test_leibniz_closed_form_depends_on_trailing_vars():
    fam = leibniz_casimirs_closed_form(5, 2)
    used = set()
    for term in fam.terms:
        for e in term.poly.terms:
            used.update(i for i, k in enumerate(e) if k)
    assert used <= set(range(1, 5))  # storage slots carrying labels 2..5


def test_oracle_equivalence_recursion_vs_closed_form():
    for n in range(2, 9):
        fams = synthesize_casimirs(leibniz(n))
        closed = [leibniz_casimirs_closed_form(n, nu) for nu in range(1, n + 1)]
        assert family_sets_equal(fams, closed), n


def test_nonsingular_family_count_equals_order():
    for n in range(2, 7):
        assert len(synthesize_casimirs(leibniz(n))) == n


def test_direct_sum_families_merge_null_arguments():
    t = direct_sum(leibniz(2), leibniz(2))
    fams = synthesize_casimirs(t)
    expected = solvable_table()["n4-case3b"]
    assert family_sets_equal(fams, expected)


def test_synthesis_obstruction_on_unnormalized_tensor():
    # W_(2) = e11 and W_(3) = e11: valid lower-triangular, but the cocycle
    # contains a removable coboundary, and the raw coextension fails
    w2 = M([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    w3 = M([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    t = from_lower_slices([None, w2, w3], 3)
    with pytest.raises(SynthesisObstruction):
        synthesize_casimirs(t)
    # after normalization through the classifier the same algebra works
    label, chain = classify(t)
    normal = apply_chain(t, chain)
    fams = synthesize_casimirs(normal)
    assert family_sets_equal(fams, solvable_table()[label.name])


# -- quadratic Casimirs -----------------------------------------------------------

def span_contains(basis, q):
    if not basis:
        return q.is_zero()
    rows = [m.entries for m in basis]
    return rank(M(rows)) == rank(M(rows + [q.entries]))


def test_quadratic_basis_heavy_top():
    t = leibniz(1, semidirect=True)
    basis = quadratic_casimir_basis(t)
    assert len(basis) == 2
    assert span_contains(basis, M([[0, 1], [1, 0]]))
    assert span_contains(basis, M([[0, 0], [0, 1]]))
    assert not span_contains(basis, M([[1, 0], [0, 0]]))


def test_quadratic_basis_abelian_full():
    for n in (2, 3, 4):
        basis = quadratic_casimir_basis(abelian(n))
        assert len(basis) == n * (n + 1) // 2


def test_quadratic_basis_crmhd_contains_cross_helicity():
    basis = quadratic_casimir_basis(crmhd(1))
    q = M([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]])
    assert span_contains(basis, q)


def test_quadratic_basis_sums_the_entries_one_equation_collects_twice():
    """Two nonzeros of W that feed one coordinate of one equation add up, here to a nonzero sum.

    Moving the sum of two base brackets by a shear makes W_0^{00} = 1 and W_1^{10} = 2 both reach
    coordinate Q_{01} of equation (0, 1, 0), with sum -1 + 2; the moved sum keeps the unmoved
    one's dimension.
    """
    t = apply(direct_sum(pure_semidirect(0), pure_semidirect(0)), BasisChange(M([[1, 0], [2, 1]])))
    basis = quadratic_casimir_basis(t)
    assert len(basis) == len(quadratic_casimir_basis(direct_sum(pure_semidirect(0), pure_semidirect(0)))) == 2
    span = range(t.n)
    for q in basis:
        assert q.is_symmetric()
        for nu in span:
            for lam in span:
                for sig in span:
                    assert (sum((t.entry(lam, mu, nu) * q[mu, sig] for mu in span), ZERO)
                            == sum((t.entry(sig, mu, nu) * q[mu, lam] for mu in span), ZERO))


def test_quadratic_families_pass_condition():
    for t in (crmhd(1), leibniz(3), leibniz(2, semidirect=True), catalog(4).lookup("n4-case3c")):
        for q in quadratic_casimir_basis(t):
            # the constant-Hessian density 1/2 Q_{mu nu} xi^mu xi^nu
            poly = Poly.zero(t.n)
            for i in range(t.n):
                for j in range(t.n):
                    if q[i, j]:
                        poly = poly + (Poly.variable(t.n, i) * Poly.variable(t.n, j)).scale(q[i, j] / gr(2))
            family = CasimirFamily((CasimirTerm(poly, None, ()),), t.n, t.semidirect)
            assert casimir_condition_check(t, family)


# -- formatting / serialization -----------------------------------------------

def test_format_family_table_notation():
    fam = leibniz_casimirs_closed_form(3, 1)
    assert format_family(fam) == "ξ1 f(ξ3) + 1/2 (ξ2)^2 f'(ξ3)"
    bare = solvable_table()["n3-case1"][0]
    assert format_family(bare) == "f(ξ1, ξ2, ξ3)"


def test_format_family_prints_an_argument_as_a_polynomial():
    """A function argument is printed like any linear form: -1 as a sign, a complex coefficient in parentheses."""
    t = from_lower_slices([None, None, ExactMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 0]])], 3)
    assert [format_family(f) for f in synthesize_casimirs(t)] == ["(1/2 ξ1 + 1/2 ξ2) f(ξ3)", "g(-ξ1 + ξ2, ξ3)"]
    u = (gr(2), -ONE, gr(1, 1))
    fam = CasimirFamily((CasimirTerm(Poly.constant(3, 1), FormalFunction("f", (u, unit(3, 0))), (0, 0)),), 3)
    assert format_family(fam) == "f(2 ξ1 - ξ2 + (1+i) ξ3, ξ1)"


def test_direct_sum_additivity_mixed_orders():
    """Families of a sum restrict to the blocks' own families."""
    from liepoisson.polynomials import Poly

    t = direct_sum(leibniz(2), leibniz(3))
    fams = synthesize_casimirs(t)
    # block supports: {0,1} and {2,3,4}; the two null directions merge
    supports = []
    for fam in fams:
        used = set()
        for term in fam.terms:
            for e in term.poly.terms:
                used.update(i for i, k in enumerate(e) if k)
            if term.func is not None:
                for u in term.func.args:
                    used.update(i for i, c in enumerate(u) if c)
        supports.append(frozenset(used))
    assert frozenset({0, 1}) in supports          # xi1 f(xi2) block family
    assert frozenset({2, 3, 4}) in supports       # order-3 Leibniz family
    assert frozenset({1, 4}) in supports          # merged null arguments
    # per-block restriction matches each block's own leading family
    lead2 = leibniz_casimirs_closed_form(2, 1)
    lead3 = leibniz_casimirs_closed_form(3, 1)
    blk2 = [f for f, s in zip(fams, supports) if s == frozenset({0, 1})][0]
    assert _restrict(blk2, range(0, 2), 2) is not None
    assert families_equal(_restrict(blk2, range(0, 2), 2), lead2)
    blk3 = [f for f, s in zip(fams, supports) if s == frozenset({2, 3, 4})][0]
    assert families_equal(_restrict(blk3, range(2, 5), 3), lead3)


def _restrict(fam, slots, n):
    """Project a family supported on the given slots onto a smaller tensor."""
    from liepoisson.casimir import CasimirFamily, CasimirTerm, FormalFunction
    from liepoisson.polynomials import Poly

    slots = list(slots)
    terms = []
    for term in fam.terms:
        poly = Poly(n, {tuple(e[s] for s in slots): c for e, c in term.poly.terms.items()})
        func = None
        if term.func is not None:
            args = tuple(tuple(u[s] for s in slots) for u in term.func.args)
            func = FormalFunction(term.func.label, args)
        terms.append(CasimirTerm(poly, func, term.deriv))
    return CasimirFamily(tuple(terms), n, False)


def _instantiate(fam, power):
    """Replace the arbitrary function by (u.xi)^power, as a plain Poly."""
    from math import factorial

    n = fam.n
    out = Poly.zero(n)
    for term in fam.terms:
        if term.func is None:
            out = out + term.poly
            continue
        assert len(term.func.args) == 1
        u = term.func.args[0]
        arg = Poly.zero(n)
        for idx, c in enumerate(u):
            if c:
                arg = arg + Poly.variable(n, idx).scale(c)
        k = term.deriv[0]
        if k > power:
            continue
        coeff = factorial(power) // factorial(power - k)
        deriv_poly = Poly.constant(n, coeff)
        for _ in range(power - k):
            deriv_poly = deriv_poly * arg
        out = out + term.poly * deriv_poly
    return out


def _direct_condition_check(t, density):
    """The symmetry condition evaluated with plain polynomial arithmetic."""
    n = t.n
    hess = [[density.diff(mu).diff(sig) for sig in range(n)] for mu in range(n)]
    for nu in range(n):
        for lam in range(n):
            for sig in range(lam):
                lhs = Poly.zero(n)
                rhs = Poly.zero(n)
                for mu in range(n):
                    w1 = t.entry(lam, mu, nu)
                    if w1:
                        lhs = lhs + hess[mu][sig].scale(w1)
                    w2 = t.entry(sig, mu, nu)
                    if w2:
                        rhs = rhs + hess[mu][lam].scale(w2)
                if lhs != rhs:
                    return False
    return True


def test_checker_agrees_with_monomial_instantiation():
    """Independent oracle for the formal-derivative checker itself."""
    t = crmhd(1)
    good = crmhd_families(1)[0]
    bad_terms = list(good.terms)
    bad = CasimirFamily(
        (bad_terms[0],
         CasimirTerm(bad_terms[1].poly.scale(gr(-1)), bad_terms[1].func, bad_terms[1].deriv)),
        4, True)
    for power in (2, 3, 5):
        assert _direct_condition_check(t, _instantiate(good, power))
        assert not _direct_condition_check(t, _instantiate(bad, power))
    assert casimir_condition_check(t, good)
    assert not casimir_condition_check(t, bad)
    # same cross-check on a Leibniz family with second derivatives
    t8 = leibniz(5)
    fam = leibniz_casimirs_closed_form(5, 1)
    for power in (3, 4):
        assert _direct_condition_check(t8, _instantiate(fam, power))
    assert casimir_condition_check(t8, fam)
