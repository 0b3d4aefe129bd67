"""Synthesize and verify Casimir invariants.

The Casimir condition asks that W_lam^{mu nu} C_,{mu sig} be symmetric in
(lam, sig) for every nu.  Synthesis runs through the coextension: the last
slice's exact pseudoinverse acts as a metric, and a terminating recursion
builds polynomial coefficients for the derivatives of an arbitrary function
of the final field.
"""

from fractions import Fraction

from liepoisson import (
    build_coextension,
    casimir_condition_check,
    catalog,
    crmhd,
    format_family,
    leibniz,
    leibniz_casimirs_closed_form,
    quadratic_casimir_basis,
    synthesize_casimirs,
)
from liepoisson.extension import append_semisimple

print("== compressible reduced MHD ==")
for beta in (1, Fraction(5, 2)):
    t = crmhd(beta)
    co = build_coextension(t)
    rows = [[str(x) for x in co.wn.row(i)] for i in range(co.wn.rows)]
    print(f"beta = {beta}: tail matrix {rows},",
          "coextension trivial" if all(not c for p in co.cow for r in p for c in r) else "nontrivial")
    for fam in synthesize_casimirs(t):
        ok = bool(casimir_condition_check(t, fam))
        print(f"   [{'ok' if ok else 'BAD'}] {format_family(fam)}")

print()
print("== a singular tail: case 3c ==")
t = catalog(4).lookup("n4-case3c")
co = build_coextension(t)
print("projector diagonal:", [str(co.projector[i, i]) for i in range(co.projector.rows)])
for fam in synthesize_casimirs(t):
    print("  ", format_family(fam))

print()
print("== Leibniz tower, two independent routes ==")
for n in (3, 5, 8):
    recursion = synthesize_casimirs(leibniz(n))
    closed = [leibniz_casimirs_closed_form(n, nu) for nu in range(1, n + 1)]
    from liepoisson.casimir import family_sets_equal

    print(f"n = {n}: recursion == closed form: {family_sets_equal(recursion, closed)}")
print("direction 1 at order 5:", format_family(leibniz_casimirs_closed_form(5, 1)))

print()
print("== the semidirect gate ==")
for name in ("n4-case3c", "n4-case4b"):
    sd = append_semisimple(catalog(4).lookup(name))
    fams = synthesize_casimirs(sd)
    extra = [f for f in fams if any(e[0] for term in f.terms for e in term.poly.terms)]
    verdict = format_family(extra[0]) if extra else "none (tail is singular)"
    print(f"{name}: extra semidirect family: {verdict}")

print()
print("== quadratic Casimirs feed the dynamics module ==")
for q in quadratic_casimir_basis(leibniz(1, semidirect=True)):
    print(q)
    print()
