"""Classify extension tensors of order up to four.

Every valid tensor reduces to one of a handful of normal forms (2 at order
two, 4 at order three, 9 at order four), all with entries zero or one.  The
classifier returns a replayable witness chain; replaying it reproduces the
normal form bit-exactly.
"""

import random
from fractions import Fraction

from liepoisson import (
    BasisChange,
    ExactMatrix,
    apply,
    apply_chain,
    catalog,
    classify,
    crmhd,
    direct_sum,
    equivalence_check,
    leibniz,
    strip_semisimple,
)
from liepoisson.scalars import gr, ONE, ZERO

print("== the catalog ==")
for order in (2, 3, 4):
    names = [label.name for label, _ in catalog(order).entries]
    print(f"order {order}: {', '.join(names)}")

print()
print("== flagship examples ==")
for text, t in [
    ("solvable Leibniz order 3", leibniz(3)),
    ("solvable Leibniz order 4", leibniz(4)),
    ("CRMHD solvable part (beta = 1)", strip_semisimple(crmhd(1))),
    ("full CRMHD bracket", crmhd(1)),
    ("direct sum of two order-2 Leibniz", direct_sum(leibniz(2), leibniz(2))),
    ("Leibniz order 4 as a raw cube", leibniz(4).w),   # validated first
]:
    label, chain = classify(t)
    sd = " [semidirect]" if label.semidirect else ""
    print(f"{text:<38} -> {label.name}{sd}  ({len(chain)} moves)")

print()
print("== a scrambled tensor and its witness ==")
rng = random.Random(7)
entry = catalog(4).lookup("n4-case3c")
rows = [[gr(Fraction(rng.randint(-2, 2), rng.randint(1, 2))) if j < i
         else (ONE if i == j else ZERO) for j in range(4)] for i in range(4)]
move = BasisChange(ExactMatrix.from_rows(rows) @ ExactMatrix.diagonal([2, 1, gr(Fraction(1, 3)), -1]))
scrambled = apply(entry, move)
label, chain = classify(scrambled)
print("recovered label:", label.name)
replayed = apply_chain(scrambled, chain)
print("witness replays to the normal form exactly:", replayed.w == entry.w)

print()
print("== the orbit test ==")
other = apply(entry, BasisChange(ExactMatrix.from_rows([[1, 0, 0, 0], [1, 1, 0, 0], [0, 2, 1, 0], [1, 0, 0, 3]])))
verdict = equivalence_check(scrambled, other)
print(f"two moves of n4-case3c: {verdict.kind}, witness of {len(verdict.witness)} moves,",
      "replays one onto the other:", apply_chain(scrambled, verdict.witness) == other)
print("n4-case3c against Leibniz order 4:", equivalence_check(scrambled, leibniz(4)).reason)
