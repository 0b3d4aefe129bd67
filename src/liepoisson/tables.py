"""Reference Casimir fixtures for the catalog normal forms.

The invariant families of every solvable normal form of order one through
four, plus the extra semidirect families, entered term by term as literal
polynomial data.  They are deliberately independent of the synthesis code
so the two can be checked against each other.  The direction-one Leibniz
invariants of the paper's Table 2 are entries of these two tables: the first
family of n1-abelian, n2-case2, n3-case4 and n4-case4b for orders 1 to 4,
and, for order 5, the terms of the semidirect extra family of n4-case4b.

Variables are storage slots: a solvable family over n fields uses slots
0..n-1 (printed as xi^1..xi^n); a semidirect family uses 0..n (printed
from xi^0).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .casimir import CasimirFamily, CasimirTerm, FormalFunction
from .polynomials import Poly
from .scalars import ONE, ZERO, as_scalar, gr


def _unit_covector(n: int, idx: int):
    return tuple(ONE if m == idx else ZERO for m in range(n))


def _family(n: int, arg_slots: Sequence[int], terms: Sequence[Tuple[int, dict]],
            semidirect: bool = False, label: str = "f") -> CasimirFamily:
    """terms: (derivative order, {exponent tuple: coefficient}) pairs."""
    func = FormalFunction(label, tuple(_unit_covector(n, a) for a in arg_slots))
    built = []
    for order, poly_terms in terms:
        poly = Poly(n, {tuple(e): gr(c) for e, c in poly_terms.items()})
        deriv = [0] * len(arg_slots)
        if arg_slots:
            deriv[0] = order
        built.append(CasimirTerm(poly, func, tuple(deriv)))
    return CasimirFamily(tuple(built), n, semidirect)


def _linear_times_f(n: int, var: int, arg: int, semidirect=False, label="f") -> CasimirFamily:
    e = [0] * n
    e[var] = 1
    return _family(n, [arg], [(0, {tuple(e): 1})], semidirect, label)


def _bare(n: int, args: Sequence[int], semidirect=False, label="f") -> CasimirFamily:
    zero = tuple([0] * n)
    return _family(n, list(args), [(0, {zero: 1})], semidirect, label)


def _e(n: int, **powers) -> tuple:
    out = [0] * n
    for key, value in powers.items():
        out[int(key[1:])] = value
    return tuple(out)


H = Fraction(1, 2)
SIXTH = Fraction(1, 6)
F24 = Fraction(1, 24)


def solvable_table() -> Dict[str, List[CasimirFamily]]:
    """Casimir families for every solvable normal form (orders 1 to 4)."""
    t: Dict[str, List[CasimirFamily]] = {}
    t["n1-abelian"] = [_bare(1, [0])]
    t["n2-case1"] = [_bare(2, [0, 1])]
    t["n2-case2"] = [_linear_times_f(2, 0, 1), _bare(2, [1], label="g")]
    t["n3-case1"] = [_bare(3, [0, 1, 2])]
    t["n3-case2"] = [
        _linear_times_f(3, 0, 2),
        _linear_times_f(3, 1, 2, label="g"),
        _bare(3, [2], label="h"),
    ]
    t["n3-case3"] = [_linear_times_f(3, 0, 1), _bare(3, [1, 2], label="g")]
    t["n3-case4"] = [
        _family(3, [2], [(0, {_e(3, x0=1): 1}), (1, {_e(3, x1=2): H})]),
        _linear_times_f(3, 1, 2, label="g"),
        _bare(3, [2], label="h"),
    ]
    t["n4-case1a"] = [_bare(4, [0, 1, 2, 3])]
    t["n4-case1b"] = [
        _linear_times_f(4, 0, 3),
        _linear_times_f(4, 1, 3, label="g"),
        _linear_times_f(4, 2, 3, label="h"),
        _bare(4, [3], label="k"),
    ]
    t["n4-case2"] = [
        _linear_times_f(4, 0, 2),
        _linear_times_f(4, 1, 2, label="g"),
        _bare(4, [2, 3], label="h"),
    ]
    t["n4-case3a"] = [_linear_times_f(4, 0, 1), _bare(4, [1, 2, 3], label="g")]
    t["n4-case3b"] = [
        _linear_times_f(4, 0, 1),
        _linear_times_f(4, 2, 3, label="g"),
        _bare(4, [1, 3], label="h"),
    ]
    t["n4-case3c"] = [
        _family(4, [3], [(0, {_e(4, x0=1): 1}), (1, {_e(4, x1=1, x2=1): 1})]),
        _linear_times_f(4, 2, 3, label="g"),
        _bare(4, [1, 3], label="h"),
    ]
    t["n4-case3d"] = [
        _family(4, [3], [(0, {_e(4, x0=1): 1}), (1, {_e(4, x1=2): H})]),
        _linear_times_f(4, 1, 3, label="g"),
        _linear_times_f(4, 2, 3, label="h"),
        _bare(4, [3], label="k"),
    ]
    t["n4-case4a"] = [
        _family(4, [2], [(0, {_e(4, x0=1): 1}), (1, {_e(4, x1=2): H})]),
        _linear_times_f(4, 1, 2, label="g"),
        _bare(4, [2, 3], label="h"),
    ]
    t["n4-case4b"] = [
        _family(4, [3], [
            (0, {_e(4, x0=1): 1}),
            (1, {_e(4, x1=1, x2=1): 1}),
            (2, {_e(4, x2=3): SIXTH}),
        ]),
        _family(4, [3], [
            (0, {_e(4, x1=1): 1}),
            (1, {_e(4, x2=2): H}),
        ], label="g"),
        _linear_times_f(4, 2, 3, label="h"),
        _bare(4, [3], label="k"),
    ]
    return t


def semidirect_extra_table() -> Dict[str, CasimirFamily]:
    """The extra family of each semidirect extension with invertible tail.

    Keyed by the solvable case name; storage slot 0 is the semisimple
    direction and the solvable slots shift up by one.
    """
    t: Dict[str, CasimirFamily] = {}
    t["n1-abelian"] = _family(2, [1], [(0, {_e(2, x0=1): 1})], semidirect=True)
    t["n2-case2"] = _family(3, [2], [
        (0, {_e(3, x0=1): 1}),
        (1, {_e(3, x1=2): H}),
    ], semidirect=True)
    t["n3-case2"] = _family(4, [3], [
        (0, {_e(4, x0=1): 1}),
        (1, {_e(4, x1=1, x2=1): 1}),
    ], semidirect=True)
    t["n3-case4"] = _family(4, [3], [
        (0, {_e(4, x0=1): 1}),
        (1, {_e(4, x1=1, x2=1): 1}),
        (2, {_e(4, x2=3): SIXTH}),
    ], semidirect=True)
    t["n4-case1b"] = _family(5, [4], [
        (0, {_e(5, x0=1): 1}),
        (1, {_e(5, x1=1, x3=1): 1, _e(5, x2=2): H}),
    ], semidirect=True)
    t["n4-case3d"] = _family(5, [4], [
        (0, {_e(5, x0=1): 1}),
        (1, {_e(5, x1=1, x2=1): 1, _e(5, x3=2): H}),
        (2, {_e(5, x2=3): SIXTH}),
    ], semidirect=True)
    t["n4-case4b"] = _family(5, [4], [
        (0, {_e(5, x0=1): 1}),
        (1, {_e(5, x1=1, x3=1): 1, _e(5, x2=2): H}),
        (2, {_e(5, x2=1, x3=2): H}),
        (3, {_e(5, x3=4): F24}),
    ], semidirect=True)
    return t


def crmhd_families(beta) -> List[CasimirFamily]:
    """The four compressible reduced MHD invariant families."""
    inv_beta = ONE / as_scalar(beta)
    fam0 = CasimirFamily((
        CasimirTerm(Poly(4, {_e(4, x0=1): ONE}), FormalFunction("f", (_unit_covector(4, 3),)), (0,)),
        CasimirTerm(Poly(4, {_e(4, x1=1, x2=1): -inv_beta}),
                    FormalFunction("f", (_unit_covector(4, 3),)), (1,)),
    ), 4, True)
    return [
        fam0,
        _linear_times_f(4, 1, 3, semidirect=True, label="g"),
        _linear_times_f(4, 2, 3, semidirect=True, label="h"),
        _bare(4, [3], semidirect=True, label="k"),
    ]
