"""The package's result records behave as read-only values.

Each case builds records of one kind, checks what is particular to their
type and returns (record, field names) pairs; the test then checks that no
field can be assigned or deleted and that no attribute can be added.
"""

import pytest

from liepoisson import casimir
from liepoisson.casimir import (
    CasimirFamily,
    CasimirTerm,
    ConditionReport,
    FormalFunction,
    build_coextension,
)
from liepoisson.classify import CaseLabel, Distinct, Equivalent, Unknown, catalog
from liepoisson.extension import leibniz
from liepoisson.linalg import noncommuting_pair
from liepoisson.polynomials import Poly
from liepoisson.scalars import ONE, ZERO


def case_label(monkeypatch, count_calls):
    label = CaseLabel(4, "n4-case3c")
    assert label.semidirect is False and str(label) == "n4-case3c"
    same, split = CaseLabel(4, "n4-case3c", False), CaseLabel(4, "n4-case3c", True)
    assert label == same and hash(label) == hash(same) and label != split
    assert len({label, same, split}) == 2
    return [(label, ("order", "name", "semidirect"))]


def catalog_record(monkeypatch, count_calls):
    cat = catalog(3)
    assert len(cat) == 4 and cat.lookup("n3-case2") is cat.entries[1][1]
    return [(cat, ("order", "entries"))]


def verdicts(monkeypatch, count_calls):
    same, distinct, unknown = Equivalent(()), Distinct("ranks"), Unknown("order 5")
    assert (same.kind, distinct.kind, unknown.kind) == ("equivalent", "distinct", "unknown")
    return [(same, ("witness",)), (distinct, ("reason",)), (unknown, ("reason",))]


def formal_function(monkeypatch, count_calls):
    func = FormalFunction("f", [[ZERO, ONE]])
    assert func.args == ((ZERO, ONE),) and type(func.args[0]) is tuple
    assert func == FormalFunction("f", ((ZERO, ONE),)) and hash(func) == hash(FormalFunction("f", ((ZERO, ONE),)))
    return [(func, ("label", "args"))]


def casimir_term(monkeypatch, count_calls):
    func = FormalFunction("f", ((ZERO, ONE),))
    term = CasimirTerm(Poly.constant(2, 1), func, [2])
    assert term.deriv == (2,) and CasimirTerm(Poly.constant(2, 1), None).deriv == ()
    with pytest.raises(ValueError, match="multi-index length must match args"):
        CasimirTerm(Poly.constant(2, 1), func, (1, 0))
    return [(term, ("poly", "func", "deriv"))]


def casimir_family(monkeypatch, count_calls):
    terms = [CasimirTerm(Poly.constant(2, 1), None)]
    fam = CasimirFamily(terms, 2)
    assert fam.terms == tuple(terms) and fam.semidirect is False
    assert fam == CasimirFamily(tuple(terms), 2, False)
    return [(fam, ("terms", "n", "semidirect"))]


def condition_report(monkeypatch, count_calls):
    passed, failed = ConditionReport(True), ConditionReport(False, (1, 0, 0))
    assert passed and not failed
    assert passed.failure is None and passed.residual is None and failed.failure == (1, 0, 0)
    return [(failed, ("passed", "failure", "residual"))]


def coextension_result(monkeypatch, count_calls):
    co = build_coextension(leibniz(4))
    counts = count_calls(casimir._coextension_symmetric, noncommuting_pair)
    # each condition is evaluated on first access only: one commutation test per subextension slice
    assert co.solvable_ok
    assert counts == {"_coextension_symmetric": 0, "noncommuting_pair": len(co.sub)}
    assert co.solvable_ok
    assert co.coext_ok and co.coext_ok
    assert counts == {"_coextension_symmetric": 1, "noncommuting_pair": len(co.sub)}
    assert co.cow is co.cow
    return [(co, ("wn", "wn_pinv", "projector", "sub", "omega", "nonsingular", "idx", "solvable_ok", "cow"))]


@pytest.mark.parametrize("case", [case_label, catalog_record, verdicts, formal_function, casimir_term,
                                  casimir_family, condition_report, coextension_result],
                         ids=lambda case: case.__name__)
def test_records_are_read_only_values(case, monkeypatch, count_calls):
    for record, fields in case(monkeypatch, count_calls):
        for field in fields:
            value = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, value)
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert getattr(record, field) is value
        with pytest.raises(AttributeError):
            record.extra = None
