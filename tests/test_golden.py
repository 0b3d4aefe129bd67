"""Golden digests of the exact outputs: classify labels and witness chains,
synthesized Casimir families, a quadratic Casimir basis and derived series
dimensions.

The digests pin the outputs bit for bit, so a change to the exact layers that
is meant to keep every result the same (a refactor of the linear algebra, a
different storage layout) is caught here if it moves a single coefficient or
witness entry.  A change that is meant to alter an output must recompute the
affected digest and say why it moved.
"""

import hashlib
import importlib
import json
from fractions import Fraction

from liepoisson.casimir import quadratic_casimir_basis, synthesize_casimirs
from liepoisson.classify import catalog, classify, derived_series_dims
from liepoisson.extension import append_semisimple, crmhd, direct_sum, from_lower_slices, leibniz
from liepoisson.linalg import BasisChange, ExactMatrix
from liepoisson.transform import apply

classify_mod = importlib.import_module("liepoisson.classify")


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _moves(n):
    """Two fixed dense invertible integer changes of order n: a unimodular L U, and U times a
    matrix with a 2 in its last diagonal slot (determinant -4 at n = 4 and -8 at n = 5)."""
    lower = ExactMatrix.from_rows([[(i + 2 * j) % 3 + 1 if j < i else int(i == j) for j in range(n)] for i in range(n)])
    upper = ExactMatrix.from_rows([[(2 * i + j) % 3 - 1 if j > i else int(i == j) for j in range(n)] for i in range(n)])
    skew = ExactMatrix.from_rows([[2 if i == j == n - 1 else (1 if i == j else (j - i) % 2) for j in range(n)] for i in range(n)])
    return [lower @ upper, upper @ skew]


def _catalog_entries(orders):
    for order in orders:
        for label, entry in catalog(order).entries:
            yield label, entry
            yield label, append_semisimple(entry)


def _classify_doc():
    doc = []
    for _, entry in _catalog_entries((2, 3, 4)):
        for m in _moves(entry.n):
            label, chain = classify(apply(entry, BasisChange(m)))
            doc.append([label.order, label.name, label.semidirect, [b.to_json() for b in chain]])
    return doc


def _conic_classify_doc():
    """Order-4 terminal cocycles whose congruence repair needs a real conic point: diag(6, 6, 6)
    takes the real point of a sum of two squares, diag(1, -1, 3) the real hyperbolic pair."""
    doc = []
    for diag in ([6, 6, 6, 0], [1, -1, 3, 0]):
        t = from_lower_slices([None, None, None, ExactMatrix.diagonal(diag)], 4)
        for m in _moves(4):
            label, chain = classify(apply(t, BasisChange(m)))
            doc.append([label.order, label.name, label.semidirect, [b.to_json() for b in chain]])
    return doc


def _synthesis_inputs():
    yield from (entry for _, entry in _catalog_entries((1, 2, 3, 4)))
    yield from (leibniz(order) for order in range(2, 9))
    yield from (leibniz(order, semidirect=True) for order in range(2, 8))
    yield crmhd(Fraction(5, 2))


# SHA-256 over the sorted-key JSON of each output list below
GOLDEN = {
    "classify": "5ce2f876abdad7a1b703d9fa1afbe5ca02bebf21c21f6cf456e1d649855a0541",
    "classify-conic": "811adcc28a5fe9916496b28f04c7df111b0a640be6efb5cda2b98a347f23c6a6",
    "synthesis": "c8e8b8b4bfe111322ff6da95bfb0153394fd5219c945287aff4f8e04b678a2eb",
    "quadratic": "d05a3d14f74038df7b2e3e74f62e3a88294e4962d99421e90bede1cb13174cf1",
}

DERIVED_DIMS = {
    "n1-abelian": [0],
    "n2-case1": [0], "n2-case2": [1, 0],
    "n3-case1": [0], "n3-case2": [1, 0], "n3-case3": [1, 0], "n3-case4": [2, 0],
    "n4-case1a": [0], "n4-case1b": [1, 0], "n4-case2": [1, 0], "n4-case3a": [1, 0], "n4-case3b": [2, 0],
    "n4-case3c": [2, 0], "n4-case3d": [2, 0], "n4-case4a": [2, 0], "n4-case4b": [3, 1, 0],
}


def test_classify_labels_and_witnesses_are_golden(monkeypatch):
    roots = []
    pencil_roots = classify_mod._pencil_roots

    def counting(*args):
        out = pencil_roots(*args)
        roots.append(out)
        return out

    monkeypatch.setattr(classify_mod, "_pencil_roots", counting)
    doc = _classify_doc()
    # the moved order-4 entries reach both branches of the pencil reduction
    assert {r[2] for r in roots if r} == {False, True}
    assert _digest(doc) == GOLDEN["classify"]


def test_classify_through_real_conic_points_is_golden():
    doc = _conic_classify_doc()
    assert {row[1] for row in doc} == {"n4-case1b"}
    assert _digest(doc) == GOLDEN["classify-conic"]


def test_synthesized_families_are_golden():
    doc = [[f.to_json() for f in synthesize_casimirs(t)] for t in _synthesis_inputs()]
    assert _digest(doc) == GOLDEN["synthesis"]


def test_quadratic_basis_is_golden():
    basis = quadratic_casimir_basis(direct_sum(leibniz(8), leibniz(8)))
    doc = [[[str(x) for x in q.row(i)] for i in range(q.rows)] for q in basis]
    assert _digest(doc) == GOLDEN["quadratic"]


def test_derived_series_dims_are_golden():
    got = {label.name: derived_series_dims(entry) for order in (1, 2, 3, 4) for label, entry in catalog(order).entries}
    assert got == DERIVED_DIMS
