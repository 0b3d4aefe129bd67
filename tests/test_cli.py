import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liepoisson.cli import EXIT_INVALID, EXIT_PARSE, main
from liepoisson.classify import catalog
from liepoisson.dynamics import rigid_body_tensor
from liepoisson.extension import ExtensionTensor, crmhd, leibniz
from liepoisson.transform import apply_chain
from liepoisson.linalg import BasisChange, ExactMatrix


@pytest.fixture
def crmhd_doc(tmp_path):
    path = tmp_path / "crmhd_beta1.json"
    doc = crmhd(1).to_json()
    doc["name"] = "crmhd"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def broken_doc(tmp_path):
    path = tmp_path / "crmhd_broken.json"
    doc = crmhd(1).to_json()
    doc["w"][3][2][1] = "1"  # breaks upper-index symmetry
    path.write_text(json.dumps(doc))
    return path


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out


def test_validate_ok(crmhd_doc, capsys):
    code, out = run(["validate", str(crmhd_doc)], capsys)
    assert code == 0
    assert "valid (order 4, semidirect yes)" in out


def test_validate_violation(broken_doc, capsys):
    code, out = run(["validate", str(broken_doc)], capsys)
    assert code == 1
    assert "symmetry" in out.lower()


def test_validate_parse_error(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    code = main(["validate", str(empty)])
    assert code == 2


def test_classify_leibniz4(tmp_path, capsys):
    doc = tmp_path / "l4.json"
    doc.write_text(json.dumps(leibniz(4).to_json()))
    code, out = run(["classify", str(doc)], capsys)
    assert code == 0
    assert "n4-case4b" in out


def test_classify_crmhd_semidirect(crmhd_doc, capsys):
    code, out = run(["classify", str(crmhd_doc)], capsys)
    assert code == 0
    assert "n3-case2" in out and "semidirect" in out


def test_classify_witness_replays(tmp_path, capsys):
    entry = catalog(4).lookup("n4-case1b")
    doc = tmp_path / "e.json"
    doc.write_text(json.dumps(entry.to_json()))
    witness = tmp_path / "w.json"
    code, out = run(["classify", str(doc), "--witness", str(witness)], capsys)
    assert code == 0
    chain = [BasisChange.from_json(d) for d in json.loads(witness.read_text())]
    assert apply_chain(entry, chain).w == entry.w


def test_classify_order_too_high(tmp_path, capsys):
    doc = tmp_path / "l5.json"
    doc.write_text(json.dumps(leibniz(5).to_json()))
    code, out = run(["classify", str(doc)], capsys)
    assert code == 3


@pytest.mark.parametrize("command", ["classify", "casimir"])
def test_slices_without_q_i_eigenvalues_exit_invalid(tmp_path, command):
    # W^(0) = [[0, 2], [2, 0]] has the eigenvalues +-sqrt(2): two blocks that Q(i) cannot split
    doc = tmp_path / "sqrt2.json"
    doc.write_text(json.dumps({"n": 2, "semidirect": False, "w": [[["0", "2"], ["2", "0"]], [["1", "0"], ["0", "2"]]]}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-m", "liepoisson.cli", command, str(doc)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == EXIT_INVALID
    assert "more than one block" in result.stdout
    assert "Traceback" not in result.stderr


def test_multi_block_with_a_large_prime_eigenvalue_exits_invalid(tmp_path):
    # W^(0) = diag(2^61 - 1, 0) moved by [[1, 1], [1, 2]]: rejected without factoring 2^61 - 1
    from liepoisson.extension import validate
    from liepoisson.transform import apply

    t = validate([[[2**61 - 1, 0], [0, 0]], [[0, 0], [0, 0]]])
    t = apply(t, BasisChange(ExactMatrix.from_rows([[1, 1], [1, 2]])))
    doc = tmp_path / "two-blocks.json"
    doc.write_text(json.dumps(t.to_json()))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-m", "liepoisson.cli", "classify", str(doc)],
                            capture_output=True, text=True, env=env, timeout=30)
    assert result.returncode == EXIT_INVALID
    assert "more than one block" in result.stdout
    assert "Traceback" not in result.stderr


def test_casimir_crmhd_verify(crmhd_doc, capsys):
    code, out = run(["casimir", str(crmhd_doc), "--verify"], capsys)
    assert code == 0
    assert out.count("[pass]") >= 4
    assert "table fixtures: match" in out


def test_casimir_case3c(tmp_path, capsys):
    doc = tmp_path / "c3c.json"
    doc.write_text(json.dumps(catalog(4).lookup("n4-case3c").to_json()))
    code, out = run(["casimir", str(doc), "--verify"], capsys)
    assert code == 0
    assert "ξ1 f(ξ4) + ξ2 ξ3 f'(ξ4)" in out
    assert "table fixtures: match" in out


def test_casimir_verify_classifies_once(tmp_path, capsys, monkeypatch):
    from liepoisson import cli

    calls = []
    original = cli.classify

    def counting(t):
        calls.append(t)
        return original(t)

    monkeypatch.setattr(cli, "classify", counting)
    moved = apply_chain(
        catalog(3).lookup("n3-case2"),
        [BasisChange(ExactMatrix.from_rows([[1, 2, 0], [0, 1, 3], [0, 0, 1]]))],
    )
    # one input in normal form, one that the command has to classify itself
    for name, t in (("c3c", catalog(4).lookup("n4-case3c")), ("moved-c2", moved)):
        calls.clear()
        doc = tmp_path / f"{name}.json"
        doc.write_text(json.dumps(t.to_json()))
        code, out = run(["casimir", str(doc), "--verify"], capsys)
        assert code == 0
        assert "table fixtures: match" in out
        assert len(calls) == 1, name


def _count_calls(monkeypatch, *functions):
    """Wrap every binding of ``functions`` in the package; returns the counts."""
    import importlib
    import pkgutil

    import liepoisson

    counts = {f.__name__: 0 for f in functions}

    def counting(f):
        def wrapper(*args, **kwargs):
            counts[f.__name__] += 1
            return f(*args, **kwargs)

        return wrapper

    for info in pkgutil.iter_modules(liepoisson.__path__):
        module = importlib.import_module(f"liepoisson.{info.name}")
        for name, value in list(vars(module).items()):
            for f in functions:
                if value is f:
                    monkeypatch.setattr(module, name, counting(f))
    return counts


def test_casimir_does_not_replay_the_witness(tmp_path, capsys, monkeypatch):
    from liepoisson.classify import classify
    from liepoisson.extension import _check_laws, validate
    from liepoisson.transform import apply

    moved = apply_chain(
        catalog(3).lookup("n3-case2"),
        [BasisChange(ExactMatrix.from_rows([[1, 2, 0], [0, 1, 3], [0, 0, 1]]))],
    )
    doc = tmp_path / "moved-c2.json"
    doc.write_text(json.dumps(moved.to_json()))
    parsed = ExtensionTensor.from_json(json.loads(doc.read_text()))

    counts = _count_calls(monkeypatch, apply, validate, _check_laws)
    classify(parsed)
    alone = dict(counts)
    # a parsed tensor is certified: classify checks neither law again
    assert alone["apply"] > 0 and alone["validate"] == 0 and alone["_check_laws"] == 0

    for key in counts:
        counts[key] = 0
    code, out = run(["casimir", str(doc), "--verify"], capsys)
    assert code == 0
    assert "table fixtures: match" in out
    # reading the document validates it once; the rest is classify's own work
    assert counts == {"apply": alone["apply"], "validate": 1, "_check_laws": 1}


def test_classifying_a_certified_tensor_checks_no_law(monkeypatch):
    from fractions import Fraction

    from liepoisson.classify import classify
    from liepoisson.extension import _check_laws, append_semisimple, validate
    from liepoisson.linalg import noncommuting_pair
    from liepoisson.transform import apply

    move = BasisChange(ExactMatrix.from_rows([[1, 2, 0, 0], [0, 1, 3, 0], [1, 0, 1, 0], [0, 0, 1, 2]]))
    inputs = [apply(t, move) for _, t in catalog(4).entries]
    inputs += [apply(append_semisimple(t), move) for _, t in catalog(3).entries]
    inputs += [crmhd(Fraction(5, 2)), leibniz(3, semidirect=True), leibniz(4)]
    counts = _count_calls(monkeypatch, validate, noncommuting_pair, _check_laws)
    for t in inputs:
        classify(t)
    assert counts == {"validate": 0, "noncommuting_pair": 0, "_check_laws": 0}
    # a raw array still goes through the door
    classify([[list(row) for row in plane] for plane in inputs[0].w])
    assert counts == {"validate": 1, "noncommuting_pair": 1, "_check_laws": 1}


@pytest.mark.parametrize("command", ["validate", "classify", "casimir"])
def test_order_zero_document_exits_invalid(tmp_path, capsys, command):
    path = tmp_path / "no-fields.json"
    path.write_text(json.dumps({"n": 0, "semidirect": True, "w": []}))
    code, out = run([command, str(path)], capsys)
    assert code == EXIT_INVALID
    assert "at least one field" in out


def test_classify_triangularizes_without_an_eigenvalue_search(monkeypatch):
    import random

    from liepoisson import linalg
    from liepoisson.classify import NotSingleBlock, classify
    from liepoisson.extension import append_semisimple, validate

    rng = random.Random(11)

    def dense_unimodular(n):
        """L U with unit diagonals and positive entries: determinant one, no zero entry."""
        lower = ExactMatrix.from_rows(
            [[rng.randint(1, 3) if j < i else int(i == j) for j in range(n)] for i in range(n)]
        )
        upper = ExactMatrix.from_rows(
            [[rng.randint(1, 3) if j > i else int(i == j) for j in range(n)] for i in range(n)]
        )
        return BasisChange(lower @ upper)

    counts = _count_calls(
        monkeypatch,
        linalg._kernel_flag,
        linalg.simultaneous_triangularize,
        linalg.eigenvalues_gaussian,
        linalg.characteristic_polynomial,
    )
    moved = 0
    for order in (2, 3, 4):
        for _, entry in catalog(order).entries:
            for t in (entry, append_semisimple(entry)):
                t = apply_chain(t, [dense_unimodular(t.n)])
                for key in counts:
                    counts[key] = 0
                classify(t)
                # the three abelian entries stay zero under any move
                triangularized = int(not t.is_lower_triangular())
                moved += triangularized
                assert counts == {key: 0 for key in counts} | {"_kernel_flag": triangularized}
    assert moved == 2 * 15 - 3

    # two blocks, W^(0) = diag(3, 0) moved off the triangle: the stalled flag rejects it
    for key in counts:
        counts[key] = 0
    two_blocks = apply_chain(validate([[[3, 0], [0, 0]], [[0, 0], [0, 0]]]), [dense_unimodular(2)])
    with pytest.raises(NotSingleBlock, match="more than one block"):
        classify(two_blocks)
    assert counts == {key: 0 for key in counts} | {"_kernel_flag": 1}


def test_basis_changes_invert_without_the_dense_path(monkeypatch):
    """Witness steps are inverted by one sparse elimination, never through the dense rref."""
    import random

    from liepoisson import linalg
    from liepoisson.classify import classify
    from liepoisson.extension import append_semisimple

    rng = random.Random(12)
    counts = _count_calls(monkeypatch, linalg.rref, linalg._rref_rows)
    inside = {key: 0 for key in counts}
    constructed = 0
    init = linalg.BasisChange.__init__

    def init_and_count(self, *args, **kwargs):
        nonlocal constructed
        constructed += 1
        before = dict(counts)
        init(self, *args, **kwargs)
        for key in counts:
            inside[key] += counts[key] - before[key]

    monkeypatch.setattr(linalg.BasisChange, "__init__", init_and_count)
    for order in (2, 3, 4):
        for _, entry in catalog(order).entries:
            for t in (entry, append_semisimple(entry)):
                n = t.n
                move = ExactMatrix.from_rows(
                    [[rng.randint(-2, 2) if j < i else int(i == j) for j in range(n)] for i in range(n)]
                ) @ ExactMatrix.from_rows(
                    [[rng.randint(-2, 2) if j > i else int(i == j) for j in range(n)] for i in range(n)]
                )
                classify(apply_chain(t, [BasisChange(move)]))
    # the wrappers are live: the kernel flag row-reduces through _rref_rows outside BasisChange
    assert counts["_rref_rows"] > inside["_rref_rows"] and constructed > 100
    assert inside == {"rref": 0, "_rref_rows": constructed}


def test_casimir_bare_base_bracket(tmp_path, capsys):
    doc = tmp_path / "rigid_body.json"
    doc.write_text(json.dumps(rigid_body_tensor().to_json()))
    code, out = run(["casimir", str(doc), "--verify"], capsys)
    assert code == 0
    assert "f(ξ0)" in out
    assert "FAIL" not in out


def test_casimir_abelian_full_function(tmp_path, capsys):
    from liepoisson.extension import abelian

    doc = tmp_path / "ab3.json"
    doc.write_text(json.dumps(abelian(3).to_json()))
    code, out = run(["casimir", str(doc)], capsys)
    assert code == 0
    assert "f(ξ1, ξ2, ξ3)" in out


def test_simulate_rigid_body_preset(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    summary = tmp_path / "drift.json"
    code, out = run([
        "simulate", "--preset", "rigid-body", "--inertia", "1,2,3",
        "--dt", "0.001", "--steps", "2000",
        "--out", str(out_csv), "--summary", str(summary),
    ], capsys)
    assert code == 0
    doc = json.loads(summary.read_text())
    assert all(v < 1e-8 for v in doc["drifts"].values())
    assert doc["monitor_ms"] > 0 and doc["step_us"] > 0
    assert "exact monitors" in out and "us/step" in out
    assert out_csv.read_text().startswith("time,l0_x")


def test_simulate_heavy_top_preset(tmp_path, capsys):
    summary = tmp_path / "drift.json"
    code, out = run([
        "simulate", "--preset", "heavy-top", "--dt", "0.001", "--steps", "2000",
        "--summary", str(summary),
    ], capsys)
    assert code == 0
    drifts = json.loads(summary.read_text())["drifts"]
    assert all(v < 1e-8 for v in drifts.values())


def test_simulate_abelian_monitors_constant(tmp_path, capsys):
    from liepoisson.extension import abelian

    doc = tmp_path / "ab2.json"
    doc.write_text(json.dumps(abelian(2).to_json()))
    summary = tmp_path / "s.json"
    code, out = run(["simulate", str(doc), "--dt", "0.01", "--steps", "100",
                     "--summary", str(summary)], capsys)
    assert code == 0
    drifts = json.loads(summary.read_text())["drifts"]
    assert all(v == 0.0 for v in drifts.values())


def test_catalog_counts(tmp_path, capsys):
    for order, count in ((3, 4), (4, 9)):
        out_path = tmp_path / f"cat{order}.json"
        code, _ = run(["catalog", "--order", str(order), "--out", str(out_path)], capsys)
        assert code == 0
        docs = json.loads(out_path.read_text())
        assert len(docs) == count
        for doc in docs:
            ExtensionTensor.from_json(doc)


def test_catalog_out_of_range(capsys):
    code, _ = run(["catalog", "--order", "5"], capsys)
    assert code == 3


def test_leibniz_emission(tmp_path, capsys):
    out_path = tmp_path / "l5sd.json"
    code, _ = run(["leibniz", "--order", "5", "--semidirect", "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    t = ExtensionTensor.from_json(doc)
    assert t.n == 6 and t.semidirect
    assert t.slice_upper(0).is_identity()


def test_document_round_trip_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["crmhd", "--beta", "5/2", "--out", str(a)], capsys)
    run(["crmhd", "--beta", "5/2", "--out", str(b)], capsys)
    assert a.read_text() == b.read_text()
    doc = json.loads(a.read_text())
    t = ExtensionTensor.from_json(doc)
    assert doc["beta"] == "5/2"
    assert json.dumps(t.to_json()["w"]) == json.dumps(doc["w"])


@pytest.mark.parametrize("entry", ["1/0", "0/0", "1+1/0i"])
def test_zero_denominator_is_a_parse_error(tmp_path, entry):
    doc = tmp_path / "zero_denominator.json"
    doc.write_text(json.dumps({"n": 1, "semidirect": False, "w": [[[entry]]]}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-m", "liepoisson.cli", "classify", str(doc)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == EXIT_PARSE
    assert "zero denominator" in result.stderr
    assert "Traceback" not in result.stderr


def test_console_script_installed():
    # the child process runs the source tree, as the test process does
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-m", "liepoisson.cli", "catalog", "--order", "2"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "n2-case2" in result.stdout


def test_casimir_unnormalized_input_reduces_first(tmp_path, capsys):
    # raw form with a removable coboundary: synthesis needs the reduction
    from liepoisson.extension import from_lower_slices
    from liepoisson.linalg import ExactMatrix

    w2 = ExactMatrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    w3 = ExactMatrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    t = from_lower_slices([None, w2, w3], 3)
    doc = tmp_path / "raw.json"
    doc.write_text(json.dumps(t.to_json()))
    code, out = run(["casimir", str(doc)], capsys)
    assert code == 0
    assert "normal-form coordinates of n3-case3" in out


def test_fixture_directory_override(tmp_path, capsys, monkeypatch):
    from liepoisson.tables import solvable_table

    fixdir = tmp_path / "fixtures"
    fixdir.mkdir()
    fams = solvable_table()["n3-case4"]
    (fixdir / "n3-case4.json").write_text(json.dumps([f.to_json() for f in fams]))
    monkeypatch.setenv("LIEX_FIXTURES", str(fixdir))
    doc = tmp_path / "l3.json"
    doc.write_text(json.dumps(leibniz(3).to_json()))
    code, out = run(["casimir", str(doc), "--verify"], capsys)
    assert code == 0
    assert "table fixtures: match" in out


def test_simulate_dimension_mismatch_exit_code(tmp_path, capsys):
    doc = tmp_path / "t.json"
    doc.write_text(json.dumps(leibniz(2).to_json()))
    ham = tmp_path / "h.json"
    blocks = [[[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]]  # 1x1 blocks for a 2-field tensor
    ham.write_text(json.dumps({"blocks": blocks}))
    code, out = run(["simulate", str(doc), "--hamiltonian", str(ham),
                     "--dt", "0.01", "--steps", "5"], capsys)
    assert code == 5
