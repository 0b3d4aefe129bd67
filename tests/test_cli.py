import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import cpu_seconds_at_most, dense_unimodular
from liepoisson.cli import EXIT_DIMENSION, EXIT_INVALID, EXIT_OBSTRUCTION, EXIT_PARSE, EXIT_UNCLASSIFIED, main
from liepoisson.classify import catalog
from liepoisson.dynamics import rigid_body_tensor
from liepoisson.extension import ExtensionTensor, crmhd, direct_sum, leibniz
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
    doc.write_text(json.dumps({"n": 2, "w": [[["0", "2"], ["2", "0"]], [["1", "0"], ["0", "2"]]]}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-m", "liepoisson.cli", command, str(doc)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == EXIT_UNCLASSIFIED
    assert "more than one block" in result.stdout
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("doc", [
    {"n": 2, "semidirect": True, "w": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]]},
    {"n": 2, "w": [[["1", "0"], ["0", "0"]], [["0", "1"], ["1", "1"]]]},
    direct_sum(leibniz(2), leibniz(1, semidirect=True)).to_json(),
], ids=["abelian-plus-base-bracket", "q-i-squared-unit-first", "leibniz2-plus-semidirect-leibniz1"])
def test_casimir_refuses_a_bracket_of_more_than_one_block(tmp_path, capfd, doc):
    """Synthesis takes one block in normal position; a lower-triangular sum of blocks goes to the
    classifier, which refuses it, instead of listing only some of its families or failing its check."""
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(doc))
    assert main(["casimir", str(path), "--verify"]) == EXIT_UNCLASSIFIED
    out, err = _output(capfd)
    assert out.count("\n") == 1 and out.startswith("error: tensor has more than one block"), out
    assert err == ""


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
    assert result.returncode == EXIT_UNCLASSIFIED
    assert "more than one block" in result.stdout
    assert "Traceback" not in result.stderr


def test_a_tail_sharing_a_prime_above_2_60_is_refused_at_once(tmp_path, capsys):
    # W_2^{00} = -2p, W_2^{11} = p with p = 2^61 - 1: the discriminant -2p^2 is in the class of -2,
    # read off the entries without factoring p, so the tail is refused as not reachable over Q(i)
    p = 2**61 - 1
    w = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    w[2][0][0], w[2][1][1] = -2 * p, p
    doc = tmp_path / "shared-prime.json"
    doc.write_text(json.dumps(ExtensionTensor(3, w).to_json()))
    with cpu_seconds_at_most(2):
        code, out = run(["classify", str(doc)], capsys)
    assert code == EXIT_UNCLASSIFIED
    assert "tail cannot be scaled to {0,+1,-1} entries over Q(i)" in out


def test_valid_bracket_outside_the_catalog_orbits_has_its_own_exit_code(tmp_path, capsys):
    # W_2^{00} = -2, W_2^{11} = 1: a valid bracket whose tail -2x^2 + y^2 has no
    # Q(i) scaling to entries in {0, +1, -1}, so classify refuses it
    doc = tmp_path / "anisotropic.json"
    w = [[["0"] * 3] * 3, [["0"] * 3] * 3, [["-2", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]]
    doc.write_text(json.dumps({"n": 3, "semidirect": False, "w": w}))
    assert run(["validate", str(doc)], capsys)[0] == 0
    code, out = run(["classify", str(doc)], capsys)
    assert code == EXIT_UNCLASSIFIED != EXIT_INVALID
    assert out == "error: tail cannot be scaled to {0,+1,-1} entries over Q(i)\n"


def _huge_integer_document(path):
    # one more digit than Python's int-string limit lets json read
    path.write_text('{"n": 1, "semidirect": false, "w": [[[' + "7" * 4301 + "]]]}")


def _deeply_nested_document(path):
    path.write_text('{"n": 1, "semidirect": false, "w": ' + "[" * 100_000 + "]" * 100_000 + "}")


@pytest.mark.parametrize("write", [_huge_integer_document, _deeply_nested_document],
                         ids=["huge-integer", "deep-nesting"])
@pytest.mark.parametrize("command", ["validate", "classify", "casimir"])
def test_unreadable_json_document_is_one_parse_error_line(tmp_path, capfd, command, write):
    path = tmp_path / "t.json"
    write(path)
    assert main([command, str(path)]) == EXIT_PARSE
    out = capfd.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read tensor document {path}: "), lines


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


@pytest.mark.parametrize("t, families, fixtures", [(leibniz(6), 6, 0), (crmhd(Fraction(5, 2)), 4, 4)],
                         ids=["leibniz6", "crmhd-5/2"])
def test_casimir_verify_checks_each_family_once(tmp_path, capsys, count_calls, t, families, fixtures):
    """``synthesize_casimirs`` checks every family it returns, so ``--verify`` checks only the
    fixtures, plus the families synthesized on their catalog entry when the input is not it."""
    from liepoisson.casimir import casimir_condition_check

    doc = tmp_path / "t.json"
    doc.write_text(json.dumps(t.to_json()))
    counts = count_calls(casimir_condition_check)
    code, out = run(["casimir", str(doc), "--verify"], capsys)
    assert code == 0
    assert out.count("  [pass] ") == families + fixtures
    # CRMHD is not its catalog entry: the entry's own synthesis checks its families once more
    assert counts == {"casimir_condition_check": families + 2 * fixtures}


def test_a_family_failing_the_gate_is_never_listed_as_passed(crmhd_doc, capsys, monkeypatch):
    from liepoisson import casimir
    from liepoisson.casimir import ConditionReport

    monkeypatch.setattr(casimir, "casimir_condition_check", lambda t, fam: ConditionReport(False, (1, 0, 0)))
    code, out = run(["casimir", str(crmhd_doc), "--verify"], capsys)
    assert code == EXIT_INVALID
    assert "[pass]" not in out
    assert out.startswith("invalid: internal error: synthesized family fails the condition")


@pytest.mark.parametrize("flags", [[], ["--verify"]])
def test_obstruction_past_the_catalog_exits_as_an_obstruction(capsys, flags):
    """A valid lower-triangular order-5 tensor is synthesized as given and obstructed; with no
    catalog of order 5 to reduce it to, the obstruction is the answer (it exited 3 as an order
    error)."""
    doc = Path(__file__).resolve().parent / "data" / "obstructed-order5.json"
    code, out = run(["casimir", str(doc), *flags], capsys)
    assert code == EXIT_OBSTRUCTION
    assert out == "obstruction: solvability/coextension condition fails on an indecomposable block\n"


def test_casimir_does_not_replay_the_witness(tmp_path, capsys, count_calls):
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

    counts = count_calls(apply, validate, _check_laws)
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


def test_classifying_a_certified_tensor_checks_no_law(count_calls):
    from fractions import Fraction

    from liepoisson.classify import classify
    from liepoisson.extension import _check_laws, append_semisimple, validate
    from liepoisson.linalg import noncommuting_pair
    from liepoisson.transform import apply

    move = BasisChange(ExactMatrix.from_rows([[1, 2, 0, 0], [0, 1, 3, 0], [1, 0, 1, 0], [0, 0, 1, 2]]))
    inputs = [apply(t, move) for _, t in catalog(4).entries]
    inputs += [apply(append_semisimple(t), move) for _, t in catalog(3).entries]
    inputs += [crmhd(Fraction(5, 2)), leibniz(3, semidirect=True), leibniz(4)]
    counts = count_calls(validate, noncommuting_pair, _check_laws)
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


def test_classify_triangularizes_without_an_eigenvalue_search(count_calls):
    from liepoisson import linalg
    from liepoisson.classify import NotSingleBlock, classify
    from liepoisson.extension import append_semisimple, strip_semisimple, validate
    from liepoisson.transform import apply, normalize_w0_to_identity

    counts = count_calls(
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
                # the flag sees the order-n part: a semidirect input past its unit split
                part = strip_semisimple(apply(t, BasisChange(normalize_w0_to_identity(t)))) if t.semidirect else t
                # the three abelian entries stay zero under any move, with or without the unit
                triangularized = int(not part.is_lower_triangular())
                moved += triangularized
                assert counts == {key: 0 for key in counts} | {"_kernel_flag": triangularized}
    assert moved == 2 * (15 - 3)

    # two blocks, W^(0) = diag(3, 0) moved off the triangle: it has no unit split, and no flag runs
    for key in counts:
        counts[key] = 0
    two_blocks = apply_chain(validate([[[3, 0], [0, 0]], [[0, 0], [0, 0]]]), [dense_unimodular(2)])
    with pytest.raises(NotSingleBlock, match="more than one block"):
        classify(two_blocks)
    assert counts == {key: 0 for key in counts}


def test_basis_changes_invert_without_the_dense_path(monkeypatch, count_calls):
    """Diagonal and unit-shear witness steps are not inverted when built, other triangular
    steps are inverted by substitution and every other step by one sparse elimination, never
    through rref, and no matrix on the classify path builds its dense ``entries`` view: every
    step reads rows."""
    import random

    from liepoisson import linalg
    from liepoisson.classify import classify
    from liepoisson.extension import append_semisimple

    rng = random.Random(12)
    counts = count_calls(linalg.rref, linalg._rref_rows, linalg._substitute)
    inside = {key: 0 for key in counts}
    steps = {}  # kind -> (_substitute, _rref_rows) calls of each construction
    # a rescaled input reaches diagonal steps; its move is built before the count starts
    rescale = {n: BasisChange(ExactMatrix.diagonal(range(2, n + 2))) for n in range(2, 6)}
    init = linalg.BasisChange.__init__

    def init_and_count(self, m, *args, **kwargs):
        before = dict(counts)
        init(self, m, *args, **kwargs)
        for key in counts:
            inside[key] += counts[key] - before[key]
        triangular = m.is_lower_triangular() or m.transpose().is_lower_triangular()
        kind = self.kind or ("triangular" if triangular else "other")
        steps.setdefault(kind, []).append(
            (counts["_substitute"] - before["_substitute"], counts["_rref_rows"] - before["_rref_rows"]))

    monkeypatch.setattr(linalg.BasisChange, "__init__", init_and_count)
    dense_views = 0
    entries = linalg.ExactMatrix.entries

    def count_entries(self):
        nonlocal dense_views
        dense_views += 1
        return entries.fget(self)

    monkeypatch.setattr(linalg.ExactMatrix, "entries", property(count_entries))
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
                classify(apply_chain(t, [rescale[n]]))
    # the wrappers are live: the kernel flag row-reduces through _rref_rows outside BasisChange
    assert counts["_rref_rows"] > inside["_rref_rows"]
    assert {kind: len(calls) > 10 for kind, calls in steps.items()} == dict.fromkeys(
        ("diagonal", "shear", "triangular", "other"), True)
    assert len(steps["diagonal"]) + len(steps["shear"]) + len(steps["triangular"]) > 80
    assert len(steps["other"]) > 30
    assert inside["rref"] == 0
    assert set(steps["diagonal"]) == set(steps["shear"]) == {(0, 0)}
    assert set(steps["triangular"]) == {(1, 0)} and set(steps["other"]) == {(0, 1)}
    assert dense_views == 0


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


def test_catalog_order_below_one(capsys):
    code, out = run(["catalog", "--order", "0"], capsys)
    assert code == 3
    assert out.strip() == "error: solvable order must be 1..4, got 0"


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


def test_exact_core_imports_no_numpy():
    # numpy is the float dynamics layer's alone: it loads with `liex simulate`.
    # No layer loads dataclasses, and numpy does not either: the records are
    # namedtuples and plain classes, cheaper to create at import.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    probe = ("import sys, liepoisson, liepoisson.cli; bare = 'numpy' in sys.modules; "
             "core = 'dataclasses' in sys.modules; liepoisson.simulate; "
             "print(bare, 'numpy' in sys.modules, core, 'dataclasses' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True", "False", "False"]


def test_without_numpy_only_simulate_refuses(tmp_path):
    # numpy is the optional extra liepoisson[dynamics]: a None entry in
    # sys.modules makes every import of it fail, as if it were not installed
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    doc = tmp_path / "c.json"
    doc.write_text(json.dumps(crmhd(Fraction(5, 2)).to_json()))
    probe = ("import sys; sys.modules['numpy'] = None; from liepoisson.cli import main; "
             "sys.exit(main(sys.argv[1:]))")
    for argv, code in ((["casimir", str(doc), "--verify"], 0), (["classify", str(doc)], 0),
                       (["simulate", str(doc), "--steps", "3"], EXIT_DIMENSION),
                       (["simulate", "--preset", "heavy-top"], EXIT_DIMENSION)):
        result = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env)
        assert result.returncode == code, (argv, result.stdout, result.stderr)
        assert result.stderr == "", argv
        if code:
            assert result.stdout.splitlines() == [
                "error: liex simulate needs numpy, the optional extra liepoisson[dynamics]"]


def test_simulate_reports_a_monitor_that_starts_at_zero_on_its_own_scale(tmp_path, capsys):
    doc = tmp_path / "c.json"
    doc.write_text(json.dumps(crmhd(Fraction(5, 2)).to_json()))
    state = tmp_path / "s.json"
    state.write_text(json.dumps([[1, 0, 1], [0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    code, out = run(["simulate", str(doc), "--state", str(state), "--steps", "5"], capsys)
    assert code == 0
    drifts = dict(line.split() for line in out.splitlines()[1:6])
    assert sorted(drifts) == ["H", "Q0", "Q1", "Q2", "Q3"]
    assert all(float(d) < 1e-6 for d in drifts.values()), drifts


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


def test_simulate_dimension_mismatch_exit_code(tmp_path, capsys):
    doc = tmp_path / "t.json"
    doc.write_text(json.dumps(leibniz(2).to_json()))
    ham = tmp_path / "h.json"
    blocks = [[[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]]  # 1x1 blocks for a 2-field tensor
    ham.write_text(json.dumps({"blocks": blocks}))
    code, out = run(["simulate", str(doc), "--hamiltonian", str(ham),
                     "--dt", "0.01", "--steps", "5"], capsys)
    assert code == 5


@pytest.mark.parametrize("flags, files, code", [
    (["--preset", "rigid-body", "--inertia", "1,2,x"], {}, EXIT_PARSE),
    (["--preset", "rigid-body", "--inertia", "1,0,3"], {}, EXIT_PARSE),
    (["--hamiltonian", "missing.json"], {}, EXIT_PARSE),
    (["--hamiltonian", "h.json"], {"h.json": "{not json"}, EXIT_PARSE),
    (["--hamiltonian", "h.json"], {"h.json": {"x": 1}}, EXIT_PARSE),
    (["--hamiltonian", "h.json"], {"h.json": {"blocks": [["a"]]}}, EXIT_PARSE),
    (["--hamiltonian", "h.json"], {"h.json": {"blocks": [[1]]}}, EXIT_DIMENSION),
    (["--hamiltonian", "h.json"], {"h.json": {"blocks": [[[[math.inf, 0, 0], [0, 1, 0], [0, 0, 1]]] * 2] * 2}}, EXIT_DIMENSION),
    (["--state", "s.json"], {"s.json": [[1, 2]]}, EXIT_DIMENSION),
    (["--state", "s.json"], {"s.json": [[math.nan, 1, 0], [0, 1, 0]]}, EXIT_DIMENSION),
    (["--state", "s.json"], {"s.json": {"x": 1}}, EXIT_PARSE),
    (["--state", "missing.json"], {}, EXIT_PARSE),
    (["--state", "s.json"], {"s.json": "[" * 100_000 + "]" * 100_000}, EXIT_PARSE),
], ids=["inertia-not-a-number", "inertia-zero", "hamiltonian-missing", "hamiltonian-not-json",
        "hamiltonian-no-blocks", "hamiltonian-not-numbers", "hamiltonian-wrong-shape", "hamiltonian-infinity",
        "state-wrong-shape", "state-nan", "state-not-a-list", "state-missing", "state-deep-nesting"])
def test_simulate_bad_inputs_exit_without_a_traceback(tmp_path, capfd, monkeypatch, flags, files, code):
    monkeypatch.chdir(tmp_path)
    Path("t.json").write_text(json.dumps(leibniz(2).to_json()))
    for name, content in files.items():
        Path(name).write_text(content if isinstance(content, str) else json.dumps(content))
    args = flags if "--preset" in flags else ["t.json"] + flags
    assert main(["simulate", *args, "--dt", "0.01", "--steps", "5"]) == code
    out = capfd.readouterr()
    lines = (out.out + out.err).strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("flags", [["--dt", "0"], ["--dt", "-1"], ["--dt", "nan"],
                                   ["--steps", "0"], ["--steps", "-3"]],
                         ids=["dt-zero", "dt-negative", "dt-nan", "steps-zero", "steps-negative"])
def test_simulate_rejects_a_step_that_integrates_nothing(capfd, monkeypatch, flags):
    import liepoisson.dynamics

    monkeypatch.setattr(liepoisson.dynamics, "simulate", lambda *a, **k: pytest.fail("integrated"))
    assert main(["simulate", "--preset", "rigid-body", "--dt", "0.01", "--steps", "5", *flags]) == EXIT_PARSE
    out = capfd.readouterr()
    lines = (out.out + out.err).strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --"), lines


@pytest.mark.parametrize("field, value", [("semidirect", "false"), ("semidirect", 0),
                                          ("n", 2.7), ("n", 2.0), ("n", True), ("n", "2"),
                                          pytest.param("w", [[[True]]], id="w-true"),
                                          pytest.param("w", [[[False]]], id="w-false"),
                                          pytest.param("w", [[[1.5]]], id="w-float")])
def test_tensor_document_with_a_wrong_json_type_is_a_parse_error(tmp_path, capfd, field, value):
    doc = leibniz(2).to_json() if field != "w" else {"n": 1}
    doc[field] = value
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_PARSE
    out = capfd.readouterr()
    lines = (out.out + out.err).strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed tensor document"), lines


@pytest.mark.parametrize("t", [crmhd(1), leibniz(3)], ids=["crmhd", "leibniz3"])
def test_a_declared_semidirect_is_checked_against_the_entries(tmp_path, capfd, t):
    """Absent, the key is derived from the entries and the families verify; a key that
    contradicts the entries refuses the document with one line, at every command."""
    doc = t.to_json()
    del doc["semidirect"]
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    assert main(["casimir", str(path), "--verify"]) == 0
    out, err = _output(capfd)
    assert "table fixtures: match" in out and err == ""
    path.write_text(json.dumps({**doc, "semidirect": not t.semidirect}))
    for argv in (["validate", str(path)], ["classify", str(path)], ["casimir", str(path), "--verify"]):
        assert main(argv) == EXIT_PARSE
        out, err = _output(capfd)
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith("error: malformed tensor document: declared "), err


def test_a_reader_that_stops_early_gets_no_traceback():
    # the read end is closed before liex writes, so its first write fails, as in `liex catalog | head -c 0`
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([sys.executable, "-m", "liepoisson.cli", "catalog", "--order", "4"],
                                stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert result.returncode == EXIT_INVALID
    assert result.stderr == ""


@pytest.mark.parametrize("argv", [
    ["classify", "t.json", "--witness", "{out}"],
    ["catalog", "--order", "2", "--out", "{out}"],
    ["leibniz", "--order", "2", "--out", "{out}"],
    ["crmhd", "--out", "{out}"],
    ["simulate", "--preset", "rigid-body", "--steps", "5", "--summary", "{out}"],
    ["simulate", "--preset", "rigid-body", "--steps", "5", "--out", "{out}"],
], ids=["classify-witness", "catalog", "leibniz", "crmhd", "simulate-summary", "simulate-csv"])
def test_unwritable_output_path_is_one_error_line(tmp_path, capfd, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("t.json").write_text(json.dumps(leibniz(2).to_json()))
    out_path = str(tmp_path / "no-such-directory" / "out.json")
    assert main([a.format(out=out_path) for a in argv]) == EXIT_PARSE
    err = capfd.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out_path}: "), err
    assert "No such file or directory" in err[0]
    assert not (tmp_path / "no-such-directory").exists()


def test_unwritable_output_path_prints_no_traceback(tmp_path):
    out_path = tmp_path / "no-such-directory" / "x.json"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-m", "liepoisson.cli", "catalog", "--order", "2", "--out", str(out_path)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == EXIT_PARSE
    assert result.stderr == f"error: cannot write {out_path}: No such file or directory\n"


def _output(capfd):
    out = capfd.readouterr()
    return out.out, out.err


@pytest.mark.parametrize("doc", [
    {"n": 2, "semidirect": False, "w": [[["0", "0"], ["0", "0"]], [["1" + "0" * 400, "0"], ["0", "0"]]]},
    crmhd(10**400).to_json(),
], ids=["tensor-entry", "casimir-coefficient"])
def test_simulate_refuses_values_outside_the_float_range(tmp_path, capfd, doc):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    capfd.readouterr()
    assert main(["simulate", str(path), "--steps", "3"]) == EXIT_DIMENSION
    out, err = _output(capfd)
    assert err == "" and out.startswith("error: ") and out.endswith(" is outside the float range\n"), out


def test_simulate_overflow_is_one_line_without_numpy_warnings(tmp_path, capfd):
    import warnings

    doc = tmp_path / "one.json"
    doc.write_text(json.dumps({"n": 2, "semidirect": False, "w": [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "0"]]]}))
    state = tmp_path / "s.json"
    state.write_text(json.dumps([[1e200] * 3] * 2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", str(doc), "--state", str(state), "--dt", "1", "--steps", "50"])
    assert code == EXIT_DIMENSION
    assert _output(capfd) == ("error: state became non-finite at step 1\n", "")
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("argv, message", [
    (["simulate", "t.json", "--inertia", "5,7,11"], "error: --inertia applies to --preset rigid-body only"),
    (["simulate", "--preset", "heavy-top", "--inertia", "5,7,11"],
     "error: --inertia applies to --preset rigid-body only"),
    (["simulate", "--preset", "rigid-body", "--inertia", "1e-400,1,1"],
     "error: inertia needs three nonzero comma-separated values"),
    (["simulate", "--preset", "rigid-body", "--inertia", "1e400,1,1"], "error: bad inertia '1e400,1,1': "),
    (["crmhd", "--beta", "0"], "error: bad beta: beta must be nonzero"),
    (["leibniz", "--order", "0"], "error: --order must be at least 1, got 0"),
    (["leibniz", "--order", "-2", "--semidirect"], "error: --order must be at least 1, got -2"),
    (["leibniz", "--order", "101"], "error: --order must be at most 100, got 101"),
], ids=["inertia-with-a-document", "inertia-with-heavy-top", "inertia-below-the-float-range",
        "inertia-above-the-float-range", "crmhd-beta-zero", "leibniz-order-zero", "leibniz-order-negative",
        "leibniz-order-above-100"])
def test_bad_option_values_exit_2_with_one_stderr_line(tmp_path, capfd, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    Path("t.json").write_text(json.dumps(leibniz(2).to_json()))
    assert main([*argv, "--steps", "5"] if argv[0] == "simulate" else argv) == EXIT_PARSE
    out, err = _output(capfd)
    assert out == "" and err.count("\n") == 1 and err.startswith(message), err


def test_the_refusal_table_is_the_documented_exit_code_list():
    """The module docstring and the README list exactly the codes of the table in ``cli.main``."""
    import re

    from liepoisson import cli

    table = {(code, prefix) for _, code, prefix in cli.REFUSALS}
    table |= {(EXIT_PARSE, "error"), (EXIT_DIMENSION, "error")}
    listed = {(int(code), prefix) for code, prefix in re.findall(r"^- (\d) ``(\w+):``", cli.__doc__, re.M)}
    assert listed == table
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    in_readme = {(int(code), prefix) for code, prefix in re.findall(r"^\| (\d) \| `(\w+):`", readme, re.M)}
    assert in_readme == table
