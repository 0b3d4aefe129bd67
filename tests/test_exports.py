"""Every exported name of the package resolves, and each layer loads on first use."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import liepoisson
from liepoisson import transform

SRC = str(Path(__file__).resolve().parent.parent / "src")
OPTIONAL = ("casimir", "polynomials", "tables", "conics", "dynamics")


@pytest.mark.parametrize("module", [liepoisson, transform], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if getattr(module, name, None) is None]
    assert missing == []


def test_dir_lists_every_exported_name():
    assert set(liepoisson.__all__) <= set(dir(liepoisson))


def loaded_after(probe):
    """The optional layers in ``sys.modules`` after each ``print(loaded())`` of ``probe``, run afresh."""
    head = f"import sys\ndef loaded(): return [m for m in {OPTIONAL!r} if 'liepoisson.' + m in sys.modules]\n"
    result = subprocess.run([sys.executable, "-c", head + probe], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=SRC))
    assert result.returncode == 0, result.stderr
    return [ast.literal_eval(line) for line in result.stdout.splitlines()]


def test_classify_loads_no_optional_layer():
    # the catalog and a classify without a square-class repair stay in the core;
    # the first Casimir name loads the Casimir layer and nothing else
    probe = ("import liepoisson\n"
             "for order in (1, 2, 3, 4): liepoisson.catalog(order)\n"
             "liepoisson.classify(liepoisson.leibniz(4)); print(loaded())\n"
             "liepoisson.synthesize_casimirs; print(loaded())\n")
    assert loaded_after(probe) == [[], ["casimir", "polynomials"]]


def test_a_class_repair_loads_the_conic_solver():
    # entries 1, 1 and 3 of one congruence are in two square classes over Q(i)
    probe = ("from liepoisson import BasisChange, ExactMatrix, apply, catalog, classify\n"
             "t = apply(catalog(4).lookup('n4-case1b'), BasisChange(ExactMatrix.diagonal([1, 1, 3, 1])))\n"
             "print(loaded()); print(classify(t)[0].name == 'n4-case1b'); print(loaded())\n")
    assert loaded_after(probe) == [[], True, ["conics"]]


def test_the_cli_loads_no_optional_layer_until_a_command_needs_it():
    assert loaded_after("import liepoisson.cli; print(loaded())") == [[]]


def test_the_casimir_refusals_keep_their_class_and_exit_code():
    from liepoisson import casimir, extension
    from liepoisson.cli import EXIT_OBSTRUCTION, REFUSALS

    assert casimir.SynthesisObstruction is extension.SynthesisObstruction
    assert casimir.CasimirError is extension.CasimirError
    row = next(row for row in REFUSALS if issubclass(casimir.SynthesisObstruction, row[0]))
    assert row[1:] == (EXIT_OBSTRUCTION, "obstruction")


ROOT = Path(SRC).parent
# names that no caller reaches, each kept for its reason
UNREACHED = {
    "classify.equivalence_check": "public API: the orbit test of two tensors, exported by the package",
    "polynomials.Poly.diff": "the Hessian oracle that tests/test_casimir.py checks _hessian against",
}


def _defined(body):
    """The functions and classes of ``body`` but its dunders, which the interpreter calls."""
    return [node for node in body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _definitions(tree, module):
    """{qualified name: its node} for the module-level functions and classes and the methods of the classes."""
    out = {}
    for node in _defined(tree.body):
        out[f"{module}.{node.name}"] = node
        if isinstance(node, ast.ClassDef):
            out.update((f"{module}.{node.name}.{item.name}", item) for item in _defined(node.body))
    return out


def _reads(tree):
    """(identifier, node) for each name or attribute that ``tree`` reads; imports, strings and stores are not reads."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store):
            yield (node.id if isinstance(node, ast.Name) else node.attr), node


def test_every_definition_has_a_caller_outside_the_tests():
    """A function, class or method that only tests reach is deleted, or listed in ``UNREACHED`` with its reason.

    Callers are the package's own code (outside the definition itself), the
    benchmark outside its tests (its ``TRACED`` names too), the demos and the
    CI workflows.  Names are matched bare, so a method counts as called when
    any attribute of that name is read.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "liepoisson").glob("*.py"))}
    definitions = {}
    for module, tree in trees.items():
        definitions.update(_definitions(tree, module))
    package = {}   # identifier -> the nodes of the package that read it
    for tree in trees.values():
        for name, node in _reads(tree):
            package.setdefault(name, []).append(node)
    outside = set()
    for path in [*(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        tree = ast.parse(path.read_text())
        outside.update(name for name, _ in _reads(tree))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
                outside.update(c.value.rsplit(".", 1)[-1] for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    for path in (ROOT / ".github" / "workflows").glob("*.yml"):
        outside.update(re.findall(r"\w+", path.read_text()))
    unreached = set()
    for qualified, node in definitions.items():
        name = qualified.rsplit(".", 1)[-1]
        inside = {id(sub) for sub in ast.walk(node)}
        if name not in outside and all(id(ref) in inside for ref in package.get(name, ())):
            unreached.add(qualified)
    assert unreached - UNREACHED.keys() == set(), "reached by no caller outside the tests"
    assert UNREACHED.keys() - unreached == set(), "listed as unreached, but a caller reaches it"
