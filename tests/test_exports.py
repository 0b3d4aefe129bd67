"""Every exported name of the package resolves, and each layer loads on first use."""

import ast
import os
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
    """(identifier, node) for each name or attribute that ``tree`` reads; imports, strings and stores are not reads.

    An attribute read ``x.name`` yields ``.name``, a bare name ``name``.
    """
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store):
            yield (node.id if isinstance(node, ast.Name) else "." + node.attr), node


def test_every_definition_has_a_caller_outside_the_tests():
    """A function, class or method that only tests reach is deleted, or listed in ``UNREACHED`` with its reason.

    Callers are the package's own code (outside the definition itself), the
    benchmark outside its tests (its ``TRACED`` names too), the demos and the
    contract of the installed ``liex`` that CI runs.  A module-level function or class counts as called when
    its name or an attribute of that name is read; a method only when an
    attribute of its name is read (``x.name``), not a bare local of that name.
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
    for path in [*(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py"), ROOT / "tests" / "console_script.py"]:
        tree = ast.parse(path.read_text())
        outside.update(name for name, _ in _reads(tree))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
                outside.update(c.value.rsplit(".", 1)[-1] for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    unreached = set()
    for qualified, node in definitions.items():
        name = qualified.rsplit(".", 1)[-1]
        ways = ["." + name] if qualified.count(".") == 2 else [name, "." + name]
        inside = {id(sub) for sub in ast.walk(node)}
        if not any(way in outside or any(id(ref) not in inside for ref in package.get(way, ())) for way in ways):
            unreached.add(qualified)
    assert unreached - UNREACHED.keys() == set(), "reached by no caller outside the tests"
    assert UNREACHED.keys() - unreached == set(), "listed as unreached, but a caller reaches it"


def test_every_census_allowance_names_a_definition():
    """Each entry of the statement census's ``ALLOWED`` names a definition of the package, with a reason.

    A static check of the package's syntax trees, with no tracing: a deletion
    cannot leave a stale entry behind.  That each entry still holds a
    statement no real path runs is the census's own check.
    """
    import statement_census

    defined = set()

    def visit(body, scope):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(f"{scope}.{node.name}")
                visit(node.body, f"{scope}.{node.name}")

    for path in (ROOT / "src" / "liepoisson").glob("*.py"):
        visit(ast.parse(path.read_text()).body, path.stem)
    assert sorted(statement_census.ALLOWED.keys() - defined) == []
    assert all(reason.strip() for reason in statement_census.ALLOWED.values())
