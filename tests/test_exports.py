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
