"""Statement census: every statement of the package runs on a real path, or is exempt.

Run from the root of a checkout (stdlib only, outside tier-1, about half a minute)::

    PYTHONPATH=src python tests/statement_census.py

The real paths are what the package is for, not its tests:

* the four benchmark workloads of ``bench/workloads.py`` at seeds 3, 5 and
  11, each item called and checked by its oracle;
* the four demos of ``demos/``;
* the contract of the installed ``liex`` in ``tests/console_script.py``, at
  least one command per exit code, and more inputs, run through ``cli.main``.

A *statement* is an ``ast.stmt`` node of ``src/liepoisson``.  Its own lines
are its source lines minus those of the statements nested in it, so an
``if`` owns its test and an ``except`` clause belongs to its ``try``.  It is
counted when one of its own lines starts bytecode (a function's docstring
does not), and it *runs* when ``sys.settrace`` sees a line event on one of
them.  Tracing starts before the package is imported, so module-level
statements count too.

The census exits 1 when a statement that no real path runs is neither a
``raise`` (safety code: reported, but exempt) nor inside a definition on
``ALLOWED``, or when an ``ALLOWED`` definition holds no such statement any
more; it exits 0 otherwise.  ``ALLOWED`` is keyed by qualified name
(``module.function`` or ``module.Class.method``), never by line number, and
covers the definitions nested in the one it names.  Every real path that
fails (a wrong output, an unexpected exit code) fails the census as well.
"""

from __future__ import annotations

import ast
import contextlib
import dis
import functools
import io
import os
import runpy
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

from console_script import dump, run as run_contract

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liepoisson"
SEEDS = (3, 5, 11)

# Definitions allowed to hold statements that no real path runs, each with its reason.
OPERATOR = "an operator or protocol method of a public value type"
SCALAR_API = "public scalar API that the tests' number-theory oracles read"
ORACLE = "the tests' oracle substrate"
ITEM_29 = "item 29: bench/run.py pins it in TRACED (the eigenvalue search of item 11 and its helpers)"
ALLOWED = {
    "__init__.__dir__": "module protocol: dir(liepoisson) lists the lazily loaded names",
    # the eigenvalue search and the other names the benchmark's tracer wraps
    "linalg.eigenvalues_gaussian": ITEM_29,
    "linalg.characteristic_polynomial": ITEM_29,
    "linalg.roots_in_gaussian_rationals": ITEM_29,
    "linalg._poly_deflate": ITEM_29,
    "linalg.SplitFailure.__init__": ITEM_29,
    "linalg.simultaneous_triangularize": ITEM_29,
    "linalg.NotCommuting.__init__": "item 29: raised by simultaneous_triangularize alone",
    "linalg.pseudoinverse": ITEM_29,
    "linalg.ExactMatrix.entries": "item 29: bench/workloads.py's witness_max_bits reads it for bench/run.py",
    "scalars.gaussian_factor": ITEM_29,
    "scalars.gaussian_divisors": ITEM_29,
    "transform.normalize_w0_to_identity": "item 29: bench/run.py pins the name; tests pin its None for phi = 0",
    "transform._repair_classes": "item 32: the (2^61 - 1, 1) hang that bench/tests pins runs its even-count path",
    # the orbit test: its last return is unreachable
    "classify.equivalence_check": "item 25: its last return cannot run (labels that differ differ in a fingerprint)",
    # tested behavior no real input reaches
    "casimir.casimir_condition_check": "the report of a failing family: real paths check only families that pass",
    "conics.represent_binary": "public: tests/test_conics.py pins its zero coefficients and z = -1; "
                               "its last check guards the ternary solver",
    "conics.isotropic_ternary": "public: tests/test_conics.py pins its zero coefficients; "
                                "its stall and round limits guard termination",
    "linalg._kernel_flag": "its None serves the order-n+1 oracle of tests/helpers.py; "
                           "classify passes it traceless, hence nilpotent, slices",
    "scalars._square_split": "square_free_part(0) = (0, 1), which tests/test_scalars.py pins",
    "polynomials.Poly.format": "the zero polynomial prints as 0; no Casimir term is zero",
    # oracles and serialization that only the tests read
    "casimir.CasimirFamily.to_json": ORACLE + ": tests/test_golden.py digests families through it",
    "polynomials.Poly.to_json": ORACLE + ": tests/test_golden.py digests families through it",
    "polynomials.Poly.diff": ORACLE + ": the Hessian oracle of tests/test_casimir.py",
    "polynomials.Poly.scale": ORACLE + ": the series oracle of tests/test_casimir.py",
    # the public value types
    "scalars.GaussianRational.denominator": SCALAR_API,
    "scalars.GaussianRational.is_gaussian_integer": SCALAR_API,
    "scalars.GaussianRational.norm": SCALAR_API,
    "scalars.GaussianRational.inverse": SCALAR_API,
    **dict.fromkeys([
        "scalars._coerce",
        *(f"scalars.GaussianRational.{name}" for name in (
            "__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__", "__pow__", "__eq__",
            "__hash__", "__complex__", "__str__")),
        *(f"polynomials.Poly.{name}" for name in (
            "__add__", "__sub__", "__neg__", "__mul__", "__eq__", "__hash__", "__repr__")),
        *(f"linalg.ExactMatrix.{name}" for name in ("__sub__", "__neg__", "__eq__", "__hash__")),
        "linalg.BasisChange.__eq__", "linalg.BasisChange.__repr__",
        *(f"extension.ExtensionTensor.{name}" for name in ("__eq__", "__hash__", "__repr__")),
        "classify.CaseLabel.__str__", "classify.Catalog.__len__",
    ], OPERATOR),
}


# ---------------------------------------------------------------------------
# What counts
# ---------------------------------------------------------------------------

def _own_lines(node: ast.stmt) -> set:
    lines = set(range(node.lineno, node.end_lineno + 1))
    for child in ast.walk(node):
        if child is not node and isinstance(child, ast.stmt):
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def _code_lines(code) -> set:
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _code_lines(const)
    return lines


def _type_checking(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"


def statements(path: Path):
    """(qualified name of the enclosing definition, statement, its own lines) for each counted statement."""
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    out = []

    def visit(body, scope):
        for node in body:
            lines = _own_lines(node) & executable
            if lines:
                out.append((scope, node, lines))
            inner = f"{scope}.{node.name}" if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                                 ast.ClassDef)) else scope
            if _type_checking(node):   # imports for static checkers only, never run
                continue
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner)
            for case in getattr(node, "cases", []):
                visit(case.body, inner)

    visit(ast.parse(source).body, path.stem)
    return out


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Line events of the package's files, as {file name: set of line numbers}.

    A code object stops being traced once every line it starts has been
    seen, so hot arithmetic costs a call event only.
    """

    def __init__(self):
        self.files = {os.path.realpath(path): set() for path in PACKAGE.glob("*.py")}
        self.by_name = {}   # co_filename -> its set in ``files``, or None outside the package
        self.pending = {}   # code object -> the lines it starts that are not yet seen
        self.done = set()

    def _global(self, frame, event, arg):
        code = frame.f_code
        if code in self.done:
            return None
        name = code.co_filename
        if name not in self.by_name:
            self.by_name[name] = self.files.get(os.path.realpath(name))
        seen = self.by_name[name]
        if seen is None:
            return None
        pending = self.pending.get(code)
        if pending is None:
            pending = {line for _, line in dis.findlinestarts(code) if line is not None} - seen
            pending.discard(code.co_firstlineno)   # a function's first line starts no line event
            self.pending[code] = pending

        def local(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                seen.add(line)
                pending.discard(line)
                if not pending:
                    self.done.add(code)
            return local

        return local

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


# ---------------------------------------------------------------------------
# Real paths
# ---------------------------------------------------------------------------

def run_workloads(failures):
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for name, build in workloads.BUILDERS.items():
        for seed in SEEDS:
            for item in build(seed):
                why = item.check(item.call())
                if why is not None:
                    failures.append(f"workload {name} seed {seed} {item.name}: {why}")


def run_demos():
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")


def liex(failures, want, *argv, closed=False):
    """``liex`` for the contract, run in this process; ``closed`` gives it a pipe whose read end is closed."""
    from liepoisson import cli

    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as pipe:
        out, err = pipe if closed else io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                got = cli.main(list(argv))
            except SystemExit as exc:   # argparse's usage errors
                got = exc.code
    if got != want:
        failures.append(f"liex {' '.join(argv)}: exit {got}, expected {want}: {err.getvalue()[-200:]}")
    return "" if closed else out.getvalue()


def run_more_inputs(liex, failures):
    """Inputs past the contract of ``tests/console_script.py``, each for a branch it leaves unrun, in its directory."""
    from liepoisson.classify import catalog
    from liepoisson.extension import leibniz
    from liepoisson.linalg import BasisChange, ExactMatrix
    from liepoisson.scalars import gr
    from liepoisson.transform import apply

    def moved(t, rows):
        return apply(t, BasisChange(ExactMatrix.from_rows(rows))).to_json()

    shear = [[1, 0, 0, 0], [2, 1, 0, 0], [0, -1, 1, 0], [1, 0, 3, 1]]
    dense = [[1, 2, 1, 1], [1, 3, 2, 1], [2, 1, 3, 1], [1, 1, 1, 2]]
    # ``python -m liepoisson.cli`` runs the same main
    argv = sys.argv
    sys.argv = ["liepoisson.cli", "catalog", "--order", "1"]
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # the module is loaded already: run it afresh
            runpy.run_module("liepoisson.cli", run_name="__main__")
    finally:
        sys.argv = argv
    # a singular Wn whose coextension passes both conditions: cases 3c and 3d under a unit shear,
    # synthesized as they stand
    for name in ("n4-case3c", "n4-case3d"):
        dump(moved(catalog(4).lookup(name), shear), "moved.json")
        liex(0, "casimir", "moved.json", "--verify")
    # case 2 under the same shear fails the coextension condition as it stands, so it is classified first
    dump(moved(catalog(4).lookup("n4-case2"), shear), "moved.json")
    liex(0, "casimir", "moved.json")
    # a dense move is classified before synthesis, and its quadratic monitors solve equations with repeated unknowns
    dump(moved(leibniz(4), dense), "dense.json")
    liex(0, "casimir", "dense.json")
    liex(0, "simulate", "dense.json", "--steps", "3")
    # complex coefficients print in parentheses; past twelve families the function names run f12, f13, ...
    dump(apply(leibniz(3), BasisChange(ExactMatrix.diagonal([1, gr(2, 1), 1]))).to_json(), "complex3.json")
    liex(0, "casimir", "complex3.json")
    liex(0, "leibniz", "--order", "13", "--out", "l13.json")
    liex(0, "casimir", "l13.json")
    # the simulate options of the README, a state and a Hamiltonian from files, and a run without numpy
    liex(0, "simulate", "--preset", "rigid-body", "--inertia", "1,2,3", "--dt", "0.001", "--steps", "200",
         "--out", "traj.csv", "--summary", "drift.json")
    dump(leibniz(2).to_json(), "l2.json")
    dump({"blocks": [[[[float(i == j and a == b) for b in range(3)] for a in range(3)] for j in range(2)]
                     for i in range(2)]}, "blocks.json")
    dump([[1.0, 0.5, 0.2], [0.3, -0.1, 0.4]], "init.json")
    liex(0, "simulate", "l2.json", "--hamiltonian", "blocks.json", "--state", "init.json", "--steps", "5")
    numpy = sys.modules.get("numpy")
    sys.modules["numpy"] = None
    try:
        liex(5, "simulate", "--preset", "heavy-top", "--steps", "5")
    finally:
        sys.modules["numpy"] = numpy
    # refusals: slices that do not commute, and a head pencil whose discriminant 5 is no square in Q(i)
    z3, z4 = ["0"] * 3, ["0"] * 4
    dump({"n": 3, "w": [[z3] * 3, [["1", "0", "0"], z3, z3], [z3, ["0", "1", "0"], z3]]}, "noncommuting.json")
    liex(1, "validate", "noncommuting.json")
    head = [[["1", "0"], ["0", "1"]], [["1", "1"], ["1", "0"]]]
    dump({"n": 4, "w": [[z4] * 4, [z4] * 4] + [[[*r, "0", "0"] for r in h] + [z4, z4] for h in head]}, "pencil.json")
    liex(6, "classify", "pencil.json")
    # order-4 tails diag(d0, d1, d2): the square-class repair meets conics with no point, a modulus
    # with the ramified prime 1 + i, and more square roots than it keeps; the last one it solves
    for tail, want in (((1, 2, 5), 6), ((1, 2, 15), 6), ((1, 10, 273), 6), ((1, 6, 385), 0)):
        dump({"n": 4, "w": [[z4] * 4] * 3 + [[[str(d) if mu == nu else "0" for nu in range(4)] for mu, d in
                                               enumerate(tail + (0,))]]}, "tail.json")
        liex(want, "classify", "tail.json")
    # a complex rescaling, n4-case1b with slot 0 scaled by 2 + i, meets a Gaussian integer whose norm is a
    # square but which is none
    dump(apply(catalog(4).lookup("n4-case1b"), BasisChange(ExactMatrix.diagonal([gr(2, 1), 1, 1, 1]))).to_json(),
         "complex-scaled.json")
    liex(0, "classify", "complex-scaled.json")


# ---------------------------------------------------------------------------
# The census
# ---------------------------------------------------------------------------

def census():
    """(counted statements, unrun ones as (module, scope, line, is_raise), failures of the real paths)."""
    failures = []
    here = os.getcwd()
    with Tracer() as tracer, tempfile.TemporaryDirectory() as scratch:
        run_workloads(failures)
        run_demos()
        os.chdir(scratch)
        try:
            in_process = functools.partial(liex, failures)
            run_contract(in_process, failures)
            run_more_inputs(in_process, failures)
        finally:
            os.chdir(here)
    counted, unrun = Counter(), []
    for path in sorted(PACKAGE.glob("*.py")):
        seen = tracer.files[os.path.realpath(path)]
        for scope, node, lines in statements(path):
            counted[path.stem] += 1
            if not lines & seen:
                unrun.append((path.stem, scope, node.lineno, isinstance(node, ast.Raise)))
    return counted, unrun, failures


def _allowed(scope):
    parts = scope.split(".")
    return next((".".join(parts[:k]) for k in range(len(parts), 1, -1) if ".".join(parts[:k]) in ALLOWED), None)


def main() -> int:
    counted, unrun, failures = census()
    flagged = [(module, scope, line) for module, scope, line, is_raise in unrun
               if not is_raise and _allowed(scope) is None]
    stale = sorted(ALLOWED.keys() - {_allowed(scope) for _, scope, _, is_raise in unrun if not is_raise})
    print(f"{'module':<14}{'statements':>11}{'unrun':>7}{'raise':>7}{'allowed':>9}{'flagged':>9}")
    for module in sorted(counted):
        rows = [is_raise for m, _, _, is_raise in unrun if m == module]
        flags = sum(1 for m, _, _ in flagged if m == module)
        print(f"{module:<14}{counted[module]:>11}{len(rows):>7}{sum(rows):>7}{len(rows) - sum(rows) - flags:>9}"
              f"{flags:>9}")
    print(f"{'total':<14}{sum(counted.values()):>11}{len(unrun):>7}")
    for module, scope, line in flagged:
        print(f"unrun: src/liepoisson/{module}.py:{line} in {scope}")
    for name in stale:
        print(f"stale: {name} is allowed, but no real path misses a statement of it")
    for failure in failures:
        print(f"failed: {failure}")
    return 1 if flagged or stale or failures else 0


if __name__ == "__main__":
    sys.exit(main())
