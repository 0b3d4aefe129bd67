"""Command-line front end (installed as ``liex``).

Subcommands wrap the library: validate tensor documents, classify them with
bit-exactly checked witnesses, synthesize Casimir families (each checked
once, by the synthesis) and verify them against the table fixtures, emit the
catalog and Leibniz tensors, and integrate the finite-dimensional so(3)*
realization while monitoring conservation.

Tensor documents are JSON: {"n": int, "w": [[[scalar]]]} with the lower
index outermost and scalars as exact strings ("p/q" or "p/q+r/si"); an
optional "semidirect" boolean must agree with the entries, and metadata keys
(name, beta, provenance) ride along and round-trip untouched.

Every refusal ends with one line and an exit code.  ``REFUSALS`` in
:func:`main` maps the library's exceptions; a ``ParseFailure`` (argparse's
usage errors too) exits 2 on stderr; ``simulate`` maps ``DynamicsError`` to 5
itself, so that the table needs no numpy.  The table takes
``SynthesisObstruction`` from ``extension``, so it loads no Casimir layer
either; ``casimir`` and ``tables`` load inside ``liex casimir``:

- 0 success;
- 1 ``invalid:`` a tensor that breaks a bracket law (``TensorError``), or a
  verification failure; also, with no line, a reader that stopped early;
- 2 ``error:`` on stderr: a file that cannot be read or written, a malformed
  document or a bad option value (``ParseFailure``);
- 3 ``error:`` an order out of range (``OrderTooHigh``);
- 4 ``obstruction:`` a Casimir synthesis obstruction (``SynthesisObstruction``;
  also above order four, where no catalog form can be tried instead);
- 5 ``error:`` any refusal by the dynamics layer in ``simulate``
  (``DynamicsError``): a dimension mismatch, a complex tensor, a non-finite
  state or Hamiltonian, or an entry or trajectory outside the float range;
  also ``simulate`` without numpy (the extra ``liepoisson[dynamics]``);
- 6 ``error:`` a valid bracket that ``classify`` cannot bring to a catalog
  normal form over Q(i) (``ClassificationError``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional

from .classify import CaseLabel, ClassificationError, OrderTooHigh, catalog, catalog_entry, classify
from .extension import ExtensionTensor, SynthesisObstruction, TensorError, ZeroParameter, crmhd, leibniz

if TYPE_CHECKING:
    import numpy as np

    from .casimir import CasimirFamily

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_ORDER = 3
EXIT_OBSTRUCTION = 4
EXIT_DIMENSION = 5
EXIT_UNCLASSIFIED = 6


class ParseFailure(Exception):
    pass


# A library refusal -> (exit code, prefix of its one stdout line); the first
# row whose class matches wins, so subclasses come before their bases.
REFUSALS = (
    (OrderTooHigh, EXIT_ORDER, "error"),
    (ClassificationError, EXIT_UNCLASSIFIED, "error"),
    (SynthesisObstruction, EXIT_OBSTRUCTION, "obstruction"),
    (TensorError, EXIT_INVALID, "invalid"),
)


def read_json(path: str, what: str, convert=lambda doc: doc):
    """``convert`` of the JSON value in ``path``; ParseFailure if it cannot be read or converted."""
    try:
        with open(path) as fh:
            return convert(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, RecursionError, OverflowError) as err:
        # ValueError covers malformed JSON, invalid UTF-8 and integer literals
        # past Python's digit limit; RecursionError, arrays nested too deep;
        # OverflowError, an integer that ``convert`` cannot make a float
        raise ParseFailure(f"cannot read {what} {path}: {err}")


def load_tensor(path: str) -> ExtensionTensor:
    doc = read_json(path, "tensor document")
    if not isinstance(doc, dict) or "w" not in doc:
        raise ParseFailure(f"{path}: not a tensor document (missing 'w')")
    try:
        return ExtensionTensor.from_json(doc)
    except (KeyError, ValueError, TypeError) as err:
        raise ParseFailure(f"malformed tensor document: {err}")


def write_json(payload, path: Optional[str], note: Optional[str] = None) -> None:
    """Print ``payload`` as JSON, or write it to ``path`` and print ``note`` if given."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if not path:
        print(text)
        return
    with _writing(path), open(path, "w") as fh:
        fh.write(text + "\n")
    if note is not None:
        print(note)


@contextmanager
def _writing(path: str):
    """Turn an OSError raised while writing ``path`` into a ParseFailure (exit 2, one stderr line)."""
    try:
        yield
    except OSError as err:
        raise ParseFailure(f"cannot write {path}: {err.strerror or err}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    t = load_tensor(args.path)
    print(f"valid (order {t.n}, semidirect {'yes' if t.semidirect else 'no'})")
    return EXIT_OK


def cmd_classify(args) -> int:
    label, chain = classify(load_tensor(args.path))
    print(f"{label.name}{' (semidirect)' if label.semidirect else ''}")
    if args.witness:
        write_json([b.to_json() for b in chain], args.witness,
                   f"witness chain written to {args.witness} ({len(chain)} steps)")
    return EXIT_OK


def _casimir_families(t: ExtensionTensor):
    """(label, normal, families): the Casimir families of ``t`` and the tensor they belong to.

    A normalized ``t`` is synthesized as it is, with label None.  Otherwise,
    or when a removable coboundary obstructs the raw form, ``t`` is
    classified and its catalog form synthesized; where the catalog has no
    form of that order, the obstruction stands.
    """
    from .casimir import is_normalized, synthesize_casimirs

    obstruction = None
    if is_normalized(t):
        try:
            return None, t, synthesize_casimirs(t)
        except SynthesisObstruction as err:
            obstruction = err
    try:
        label = classify(t)[0]
    except OrderTooHigh:
        if obstruction is None:
            raise
        raise obstruction from None
    normal = catalog_entry(label)
    return label, normal, synthesize_casimirs(normal)


def cmd_casimir(args) -> int:
    from .casimir import format_family

    label, normal, families = _casimir_families(load_tensor(args.path))
    if label is not None:
        print(f"note: families are in the normal-form coordinates of {label.name}")
    for fam in families:
        print(format_family(fam))
    if args.verify:
        return _verify_families(normal, families, label)
    return EXIT_OK


def _fixture_families(label: CaseLabel) -> Optional[List[CasimirFamily]]:
    """Table fixtures for the case with this label, if known."""
    from . import tables

    table = tables.solvable_table()
    if label.name not in table:
        return None
    if not label.semidirect:
        return table[label.name]
    fixtures = [_shift_solvable_family(f) for f in table[label.name]]
    extra = tables.semidirect_extra_table().get(label.name)
    if extra is not None:
        fixtures.insert(0, extra)
    return fixtures


def _shift_solvable_family(fam: CasimirFamily) -> CasimirFamily:
    """Embed a solvable family into the semidirect tensor (slots shift by 1)."""
    from .casimir import CasimirFamily, CasimirTerm, FormalFunction
    from .polynomials import Poly
    from .scalars import ZERO

    n = fam.n + 1
    terms = []
    for term in fam.terms:
        poly = Poly(n, {(0,) + e: c for e, c in term.poly.terms.items()})
        func = None
        if term.func is not None:
            args = tuple((ZERO,) + u for u in term.func.args)
            func = FormalFunction(term.func.label, args)
        terms.append(CasimirTerm(poly, func, term.deriv))
    return CasimirFamily(tuple(terms), n, True)


def _verify_families(normal, families, label: Optional[CaseLabel]) -> int:
    """List the families as passed and check the fixtures of ``label``, classifying ``normal`` if None.

    ``synthesize_casimirs`` has checked every family it returned against
    the condition, so only the fixtures are checked here, and compared
    with the families synthesized on their catalog entry.
    """
    from .casimir import casimir_condition_check, family_sets_equal, format_family, synthesize_casimirs

    if label is None:
        try:
            label, _ = classify(normal)
        except TensorError:
            pass
    fixtures = None if label is None else _fixture_families(label)
    for fam in families:
        print(f"  [pass] {format_family(fam)}")
    if fixtures is None:
        return EXIT_OK
    fixture_tensor = catalog_entry(label)
    ok = True
    for fam in fixtures:
        result = bool(casimir_condition_check(fixture_tensor, fam))
        ok = ok and result
        print(f"  [{'pass' if result else 'FAIL'}] {format_family(fam)}")
    synthesized = families if fixture_tensor.nz == normal.nz else synthesize_casimirs(fixture_tensor)
    matched = family_sets_equal(synthesized, fixtures)
    print(f"table fixtures: {'match' if matched else 'MISMATCH'}")
    return EXIT_OK if ok and matched else EXIT_INVALID


def _parse_inertia(text: str):
    try:
        parts = [float(Fraction(p)) for p in text.split(",")]
    except (ValueError, ZeroDivisionError, OverflowError) as err:
        raise ParseFailure(f"bad inertia {text!r}: {err}")
    if len(parts) != 3 or not all(parts):
        raise ParseFailure("inertia needs three nonzero comma-separated values")
    return parts


def _read_array(path: str, what: str, key: Optional[str] = None) -> np.ndarray:
    """The float array in the JSON file ``path``, under ``key`` if given."""
    import numpy as np

    return read_json(path, what, lambda doc: np.array(doc if key is None else doc[key], dtype=float))


def cmd_simulate(args) -> int:
    if not 0 < args.dt < math.inf:
        raise ParseFailure(f"--dt must be a positive finite step, got {args.dt}")
    if args.steps < 1:
        raise ParseFailure(f"--steps must be at least 1, got {args.steps}")
    # the float layer, and numpy with it, is loaded by this command alone
    try:
        import numpy as np
    except ImportError:
        print("error: liex simulate needs numpy, the optional extra liepoisson[dynamics]")
        return EXIT_DIMENSION
    from .dynamics import (DynamicsError, FieldState, HamiltonianSpec, exact_monitors, heavy_top_tensor,
                           rigid_body_tensor, simulate)

    if args.inertia is not None and args.preset != "rigid-body":
        raise ParseFailure("--inertia applies to --preset rigid-body only")
    try:
        if args.preset == "rigid-body":
            t = rigid_body_tensor()
            h = HamiltonianSpec.rigid_body(_parse_inertia("1,2,3" if args.inertia is None else args.inertia))
            s0 = FieldState.from_vectors([[1.0, 1.0, 1.0]])
        elif args.preset == "heavy-top":
            t = heavy_top_tensor()
            h = HamiltonianSpec.isotropic(2)
            s0 = FieldState.from_vectors([[0.3, -0.2, 0.9], [0.5, 0.1, -0.4]])
        else:
            if not args.path:
                raise ParseFailure("either a tensor document or --preset is required")
            t = load_tensor(args.path)
            if args.hamiltonian:
                h = HamiltonianSpec(_read_array(args.hamiltonian, "Hamiltonian", "blocks"))
            else:
                h = HamiltonianSpec.isotropic(t.n)
            if args.state:
                s0 = FieldState.from_vectors(_read_array(args.state, "state"))
            else:
                rng = np.random.default_rng(0)
                s0 = FieldState(rng.normal(size=(t.n, 3)))
        start = time.perf_counter()
        monitors = exact_monitors(t)
        monitor_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        record = simulate(t, h, s0, args.dt, args.steps, monitors,
                          sample_every=max(1, args.steps // 200))
        step_us = (time.perf_counter() - start) * 1e6 / args.steps
    except DynamicsError as err:
        print(f"error: {err}")
        return EXIT_DIMENSION
    if args.out:
        with _writing(args.out):
            record.to_csv(args.out)
    print("monitor            drift")
    for name in sorted(record.drifts):
        print(f"{name:<18} {record.drifts[name]:.3e}")
    print(f"exact monitors {monitor_ms:.2f} ms, RK4 {step_us:.1f} us/step")
    summary = {"dt": args.dt, "steps": args.steps, "drifts": record.drifts,
               "monitor_ms": monitor_ms, "step_us": step_us}
    if args.summary:
        write_json(summary, args.summary)
    return EXIT_OK


def cmd_catalog(args) -> int:
    docs = [{"name": label.name, **t.to_json()} for label, t in catalog(args.order).entries]
    write_json(docs, args.out, f"{len(docs)} normal forms written to {args.out}")
    return EXIT_OK


def cmd_leibniz(args) -> int:
    if args.order < 1:
        raise ParseFailure(f"--order must be at least 1, got {args.order}")
    if args.order > 100:  # order^3 entries: order 100 writes 13 MB in about 3 s
        raise ParseFailure(f"--order must be at most 100, got {args.order}")
    t = leibniz(args.order, semidirect=args.semidirect)
    doc = {"name": f"leibniz-{args.order}{'-sd' if args.semidirect else ''}", **t.to_json()}
    write_json(doc, args.out, f"tensor written to {args.out}")
    return EXIT_OK


def cmd_crmhd(args) -> int:
    try:
        t = crmhd(Fraction(args.beta))
    except (ValueError, ZeroDivisionError, ZeroParameter) as err:
        raise ParseFailure(f"bad beta: {err}")
    write_json({"name": "crmhd", "beta": args.beta, **t.to_json()}, args.out, f"tensor written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liex",
        description="Validate, classify, and analyze Lie-Poisson extension tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the two bracket laws of a tensor document")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="reduce to a catalog normal form")
    p.add_argument("path")
    p.add_argument("--witness", help="write the replayable witness chain to this JSON file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("casimir", help="synthesize Casimir families")
    p.add_argument("path")
    p.add_argument("--verify", action="store_true",
                   help="list the families as checked by the synthesis, then check the "
                        "table fixtures and compare them with the synthesis")
    p.set_defaults(func=cmd_casimir)

    p = sub.add_parser("simulate", help="integrate the so(3)* realization with drift monitors")
    p.add_argument("path", nargs="?")
    p.add_argument("--preset", choices=["rigid-body", "heavy-top"])
    p.add_argument("--inertia", help="rigid-body principal moments (default 1,2,3)")
    p.add_argument("--hamiltonian", help="JSON file with quadratic-form blocks")
    p.add_argument("--state", help="JSON file with the initial 3-vectors")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--out", help="trajectory CSV path")
    p.add_argument("--summary", help="drift summary JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("catalog", help="emit the normal forms of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("leibniz", help="emit a Leibniz extension tensor")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--semidirect", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_leibniz)

    p = sub.add_parser("crmhd", help="emit the compressible reduced MHD tensor")
    p.add_argument("--beta", default="1")
    p.add_argument("--out")
    p.set_defaults(func=cmd_crmhd)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except ParseFailure as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_PARSE
        except TensorError as err:
            code, prefix = next((code, prefix) for cls, code, prefix in REFUSALS if isinstance(err, cls))
            print(f"{prefix}: {err}")
            return code
        finally:
            sys.stdout.flush()  # here, where a reader that stopped early is caught
    except BrokenPipeError:
        # the reader stopped early (``liex catalog | head``): the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
