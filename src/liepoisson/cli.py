"""Command-line front end (installed as ``liex``).

Subcommands wrap the library: validate tensor documents, classify them with
replay-verified witnesses, synthesize and verify Casimir families, emit the
catalog and Leibniz tensors, and integrate the finite-dimensional so(3)*
realization while monitoring conservation.

Tensor documents are JSON: {"n": int, "semidirect": bool, "w": [[[scalar]]]}
with the lower index outermost and scalars as exact strings ("p/q" or
"p/q+r/si"); optional metadata keys (name, beta, provenance) ride along and
round-trip untouched.

Exit codes: 0 success, 1 validation failure, 2 parse error, 3 order out of
range, 4 Casimir synthesis obstruction, 5 dimension mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import List, Optional

from . import casimir as casimir_mod
from . import tables
from .classify import CaseLabel, ClassificationError, OrderTooHigh, catalog, catalog_entry, classify
from .dynamics import (
    DynamicsError,
    FieldState,
    HamiltonianSpec,
    exact_monitors,
    heavy_top_tensor,
    rigid_body_tensor,
    simulate,
)
from .extension import ExtensionTensor, TensorError, crmhd, leibniz

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_ORDER = 3
EXIT_OBSTRUCTION = 4
EXIT_DIMENSION = 5


class ParseFailure(Exception):
    pass


def load_document(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ParseFailure(f"cannot read tensor document {path}: {err}")
    if not isinstance(doc, dict) or "w" not in doc:
        raise ParseFailure(f"{path}: not a tensor document (missing 'w')")
    return doc


def tensor_from_document(doc: dict) -> ExtensionTensor:
    try:
        return ExtensionTensor.from_json(doc)
    except (KeyError, ValueError, TypeError) as err:
        raise ParseFailure(f"malformed tensor document: {err}")


def dump_document(t: ExtensionTensor, metadata: Optional[dict] = None) -> dict:
    doc = t.to_json()
    for key, value in (metadata or {}).items():
        doc.setdefault(key, value)
    return doc


def _write_json(path: str, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    doc = load_document(args.path)
    try:
        t = tensor_from_document(doc)
    except ParseFailure:
        raise
    except TensorError as err:
        print(f"invalid: {err}")
        return EXIT_INVALID
    flag = "yes" if t.semidirect else "no"
    print(f"valid (order {t.n}, semidirect {flag})")
    return EXIT_OK


def cmd_classify(args) -> int:
    doc = load_document(args.path)
    t = tensor_from_document(doc)
    try:
        label, chain = classify(t)
    except OrderTooHigh as err:
        print(f"error: {err}")
        return EXIT_ORDER
    except ClassificationError as err:
        print(f"error: {err}")
        return EXIT_INVALID
    flag = " (semidirect)" if label.semidirect else ""
    print(f"{label.name}{flag}")
    if args.witness:
        _write_json(args.witness, [b.to_json() for b in chain])
        print(f"witness chain written to {args.witness} ({len(chain)} steps)")
    return EXIT_OK


def _normalized_for_casimir(t: ExtensionTensor):
    """Classify when needed so synthesis sees a normalized tensor."""
    ready = t.is_lower_triangular() and (
        not any(t.slice_diagonal(0)) or t.slice_is_identity(0)
    )
    if ready:
        return t, None
    label = classify(t)[0]
    return _normal_form(t, label), label


def _normal_form(t: ExtensionTensor, label: CaseLabel) -> ExtensionTensor:
    """The catalog form of ``label`` with the input's semidirect flag.

    ``classify`` has already replayed its witness chain on ``t`` and checked
    that it reproduces this entry bit-exactly, so it is not replayed again.
    """
    return ExtensionTensor._of(t.n, t.semidirect, catalog_entry(label).w)


def cmd_casimir(args) -> int:
    doc = load_document(args.path)
    t = tensor_from_document(doc)
    try:
        normal, label = _normalized_for_casimir(t)
        try:
            families = casimir_mod.synthesize_casimirs(normal)
        except casimir_mod.SynthesisObstruction:
            if label is not None:
                raise
            # a removable coboundary can obstruct the raw form; reduce fully
            label = classify(t)[0]
            normal = _normal_form(t, label)
            families = casimir_mod.synthesize_casimirs(normal)
    except OrderTooHigh as err:
        print(f"error: {err}")
        return EXIT_ORDER
    except casimir_mod.SynthesisObstruction as err:
        print(f"obstruction: {err}")
        return EXIT_OBSTRUCTION
    if label is not None:
        print(f"note: families are in the normal-form coordinates of {label.name}")
    for fam in families:
        print(casimir_mod.format_family(fam))
    if args.verify:
        return _verify_families(normal, families, label)
    return EXIT_OK


def _fixture_families(label: CaseLabel) -> Optional[List[casimir_mod.CasimirFamily]]:
    """Table fixtures for the case with this label, if known."""
    override = os.environ.get("LIEX_FIXTURES")
    if override:
        path = os.path.join(override, f"{label.name}{'-sd' if label.semidirect else ''}.json")
        if os.path.exists(path):
            with open(path) as fh:
                docs = json.load(fh)
            return [casimir_mod.CasimirFamily.from_json(d) for d in docs]
        return None
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


def _shift_solvable_family(fam: casimir_mod.CasimirFamily) -> casimir_mod.CasimirFamily:
    """Embed a solvable family into the semidirect tensor (slots shift by 1)."""
    from .polynomials import Poly
    from .scalars import ZERO

    n = fam.n + 1
    terms = []
    for term in fam.terms:
        poly = Poly(n, {(0,) + e: c for e, c in term.poly.terms.items()})
        func = None
        if term.func is not None:
            args = tuple((ZERO,) + u for u in term.func.args)
            func = casimir_mod.FormalFunction(term.func.label, args)
        terms.append(casimir_mod.CasimirTerm(poly, func, term.deriv))
    return casimir_mod.CasimirFamily(tuple(terms), n, True)


def _verify_families(normal, families, label: Optional[CaseLabel]) -> int:
    """Check every family and the fixtures of ``label``, classifying ``normal`` if None."""
    if label is None:
        try:
            label, _ = classify(normal)
        except (ClassificationError, TensorError):
            pass
    fixtures = None if label is None else _fixture_families(label)
    to_check = [(normal, fam) for fam in families]
    if fixtures is not None:
        fixture_tensor = catalog_entry(label)
        if fixture_tensor.w == normal.w:
            fixture_families = families
        else:
            fixture_families = casimir_mod.synthesize_casimirs(fixture_tensor)
        to_check += [(fixture_tensor, fam) for fam in fixtures]
    ok = True
    for tensor, fam in to_check:
        result = bool(casimir_mod.casimir_condition_check(tensor, fam))
        status = "pass" if result else "FAIL"
        ok = ok and result
        print(f"  [{status}] {casimir_mod.format_family(fam)}")
    if fixtures is not None:
        matched = casimir_mod.family_sets_equal(fixture_families, fixtures)
        print(f"table fixtures: {'match' if matched else 'MISMATCH'}")
        ok = ok and matched
    return EXIT_OK if ok else EXIT_INVALID


def _parse_inertia(text: str):
    parts = [Fraction(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ParseFailure("inertia needs three comma-separated values")
    return [float(p) for p in parts]


def cmd_simulate(args) -> int:
    if args.preset == "rigid-body":
        t = rigid_body_tensor()
        h = HamiltonianSpec.rigid_body(_parse_inertia(args.inertia))
        s0 = FieldState.from_vectors([[1.0, 1.0, 1.0]])
    elif args.preset == "heavy-top":
        t = heavy_top_tensor()
        h = HamiltonianSpec.isotropic(2)
        s0 = FieldState.from_vectors([[0.3, -0.2, 0.9], [0.5, 0.1, -0.4]])
    else:
        if not args.path:
            raise ParseFailure("either a tensor document or --preset is required")
        t = tensor_from_document(load_document(args.path))
        if args.hamiltonian:
            with open(args.hamiltonian) as fh:
                hdoc = json.load(fh)
            import numpy as np

            h = HamiltonianSpec(np.array(hdoc["blocks"], dtype=float))
        else:
            h = HamiltonianSpec.isotropic(t.n)
        if args.state:
            with open(args.state) as fh:
                s0 = FieldState.from_vectors(json.load(fh))
        else:
            import numpy as np

            rng = np.random.default_rng(0)
            s0 = FieldState(rng.normal(size=(t.n, 3)))
    try:
        start = time.perf_counter()
        monitors = exact_monitors(t)
        monitor_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        record = simulate(t, h, s0, args.dt, args.steps, monitors,
                          sample_every=max(1, args.steps // 200))
        step_us = (time.perf_counter() - start) * 1e6 / max(1, args.steps)
    except DynamicsError as err:
        print(f"error: {err}")
        return EXIT_DIMENSION
    if args.out:
        record.to_csv(args.out)
    print("monitor            drift")
    for name in sorted(record.drifts):
        print(f"{name:<18} {record.drifts[name]:.3e}")
    print(f"exact monitors {monitor_ms:.2f} ms, RK4 {step_us:.1f} us/step")
    summary = {"dt": args.dt, "steps": args.steps, "drifts": record.drifts,
               "monitor_ms": monitor_ms, "step_us": step_us}
    if args.summary:
        _write_json(args.summary, summary)
    return EXIT_OK


def cmd_catalog(args) -> int:
    try:
        cat = catalog(args.order)
    except OrderTooHigh as err:
        print(f"error: {err}")
        return EXIT_ORDER
    docs = []
    for label, t in cat.entries:
        doc = dump_document(t, {"name": label.name})
        docs.append(doc)
    payload = docs
    if args.out:
        _write_json(args.out, payload)
        print(f"{len(docs)} normal forms written to {args.out}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_leibniz(args) -> int:
    if args.order < 1:
        print("error: order must be at least 1")
        return EXIT_ORDER
    t = leibniz(args.order, semidirect=args.semidirect)
    doc = dump_document(t, {"name": f"leibniz-{args.order}{'-sd' if args.semidirect else ''}"})
    if args.out:
        _write_json(args.out, doc)
        print(f"tensor written to {args.out}")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_crmhd(args) -> int:
    try:
        t = crmhd(Fraction(args.beta))
    except (ValueError, ZeroDivisionError) as err:
        raise ParseFailure(f"bad beta: {err}")
    except TensorError as err:
        print(f"error: {err}")
        return EXIT_INVALID
    doc = dump_document(t, {"name": "crmhd", "beta": args.beta})
    if args.out:
        _write_json(args.out, doc)
        print(f"tensor written to {args.out}")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
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
                   help="re-check every family and compare with the table fixtures")
    p.set_defaults(func=cmd_casimir)

    p = sub.add_parser("simulate", help="integrate the so(3)* realization with drift monitors")
    p.add_argument("path", nargs="?")
    p.add_argument("--preset", choices=["rigid-body", "heavy-top"])
    p.add_argument("--inertia", default="1,2,3", help="rigid-body principal moments")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except TensorError as err:
        print(f"invalid: {err}")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
