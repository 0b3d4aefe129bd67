"""The contract of the installed ``liex``: each command, the exit code it must give and what it must print.

CI runs it after ``pip install ".[dynamics]"`` from a directory outside the checkout, as ``cd "$(mktemp -d)" &&
python <checkout>/tests/console_script.py``.  It prints ``exit N: liex ...`` per command, then names each check
that fails and exits 1, or exits 0.  The statement census runs the same :func:`run` in process, via ``cli.main``.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 20   # seconds per command: a hang in exact arithmetic (the prime 2^61 - 1 below) fails instead of stalling
PROBES = (
    # the exact core loads without numpy, which only `liex simulate` imports, and no layer loads dataclasses;
    # the Casimir layer and its tables load with `liex casimir`, the conic solver with a square-class repair
    "import sys, liepoisson.cli; sys.exit(next((f'import liepoisson.cli loaded {m}' for m in ('numpy', 'dataclasses',"
    " 'liepoisson.casimir', 'liepoisson.tables', 'liepoisson.polynomials', 'liepoisson.conics') if m in sys.modules),"
    " None))",
    # every name in the __all__ of the installed liepoisson and liepoisson.transform resolves
    "import sys, liepoisson, liepoisson.transform as t; sys.exit(next((f'{m.__name__}.{n} does not resolve'"
    " for m in (liepoisson, t) for n in m.__all__ if getattr(m, n, None) is None), None))",
)


def dump(doc, name):
    Path(name).write_text(json.dumps(doc))


def load(name):
    return json.loads(Path(name).read_text())


def run(liex, failures):
    """Every command of the contract and its checks, in the current directory; each failure goes to ``failures``.

    ``liex(want, *argv, closed=False)`` runs ``liex argv``, records a failure when it exits with another code than
    ``want``, and returns its standard output; ``closed`` gives it a standard output whose reader has stopped.
    """
    from liepoisson.classify import catalog
    from liepoisson.extension import ExtensionTensor, append_semisimple
    from liepoisson.linalg import BasisChange, ExactMatrix
    from liepoisson.transform import apply, apply_chain

    def check(ok, why):
        if not ok:
            failures.append(why)

    for command in ("crmhd --beta 5/2 --out c.json", "casimir c.json --verify", "leibniz --order 8 --out l.json",
                    "casimir l.json --verify", "leibniz --order 4 --out l4.json"):
        liex(0, *command.split())
    # the semidirect constructor, read back through the checking door, meets the semidirect
    # table fixtures: the shifted solvable table plus the extra family
    liex(0, "leibniz", "--order", "4", "--semidirect", "--out", "l4sd.json")
    check("table fixtures: match" in liex(0, "casimir", "l4sd.json", "--verify"), "l4sd.json misses its fixtures")
    # BasisChange.from_json and apply_chain replay classify's witness chains onto the catalog entry of the
    # printed label, with the semisimple slot appended for a "(semidirect)" label: Leibniz 4 and semidirect
    # Leibniz 4 as written (the normal form n4-case4b, so no step), then each moved by a lower-triangular
    # change; the solvable one gives a unit shear and a general step, the semidirect one its unit split, a
    # general step, and then lifted ones; no chain holds an identity step
    moves = {"4": [[1, 0, 0, 0], [2, 1, 0, 0], [0, -1, 1, 0], [1, 0, 3, 1]],
             "4sd": [[2, 0, 0, 0, 0], [1, 2, 0, 0, 0], [0, -1, 2, 0, 0], [1, 0, 3, 2, 0], [0, 1, 0, 1, 2]]}
    for t, m in moves.items():
        moved = apply(ExtensionTensor.from_json(load(f"l{t}.json")), BasisChange(ExactMatrix.from_rows(m)))
        dump(moved.to_json(), f"m{t}.json")
    normal = {label.name: t for label, t in catalog(4).entries}
    for t in ("l4", "m4", "l4sd", "m4sd"):
        label = liex(0, "classify", f"{t}.json", "--witness", f"w-{t}.json").partition("\n")[0]
        name, _, suffix = label.partition(" ")
        chain = [BasisChange.from_json(step) for step in load(f"w-{t}.json")]
        want = normal.get(name) if suffix in ("", "(semidirect)") else None
        check(want is not None and not any(b.m.is_identity() for b in chain) and apply_chain(
            ExtensionTensor.from_json(load(f"{t}.json")), chain) == (append_semisimple(want) if suffix else want),
            f"w-{t}.json does not replay onto {label!r}, or holds an identity step")
    check(load("w-l4.json") == load("w-l4sd.json") == [], "w-l4.json or w-l4sd.json is not a 0-step chain")
    # every catalog form of orders 1-4, with and without the semisimple slot, is a fixed point:
    # classify takes it to its own label with an empty witness chain; and the built-in tables,
    # the one fixture source, match the families synthesized on each form
    for order in (1, 2, 3, 4):
        for label, t in catalog(order).entries:
            for name, form in ((label.name, t), (f"{label.name}-sd", append_semisimple(t))):
                dump(form.to_json(), f"{name}.json")
                check("(0 steps)" in liex(0, "classify", f"{name}.json", "--witness", "w.json"), f"{name} moves")
                check("table fixtures: match" in liex(0, "casimir", f"{name}.json", "--verify"), f"{name} misses")
    # a step's optional "scale" multiplies the last column of its matrix, and the step is written back
    # with "scale": "1"
    b = BasisChange.from_json({"m": [["1", "1"], ["0", "1"]], "scale": "2"})
    check(b.m == ExactMatrix.from_rows([[1, 2], [0, 2]]) and b.to_json()["scale"] == "1", f"not folded: {b.to_json()}")
    # the RK4 loop conserves every monitor within the source-tree test's bound
    liex(0, "simulate", "--preset", "heavy-top", "--dt", "0.001", "--steps", "2000", "--summary", "s.json")
    check(all(v < 1e-8 for v in load("s.json")["drifts"].values()), "heavy-top drifts above 1e-8")
    # one command for each exit code of the refusal table in liepoisson/cli.py
    def tail(*rows):   # an order-3 document whose only nonzero slice is W_2, with the first two rows ``rows``
        z = ["0", "0", "0"]
        return {"n": 3, "semidirect": False, "w": [[z, z, z], [z, z, z], [*([str(x) for x in r] for r in rows), z]]}

    dump({"n": 2, "semidirect": False, "w": [[["0", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]]]}, "asymmetric.json")
    dump({"n": 1, "semidirect": True, "w": [[["1+1i"]]]}, "complex.json")
    dump(tail([-2, 0, 0], [0, 1, 0]), "anisotropic.json")
    for want, command in ((0, "validate c.json"), (1, "validate asymmetric.json"), (2, "crmhd --beta 0"),
                          (2, "leibniz --order 101"), (3, "catalog --order 5"), (0, "leibniz --order 5 --out l5.json"),
                          (3, "classify l5.json"), (5, "simulate complex.json --steps 3"),
                          (6, "classify anisotropic.json")):
        liex(want, *command.split())
    liex(4, "casimir", str(ROOT / "tests" / "data" / "obstructed-order5.json"))
    # abelian plus the bare base bracket, W_1^{11} = 1: lower-triangular with two blocks, and slice 1,
    # the only one with a trace, has the eigenvalues 0 and 1, so the unit split finds no unit and refuses it
    dump({"n": 2, "semidirect": True, "w": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]]}, "two-block.json")
    # Q(i) x Q(i) in the basis (1, 1), (1, 0): slot 0 is the unit and W^(0) = I, but the kernel of the
    # slice traces is no ideal, so the unit split refuses it as two blocks before any strip
    dump({"n": 2, "w": [[["1", "0"], ["0", "0"]], [["0", "1"], ["1", "1"]]]}, "coupled-unit.json")
    for doc in ("two-block.json", "coupled-unit.json"):
        errors = [line for line in liex(6, "classify", doc).splitlines() if line.startswith("error:")]
        check(any("distinct eigenvalues" in line for line in errors), f"{doc} is not refused as two blocks")
    # synthesis takes one block in normal position, so liex casimir classifies the sum and refuses it too
    liex(6, "casimir", "two-block.json")
    # n3-case2 with slot 0 scaled by the prime 2^61 - 1: the congruence's size reduction
    # leaves the prime unfactored, so the tail entries 2p and -p/2 cost no trial division past 2^16
    p = 2 ** 61 - 1
    dump(tail([0, p, 0], [p, 0, 0]), "large-prime.json")
    check(liex(0, "classify", "large-prime.json").splitlines()[:1] == ["n3-case2"], "large-prime.json is not n3-case2")
    # a tail W_2^{00} = -2p, W_2^{11} = p: the square-class repair takes the class of the product
    # -2p^2 from its factors, so the prime is never factored and the tail is refused at once
    dump(tail([-2 * p, 0, 0], [0, p, 0]), "shared-prime.json")
    check("tail cannot be scaled" in liex(6, "classify", "shared-prime.json"), "shared-prime.json is not refused")
    # without its "semidirect" key a document's flag is derived from the entries
    dump({key: value for key, value in load("c.json").items() if key != "semidirect"}, "c-nokey.json")
    liex(0, "casimir", "c-nokey.json", "--verify")
    # a reader that stops early ends liex without a traceback
    liex(1, "catalog", "--order", "4", closed=True)


def subprocess_liex(command, failures):
    """``liex`` for :func:`run` that runs ``command`` and prints each exit code; a traceback on stderr fails."""

    def liex(want, *argv, closed=False):
        shown = " ".join(("liex",) + argv)
        read, write = os.pipe()
        os.close(read)   # the closed mode's reader stops before the command writes
        with open(write, "wb") as pipe:
            result = subprocess.run([*command, *argv], stdout=pipe if closed else subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True, timeout=TIMEOUT)
        print(f"exit {result.returncode}: {shown}", flush=True)
        sys.stderr.write(result.stderr)
        if result.returncode != want or "Traceback" in result.stderr:
            failures.append(f"{shown}: exit {result.returncode}, expected {want}")
        return result.stdout or ""

    return liex


def main():
    spec = importlib.util.find_spec("liepoisson")
    if spec is None or ROOT in Path(spec.origin).resolve().parents:
        return f"liepoisson imports from {spec and spec.origin}, not from an installed copy outside {ROOT}"
    entry = shutil.which("liex")
    if entry is None:
        return "liex is not on PATH"
    failures = []
    for probe in PROBES:
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=TIMEOUT)
        if result.returncode:
            failures.append(result.stderr.strip())
    run(subprocess_liex([entry], failures), failures)
    return "\n".join(f"failed: {failure}" for failure in failures) or None


if __name__ == "__main__":
    sys.exit(main())
