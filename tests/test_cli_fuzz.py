"""A derandomized fuzzer for ``liex``: every input ends with a code from the refusal table and one line.

``cli.main`` runs in-process on mutated tensor documents, option values and
option files.  Each call runs under a CPU-time bound.  It must return a code
from the table in ``cli.main`` (or 0), or exit through argparse's own usage
error (code 2).  It must raise nothing else, emit no warning, print at most
one refusal line, and print nothing on stderr but that line.
"""

import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import cpu_seconds_at_most
from liepoisson.classify import catalog
from liepoisson.cli import EXIT_DIMENSION, EXIT_OK, EXIT_PARSE, REFUSALS, main
from liepoisson.extension import append_semisimple, crmhd, leibniz
from liepoisson.scalars import as_scalar, gr

CODES = {EXIT_OK, EXIT_PARSE, EXIT_DIMENSION} | {code for _, code, _ in REFUSALS}
PREFIXES = tuple(f"{prefix}: " for prefix in {"error"} | {prefix for *_, prefix in REFUSALS})
CPU_SECONDS = 10

BASES = [
    leibniz(2).to_json(),
    crmhd(Fraction(5, 2)).to_json(),
    append_semisimple(catalog(3).lookup("n3-case3")).to_json(),
    leibniz(3, semidirect=True).to_json(),
    # past the catalog, and obstructed: exits 3 and 4
    json.loads((Path(__file__).resolve().parent / "data" / "obstructed-order5.json").read_text()),
    # valid, outside the catalog orbits over Q(i): exit 6
    {"n": 3, "semidirect": False,
     "w": [[["0"] * 3] * 3] * 2 + [[["-2", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]]},
]

# JSON text that json.dumps cannot write: a literal past Python's int-string
# limit, one past the float range, one that converts to a float only as inf,
# and arrays nested past the recursion limit
RAW = {
    "@huge-int@": "1" + "0" * 5000,
    "@big-int@": "-1" + "0" * 400,
    "@float-inf@": "1e400",
    "@deep@": "[" * 100_000 + "]" * 100_000,
}
SCALARS = ["0", "1", "-1", "2", "-3", "1/2", "i", "-i", "1+i", "1/2-3/4i", "1/0", "0/0", "1+1/0i", "x", "",
           "1" + "0" * 400, "-1/1" + "0" * 400, "1" * 5000]
JUNK = st.one_of(
    st.sampled_from(SCALARS),
    st.sampled_from([None, True, False, 0, 1, -1, 2, 1.5, 1e200, -1e200, 1e-320, [], {}, [[]], *RAW]),
    st.lists(st.sampled_from(SCALARS), max_size=3),
)


# every bracket law is homogeneous in W, so a scaled bracket stays valid: these
# scales reach entries outside the float range and a complex tensor
SCALES = [gr(1), gr(-1), gr(Fraction(1, 3)), gr(0, 1), gr(10**400), gr(Fraction(1, 10**400))]


def scaled(doc, c):
    return {**doc, "w": [[[str(as_scalar(x) * c) for x in row] for row in plane] for plane in doc["w"]]}


def mutate(data, value):
    """``value`` with one node, drawn from ``data``, replaced, deleted or wrapped in one more array."""
    if not isinstance(value, (list, dict)) or not value:
        return data.draw(JUNK)
    keys = sorted(value) if isinstance(value, dict) else list(range(len(value)))
    # a key holding an array ("w", "blocks") is drawn four times as often as a scalar key
    key = data.draw(st.sampled_from(keys + 3 * [k for k in keys if isinstance(value[k], list)]))
    how = data.draw(st.sampled_from(["descend", "descend", "descend", "replace", "delete", "wrap"]))
    copy = dict(value) if isinstance(value, dict) else list(value)
    if how == "descend":
        copy[key] = mutate(data, value[key])
    elif how == "replace":
        copy[key] = data.draw(JUNK)
    elif how == "delete":
        del copy[key]
    else:
        copy[key] = [value[key]]
    return copy


def json_file(data, path, value, mutations=3):
    """Write ``value``, mutated up to ``mutations`` times, to ``path``; its text may then be cut short or
    turned invalid UTF-8."""
    for _ in range(data.draw(st.integers(0, mutations))):
        value = mutate(data, value)
    text = json.dumps(value)
    for name, raw in RAW.items():
        text = text.replace(json.dumps(name), raw)
    blob = text.encode()
    damage = data.draw(st.sampled_from(["none"] * 8 + ["truncate", "invalid-utf8"]))
    if damage == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob)))]
    elif damage == "invalid-utf8":
        blob = blob[:1] + b"\xff\xfe" + blob[1:]
    with open(path, "wb") as fh:
        fh.write(blob)
    return path


def a_path(data, workdir, name, value):
    """A JSON file made from ``value``, or a path that cannot be read: missing, or a directory."""
    kind = data.draw(st.sampled_from(["file"] * 8 + ["missing", "directory"]))
    if kind == "missing":
        return os.path.join(workdir, "no-such-file.json")
    if kind == "directory":
        return workdir
    return json_file(data, os.path.join(workdir, name), value)


def check(argv):
    """Run ``liex argv`` in-process and hold it to the rules of the module docstring."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(), \
            cpu_seconds_at_most(CPU_SECONDS):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as usage:
            # argparse's own usage error: a usage line and one `error:` line
            assert usage.code == EXIT_PARSE, (argv, usage.code)
            assert err.getvalue().splitlines()[-1].startswith("liex"), (argv, err.getvalue())
            return EXIT_PARSE
    assert code in CODES, (argv, code)
    lines = (out.getvalue() + err.getvalue()).splitlines()
    assert sum(line.startswith(PREFIXES) for line in lines) <= 1, (argv, lines)
    stderr = err.getvalue().splitlines()
    assert stderr == [] or (code == EXIT_PARSE and len(stderr) == 1 and stderr[0].startswith("error: ")), \
        (argv, stderr)
    return code


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as path:
        yield path


FUZZ = settings(derandomize=True, database=None, max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(data=st.data())
def test_mutated_tensor_documents(workdir, data):
    base = scaled(data.draw(st.sampled_from(BASES)), data.draw(st.sampled_from(SCALES)))
    # the declared semidirect: kept, set either way (a contradiction of the entries is a
    # parse error), or dropped (derived from the entries)
    flag = data.draw(st.sampled_from(["keep", True, False, "drop"]))
    if flag == "drop":
        del base["semidirect"]
    elif flag != "keep":
        base["semidirect"] = flag
    doc = a_path(data, workdir, "t.json", base)
    codes = [check(["validate", doc]),
             check(["classify", doc, "--witness", os.path.join(workdir, "w.json")]),
             check(["casimir", doc]),
             check(["casimir", doc, "--verify"]),
             check(["simulate", doc, "--steps", "3", "--dt", "0.01"])]
    # the document is read the same way by every command
    assert len({code == EXIT_PARSE for code in codes}) == 1


@FUZZ
@given(data=st.data())
def test_simulate_on_scaled_brackets_and_states(workdir, data):
    """Valid brackets scaled past the float range, states and steps large enough to overflow, and
    states and Hamiltonians holding NaN or Infinity (JSON literals that json reads as floats)."""
    base = scaled(data.draw(st.sampled_from(BASES)), data.draw(st.sampled_from(SCALES)))
    n = len(base["w"])
    argv = ["simulate", json_file(data, os.path.join(workdir, "t.json"), base, mutations=0)]
    if data.draw(st.booleans()):
        size = data.draw(st.sampled_from([1.0, 1e10, 1e200, math.nan, math.inf]))
        argv += ["--state", a_path(data, workdir, "s.json", [[size, 0.5, -0.25]] * n)]
    if data.draw(st.booleans()):
        entry = data.draw(st.sampled_from([1.0, math.nan, math.inf, -math.inf]))
        blocks = [[[[entry if i == j and a == b else 0.0 for b in range(3)] for a in range(3)] for j in range(n)]
                  for i in range(n)]
        argv += ["--hamiltonian", a_path(data, workdir, "h.json", {"blocks": blocks})]
    argv += ["--steps", data.draw(st.sampled_from(["1", "3", "20"]))]
    argv += ["--dt", data.draw(st.sampled_from(["0.01", "1", "1e100"]))]
    check(argv)


ORDERS = st.sampled_from(["-1", "0", "1", "2", "4", "5", "9", "2.5", "x", ""])
BETAS = st.sampled_from(["1", "5/2", "-3", "0", "1/0", "1e400", "1e-400", "nan", "inf", "i", "x", ""])
INERTIAS = st.sampled_from(["1,2,3", "5,7,11", "-1,2,3", "1,0,3", "1,2", "1,2,3,4", "1e-400,1,1", "1e400,1,1",
                            "1/0,1,1", "nan,1,1", "inf,1,1", "x", ""])
DTS = st.sampled_from(["0.01", "1", "0", "-1", "nan", "inf", "1e308", "1e-320", "x"])
STEPS = st.sampled_from(["1", "3", "0", "-2", "2.5", "x"])
SIMULATE_OPTIONS = {"--dt": DTS, "--inertia": INERTIAS, "--steps": STEPS}


@FUZZ
@given(data=st.data())
def test_bad_option_values(workdir, data):
    command = data.draw(st.sampled_from(["catalog", "leibniz", "crmhd", "simulate", "simulate", "write"]))
    if command == "catalog":
        check(["catalog", "--order", data.draw(ORDERS)])
    elif command == "leibniz":
        check(["leibniz", "--order", data.draw(ORDERS), *data.draw(st.sampled_from([[], ["--semidirect"]]))])
    elif command == "crmhd":
        check(["crmhd", "--beta", data.draw(BETAS)])
    elif command == "simulate":
        argv = ["simulate", "--steps", "3", "--dt", "0.01"]
        source = data.draw(st.sampled_from(["rigid-body", "rigid-body", "heavy-top", "document", "none"]))
        if source in ("rigid-body", "heavy-top"):
            argv += ["--preset", source]
        elif source == "document":
            argv.append(json_file(data, os.path.join(workdir, "t.json"), leibniz(2).to_json()))
        # one or two options drawn, each given again: argparse keeps the last value
        for option in data.draw(st.lists(st.sampled_from(sorted(SIMULATE_OPTIONS)), min_size=1, max_size=2,
                                         unique=True)):
            argv += [option, data.draw(SIMULATE_OPTIONS[option])]
        check(argv)
    else:
        # an output path that cannot be written: a missing directory, or a directory itself
        target = data.draw(st.sampled_from([os.path.join(workdir, "no-such-dir", "o"), workdir]))
        argv = data.draw(st.sampled_from([
            ["catalog", "--order", "2", "--out"], ["leibniz", "--order", "2", "--out"], ["crmhd", "--out"],
            ["simulate", "--preset", "heavy-top", "--steps", "2", "--out"],
            ["simulate", "--preset", "heavy-top", "--steps", "2", "--summary"],
        ]))
        assert check([*argv, target]) == EXIT_PARSE
