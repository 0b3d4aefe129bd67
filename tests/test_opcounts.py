"""Operation counts as a performance gate.

Wall time on a shared host swings too much to gate a change on, but the
number of calls a seeded pass makes to the package's hot functions does not
move with the host.  ``tests/data/opcounts.json`` records, for one seeded
pass of four benchmark workloads (inputs from ``bench/workloads.py``), the
calls cProfile counts to about eight functions each; simulate also counts
NumPy's ``ndarray.dot`` and ``ndarray.reshape``, the built-in methods of its
step loop.  A count that rises fails the test; one that falls passes and
prints the new numbers, to be written into the file.  The counts are taken
in two subprocesses with different ``PYTHONHASHSEED`` values, which must
agree: a count that follows string hashing would gate nothing.

Run ``python tests/test_opcounts.py`` to print the current counts as JSON.
"""

import cProfile
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "data" / "opcounts.json"


def resolve(name):
    """cProfile's key for "package.module:Qual.name": a function, a property's getter,
    or a method of a built-in type such as ``numpy:ndarray.dot``."""
    module, qualname = name.split(":")
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    obj = obj.fget if isinstance(obj, property) else obj
    if hasattr(obj, "__code__"):
        code = obj.__code__
        return code.co_filename, code.co_firstlineno, code.co_name
    # a built-in method has no code object: cProfile keys it by its label
    owner = obj.__objclass__
    return "~", 0, f"<method '{obj.__name__}' of '{owner.__module__}.{owner.__qualname__}' objects>"


def count_ops(record):
    """Calls to each recorded function over one pass of each recorded workload, as cProfile counts them."""
    import workloads

    counts = {}
    for workload, names in record["counts"].items():
        items = workloads.BUILDERS[workload](record["seed"])
        profile = cProfile.Profile()
        profile.enable()
        for item in items:
            item.call()
        profile.disable()
        profile.create_stats()
        calls = {key: stat[1] for key, stat in profile.stats.items()}
        counts[workload] = {name: calls.get(resolve(name), 0) for name in names}
    return counts


def test_operation_counts_do_not_rise():
    record = json.loads(RECORD.read_text())
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    runs = [subprocess.Popen([sys.executable, __file__], env=dict(env, PYTHONHASHSEED=seed),
                             stdout=subprocess.PIPE, text=True) for seed in ("0", "1")]
    outputs = [run.communicate(timeout=120)[0] for run in runs]
    assert all(run.returncode == 0 for run in runs)
    counts, other = (json.loads(out) for out in outputs)
    assert counts == other, "operation counts depend on PYTHONHASHSEED"
    risen = {(w, name): (record["counts"][w][name], n) for w, row in counts.items() for name, n in row.items()
             if n > record["counts"][w][name]}
    assert not risen, f"operation counts rose (recorded, now): {risen}"
    if counts != record["counts"]:
        print("operation counts fell; the new counts for tests/data/opcounts.json:")
        print(json.dumps(counts, indent=2))


if __name__ == "__main__":
    print(json.dumps(count_ops(json.loads(RECORD.read_text()))))
