"""Benchmark of the liepoisson pipeline.

Usage, from the root of a checkout::

    python3 bench/run.py --workload classify-orbits --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all              # every workload, one row each

(with ``all`` the workloads share one process, so each row's peak_rss_mb is
the high-water mark up to that workload).

Workloads (why each is in the benchmark: see BENCHMARK.json):

* ``classify-orbits``  -- criterion-2 distribution: moved catalog normal forms,
  classified and replayed bit-exactly.
* ``classify-generic`` -- dense GL_n(Z) conjugations, semidirect forms and
  coefficient heights up to primes above 2^60.
* ``casimir-synth``    -- Casimir synthesis on Leibniz, catalog and CRMHD tensors.
* ``simulate``         -- exact quadratic Casimir monitors plus an RK4 run.

Inputs come from ``--seed`` and are finished before timing starts.  With
``--trace 0`` the run times whole rounds of at least 100 items for at least
``--seconds`` seconds (and at least two rounds) and reports the end-to-end
metrics.  With ``--trace 1`` it runs one round untraced and one round with
every listed public function wrapped by :mod:`tracer`, and reports calls and
self time per function plus the probes.  Every output is checked against an
oracle that does not come from the code under test; a wrong output, an
exception or a time-limit overrun counts as a failed item and does not stop
the run.  Oracles run outside the timed calls and outside the tracer.

Every time is CPU time of the benchmark's one thread (``time.thread_time``).
Latency and throughput are also given in reference units: each call's time
divided by that of a fixed stdlib kernel run next to it (see :mod:`harness`),
which cancels most of a shared host's swings in speed; those are the bounded
metrics.  setup_s is a cost in reference units as well, turned into seconds
at a fixed rate (``harness.REFERENCE_SECONDS``).  Per-item time limits are
in reference units too.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (machine, input
digest, failures, overruns) is written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import statistics
import sys
from pathlib import Path
from time import thread_time

from harness import (REFERENCE_SECONDS, check_outcomes, item_medians, machine, peak_rss_mb, percentile,
                     reference_seconds, run_pass)
from tracer import Tracer

# ``workloads`` imports liepoisson, so it is imported inside the functions
# below, after setup_sample has timed the package's own import.

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"
WORKLOADS = ("classify-orbits", "classify-generic", "casimir-synth", "simulate")

# setup_s is the median of set-up samples spread over the run, one before
# the inputs are built and one after every timed round (so at least three).
# A sample is the cheapest of SETUP_TRIES set-ups in a row, each in
# reference units, which drops the ones another tenant interrupted.  Raw CPU
# seconds of a set-up follow the host's load (whole 10-run medians moved by
# half between two sets), so setup_s is that cost turned into seconds at the
# fixed rate harness.REFERENCE_SECONDS; the raw seconds are setup_cpu_s.
SETUP_TRIES = 4
MIN_ROUNDS = 2

# The public functions the traced run wraps, as "<module>.<function>".
TRACED = (
    "transform.apply",
    "extension.validate",
    "linalg.simultaneous_triangularize",
    "linalg.eigenvalues_gaussian",
    "linalg.rref",
    "linalg.null_space",
    "scalars.square_free_part",
    "scalars.gaussian_factor",
    "conics.represent_binary",
    "conics.isotropic_ternary",
    "transform.congruence_normalize",
    "transform.normalize_w0_to_identity",
    "classify.classify",
    "casimir.synthesize_casimirs",
    "casimir.build_coextension",
    "casimir.casimir_condition_check",
    "linalg.pseudoinverse",
    "casimir.quadratic_casimir_basis",
    "dynamics.exact_monitors",
    "dynamics.simulate",
)

# The bounded metrics of BENCHMARK.json.  Latency and throughput are in
# reference units (see harness), setup_s too at a fixed rate (see
# SETUP_TRIES): the same figures in CPU milliseconds swing
# with the load other tenants put on a shared host, far past any useful
# bound, while the host's speed cancels out of a cost in reference units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_items_per_kref": "items/kref",
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
    "peak_rss_mb": "MB",
}
# Printed and recorded, but not in the final JSON line: the CPU-time forms of
# latency, throughput and set-up (too noisy to bound on a shared host), the time of
# one reference unit, and metrics that apply to one kind of workload only or
# (failed share) are zero on most workloads.
REPORTED_UNITS = {
    "throughput_items_per_s": "items/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "reference_ms": "ms",
    "setup_cpu_s": "s",
    "failed_share": "ratio",
    "witness_max_bits": "bits",
    "rk4_steps_per_s": "steps/s",
    "max_rel_drift": "ratio",
}
# Every workload reports every per-layer metric.  A 0 there means "not
# reached": the workload never calls that function, never calls
# transform.apply (exact.max_bits) or has no float states (the eom_rhs
# probe).  It is not a best value; compare a per-layer figure only on the
# workloads that reach the function.
PER_LAYER_UNITS = {f"{name}.{metric}": unit for name in TRACED
                   for metric, unit in (("calls", "count"), ("self_ms", "ms"))}
PER_LAYER_UNITS.update({
    "scalars.muladd_ns": "ns",
    "exact.max_bits": "bits",
    "trace.overhead_share": "ratio",
    "dynamics.eom_rhs.per_call_us": "us",
})


def setup_sample(tries: int = SETUP_TRIES):
    """Cost in reference units and CPU seconds of importing liepoisson afresh
    and filling its catalog caches, the cheapest of ``tries`` set-ups in a row.

    numpy, a dependency shared with the interpreter's other users, is
    imported once before timing.  The liepoisson modules loaded before the
    sample are put back afterwards, so the inputs built from them keep
    working and a sample can be taken in the middle of a run.
    """
    import numpy  # noqa: F401

    def loaded():
        return {m: mod for m, mod in sys.modules.items() if m == "liepoisson" or m.startswith("liepoisson.")}

    before = loaded()
    samples = []
    ref = reference_seconds()
    for _ in range(tries):
        for name in loaded():
            del sys.modules[name]
        start = thread_time()
        pkg = importlib.import_module("liepoisson")
        for order in (1, 2, 3, 4):
            pkg.catalog(order)
        seconds = thread_time() - start
        after = reference_seconds()
        samples.append((seconds / ((ref + after) / 2), seconds))
        ref = after
    if before:
        for name in loaded():
            del sys.modules[name]
        sys.modules.update(before)
    return min(samples)


def muladd_ns(items, seed: int, pairs: int = 256, reps: int = 9) -> float:
    """Cost of a Q(i) ``a*b+c`` on operands drawn from the workload's own tensors."""
    from workloads import tensor_entries

    values = [x for item in items for x in tensor_entries(item.tensor) if x]
    rng = random.Random(f"muladd:{seed}")
    triples = [(rng.choice(values), rng.choice(values), rng.choice(values)) for _ in range(pairs)]
    times = []
    for _ in range(reps):
        start = thread_time()
        for a, b, c in triples:
            a * b + c
        times.append(thread_time() - start)
    return statistics.median(times) / pairs * 1e9


def eom_rhs_us(items, reps: int = 5) -> float:
    """Cost of one ``dynamics.eom_rhs`` at the workload's initial states (0 without states)."""
    from liepoisson.dynamics import eom_rhs

    sims = [item for item in items if item.tags.get("kind") == "simulate"]
    if not sims:
        return 0.0
    times = []
    for _ in range(reps):
        start = thread_time()
        for item in sims:
            eom_rhs(item.tensor, item.tags["h"], item.tags["s0"])
        times.append(thread_time() - start)
    return statistics.median(times) / len(sims) * 1e6


def end_to_end(items, run, setup_samples) -> dict:
    """End-to-end metrics of a pass of whole rounds.

    Latencies are percentiles over the items of each item's median cost
    (or CPU time) across rounds, failed items at what they took.
    Throughput is the verified items of a round per thousand reference
    units (or per CPU-second) of a round, a round's total being the sum of
    those per-item medians.
    """
    from workloads import STEPS, witness_max_bits

    outcomes = run.outcomes
    refs = item_medians(outcomes)
    ms = [s * 1e3 for s in item_medians(outcomes, "seconds")]
    verified = [o for o in outcomes if o.failure is None]
    per_round = len(verified) / run.rounds
    metrics = {
        "setup_s": statistics.median(cost for cost, _ in setup_samples) * REFERENCE_SECONDS,
        "throughput_items_per_kref": per_round / (sum(refs) / 1e3),
        "latency_p50_ref": statistics.median(refs),
        "latency_p90_ref": percentile(refs, 90),
        "peak_rss_mb": peak_rss_mb(),
        "throughput_items_per_s": per_round / (sum(ms) / 1e3),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": percentile(ms, 90),
        "reference_ms": statistics.median(o.ref for o in outcomes) * 1e3,
        "setup_cpu_s": statistics.median(seconds for _, seconds in setup_samples),
        "failed_share": (len(outcomes) - len(verified)) / len(outcomes),
    }
    first = [o for o in verified if o.round == 0]  # the outputs kept by run_pass
    kind = items[0].tags["kind"]
    if kind == "classify":
        metrics["witness_max_bits"] = max((witness_max_bits(o.output[1]) for o in first), default=0)
    if kind == "simulate":
        sim_seconds = sum(o.output[2] for o in first)
        metrics["rk4_steps_per_s"] = STEPS * len(first) / sim_seconds if sim_seconds else 0.0
        metrics["max_rel_drift"] = max(max(o.output[1].drifts.values()) for o in first) if first else 0.0
    return metrics


def per_layer(items, seed: int, untraced, traced, tracer) -> dict:
    metrics = {}
    for name, row in tracer.summary().items():
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_ms"] = row["self_ms"]
    metrics["scalars.muladd_ns"] = muladd_ns(items, seed)
    metrics["exact.max_bits"] = tracer.observed["transform.apply"]
    metrics["trace.overhead_share"] = traced.cost / untraced.cost - 1.0
    metrics["dynamics.eom_rhs.per_call_us"] = eom_rhs_us(items)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, setup_samples: list) -> dict:
    from workloads import BUILDERS, LIMITS, digest, max_bits, tensor_entries

    items = BUILDERS[name](seed)
    limit = LIMITS[name]
    record = {"workload": name, "seed": seed, "trace": int(trace), "items_per_round": len(items),
              "input_digest": digest(items), "time_limit_ref": limit}
    if not trace:
        run = run_pass(items, limit, seconds=seconds, min_rounds=MIN_ROUNDS,
                       after_round=lambda: setup_samples.append(setup_sample()))
        passes = [run]
        record["metrics"] = end_to_end(items, run, setup_samples)
        record["setup_samples_ref_s"] = list(setup_samples)
        record["rounds"] = run.rounds
        record["wall_s"] = run.wall
        medians = item_medians(run.outcomes)
        slowest = sorted(range(len(items)), key=medians.__getitem__, reverse=True)[:8]
        record["slowest_ref"] = [[items[i].name, medians[i]] for i in slowest]
    else:
        untraced = run_pass(items, limit)
        tracer = Tracer(TRACED, observe={"transform.apply": lambda t: max_bits(tensor_entries(t))})

        def enter(index):
            tracer.item = index

        # the oracles run after the tracer is gone, so they add no spans
        with tracer:
            traced = run_pass(items, limit, before_item=enter, after_item=tracer.settle, check=False)
        check_outcomes(items, traced.outcomes)
        passes = [untraced, traced]
        record["metrics"] = per_layer(items, seed, untraced, traced, tracer)
        record["wall_s"] = traced.wall
        RESULTS.mkdir(parents=True, exist_ok=True)
        spans_path = RESULTS / f"{name}-seed{seed}.spans.json"
        tracer.write(str(spans_path))
        record["spans"] = str(spans_path.relative_to(ROOT))
    outcomes = [o for p in passes for o in p.outcomes]
    failures = sorted({(items[o.item].name, o.failure) for o in outcomes if o.failure})
    record["attempted"] = len(outcomes)
    record["failed"] = sum(1 for o in outcomes if o.failure)
    record["overruns"] = sorted({item for item, why in failures if why.startswith("timeout")})
    record["wrong"] = [[item, why] for item, why in failures if not why.startswith("timeout")]
    return record


def print_table(records, units, one_metric_per_line: bool) -> None:
    names = [m for m in units if any(m in r["metrics"] for r in records)]
    if one_metric_per_line:
        width = max(len(m) for m in names)
        for r in records:
            print(f"# {r['workload']}")
            for m in names:
                print(f"  {m:<{width}}  {r['metrics'][m]:>14.6g} {units[m]}")
        return
    cols = ["workload"] + [f"{m} [{units[m]}]" for m in names]
    rows = [[r["workload"]] + [f"{r['metrics'][m]:.6g}" if m in r["metrics"] else "-" for m in names]
            for r in records]
    widths = [max(len(c), *(len(row[k]) for row in rows)) for k, c in enumerate(cols)]
    for row in [cols] + rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "liepoisson" / "__init__.py").is_file():
        print(f"error: no liepoisson sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    setup_samples = [setup_sample()]
    import liepoisson

    if Path(liepoisson.__file__).resolve().parent != (src / "liepoisson").resolve():
        print(f"error: imported liepoisson from {liepoisson.__file__}, not from {src}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    info = machine()
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, trace, setup_samples)
        record["machine"] = info
        records.append(record)
        RESULTS.mkdir(parents=True, exist_ok=True)
        with open(RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(record, fh, indent=1, default=str)
        print(f"# {name}: seed {args.seed}, input digest {record['input_digest'][:16]}, "
              f"{record['attempted']} items, {record['failed']} failed")
        if record["overruns"]:
            print(f"#   overran {record['time_limit_ref']:g} ref: {', '.join(record['overruns'])}")
        for item, why in record["wrong"]:
            print(f"#   WRONG {item}: {why}")
    print(f"# machine: {info['nproc']} cpus, {info['cpu']}, python {info['python']}, numpy {info['numpy']}")

    print_table(records, PER_LAYER_UNITS if trace else dict(END_TO_END_UNITS, **REPORTED_UNITS), trace)
    declared = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    if len(records) == 1:
        metrics = {m: {"value": records[0]["metrics"][m], "unit": u} for m, u in declared.items()}
    else:
        metrics = {f"{r['workload']}/{m}": {"value": r["metrics"][m], "unit": u}
                   for r in records for m, u in declared.items()}
    print(json.dumps({
        "correct": not any(r["wrong"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
