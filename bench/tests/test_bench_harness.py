"""Tests of the benchmark's own machinery: tracer, oracles, time limit, inputs."""

import statistics
import sys
from pathlib import Path
from time import thread_time

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import END, PARENT, START, Tracer, _package_modules  # noqa: E402

from liepoisson.classify import catalog  # noqa: E402
from liepoisson.extension import validate  # noqa: E402
from liepoisson.linalg import BasisChange, ExactMatrix  # noqa: E402
from liepoisson.transform import apply  # noqa: E402

TARGETS = ("transform.apply", "linalg.rref", "extension.validate", "classify.classify",
           "scalars.square_free_part", "casimir.synthesize_casimirs")


def _bindings():
    """Every (module, attribute) -> object binding in the loaded package."""
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "liepoisson" or name.startswith("liepoisson.")
            for attr, value in vars(mod).items() if callable(value)}


def test_tracer_wraps_every_binding_and_restores_it():
    _package_modules()  # load every module first, as install does
    before = _bindings()
    original_apply = sys.modules["liepoisson.transform"].apply
    with Tracer(TARGETS):
        # apply is bound in transform, classify and the package namespace
        for mod in ("liepoisson.transform", "liepoisson.classify", "liepoisson"):
            assert getattr(sys.modules[mod], "apply") is not original_apply
    assert _bindings() == before


def test_self_time_never_exceeds_span_duration():
    items = workloads.build_classify_orbits(3)[::30]
    tracer = Tracer(TARGETS, observe={"transform.apply": lambda t: workloads.max_bits(workloads.tensor_entries(t))})
    with tracer:
        run = harness.run_pass(items, workloads.CLASSIFY_LIMIT, after_item=tracer.settle, check=False)
    harness.check_outcomes(items, run.outcomes)
    assert all(o.failure is None for o in run.outcomes)
    spans = tracer.spans
    assert spans and all(s[END] >= s[START] for s in spans)
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    for s, c in zip(spans, child):
        assert c <= s[END] - s[START] + 1e-9
    summary = tracer.summary()
    assert summary["classify.classify"]["calls"] == len(items)
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    assert 0 <= sum(r["self_ms"] for r in summary.values()) <= roots * 1e3 + 1e-6
    assert tracer.observed["transform.apply"] > 0


def test_wrong_oracle_counts_as_failure_and_the_pass_goes_on():
    label, entry = catalog(2).entries[1]
    moved = workloads.transform_tensor(entry, workloads.criterion2_matrix(workloads.random.Random(0), 2))
    other_label, other = catalog(2).entries[0]
    good = workloads._classify_item("good", moved, label, entry)
    wrong_label = workloads._classify_item("wrong-label", moved, other_label, other)
    wrong_form = workloads._classify_item("wrong-form", moved, label, workloads.append_semisimple(entry))
    run = harness.run_pass([wrong_label, wrong_form, good], limit=5000)
    failures = [o.failure for o in run.outcomes]
    assert failures[0].startswith("wrong label")
    assert failures[1] is not None
    assert failures[2] is None


def test_oracle_is_not_timed():
    def slow_check(out):
        end = thread_time() + 0.2
        while thread_time() < end:
            pass
        return None

    item = workloads.Item("cheap", None, lambda: 1, slow_check)
    (outcome,) = harness.run_pass([item], limit=None).outcomes
    assert outcome.failure is None
    assert outcome.seconds < 0.05 and outcome.cost < 10


def test_reference_cost_cancels_a_uniform_slowdown():
    """A call that runs the reference kernel k times costs about k units."""
    def call():
        for _ in range(4):
            harness.reference_kernel()

    item = workloads.Item("four-refs", None, call, lambda out: None)
    run = harness.run_pass([item] * 20, limit=None)
    assert 3.0 <= statistics.median(o.cost for o in run.outcomes) <= 5.0


def test_time_limit_fires_on_the_trial_division_hang():
    w = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    w[2][0][0] = 2 ** 61 - 1
    w[2][1][1] = 1
    t = validate(w)
    item = workloads.Item("hang", t, lambda: workloads.classify_module.classify(t), lambda out: None)
    run = harness.run_pass([item], limit=150)
    (outcome,) = run.outcomes
    assert outcome.failure.startswith("timeout")
    # the limit is 150 reference units, turned into wall-clock seconds with
    # the reference time just before the call
    assert run.wall < 2.0
    assert 0.5 * 150 <= outcome.cost <= 1.5 * 150


def test_generated_tensors_match_the_library_transform():
    rng = workloads.random.Random(7)
    for label, entry in catalog(3).entries:
        m = workloads.dense_integer_matrix(rng, entry.n)
        moved = workloads.transform_tensor(entry, m)
        assert moved == apply(entry, BasisChange(ExactMatrix.from_rows(m)))


def test_inputs_repeat_for_a_seed():
    a = workloads.digest(workloads.build_classify_generic(5))
    assert a == workloads.digest(workloads.build_classify_generic(5))
    assert a != workloads.digest(workloads.build_classify_generic(6))


def test_benchmark_json_declares_the_reported_metrics():
    import json

    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
