"""Self-tests of the benchmark: span algebra, repeatable counts, declared names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import LAYER_METRICS, Tracer, nesting_errors, self_times  # noqa: E402

TINY_BOOST = run.Workload(
    why="tiny selfieboost run with retry escalation",
    gen=("--m", "300", "--d", "5"),
    train=("--hidden", "8", "--rho", "0.1", "--T", "4", "--n", "64", "--sgd-steps", "50",
           "--threads", "1"),
)
TINY_ADA = run.Workload(
    why="tiny AdaBoost run",
    gen=("--m", "300", "--d", "5"),
    train=("--algo", "adaboost", "--hidden", "2", "--T", "5", "--n", "64", "--sgd-steps", "30"),
)
COUNTS = [
    name for name, (unit, _better, _spans) in LAYER_METRICS.items()
    if name.startswith("boost.") and unit in ("count", "ratio")
] + ["data.realize.attempts"]


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    """Two traced and one untraced pipeline of each tiny workload."""
    runner = run.Runner(42, "selftest", work=tmp_path_factory.mktemp("work"))
    out = {}
    for name, w in (("boost", TINY_BOOST), ("ada", TINY_ADA)):
        records = [runner.pipeline(w, trace)[0] for trace in (True, True, False)]
        assert all(r is not None for r in records)
        out[name] = records
    return out


def _layers(record):
    return run.traced_layers([record], [record])


def test_self_time_on_synthetic_spans():
    spans = [
        (1, 0, "a", 0, 100, None),
        (2, 1, "b", 10, 40, None),
        (3, 1, "c", 50, 60, None),
        (4, 2, "d", 20, 30, None),
    ]
    assert self_times(spans) == {1: 60, 2: 20, 3: 10, 4: 10}
    assert nesting_errors(spans) == []
    assert nesting_errors([(1, 0, "a", 0, 10, None), (2, 1, "b", 5, 20, None)])


def test_real_spans_nest_and_self_time_within_duration(pipelines):
    for record in pipelines["boost"][:2] + pipelines["ada"][:2]:
        spans = [tuple(s) for s in record["trace"]["spans"]]
        assert spans and nesting_errors(spans) == []
        selfs = self_times(spans)
        for sid, _parent, _name, start, end, _info in spans:
            assert 0 <= selfs[sid] <= end - start


def test_counts_repeat_exactly(pipelines):
    first, second = (_layers(r) for r in pipelines["boost"][:2])
    assert first["boost.attempts"] > first["boost.iterations"] > 0  # retries ran
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["boost.attempts"] == (
        first["boost.iterations"] + first["boost.reject_shallow"]
        + first["boost.reject_clip"] + first["boost.reject_numeric"]
    )


def test_tracing_does_not_change_outputs(pipelines):
    for records in pipelines.values():
        digests = [r["digests"] for r in records]
        assert len(digests[0]) == len(run.OUTPUTS)
        assert digests[0] == digests[1] == digests[2]
        assert all(r["trace"]["restored"] for r in records[:2])


def test_output_checks_pass(pipelines):
    checks = run.Checks()
    for w, name in ((TINY_BOOST, "boost"), (TINY_ADA, "ada")):
        for record in pipelines[name]:
            run.check_pipeline(checks, w, record, name)
        run.check_run(checks, pipelines[name])
    assert checks.attempted > 0 and checks.failed == []


def test_failed_stage_counts_as_failed_checks():
    record = {"stages": [{"name": "gen-data", "rc": 3, "s": 0.1, "stdout": ""}], "digests": {}}
    checks = run.Checks()
    run.check_pipeline(checks, TINY_BOOST, record, "p")
    assert "p: gen-data exits 0" in checks.failed
    assert "p: train exits 0" in checks.failed and "p: eval exits 0" in checks.failed


def test_emitted_names_equal_declared_names(pipelines):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in declared["per_layer"]] == list(LAYER_METRICS)
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", LAYER_METRICS)):
        for metric in declared[section]:
            assert (metric["unit"], metric["better"]) == tuple(table[metric["name"]][:2])
    for w in declared["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why

    untraced = pipelines["boost"][2]
    values, _samples = run.end_to_end([untraced], [])
    assert set(values) == set(run.END_TO_END)
    assert all(v > 0 for v in values.values())
    layers = run.traced_layers(pipelines["boost"][:2], [untraced])
    assert set(layers) == set(LAYER_METRICS)
    assert all(v is not None for v in layers.values())


def test_wrappers_restored_and_missing_boundary_absent(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.present = lambda x: x + 1
    original = module.present
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = Tracer("t")
    tracer.install((
        ("fake_layer", "present", "fake.present", None, False),
        ("fake_layer", "gone", "fake.gone", None, False),
    ))
    assert module.present is not original and module.present(1) == 2
    assert tracer.absent == ["fake_layer.gone"] and tracer.installed == {"fake.present"}
    assert tracer.restore() is True
    assert module.present is original
    assert [s[2] for s in tracer.spans] == ["fake.present"]


def test_metrics_of_missing_boundaries_are_absent(pipelines):
    record = dict(pipelines["boost"][0])
    record["trace"] = dict(record["trace"])
    record["trace"]["installed"] = [n for n in record["trace"]["installed"] if n != "boost.sgd_inner"]
    values = _layers(record)
    assert values["boost.sgd_inner.s"] is None and values["boost.attempts"] is None
    assert values["boost.edge.s"] is not None
