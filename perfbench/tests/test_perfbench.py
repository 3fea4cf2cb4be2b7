"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import itertools
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # a[0, 10] holds b[1, 5] (which holds c[2, 4]) and d[6, 9]
    tracer = spans.Tracer(fake_clock([0, 1, 2, 4, 5, 6, 9, 10]))
    a = tracer.enter("a")
    b = tracer.enter("b")
    c = tracer.enter("c")
    tracer.exit(c)
    tracer.exit(b)
    d = tracer.enter("d")
    tracer.exit(d)
    tracer.exit(a)
    self_s = {s.name: s.self_s for s in tracer.spans}
    assert self_s == {"a": 3, "b": 2, "c": 2, "d": 3}
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert sum(self_s.values()) == tracer.spans[a].duration
    assert tracer.nesting_errors() == []


def test_spans_closed_out_of_order_are_rejected():
    tracer = spans.Tracer(fake_clock(itertools.count()))
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_open_span_is_a_nesting_error():
    tracer = spans.Tracer(fake_clock(itertools.count()))
    tracer.enter("left-open")
    assert tracer.nesting_errors() == ["span left-open never closed"]


def _fake_program():
    """Module a defines f and class K; module b imports f and registers it."""
    a = types.ModuleType("fake_a")

    def f(x):
        return 2 * x

    class K:
        def m(self, x):
            return f(x) + 1

    a.f, a.K = f, K
    b = types.ModuleType("fake_b")
    b.f = a.f
    b.REGISTRY = {"double": a.f, "other": len}
    return a, b


def test_wrappers_install_and_restore_across_modules():
    a, b = _fake_program()
    f, m = a.f, a.K.m
    tracer = spans.Tracer()
    wrappers = {
        id(f): (f, spans.make_wrapper(f, "a.f", tracer)),
        id(m): (m, spans.make_wrapper(m, "a.K.m", tracer,
                                      lambda args, kw, out: {"out": out})),
    }
    replaced = spans.install(wrappers, [a, b], [a.K])
    assert len(replaced) == 4  # a.f, b.f, b.REGISTRY["double"], K.m
    assert a.f is b.f is b.REGISTRY["double"] is not f
    assert b.REGISTRY["other"] is len
    assert sorted(spans.find_wrapped([a, b], [a.K])) == [
        "K.m", "fake_a.f", "fake_b.REGISTRY", "fake_b.f"]

    assert b.f(3) == 6 and b.REGISTRY["double"](1) == 2 and a.K().m(5) == 11
    names = [s.name for s in tracer.spans]
    assert names == ["a.f", "a.f", "a.K.m"]  # K.m calls f through a's global
    assert tracer.spans[2].stats == {"out": 11}

    spans.restore(replaced)
    assert a.f is f and b.f is f and b.REGISTRY["double"] is f
    assert vars(a.K)["m"] is m
    assert spans.find_wrapped([a, b], [a.K]) == []
    a.K().m(1)
    assert len(tracer.spans) == 3


def test_program_layers_wrap_every_importer_and_restore():
    from fuzzytorus import experiments, lipnorm, matrixmodel
    from fuzzytorus.experiments import ExperimentConfig

    embed = matrixmodel.embed
    run_rate = experiments.EXPERIMENTS["rate"]
    tracer = spans.Tracer()
    replaced = layers.install_layers(tracer)
    try:
        assert experiments.embed is matrixmodel.embed is lipnorm.embed is not embed
        assert experiments.EXPERIMENTS["rate"] is not run_rate
        cfg = ExperimentConfig("rate", 1, n_schedule=(16, 32), grid=64)
        experiments.run_experiment(cfg)
    finally:
        spans.restore(replaced)
    assert experiments.embed is embed and lipnorm.embed is embed
    assert experiments.EXPERIMENTS["rate"] is run_rate
    assert layers.wrapped_names() == []
    metrics = layers.layer_metrics(tracer.spans)
    assert set(metrics) == set(layers.metric_units()) - {"trace.overhead_frac",
                                                          "trace.glue_s"}
    assert metrics["experiments.run_rate.self_s"] > 0
    assert metrics["ncpoly.gradient_form.self_s"] > 0
    assert metrics["matrixmodel.embed.calls"] == 0
    assert tracer.nesting_errors() == []


def test_manifest_is_a_function_of_workload_and_seed(tmp_path):
    for name in workloads.WORKLOADS:
        one = workloads.make_manifest(name, 7, str(tmp_path))
        assert one == workloads.make_manifest(name, 7, str(tmp_path))
        other = workloads.make_manifest(name, 8, str(tmp_path))
        assert other["seed"] != one["seed"]
        assert other["experiments"] == one["experiments"]
    seeds = {workloads.manifest_seed(name, 7) for name in workloads.WORKLOADS}
    assert len(seeds) == len(workloads.WORKLOADS)
    assert workloads.manifest_seed("net", 0) == 1321975031


def _reference(name="net", seed=0):
    return checks.parse_report(workloads.reference_path(name, seed).read_text())


def _gate(rows, reference, crashed=None):
    from fuzzytorus.experiments import row_passes

    return checks.check_report(rows, workloads.expected_rows("net"), reference,
                               crashed or {}, row_passes)


def test_reference_comparison_flags_a_perturbed_value():
    ref = _reference()
    assert _gate(ref, ref) == (0, [])
    i = next(i for i, r in enumerate(ref) if r.metric == "covering_radius")
    for rel, flagged in ((1e-9, True), (1e-11, True), (1e-14, False)):
        rows = list(ref)
        rows[i] = dataclasses.replace(ref[i], value=ref[i].value * (1 + rel))
        failed, problems = _gate(rows, ref)
        assert failed == int(flagged), rel
        assert all("covering_radius" in p for p in problems)


def test_gate_flags_pass_flags_and_crashes():
    ref = _reference()
    rows = list(ref)
    i = next(i for i, r in enumerate(ref) if r.metric == "coverage_fraction")
    rows[i] = dataclasses.replace(ref[i], passed=False)
    failed, problems = _gate(rows, ref)
    assert failed == 1 and len(problems) == 3  # rule, flag vs rule, flag vs reference
    no_net = [r for r in ref if r.experiment != "covering-net"]
    failed, problems = _gate(no_net, None, {"covering-net": "ValueError: boom"})
    assert failed == workloads.expected_rows("net")["covering-net"]
    assert problems == ["covering-net: raised ValueError: boom"]


def test_roundoff_values_agree_and_others_are_relative():
    assert checks.values_agree(3e-16, -5e-15)
    assert not checks.values_agree(1e-3, 1e-3 * (1 + 1e-11))
    assert checks.values_agree(float("inf"), float("inf"))
    assert not checks.values_agree(float("inf"), 1e308)


def test_benchmark_json_names_every_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    from run import E2E_UNITS

    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.metric_units()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)

    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    mapped = [name for p in layer_map["predictions"] for name in p["layers"]]
    assert sorted(mapped) == sorted(layers.metric_units())
    for p in layer_map["predictions"]:
        assert set(p["moves"]) <= set(E2E_UNITS)
        named = [w for ws in p["moves"].values() for w in ws] + p["flat_on"]
        assert set(named) <= set(workloads.WORKLOADS)
    assert set(layer_map["measured_dominant"]) == set(workloads.WORKLOADS)


def test_speed_factor_is_the_geometric_mean_of_part_ratios():
    assert speed.factor(speed.REFERENCE_S) == pytest.approx(1.0)
    twice = {k: 2 * v for k, v in speed.REFERENCE_S.items()}
    assert speed.factor(twice) == pytest.approx(2.0)
    mixed = dict(speed.REFERENCE_S, python=4 * speed.REFERENCE_S["python"])
    assert speed.factor(mixed) == pytest.approx(4 ** (1 / len(speed.REFERENCE_S)))


def test_speed_measure_repeats_the_kernel_for_the_time_asked(monkeypatch):
    clock = itertools.count(step=0.25)
    factors = iter([1.0, 3.0, 2.0, 9.0])
    monkeypatch.setattr(speed.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(speed, "part_times", lambda: {})
    monkeypatch.setattr(speed, "factor", lambda times: next(factors))
    assert speed.measure() == 1.0
    assert speed.measure(0.5) == 2.5  # the kernel runs twice: factors 3 and 2


def test_times_are_divided_by_the_speed_around_them():
    from run import at_reference_speed

    runs = [{"report_s": 3.0, "speed": 1.5}, {"report_s": 2.0, "speed": 1.0},
            {"report_s": 5.0, "speed": 1.5}]
    assert at_reference_speed(runs, "report_s") == 2.5  # 10 s over 4 speed units
