"""Tests of the benchmark itself: seeded inputs, output checks, metric names."""

from __future__ import annotations

import dataclasses
import itertools
import json
from pathlib import Path

import pytest

import hendecafold
from hendecafold.verification import CriterionResult

import fold_workloads as fw
import layer_trace
import run
import startup_time

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _take(iterable, n):
    return list(itertools.islice(iterable, n))


# -- inputs ----------------------------------------------------------------

def test_two_fold_inputs_are_seeded_distinct_and_never_put_p_on_m():
    w = fw.TwoFold(hendecafold, Path("."))
    first = _take(w.inputs(7), 300)
    assert first == _take(w.inputs(7), 300)
    assert first != _take(w.inputs(8), 300)
    params = [p for p, _ in first]
    assert len(set(params)) == len(params)
    for (px, py, mx), text in first:
        assert px != mx
        assert -4.5 <= px <= 4.5 and -5.5 <= py <= 3.5 and -4.5 <= mx <= 4.5
        config = hendecafold.decode_two_fold_config(text)
        assert (config.P.x, config.P.y) == (px, py)
        assert -config.m.c / config.m.a == mx


def test_ngon_inputs_are_one_seeded_permutation_of_the_odd_n():
    w = fw.Ngon(hendecafold, Path("."))
    order = w.inputs(3)
    assert order == w.inputs(3)
    assert order != w.inputs(4)
    assert sorted(order) == list(range(3, fw.NGON_MAX_N + 1, 2))


def test_construct_and_verify_repeat_one_input(tmp_path):
    c = fw.Construct(hendecafold, tmp_path)
    dirs = _take(c.inputs(1), 3)
    assert dirs == _take(c.inputs(2), 3) and len(set(dirs)) == 1
    assert hendecafold.decode_script(c.text) == hendecafold.hendecagon_script()
    assert _take(fw.Verify(hendecafold, tmp_path).inputs(5), 2) == [None, None]


# -- output checks ---------------------------------------------------------

def test_construct_check_accepts_the_output_and_rejects_a_flipped_plate_byte(tmp_path):
    w = fw.Construct(hendecafold, tmp_path)
    out = next(w.inputs(0))
    w.check(out, w.op(out))
    output = w.op(out)
    plate = out / "step_08.svg"
    data = bytearray(plate.read_bytes())
    data[len(data) // 2] ^= 1
    plate.write_bytes(bytes(data))
    with pytest.raises(fw.CheckFailed, match="digest"):
        w.check(out, output)


def test_construct_check_rejects_files_left_from_the_previous_op(tmp_path):
    w = fw.Construct(hendecafold, tmp_path)
    out = next(w.inputs(0))
    output = w.op(out)
    w.check(out, output)
    with pytest.raises(fw.CheckFailed, match="not rewritten"):
        w.check(out, output)


def test_construct_check_rejects_a_failed_verification(tmp_path):
    w = fw.Construct(hendecafold, tmp_path)
    out = next(w.inputs(0))
    passed, residual = w.op(out)
    with pytest.raises(fw.CheckFailed, match="verify_hendecagon"):
        w.check(out, (False, residual))


def test_two_fold_check_rejects_swapped_creases():
    w = fw.TwoFold(hendecafold, Path("."))
    for item in _take(w.inputs(3), 5):
        solutions = w.op(item)
        w.check(item, solutions)
        swapped = [dataclasses.replace(s, gamma=s.delta, delta=s.gamma)
                   for s in solutions]
        with pytest.raises(fw.CheckFailed):
            w.check(item, swapped)


def test_two_fold_oracle_agrees_with_the_hendecagon_solution():
    config = hendecafold.TwoFoldConfig.hendecagon()
    for sol in hendecafold.solve_two_fold(config):
        gamma = (sol.gamma.a, sol.gamma.b, sol.gamma.c)
        delta = (sol.delta.a, sol.delta.b, sol.delta.c)
        misses = fw.two_fold_misses(-2.5, -3.0, -1.5, gamma, delta)
        assert max(misses.values()) <= 1e-12


def test_ngon_check_rejects_a_perturbed_root_and_a_wrong_classification():
    w = fw.Ngon(hendecafold, Path("."))
    constructible, roots = w.op(11)
    w.check(11, (constructible, roots))
    perturbed = list(roots)
    perturbed[2] += 1e-7
    with pytest.raises(fw.CheckFailed, match="root"):
        w.check(11, (constructible, perturbed))
    with pytest.raises(fw.CheckFailed, match="classified"):
        w.check(11, (not constructible, roots))
    with pytest.raises(fw.CheckFailed, match="roots"):
        w.check(11, (constructible, roots[:-1]))


def test_pierpont_oracle_refuses_exactly_the_known_n():
    refused = {n for n in range(3, 32) if not fw.single_fold_constructible(n)}
    assert refused == {11, 22, 23, 25, 29, 31}
    assert fw.single_fold_constructible(7 * 13 * 19 * 9)
    assert not fw.single_fold_constructible(49)


def test_verify_check_wants_six_passes_and_the_gamma_failure():
    w = fw.Verify(hendecafold, Path("."))
    good = [CriterionResult(name, name != fw.EXPECTED_FAIL, "")
            for name in fw.CRITERIA]
    w.check(None, good)
    all_pass = [dataclasses.replace(r, passed=True) for r in good]
    with pytest.raises(fw.CheckFailed):
        w.check(None, all_pass)
    with pytest.raises(fw.CheckFailed):
        w.check(None, good[:-1])


# -- tracing and metrics ---------------------------------------------------

def test_traced_op_attributes_all_of_its_time_and_restores_the_package():
    original = hendecafold.folds.solve_two_fold
    w = fw.TwoFold(hendecafold, Path("."))
    item = next(w.inputs(11))
    tracer = layer_trace.Tracer()
    assert tracer.install() == []
    try:
        root = tracer.begin(layer_trace.ROOT)
        solutions = w.op(item)
        tracer.end(root)
    finally:
        tracer.uninstall()
    assert hendecafold.folds.solve_two_fold is original
    assert hendecafold.construction.solve_two_fold is original
    s = tracer.summary()
    assert s["ops"] == 1
    assert s["calls"]["polynomials.refine_root"] == len(solutions)
    assert s["counters"]["folds.two_fold.solutions"] == len(solutions)
    assert s["refine_evals"] > 0
    assert sum(s["self_ns"].values()) == root[2] - root[1]
    metrics = layer_trace.span_metrics(s)
    assert metrics["folds.solve_two_fold.calls"]["value"] == 1
    assert metrics["scriptio.decode.ms"]["value"] > 0


def test_traced_construct_times_script_steps(tmp_path):
    w = fw.Construct(hendecafold, tmp_path)
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        phase = run.measure(w, _take(w.inputs(0), 1), 60.0, tracer)
    finally:
        tracer.uninstall()
    assert phase.failed == 0
    metrics = layer_trace.span_metrics(tracer.summary())
    for kind in layer_trace.STEP_KINDS:
        assert metrics[f"construction.step.{kind}.ms"]["value"] > 0
    assert metrics["render.bytes_written"]["value"] > 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([1.0] * (run.TAIL_MIN_OPS - 1)) is None
    times = [float(k) for k in range(200)]
    percentile, value = run.tail(times)
    assert percentile == 95.0
    assert sum(t > value for t in times) == 10


def test_each_op_is_scaled_by_the_kernel_runs_after_it():
    class Segmented:
        one_pass = True

        def op(self, item, pause):
            for _ in range(item):
                pause()
            return item

        def check(self, item, output):
            pass

    phase = run.measure(Segmented(), [1, 2, 3], 0.0)
    assert phase.failed == 0 and len(phase.scaled) == 3
    assert len(phase.host.samples) >= 1 + 2 + 3 + 3
    assert phase.host.total >= run.CALIBRATION_SHARE * sum(phase.times)
    phase.scaled = [0.010, 0.020, 0.030]
    assert phase.p50_ms == pytest.approx(20.0)
    assert phase.ops_per_s == pytest.approx(50.0)


def test_importtime_parser_reads_cumulative_ms():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        340 |   hendecafold.geometry\n"
            "import time:        90 |      98000 | hendecafold\n")
    assert startup_time.parse_importtime(text) == {"geometry": 0.34, "hendecafold": 98.0}


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(fw.WORKLOADS)
    phase = run.Phase()
    phase.scaled = [0.5, 0.25]
    e2e = run.end_to_end(phase, 0.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in e2e.items()}
    layer = layer_trace.span_metrics(layer_trace.Tracer().summary())
    layer["trace.overhead_pct"] = {"unit": "%"}
    for module in startup_time.MODULES:
        layer[f"setup.import.{module}.ms"] = {"unit": "ms"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v["unit"] for k, v in layer.items()}
