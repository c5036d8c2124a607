"""Tests of the benchmark harness itself (not of latsec).

    python3 -m pytest bench/tests
"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from latsec import channel  # noqa: E402

SMALL = {
    "leakage_keygen": {
        "leakage_sweep": {"trends": [
            {"m": 4, "n_bar": [3, 4], "family": 2, "sign": "+", "dither": "zero",
             "fixed_r0": None},
            {"m": 8, "n_bar": [2, 3], "family": 2, "sign": "-", "dither": "random",
             "fixed_r0": 3}]},
        "key_protocol": {"audits": [[2, 1], [2, 2]], "round_n_bar": 2, "round_r": 1,
                         "rounds": 6}},
    "simulate_checks": {
        "message_rounds": {"n_bar": 2, "r0": 1, "family": 2, "rounds": 8,
                           "trend_n_bar": [2, 3], "trend_family": 2, "decode_trials": 10},
        "exhaustive_checks": {"grid": [2, 2, 4], "floor_trials": 50, "dsr": [[1, 4, "+"]],
                              "roundtrip_trials": 5, "full_rank_max": [2, 3],
                              "mc": [4, 8, 200], "hashed": [["geometric", 3, 1]],
                              "hashed_sampled": 4, "sdof_gains": 10}},
}


def small_checks():
    return workloads.ExhaustiveChecks(0, **SMALL["simulate_checks"]["exhaustive_checks"])


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_only_direct_children():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 6]
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    root = tracer.open("root")
    a = tracer.open("a")
    g = tracer.open("g")
    tracer.close(g)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(root)
    selfs = tracing.self_times(tracer.spans)
    assert selfs == {root.sid: 6, a.sid: 2, g.sid: 1, b.sid: 1}
    assert (a.parent, g.parent, b.parent) == (root.sid, a.sid, root.sid)


def test_self_time_counts_overlapping_children_once():
    spans = [tracing.Span(0, None, "p", 0.0, 10.0),
             tracing.Span(1, 0, "c", 2.0, 6.0), tracing.Span(2, 0, "c", 4.0, 8.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 50) == 50
    assert run.nearest_rank(values, 90) == 90
    assert run.nearest_rank([7.0], 90) == 7.0
    assert run.nearest_rank(list(range(1, 11)), 90) == 9
    assert run.nearest_rank(list(range(1, 1001)), 90) == 900


def test_nearest_rank_picks_one_kind_of_operation_for_any_pass_count():
    one_pass = [1.0, 2.0, 3.0, 50.0, 400.0, 600.0, 700.0, 800.0, 7000.0, 9000.0, 9500.0]
    for passes in range(1, 12):
        mix = one_pass * passes
        assert run.nearest_rank(mix, 50) == 600.0
        assert run.nearest_rank(mix, 90) == 9000.0


def test_rounds_are_the_round_kind_operations_after_the_warm_up_pass():
    wl = workloads.make_workload("leakage_keygen", 0)
    assert wl.round_kinds == ("key_round",)
    passes = [run.PassResult(9.0, latencies=[("key_round", 5.0), ("audit", 8.0)]),
              run.PassResult(3.0, latencies=[("key_round", 1.0), ("audit", 2.0)]),
              run.PassResult(4.0, latencies=[("key_round", 1.5), ("audit", 2.5)])]
    assert run.round_latencies(wl, passes) == [1.0, 1.5]
    assert run.round_latencies(wl, passes[:1]) == [5.0]


def test_workload_spreads_its_rounds_evenly_between_the_other_operations():
    wl = workloads.make_workload("leakage_keygen", 0)
    ops = wl.ops()
    kinds = [op.kind for op in ops]
    assert sorted(op.key for op in ops) == sorted(op.key for p in wl.parts for op in p.ops())
    assert [op.key for op in ops if op.kind != "key_round"] == [
        op.key for p in wl.parts for op in p.ops() if op.kind != "key_round"]
    runs, n = [], 0
    for kind in kinds + ["end"]:
        if kind == "key_round":
            n += 1
        else:
            runs.append(n)
            n = 0
    assert len(runs) == 15 and sum(runs) == 500 and max(runs) - min(runs) <= 1


def test_figures_match_rule():
    assert run.figures_match({"h": 1.0, "n": 3}, {"h": 1.0 + 5e-10, "n": 3})
    assert not run.figures_match({"h": 1.0}, {"h": 1.0 + 5e-9})
    assert not run.figures_match({"n": 3}, {"n": 4})
    assert not run.figures_match([True], [1])
    assert not run.figures_match({"a": 1}, {"a": 1, "b": 2})
    assert not run.figures_match(None, {"a": 1})


def test_stream_seeds_differ_by_label_and_by_seed():
    labels = ["d1", "d2", "trend-m4", "trend-m8", "messages", "round-seeds"]
    a = [workloads.stream_seed(1, lab) for lab in labels]
    b = [workloads.stream_seed(2, lab) for lab in labels]
    assert len(set(a)) == len(labels)
    assert all(x != y for x, y in zip(a, b))
    assert a == [workloads.stream_seed(1, lab) for lab in labels]
    assert all(0 <= x < 2 ** 63 for x in a + b)


def _figures(name: str, seed: int) -> dict:
    wl = workloads.make_workload(name, seed, **SMALL[name])
    wl.setup()
    ops = wl.ops()
    res = run.run_pass(ops)
    assert not res.errors
    assert wl.verify(res.figures) == {}
    return {op.key: (op.seeded, res.figures[op.key]) for op in ops}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_reaches_every_stream(name):
    first = _figures(name, 1)
    assert _figures(name, 1) == first
    other = _figures(name, 2)
    for key, (seeded, fig) in first.items():
        if seeded:
            assert fig != other[key][1], f"{key} ignores the workload seed"
        else:
            assert run.figures_match(fig, other[key][1]), f"{key} is not seeded but changed"


def test_verify_reports_the_operation_whose_figure_is_wrong():
    wl = small_checks()
    res = run.run_pass(wl.ops())
    res.figures["grid_sweep"]["joints"] += 1
    res.figures["other_checks"]["full_rank"]["r1/n2"] += 1e-6
    assert set(wl.verify(res.figures)) == {"grid_sweep", "other_checks"}


def test_reference_mismatch_and_irreproducible_pass_are_failures():
    wl = small_checks()
    ops = wl.ops()
    first, second, third = run.run_pass(ops), run.run_pass(ops), run.run_pass(ops)
    third.figures["lattice_verify"]["roundtrip"]["k2"][0][0] += 1
    for res in (second, third):
        run.settle(first, res)
    assert second.figures == {} and second.differs == set()
    reference = json.loads(json.dumps(first.figures))
    assert run.judge(wl, ops, [first, second], reference) == (2 * len(ops), 0, {})
    reference["other_checks"]["sdof"][0][-1] += 1e-6
    attempted, failed, reasons = run.judge(wl, ops, [first, third], reference)
    # other_checks in both passes, lattice_verify in the second
    assert (attempted, failed) == (2 * len(ops), 3)
    assert set(reasons) == {"other_checks"}


def test_wrappers_see_calls_made_inside_the_library_and_are_removed():
    original = channel.exact_leakage
    tracer = tracing.Tracer()
    cb = channel.make_codebook(4, 2)
    with tracing.instrumented(tracer):
        assert channel.exact_leakage is not original
        channel.select_secrecy_hash(cb, 1, n_candidates=3, seed=5)
    assert channel.exact_leakage is original
    names = [s.name for s in tracer.spans]
    assert names.count("channel.exact_leakage") == 3
    sel = next(s for s in tracer.spans if s.name == "channel.select_secrecy_hash")
    leak = next(s for s in tracer.spans if s.name == "channel.exact_leakage")
    assert leak.parent == sel.sid
    assert leak.counts == {"walsh_counts": 2 * 7 ** 2}
    assert "hashing.build_encoder" in names  # channel imports it by name


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_runs_alternate_plain_and_instrumented_passes():
    wl = small_checks()
    tracer = tracing.Tracer()
    results, spans = run.timed_passes(wl.ops(), 0.0, tracer)
    assert [r.traced for r in results] == [False, True]
    assert [s.name for s in spans] == ["bench.pass"]
    assert sum(s.name == "entropy.violation_mass_grid_sweep" for s in tracer.spans) == 1
    assert not hasattr(channel.exact_leakage, "__wrapped__")
