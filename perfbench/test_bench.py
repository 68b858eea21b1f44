"""Tests of the benchmark's own code: span arithmetic, wrappers, verdicts.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import bench
import spans

if str(bench.ROOT / "src") not in sys.path:
    sys.path.insert(0, str(bench.ROOT / "src"))


def test_self_time_is_duration_minus_children():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]; e [11, 12] is a second root
    names = ["m.a", "m.b", "m.c", "m.d", "m.e"]
    name_id = [0, 1, 2, 3, 4]
    parent = [-1, 0, 1, 0, -1]
    t0 = [0.0, 1.0, 2.0, 5.0, 11.0]
    t1 = [10.0, 4.0, 3.0, 9.0, 12.0]
    out, covered = spans.aggregate(names, name_id, parent, t0, t1)
    assert {n: s for n, (_, s) in out.items()} == {"m.a": 3.0, "m.b": 2.0, "m.c": 1.0, "m.d": 4.0, "m.e": 1.0}
    assert covered == 11.0
    assert sum(s for _, s in out.values()) == covered


def test_self_time_sums_calls_per_name():
    out, covered = spans.aggregate(["m.f", "m.g"], [0, 1, 1], [-1, 0, 0], [0.0, 1.0, 3.0], [8.0, 2.0, 5.0])
    assert out == {"m.f": [1, 5.0], "m.g": [2, 3.0]}
    assert covered == 8.0


def _ticking_tracer():
    ticks = iter(range(1000))
    return spans.Tracer(clock=lambda: float(next(ticks)))


def test_wrapper_keeps_return_values_and_records_nesting():
    tracer = _ticking_tracer()
    inner = tracer.wrap("m.inner", lambda x, y=1: (x, y))
    outer = tracer.wrap("m.outer", lambda x: inner(x, y=x + 1))
    assert outer(3) == (3, 4)
    names, ids, parent = tracer.names, list(tracer.name_id), list(tracer.parent)
    assert [names[i] for i in ids] == ["m.outer", "m.inner"]
    assert parent == [-1, 0]
    assert tracer.stack == [-1]
    out, covered = spans.aggregate(names, ids, parent, tracer.t0, tracer.t1)
    assert covered == tracer.t1[0] - tracer.t0[0]
    assert out["m.outer"][1] + out["m.inner"][1] == covered


def test_wrapper_keeps_exceptions_and_closes_the_span():
    tracer = _ticking_tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap("m.boom", boom)
    with pytest.raises(KeyError, match="x"):
        wrapped()
    assert tracer.stack == [-1]
    assert tracer.t1[0] > tracer.t0[0]


def _snapshot(modules):
    snap = {}
    for mod in modules.values():
        snap[mod.__name__] = dict(vars(mod))
        for key, val in vars(mod).items():
            if isinstance(val, type) and val.__module__ == mod.__name__:
                snap[f"{mod.__name__}.{key}"] = dict(vars(val))
    return snap


def test_install_wraps_by_name_imports_and_restore_puts_originals_back():
    import importlib

    modules = {n: importlib.import_module("subsym." + n) for n in spans.LAYERS + ("cli",)}
    modules["subsym"] = importlib.import_module("subsym")
    classalg, decompose = modules["classalg"], modules["decompose"]
    before = _snapshot(modules)
    original = classalg.class_multiply
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        assert classalg.class_multiply is not original
        assert decompose.act_on_tuple is classalg.act_on_tuple is not before["subsym.classalg"]["act_on_tuple"]
        x = classalg.ClassElement.basis(3, (2, 1))
        assert classalg.class_multiply(x, x) == original(x, x)
        assert decompose.act_on_tuple((1, 0, 2), "abc") == before["subsym.classalg"]["act_on_tuple"]((1, 0, 2), "abc")
        from subsym.scalars import gr

        assert gr(1, 2) * gr(3) == gr(3, 6)
    finally:
        tracer.restore()
    assert _snapshot(modules) == before
    called = {tracer.names[i] for i in tracer.name_id}
    assert {"classalg.class_multiply", "classalg.act_on_tuple", "classalg.ClassElement.basis",
            "scalars.GaussianRational.mul"} <= called
    assert "decompose.trace_free_block_kernel.hits" in tracer.counters


def test_dump_and_load_round_trip(tmp_path):
    tracer = _ticking_tracer()
    tracer.wrap("linalg.rref", lambda rows: rows)([[1, 2, 3], [4, 5, 6]])
    tracer.dump(tmp_path / "s.bin")
    names, ids, parent, t0, t1, counters = spans.load(tmp_path / "s.bin")
    assert names == ["linalg.rref"] and list(ids) == [0] and list(parent) == [-1]
    assert list(t0) == list(tracer.t0) and list(t1) == list(tracer.t1)
    assert counters == {"linalg.rref.cells": 6, "linalg.rref.max_cols": 3}


def _report(*statuses):
    checks = [{"name": f"c{i}", "status": s, "witness": None} for i, s in enumerate(statuses)]
    return json.dumps({"checks": checks, "status": "pass"}).encode()


def test_verdict_passes_a_clean_report():
    digest, reasons = bench.verdict(0, _report("pass", "pass"), None)
    assert reasons == [] and len(digest) == 64
    assert bench.verdict(0, _report("pass", "pass"), digest) == (digest, [])


def test_failed_frac_counts_fail_nonzero_exit_and_digest_mismatch():
    good = _report("pass")
    first, _ = bench.verdict(0, good, None)
    cases = [
        bench.verdict(0, good, first),  # repeat, same bytes: passes
        bench.verdict(1, _report("pass", "fail"), None),  # injected FAIL (and its exit code)
        bench.verdict(3, good, None),  # nonzero exit alone
        bench.verdict(0, _report("pass", "pass"), first),  # digest mismatch
        bench.verdict(0, _report(), None),  # zero checks
        bench.verdict(0, None, None),  # no report
    ]
    assert [bool(reasons) for _, reasons in cases] == [False, True, True, True, True, True]
    assert "1 checks not PASS, first: c1" in cases[1][1]
    requests = [bench.Request("r", 0, 1.0, 1.0, 1.0, reasons) for _, reasons in cases]
    assert bench.failed_frac(requests) == 5 / 6


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_percentile(list(range(10))) is None
    q, _ = bench.tail_percentile(list(range(20)))
    assert q == 50
    q, _ = bench.tail_percentile(list(range(100)))
    assert q == 90


def _traced_request(wall, layers, covered):
    req = bench.Request("r", 0, wall, wall, 1.0, [])
    req.layers, req.covered_s = layers, covered
    req.counters = {"decompose.trace_free_block_kernel.hits": 3, "decompose.trace_free_block_kernel.misses": 1}
    return req


def test_layer_metrics_add_up_and_match_benchmark_json():
    traced = [[_traced_request(2.0, {"rings.LaurentPoly.mul": [5, 0.5], "linalg.rref": [2, 0.75]}, 1.25)]]
    untraced = [[_traced_request(1.6, {}, 0.0)]]
    metrics = bench.layer_metrics(traced, untraced)
    assert metrics["rings.LaurentPoly.mul.calls"] == (5, "count")
    assert metrics["cli.glue_s"] == (0.75, "s")
    assert metrics["trace.overhead_frac"][0] == pytest.approx(0.25)
    assert metrics["decompose.trace_free_block_kernel.hit_ratio"] == (0.75, "frac")
    assert bench.self_times_add_up(metrics)
    metrics.update({f"kernel.{n}_s": (0.0, "s") for n in bench.KERNELS})
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: u for n, (_, u) in metrics.items()}
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "tensor-elimination", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
