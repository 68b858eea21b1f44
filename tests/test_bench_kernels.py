"""The benchmark's `--trace 1` kernels stay runnable: each snippet of
`KERNELS` in perfbench/bench.py runs here, in process, with its own asserts.

The table is read from the file's syntax tree, so the benchmark module and
its tracer are not imported.
"""

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def benchmark_kernels():
    tree = ast.parse((ROOT / "perfbench" / "bench.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["KERNELS"]:
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/bench.py defines no KERNELS table")


KERNELS = benchmark_kernels()


def test_every_benchmarked_kernel_has_a_snippet():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    timed = {m["name"][len("kernel.") : -len("_s")] for m in metrics if m["name"].startswith("kernel.")}
    assert timed and timed == set(KERNELS)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_benchmark_kernel_runs(name):
    exec(compile(KERNELS[name], f"KERNELS[{name!r}]", "exec"), {})
