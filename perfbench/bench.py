"""Benchmark of `subsym verify`: real CLI requests, each in a fresh interpreter.

    python3 perfbench/bench.py --workload NAME --seed S --seconds T --trace 0|1
    python3 perfbench/bench.py --workload all --seed S --seconds T --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
A pass runs the workload's requests one after another, one child process at
a time.  Pass i sends `--seed request_seed(S, i % K)` to every request, K
being the workload's number of request seeds; a run makes at least K + 1
passes, so requests repeat and their report digests are compared.

With `--trace 0` the run measures set-up and as many passes as fit in T
seconds and prints the end-to-end metrics.  With `--trace 1` it times the
rational-backend kernels, then runs pairs of one traced and one untraced
pass of the same request seeds and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed and metrics;
`--workload all` prints a table of every workload instead.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_SEED = "0"  # PYTHONHASHSEED pinned for every child
SETUP_FIRST = 5  # set-up spawns before the first pass; one more follows each request
KERNEL_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    requests: tuple  # ((suite, extra flags), ...)
    modules: tuple  # subsym modules the requests import, for setup_s
    seeds: int  # request seeds per run; passes cycle through them


WORKLOADS = {
    "symbol-extraction": Workload(
        (("symbols", ("--n", "2")),),
        ("cli", "report", "symbols"),
        seeds=12,
    ),
    "operator-identities": Workload(
        (("composition", ()), ("reduction", ()), ("commutation", ()), ("prop1", ())),
        ("cli", "report", "ambient", "boundary", "symbols"),
        seeds=2,
    ),
    "tensor-elimination": Workload(
        (("commutant", ()), ("decompose", ()), ("hwvectors", ()), ("classalg", ())),
        ("cli", "report", "classalg", "decompose"),
        seeds=1,
    ),
}

# The hot kernels timed by benchmarks/bench_rational_backends.py; each runs in
# a fresh interpreter and asserts its own exact result.
KERNELS = {
    "trace_free_kernel_3_5": (
        "from subsym.decompose import trace_free_dimension\n"
        "assert trace_free_dimension(3, 5) == 2024"
    ),
    "commutant_crosscheck_3_6": (
        "from subsym.classalg import ClassElement, class_multiply\n"
        "from subsym.decompose import commutant_mult_crosscheck\n"
        "cp = lambda lam, mu: class_multiply(ClassElement.basis(3, lam),"
        " ClassElement.basis(3, mu)).coeffs\n"
        "assert all(ok for _, _, ok in commutant_mult_crosscheck(3, 6, cp))"
    ),
    "classalg_k6_full_table": (
        "from subsym.classalg import ClassElement, class_multiply, partitions\n"
        "ps = partitions(6)\n"
        "[class_multiply(ClassElement.basis(6, a), ClassElement.basis(6, b))"
        " for a in ps for b in ps]"
    ),
    "composition_identity_n2": (
        "import random\n"
        "from subsym.ambient import AmbientModel, random_traceless,"
        " verify_composition_identity\n"
        "m = AmbientModel(2); rng = random.Random(42)\n"
        "V = random_traceless(2, rng); W = random_traceless(2, rng)\n"
        "assert not verify_composition_identity(m, V, W, -1, -1, 3)"
    ),
}

# Per-layer metrics, by span name: calls only, calls and self time, self only.
CALLS = (
    "scalars.GaussianRational.mul",
    "scalars.GaussianRational.add",
    "rings.LaurentPoly.mul",
    "rings.LaurentPoly.add",
    "rings.LaurentPoly.diff",
    "rings.LaurentPoly.substitute",
)
CALLS_AND_SELF = (
    "weyl.WeylOperator.apply",
    "weyl.WeylOperator.compose",
    "weyl.WeylOperator.commutator",
    "linalg.rref",
    "linalg.solve",
    "linalg.kernel_basis",
    "decompose.apply_group_algebra_sym",
    "decompose.trace_free_block_kernel",
    "decompose.isotypic_rank",
    "classalg.class_multiply",
    "symbols.extract_symbols",
)
SELF_ONLY = (
    "boundary.phi_pullback",
    "boundary.induce",
    "boundary.verify_reduction",
    "ambient.verify_composition_identity",
    "ambient.compose_decompose",
)
CACHED = "decompose.trace_free_block_kernel"


def request_seed(seed: int, j: int) -> int:
    """The j-th request seed of a run with benchmark seed `seed`."""
    return seed + 1000 * j


@dataclass
class Request:
    label: str
    seed: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    reasons: list
    layers: dict = field(default_factory=dict)  # span name -> [calls, self_s]
    covered_s: float = 0.0
    counters: dict = field(default_factory=dict)


def verdict(exit_code, report, earlier_digest):
    """(sha256 of the report, reasons the request failed; empty if it passed).

    A request fails on a nonzero exit, a missing or unreadable report, a
    report with zero checks or any check not PASS, or a report that differs
    from the same request's earlier in the run.
    """
    reasons = [f"exit code {exit_code}"] if exit_code != 0 else []
    if report is None:
        return None, reasons + ["no report written"]
    digest = hashlib.sha256(report).hexdigest()
    try:
        checks = json.loads(report)["checks"]
        bad = [c["name"] for c in checks if c["status"] != "pass"]
    except (ValueError, KeyError, TypeError):
        return digest, reasons + ["unreadable report"]
    if not checks:
        reasons.append("report has zero checks")
    if bad:
        reasons.append(f"{len(bad)} checks not PASS, first: {bad[0]}")
    if earlier_digest is not None and digest != earlier_digest:
        reasons.append("report differs from the same request earlier in the run")
    return digest, reasons


def failed_frac(requests) -> float:
    return sum(1 for r in requests if r.reasons) / len(requests)


def tail_percentile(values):
    """(q, value): the highest whole percentile with at least ten samples
    beyond it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    q = (100 * (n - 10)) // n
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    """Spawns children one at a time inside a scratch directory of the checkout."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=HASH_SEED)
        self.env["SUBSYM_OUT_DIR"] = str(tmp)
        self.digests: dict = {}  # (label, seed) -> [digest, times seen]
        self.count = 0

    def spawn(self, cmd):
        """Run `cmd` to completion: (wall_s, rusage, exit code, stdout bytes)."""
        out_path = self.tmp / "stdout"
        with open(out_path, "wb") as out, open(self.tmp / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.tmp, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage, proc.returncode, out_path.read_bytes()

    def python(self, code):
        return self.spawn([sys.executable, "-c", code])

    def request(self, suite, flags, seed, traced=False) -> Request:
        self.count += 1
        report_path = self.tmp / f"report-{self.count}.json"
        spans_path = self.tmp / f"spans-{self.count}.bin"
        argv = ["verify", suite, *flags, "--seed", str(seed), "--out", str(report_path)]
        if traced:
            cmd = [sys.executable, str(HERE / "traced_request.py"), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "subsym.cli", *argv]
        wall, usage, code, _ = self.spawn(cmd)
        report = report_path.read_bytes() if report_path.exists() else None
        label = " ".join((suite,) + flags)
        seen = self.digests.get((label, seed))
        digest, reasons = verdict(code, report, seen[0] if seen else None)
        if reasons:
            err = (self.tmp / "stderr").read_text(errors="replace").strip().splitlines()
            print(f"FAILED {label} --seed {seed}: {'; '.join(reasons)}"
                  f"{' | ' + err[-1] if err else ''}", file=sys.stderr)
        if digest is not None:
            if seen:
                seen[1] += 1
            else:
                self.digests[(label, seed)] = [digest, 1]
        req = Request(label, seed, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, reasons)
        if traced and spans_path.exists():
            names, ids, parent, t0, t1, req.counters = spans.load(spans_path)
            req.layers, req.covered_s = spans.aggregate(names, ids, parent, t0, t1)
        report_path.unlink(missing_ok=True)
        spans_path.unlink(missing_ok=True)
        return req

    def run_pass(self, workload: Workload, seed, traced=False):
        return [self.request(suite, flags, seed, traced) for suite, flags in workload.requests]


def environment(runner: Runner):
    """Python version, backend and module path as the children see them."""
    code = (
        "import json, sys, subsym\n"
        + "".join(f"import subsym.{m}\n" for m in spans.LAYERS + ("report", "cli"))
        + "print(json.dumps({'python': sys.version.split()[0],"
        " 'backend': subsym.RATIONAL_BACKEND, 'subsym': subsym.__file__}))"
    )
    _, _, rc, out = runner.python(code)
    if rc != 0:
        raise SystemExit("cannot import subsym from the checkout's src")
    env = json.loads(out)
    if not Path(env.pop("subsym")).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("subsym was imported from outside the checkout")
    env.update(nproc=os.cpu_count(), PYTHONHASHSEED=HASH_SEED, loadavg_start=os.getloadavg())
    return env


def pass_totals(passes):
    walls = [sum(r.wall_s for r in p) for p in passes]
    cpus = [sum(r.cpu_s for r in p) for p in passes]
    rss = [max(r.rss_mb for r in p) for p in passes]
    return walls, cpus, rss


def measure(runner, workload, seed, seconds):
    """Untraced run: passes cycling through the run's request seeds until
    `seconds` is used, at least one more pass than there are seeds so that a
    request repeats, with a set-up spawn after every request."""
    start = time.perf_counter()
    setup_code = "".join(f"import subsym.{m}\n" for m in workload.modules)
    setup = [runner.python(setup_code)[0] for _ in range(SETUP_FIRST)]
    passes = []
    while len(passes) <= workload.seeds or (
        time.perf_counter() - start + statistics.median(pass_totals(passes)[0]) <= seconds
    ):
        s = request_seed(seed, len(passes) % workload.seeds)
        p = []
        for suite, flags in workload.requests:
            p.append(runner.request(suite, flags, s))
            setup.append(runner.python(setup_code)[0])
        passes.append(p)
    requests = [r for p in passes for r in p]
    walls, cpus, rss = pass_totals(passes)
    metrics = {
        "verify_wall_s": (statistics.median(walls), "s"),
        "verify_cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "pass_frac": (1.0 - failed_frac(requests), "frac"),
    }
    detail = {
        "passes": len(passes),
        "request_seeds": sorted({r.seed for r in requests}),
        "pass_wall_s": walls,
        "pass_wall_s_tail": tail_percentile(walls),
        "setup_spawns": len(setup),
        "failed_frac": failed_frac(requests),
    }
    return requests, metrics, detail


def time_kernels(runner):
    """Median time of each kernel over KERNEL_REPEATS fresh interpreters."""
    times, failures = {name: [] for name in KERNELS}, []
    for _ in range(KERNEL_REPEATS):
        for name, code in KERNELS.items():
            wrapped = f"import time\nt0 = time.perf_counter()\n{code}\nprint(time.perf_counter() - t0)"
            _, _, rc, out = runner.python(wrapped)
            if rc != 0:
                failures.append(name)
            else:
                times[name].append(float(out.split()[-1]))
    return {n: statistics.median(t) if t else 0.0 for n, t in times.items()}, failures


def layer_metrics(traced_passes, untraced_passes):
    """Per-layer metrics as means per traced pass, plus glue and overhead."""
    reqs = [r for p in traced_passes for r in p]
    n = len(traced_passes)
    agg: dict = {}
    for r in reqs:
        for name, (calls, self_s) in r.layers.items():
            row = agg.setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += self_s
    counters: dict = {}
    for r in reqs:
        for key, val in r.counters.items():
            counters[key] = max(counters.get(key, 0), val) if key.endswith("max_cols") else counters.get(key, 0) + val

    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = (agg.get(name, [0, 0.0])[0] / n, "count")
    for name in CALLS_AND_SELF:
        calls, self_s = agg.get(name, [0, 0.0])
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.self_s"] = (self_s / n, "s")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (agg.get(name, [0, 0.0])[1] / n, "s")
    for layer in spans.LAYERS:
        total = sum(s for name, (_, s) in agg.items() if name.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = (total / n, "s")
    out["linalg.rref.cells"] = (counters.get("linalg.rref.cells", 0) / n, "count")
    out["linalg.rref.max_cols"] = (counters.get("linalg.rref.max_cols", 0), "count")
    hits, misses = counters.get(CACHED + ".hits", 0), counters.get(CACHED + ".misses", 0)
    out[CACHED + ".hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "frac")
    traced_wall = sum(r.wall_s for r in reqs)
    out["cli.glue_s"] = ((traced_wall - sum(r.covered_s for r in reqs)) / n, "s")
    out["trace.wall_s"] = (traced_wall / n, "s")
    untraced_wall = sum(r.wall_s for p in untraced_passes for r in p)
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")
    return out


def self_times_add_up(metrics) -> bool:
    """The layers' self times and the glue sum to the traced wall time."""
    total = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS) + metrics["cli.glue_s"][0]
    wall = metrics["trace.wall_s"][0]
    return abs(total - wall) <= 1e-6 * wall


def trace(runner, workload, seed, seconds):
    """Traced run: kernels, then traced/untraced pass pairs at equal seeds."""
    start = time.perf_counter()
    kernel_times, kernel_failures = time_kernels(runner)
    traced, untraced = [], []
    while not traced or (
        time.perf_counter() - start
        + statistics.median(pass_totals(traced)[0]) + statistics.median(pass_totals(untraced)[0])
        <= seconds
    ):
        j = len(traced)
        for is_traced in (True, False) if j % 2 == 0 else (False, True):
            p = runner.run_pass(workload, request_seed(seed, j), traced=is_traced)
            (traced if is_traced else untraced).append(p)
    requests = [r for p in traced + untraced for r in p]
    metrics = layer_metrics(traced, untraced)
    metrics.update({f"kernel.{n}_s": (t, "s") for n, t in kernel_times.items()})
    detail = {
        "pairs": len(traced),
        "request_seeds": sorted({r.seed for r in requests}),
        "kernel_failures": kernel_failures,
        "self_times_add_up": self_times_add_up(metrics),
    }
    return requests, len(KERNELS) * KERNEL_REPEATS, len(kernel_failures), metrics, detail


def run(workload: Workload, seed, seconds, traced):
    """One run; prints digests, environment and detail, returns the result."""
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(tmp)
        env = environment(runner)
        if traced:
            requests, k_attempted, k_failed, metrics, detail = trace(runner, workload, seed, seconds)
            correct = not k_failed and detail["self_times_add_up"]
        else:
            requests, metrics, detail = measure(runner, workload, seed, seconds)
            k_attempted = k_failed = 0
            correct = True
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    failed = sum(1 for r in requests if r.reasons)
    for (label, s), (digest, seen) in sorted(runner.digests.items()):
        print(f"sha256 {label} --seed {s} {digest} x{seen}")
    print("environment " + json.dumps(env))
    print("detail " + json.dumps(detail))
    return {
        "correct": correct and failed == 0,
        "attempted": len(requests) + k_attempted,
        "failed": failed + k_failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="'all' runs every workload and prints a table instead of JSON")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "subsym" / "cli.py").is_file():
        sys.exit(f"no subsym sources under {ROOT / 'src'}; run from a checkout")
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload != "all":
        print(json.dumps(run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)))
        return 0
    rows = []
    for name, workload in WORKLOADS.items():
        result = run(workload, args.seed, args.seconds, args.trace)
        rows.append((name, "correct", result["correct"], ""))
        rows.append((name, "failed_frac", result["failed"] / result["attempted"],
                     f"frac of {result['attempted']} requests"))
        rows += [(name, m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
    for row in rows:
        print("{:<20} {:<46} {:>14} {}".format(*(f"{x:.6g}" if isinstance(x, float) else str(x) for x in row)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
