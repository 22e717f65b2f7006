"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q

Run from the root of a source checkout. The traced runs use --seconds 0.1,
which still makes one untraced and one traced pass; the whole file takes a
few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SCRATCH = BENCH / "out" / "selftest"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("cli.validate_calls_per_op", "measures.build_calls", "measures.wasserstein_calls",
          "baseline_solver.solve_calls", "sensitivity.report_calls", "robust_solver.inf_calls",
          "robust_solver.inner_calls_per_solve", "robust_solver.inner_repeat_ratio",
          "utility.evals_per_solve")


def bench(workload, trace, seed=3, seconds=0.1, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced_pair(request):
    """Two traced runs of one workload and seed, and the spans of the second."""
    runs = []
    for _ in range(2):
        proc = bench(request.param, 1)
        assert proc.returncode == 0, proc.stderr
        runs.append(result(proc))
    span_file = BENCH / "out" / f"spans-{request.param}-seed3.json"
    return request.param, runs, json.loads(span_file.read_text())


def test_counts_repeat_exactly(traced_pair):
    workload, (first, second), _ = traced_pair
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    if workload == "finite_p":
        assert first["metrics"]["robust_solver.inner_calls_per_solve"]["value"] > 0
        assert first["metrics"]["utility.evals_per_solve"]["value"] > 0
    if workload == "cli_cold":
        assert first["metrics"]["cli.validate_calls_per_op"]["value"] > 0
    if workload == "closed_forms":
        assert first["metrics"]["measures.build_calls"]["value"] > 0


def test_children_lie_inside_parents(traced_pair):
    _, _, record = traced_pair
    rows = record["spans"]
    assert rows
    by_id = {row[0]: row for row in rows}
    for sid, name, start, end, parent, op, _ in rows:
        assert start <= end, name
        if parent >= 0:
            p = by_id[parent]
            assert p[2] <= start and end <= p[3], (name, p[1])
            assert p[5] == op
    assert min(spans.self_times(rows).values()) >= 0.0


def test_printed_metrics_are_declared(traced_pair):
    _, (first, _), _ = traced_pair
    assert set(first["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    for m in DECLARED["per_layer"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]


def test_end_to_end_metrics_are_declared():
    proc = bench("closed_forms", 0)
    assert proc.returncode == 0, proc.stderr
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    for m in DECLARED["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def _corrupt_copy(relative: str) -> Path:
    golden = SCRATCH / "golden"
    shutil.rmtree(golden, ignore_errors=True)
    shutil.copytree(workloads.GOLDEN, golden)
    target = golden / relative
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
    return golden


def test_corrupt_closed_forms_golden_fails_that_op():
    golden = _corrupt_copy("closed_forms/figures-fig1.csv")
    ops = {op.name: op for op in workloads.build("closed_forms", 3, golden)}
    good = {op.name: op for op in workloads.build("closed_forms", 3)}
    output = ops["figures-fig1"].run()
    assert good["figures-fig1"].check(output) is None
    assert ops["figures-fig1"].check(output) == "CSV differs from the golden recording"
    assert ops["figures-fig4"].check(ops["figures-fig4"].run()) is None


def test_corrupt_cli_golden_fails_that_op():
    golden = _corrupt_copy("cli_cold/solve.stdout")
    ops = {op.name: op for op in workloads.build("cli_cold", 3, golden)}
    good = {op.name: op for op in workloads.build("cli_cold", 3)}
    recorded = (workloads.GOLDEN / "cli_cold" / "solve.stdout").read_bytes()
    output = workloads.CliResult(recorded, 0, 0.0, [])
    assert good["solve"].check(output) is None
    assert ops["solve"].check(output) == "stdout differs from the golden recording"
    assert ops["sensitivity"].check(workloads.CliResult(b"", 0, 0.0, [])) is not None
    assert good["exit2-invalid"].check(workloads.CliResult(b"", 2, 0.0, [])) is None
    assert good["exit2-invalid"].check(workloads.CliResult(b"", 1, 0.0, [])) is not None


def test_certificates_reject_bad_outputs():
    ref = {"V": [0.3, 0.2]}
    radii, v_inf = [0.1, 0.2], [0.31, 0.21]
    ok = {"V": [0.3, 0.2], "cost": [0.1, 0.2]}
    assert workloads.certificate_failure(ok, radii, v_inf, ref) is None
    bad = [
        {"V": [0.3, 0.2], "cost": [0.1, 0.2000001]},   # left the ball
        {"V": [0.3, 0.30000001], "cost": [0.1, 0.2]},  # V increases in delta
        {"V": [0.3, 0.2], "cost": [0.1, 0.2]},         # above its upper bound (see below)
        {"V": [0.3, 0.20001], "cost": [0.1, 0.2]},     # off the reference
    ]
    assert workloads.certificate_failure(bad[0], radii, v_inf, ref).startswith("transport")
    assert workloads.certificate_failure(bad[1], radii, v_inf, ref).startswith("V increases")
    assert workloads.certificate_failure(bad[2], radii, [0.31, 0.19], ref).startswith("V_p")
    assert workloads.certificate_failure(bad[3], radii, v_inf, ref).startswith("V ")
    priced = {"V": [0.0], "cost": [0.0], "price": 0.5}
    assert workloads.certificate_failure(priced, [0.1], [0.0], {"V": [0.0], "price": 0.4})
    unpriced = {"V": [0.0], "cost": [0.0]}
    assert workloads.certificate_failure(unpriced, [0.1], [0.0], {"V": [0.0], "price": 0.4})


def test_refuses_checkout_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("closed_forms", 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_shape():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in DECLARED["workloads"])
    assert {m["name"] for m in DECLARED["end_to_end"]} >= {"setup_s"}
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    predicted = {name for p in json.loads((BENCH / "predictions.json").read_text())["predictions"]
                 for name in p["layer"]}
    assert predicted == {m["name"] for m in DECLARED["per_layer"]}


def test_latency_stats_weigh_every_op_type():
    import run
    fast = [1.0 + 0.01 * i for i in range(30)]
    samples = ([run.Sample("fast", 9.0, None, False, norm_s=x) for x in fast]
               + [run.Sample("slow", 9.0, None, False, norm_s=4.0 * x) for x in fast])
    p50, tail, pct = run.latency_stats(samples)
    # 30 samples per op: p66.7 has 10 beyond it, near 19 1/3 steps of 0.01 from 1.0
    assert pct == pytest.approx(200.0 / 3.0)
    assert p50 == pytest.approx(2.0 * 1.145)
    assert tail == pytest.approx(2.0 * run.quantile(fast, 2.0 / 3.0))
    assert 1.185 < run.quantile(fast, 2.0 / 3.0) < 1.2
    few = [run.Sample(op, x, None, False) for op in ("a", "b") for x in fast[:20]]
    assert (run.latency_stats(few, normalized=False)[1]
            == pytest.approx(run.latency_stats(few, normalized=False)[0]))


def test_quantile_weighs_every_sample():
    import run
    assert run.quantile([3.0], 0.5) == pytest.approx(3.0)
    assert run.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == pytest.approx(2.5)
    # unlike the sample median, every sample moves the estimate
    assert run.quantile([1.0, 2.0, 3.0, 4.0, 9.0], 0.5) > run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5)


def test_normalize_scales_by_reference_loop_around_each_op():
    import run
    # (midpoint, duration) of the reference loop runs; the op spans 1..3 s
    checks = [(0.0, 2 * run.REF_LOOP_S), (2.0, 9.0), (4.0, run.REF_LOOP_S)]
    sample = run.Sample("op", 2.0, None, False, start=1.0)
    run.normalize([sample], [checks[0], checks[2]])
    assert sample.norm_s == pytest.approx(2.0 / 1.5)
    # a loop run in the middle of the op cannot happen; the nearest ones count
    sample = run.Sample("op", 0.5, None, False, start=2.5)
    run.normalize([sample], checks)
    assert sample.norm_s == pytest.approx(0.5 * run.REF_LOOP_S / ((9.0 + run.REF_LOOP_S) / 2))


def test_inner_calls_counted_only_inside_solves():
    # id, name, start, end, parent, op, key; span 3 is an oracle call made
    # outside any robust_solve_p and must not count toward the per-solve figures
    rows = [[0, spans.OUTER, 0.0, 1.0, -1, 0, None],
            [1, spans.INNER, 0.1, 0.2, 0, 0, [1.0, 0.1]],
            [2, spans.INNER, 0.3, 0.4, 0, 0, [1.0, 0.1]],
            [3, spans.INNER, 1.1, 1.2, -1, 0, [2.0, 0.1]]]
    layers = spans.layer_metrics(rows, 1, 0, [], [])
    assert layers["robust_solver.inner_calls_per_solve"] == 2
    assert layers["robust_solver.inner_repeat_ratio"] == 0.5
