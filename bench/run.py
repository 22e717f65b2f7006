"""robustfolio benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 bench/run.py --workload {cli_cold,finite_p,closed_forms} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the package is taken from ``src/``).
Without --workload, the three workloads run one after another.
Each workload is a closed loop: one client, one op in flight. A run times
seed-shuffled passes over the workload's ops for S seconds; the first pass is
always whole, and no op starts after S (a traced run makes whole cycles, see
``run_passes``). On a shared host the CPU's speed wanders over seconds to
minutes, so a longer S averages more of it out.

--trace 0  end-to-end metrics with tracing off: setup_s, op_p50_norm_ms,
           op_tail_norm_ms, ops_per_norm_s, peak_rss_mb (failed_ratio is
           printed in the summary and carried by ``failed``/``attempted``).
           The _norm metrics are op latencies at a fixed reference speed of
           the host (see ``normalize``); their wall-clock counterparts
           op_p50_ms, op_tail_ms and ops_per_s are printed and recorded too.
           p50 and tail are geometric means over op types of each op's
           median and tail, so that every op type counts and none alone sets
           them (see ``latency_stats``).
--trace 1  per-layer metrics. Untraced and traced passes alternate; the
           difference of their op_p50_norm_ms is the tracing overhead.

Every op's output is checked (see workloads.py). The last line of stdout is
the result as one JSON object; the full record, with the machine and
environment, goes to bench/out/. A failed op makes the exit code 1; a
checkout without ``src/robustfolio`` makes it 2, with nothing printed.
"""

from __future__ import annotations

import argparse
import bisect
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import Tracer, layer_metrics, now, time_shares  # noqa: E402

# Set-up probes per run: half before the timed phase and half after it, so
# that their median samples the machine's speed over the whole run and not at
# one moment.
SETUP_REPEATS = 4
# The shared host's CPU speed swings by up to 2x from one second to the next,
# and all ops of a run slow down together. A fixed pure-Python loop of
# REF_ITERATIONS is timed at the start of the timed phase, before an op
# whenever CHECK_EVERY_S have passed since the last time, and at the end;
# each op's latency is scaled
# by REF_LOOP_S over the loop's mean time around it. REF_LOOP_S is about the
# loop's median time on a 2-core Xeon VM (Python 3.11).
REF_ITERATIONS = 500_000
REF_LOOP_S = 0.05
CHECK_EVERY_S = 1.0
IMPORTTIME_REPEATS = 3
LIMITS = ("shared machine (see nproc); no CPU pinning, no cache control, no "
          "machine-wide tracing; wall-clock timings move with other load on the host, "
          "and the _norm metrics scale them by a reference loop timed alongside")


@dataclass
class Sample:
    op: str
    latency_s: float
    failure: str | None
    traced: bool
    rss_mb: float = 0.0
    spans: list = field(default_factory=list)
    start: float = 0.0
    norm_s: float = 0.0  # latency at the reference speed, set by ``normalize``


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def probe(workload: str, seed: int) -> int:
    """Child side of a set-up measurement: import, build the ops, report."""
    start = now()
    import robustfolio.cli  # noqa: F401
    import_s = now() - start
    if workload != "cli_cold":
        import workloads
        workloads.build(workload, seed)
    print(json.dumps({"ready": now(), "import_s": import_s}))
    return 0


def measure_setup(workload: str, seed: int, repeats: int) -> tuple[list[float], list[float]]:
    """Set-up times (spawn until the first op could start) and import times."""
    import workloads
    setups, imports = [], []
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe", workload, "--seed", str(seed)]
    for _ in range(repeats):
        spawned = now()
        out, code, _ = workloads.spawn(cmd)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        report = json.loads(out.decode().strip().splitlines()[-1])
        setups.append(report["ready"] - spawned)
        imports.append(report["import_s"])
    return setups, imports


def scipy_import_s() -> list[float]:
    """Self time of scipy modules in ``python -X importtime -c 'import robustfolio.cli'``."""
    import workloads
    totals = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import robustfolio.cli"], cwd=ROOT, env=workloads.child_env(),
                              capture_output=True, text=True, check=True)
        micros = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (p.strip() for p in line[len("import time:"):].split("|"))
            if self_us.isdigit() and (name == "scipy" or name.startswith("scipy.")):
                micros += int(self_us)
        totals.append(micros / 1e6)
    return totals


# ---------------------------------------------------------------------------
# timed phase
# ---------------------------------------------------------------------------

def reference_loop() -> tuple[float, float]:
    """(midpoint, duration) of one timed run of the fixed reference loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


def normalize(samples: list[Sample], checks: list[tuple[float, float]]) -> None:
    """Set each sample's ``norm_s``: its latency scaled by REF_LOOP_S over the
    mean time of the reference loop runs just before and just after it."""
    mids = [m for m, _ in checks]
    for s in samples:
        before = checks[bisect.bisect_right(mids, s.start) - 1][1]
        after = checks[bisect.bisect_left(mids, s.start + s.latency_s)][1]
        s.norm_s = s.latency_s * REF_LOOP_S / ((before + after) / 2)


def run_passes(plans, seconds: float, order: random.Random):
    """Seed-shuffled passes for ``seconds``, with normalized latencies.

    ``plans`` is a list of (ops, tracer or None, traced); passes cycle through
    it, so a traced run alternates untraced and traced passes under the same
    machine conditions. A tracer is installed for its own passes only. With
    one plan, the first pass is whole and no op starts after ``seconds``.
    With more, every cycle through the plans is whole, so that per-solve
    counts average over the same ops on every run.
    Returns the samples and the reference loop's (midpoint, duration) list."""
    samples: list[Sample] = []
    checks = [reference_loop()]
    deadline = time.perf_counter() + seconds
    index = 0
    while index % len(plans) or index < len(plans) or time.perf_counter() < deadline:
        ops, tracer, traced = plans[index % len(plans)]
        if tracer is not None:
            tracer.install()
        try:
            for op in order.sample(ops, len(ops)):
                if len(plans) == 1 and index and time.perf_counter() >= deadline:
                    break
                if time.perf_counter() - checks[-1][0] >= CHECK_EVERY_S:
                    checks.append(reference_loop())
                if tracer is not None:
                    tracer.op = len(samples)
                t0 = time.perf_counter()
                try:
                    out = op.run()
                    failure = None
                except Exception as exc:  # an op that raises counts as failed
                    out, failure = None, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
                if failure is None:
                    failure = op.check(out)
                samples.append(Sample(op.name, latency, failure, traced,
                                      getattr(out, "maxrss_mb", 0.0),
                                      getattr(out, "spans", []), start=t0))
        finally:
            if tracer is not None:
                tracer.op = None
                tracer.uninstall()
        index += 1
    checks.append(reference_loop())
    normalize(samples, checks)
    return samples, checks


def quantile(xs: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics. At the 4-5 samples per op of cli_cold and finite_p it
    varies less from run to run than the sample median, which uses the middle
    one or two samples only."""
    from scipy.special import betainc
    xs = sorted(xs)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    edges = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], xs))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    With fewer than 20 samples that percentile would fall below the median,
    so the median is reported (and its percentile recorded) instead."""
    n = len(latencies)
    pct = max(50.0, 100.0 * (n - 10) / n)
    return quantile(latencies, pct / 100.0), pct


def latency_stats(samples: list[Sample], normalized: bool = True) -> tuple[float, float, float]:
    """(p50, tail, tail percentile), in seconds, over samples of several op types,
    of the normalized latencies (or of the wall-clock ones).

    p50 is the geometric mean over op types of each op's median, and the tail
    the geometric mean of each op's ``tail``; both are estimated by
    ``quantile``. Every op type weighs the same whatever its latency, so no
    single op sets either figure. Each op has one sample per pass it took part
    in; the percentile returned is the lowest over op types. With 20 samples
    or fewer per op it is the median, and the tail equals p50."""
    by_op: dict[str, list[float]] = {}
    for s in samples:
        by_op.setdefault(s.op, []).append(s.norm_s if normalized else s.latency_s)

    def gmean(values) -> float:
        return math.exp(statistics.fmean(math.log(v) for v in values))

    tails = [tail(v) for v in by_op.values()]
    return (gmean(quantile(v, 0.5) for v in by_op.values()),
            gmean(t for t, _ in tails), min(p for _, p in tails))


def merge_child_spans(samples: list[Sample]) -> list[list]:
    """Spans written by the per-op traced child processes, renumbered into one id space
    and tagged with the index of their op in ``samples``."""
    merged, base = [], 0
    for op_id, sample in enumerate(samples):
        top = -1
        for sid, name, start, end, parent, _, key in sample.spans:
            merged.append([base + sid, name, start, end,
                           parent if parent < 0 else base + parent, op_id, key])
            top = max(top, sid)
        base += top + 1
    return merged


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, overhead: dict | None) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy", "jsonschema"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = "not installed"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "git_commit": git_commit(), "seed": seed,
            "tracing_overhead": overhead or "not measured (untraced run; see --trace 1)",
            "limits": LIMITS}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="default: run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=workloads.WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "robustfolio" / "cli.py").is_file():
        print(f"error: no robustfolio sources under {ROOT / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.probe:
        return probe(args.probe, args.seed)
    if args.workload is None:
        codes = [subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)],
                                cwd=ROOT).returncode for w in workloads.WORKLOADS]
        return max(codes)
    workloads.OUT.mkdir(exist_ok=True)

    setups, imports = measure_setup(args.workload, args.seed, SETUP_REPEATS // 2)
    plans = [(workloads.build(args.workload, args.seed), None, False)]
    if args.trace:
        tracer = Tracer()
        traced_ops = workloads.build(args.workload, args.seed, tracer=tracer)
        # cli_cold traces inside its per-op child processes (bench/cli_traced.py)
        plans.append((traced_ops, None if args.workload == "cli_cold" else tracer, True))
    samples, checks = run_passes(plans, args.seconds, random.Random(f"order-{args.seed}"))
    after = measure_setup(args.workload, args.seed, SETUP_REPEATS - SETUP_REPEATS // 2)
    setups, imports = setups + after[0], imports + after[1]
    untraced_samples = [s for s in samples if not s.traced]
    traced_samples = [s for s in samples if s.traced]
    p50_s, tail_s, tail_pct = latency_stats(untraced_samples)
    wall_p50_s, wall_tail_s, _ = latency_stats(untraced_samples, normalized=False)
    overhead = None
    if args.trace:
        base = p50_s
        traced = latency_stats(traced_samples)[0]
        overhead = {"untraced_p50_norm_ms": 1e3 * base, "traced_p50_norm_ms": 1e3 * traced,
                    "overhead_norm_ms": 1e3 * (traced - base),
                    "overhead_share": (traced - base) / base}

    attempted = len(samples)
    failures = [s for s in samples if s.failure is not None]
    if args.workload == "cli_cold":
        peak_rss = max(s.rss_mb for s in samples)
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {"setup_s": (statistics.median(setups), "s"),
           "op_p50_norm_ms": (1e3 * p50_s, "ms"),
           "op_tail_norm_ms": (1e3 * tail_s, "ms"),
           "ops_per_norm_s": (attempted / sum(s.norm_s for s in samples), "1/s"),
           "peak_rss_mb": (peak_rss, "MB")}
    wall = {"op_p50_ms": (1e3 * wall_p50_s, "ms"),
            "op_tail_ms": (1e3 * wall_tail_s, "ms"),
            "ops_per_s": (attempted / sum(s.latency_s for s in samples), "1/s")}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed, overhead),
              "attempted": attempted, "failed": len(failures),
              "failed_ratio": len(failures) / attempted,
              "op_tail_percentile": tail_pct, "setup_s_samples": setups,
              "import_s_samples": imports,
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
              "wall_clock": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
              "reference_loop_s": [d for _, d in checks],
              "failures": [{"op": s.op, "reason": s.failure} for s in failures],
              "ops": {}}
    for s in samples:
        record["ops"].setdefault(s.op, []).append(s.latency_s)

    if args.trace:
        if args.workload == "cli_cold":
            spans = merge_child_spans(samples)
            import_samples = [s[3] - s[2] for s in spans if s[1] == "cli.import"]
            utility_evals = 0
        else:
            spans = [s for s in tracer.spans if s[5] is not None]
            import_samples = imports
            utility_evals = sum(n for op, n in tracer.utility_evals.items() if op is not None)
        layers = layer_metrics(spans, len(traced_samples), utility_evals,
                               import_samples, scipy_import_s())
        units = {k: ("ms" if k.endswith("_ms") else
                     "ratio" if k.endswith("ratio") else "count") for k in layers}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        record["per_layer"] = metrics
        shares = time_shares(spans, sum(s.latency_s for s in traced_samples))
        record["time_shares"] = shares
        spans_path = workloads.OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "op", "key"],
             "ops": [s.op for s in samples], "spans": spans}))
    else:
        metrics = record["end_to_end"]

    result_path = workloads.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    ref = statistics.median(d for _, d in checks)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted} in {checks[-1][0] - checks[0][0]:.2f} s  failed {len(failures)}  "
          f"reference loop median {1e3 * ref:.1f} ms (nominal {1e3 * REF_LOOP_S:.0f} ms, "
          f"n={len(checks)})")
    samples_of = [len(setups), *[len(untraced_samples)] * 2, attempted,
                  attempted if args.workload == "cli_cold" else 1,
                  *[len(untraced_samples)] * 2, attempted]
    for (name, (value, unit)), n in zip([*e2e.items(), *wall.items()], samples_of):
        print(f"  {name:<16} {value:14.6g} {unit:<4} (n={n})")
    print(f"  {'failed_ratio':<16} {len(failures) / attempted:14.6g} "
          f"({len(failures)}/{attempted})")
    print(f"  op_tail is at least p{tail_pct:.1f} of each op's "
          f"{len(untraced_samples) // len(plans[0][0])} or more samples")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<38} {m['value']:14.6g} {m['unit']}")
        print("  share of traced op time (self time): " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in shares.items()))
        print(f"  tracing overhead: {overhead['overhead_norm_ms']:+.3f} ms on the median op "
              f"({100 * overhead['overhead_share']:+.2f}%)")
    for s in failures:
        print(f"FAILED {s.op}: {s.failure}", file=sys.stderr)
    env = record["environment"]
    print(f"  machine: nproc {env['nproc']}, {env['cpu_model']}; python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, jsonschema {env['jsonschema']}; "
          f"commit {env['git_commit']}; {env['limits']}")
    print(f"  record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
