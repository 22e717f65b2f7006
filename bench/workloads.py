"""The benchmark's three workloads: their ops, inputs drawn from the seed, and checks.

Every op returns its output; its check returns None when the output is right
and a short reason when it is not. Reference outputs were recorded from the
unmodified library by ``bench/record.py`` and live under ``bench/golden``.

cli_cold      one fresh ``python -m robustfolio.cli`` process per op; stdout
              bytes and exit code must equal the golden recording.
finite_p      finite-order robust solves in this process; certificates plus a
              recorded reference value.
closed_forms  ``cli.run`` + ``cli.emit`` in this process on validated configs;
              rendered CSV bytes must equal the golden recording.

The seed picks one value from each stated parameter set below (each value has
its own reference) and shuffles the op order of every pass.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
OUT = BENCH / "out"

WORKLOADS = ("cli_cold", "finite_p", "closed_forms")

# Reference tolerance for finite-p values (absolute; the solver tests use the
# same 1e-6), and the slack allowed for rounding in V_p(delta) <= V_inf(delta).
REF_TOL = 1e-6
ORDER_SLACK = 1e-12


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass
class CliResult:
    stdout: bytes
    exit_code: int
    maxrss_mb: float
    spans: list


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

CLI_OPS = {
    "solve": ["solve", "--config", "bench/configs/solve_binomial_log.json"],
    "sensitivity": ["sensitivity", "--config", "bench/configs/sensitivity_normal_exp.json"],
    "robust": ["robust", "--config", "bench/configs/robust_binomial_inf.json"],
    "davis": ["davis", "--config", "bench/configs/davis_normal_exp.json"],
    "sweep": ["sweep", "--config", "bench/configs/sweep_binomial_log.json"],
    "figures": ["figures", "fig4"],
    "oracle-check": ["oracle-check", "--config", "bench/configs/oracle_binomial_log.json"],
    "exit2-invalid": ["solve", "--config", "bench/configs/invalid_schema.json"],
    "exit3-degenerate": ["robust", "--config", "bench/configs/degenerate_finite_p.json"],
}


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cmd: list[str]) -> tuple[bytes, int, float]:
    """Run one process to completion: (stdout, exit code, peak RSS in MB)."""
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss / 1024.0


def cli_argv(name: str) -> list[str]:
    return [sys.executable, "-m", "robustfolio.cli", *CLI_OPS[name]]


def _cli_ops(golden: Path, traced: bool) -> list[Op]:
    codes = json.loads((golden / "cli_cold" / "exit_codes.json").read_text())
    ops = []
    for index, name in enumerate(CLI_OPS):
        expected = (golden / "cli_cold" / f"{name}.stdout").read_bytes()
        spans_path = OUT / f"child-spans-{os.getpid()}-{index}.json"

        def run(name=name, spans_path=spans_path) -> CliResult:
            if not traced:
                return CliResult(*spawn(cli_argv(name)), spans=[])
            cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_path),
                   *CLI_OPS[name]]
            out, code, rss = spawn(cmd)
            try:
                spans = json.loads(spans_path.read_text())
            finally:
                spans_path.unlink(missing_ok=True)
            return CliResult(out, code, rss, spans)

        def check(res: CliResult, expected=expected, code=codes[name]) -> "str | None":
            if res.exit_code != code:
                return f"exit code {res.exit_code} != {code}"
            if res.stdout != expected:
                return "stdout differs from the golden recording"
            return None

        ops.append(Op(name, run, check))
    return ops


# ---------------------------------------------------------------------------
# closed_forms
# ---------------------------------------------------------------------------

_NORMAL_EXP = {"model": {"kind": "normal", "mu": 0.1, "sigma": 0.2},
               "utility": {"kind": "exponential", "gamma": 1.0}}

# op family -> (parameter label, stated set, maker of (command, config, preset)).
# The sweep has 8 points: that still starts all 8 pool workers, and keeps the
# pool's latency swings under machine contention (2.5x at 30 points) a small
# part of a pass.
CLOSED_FORM_FAMILIES = {
    **{f"figures-{p}": ("preset", [p], lambda p: ("figures", {}, p))
       for p in ("fig1", "fig2-left", "fig2-right", "fig3-left", "fig3-right", "fig4")},
    "sweep-mu": ("sigma", [0.15, 0.2, 0.25], lambda s: (
        "sweep", {**_NORMAL_EXP, "model": {"kind": "normal", "mu": 0.1, "sigma": s},
                  "sweep": {"parameter": "mu", "grid": [0.05, 0.40, 0.05]}}, None)),
    "sensitivity": ("mu", [0.05, 0.1, 0.15], lambda m: (
        "sensitivity", {**_NORMAL_EXP, "model": {"kind": "normal", "mu": m, "sigma": 0.2},
                        "payoff": {"kind": "power", "k": 2}}, None)),
    "davis-root": ("mu", [0.05, 0.1, 0.15], lambda m: (
        "davis", {**_NORMAL_EXP, "model": {"kind": "normal", "mu": m, "sigma": 0.2},
                  "payoff": {"kind": "power", "k": 2}}, None)),
    "robust-inf-grid": ("mu", [0.05, 0.1, 0.15], lambda m: (
        "robust", {**_NORMAL_EXP, "model": {"kind": "normal", "mu": m, "sigma": 0.2},
                   "wasserstein_p": "inf", "delta_grid": [0.0, 0.3, 0.01],
                   "payoff": {"kind": "power", "k": 2}}, None)),
    "oracle-binomial_log": ("a", [0.25, 0.3], lambda a: (
        "oracle-check", {"fixture": {"name": "binomial_log",
                                     "params": {"a": a, "q": 1.0}}}, None)),
    "oracle-binomial_exp": ("a", [0.25, 0.3], lambda a: (
        "oracle-check", {"fixture": {"name": "binomial_exp",
                                     "params": {"a": a, "gamma": 1.0, "q": 1.0}}}, None)),
    "oracle-normal_exp": ("mu", [0.1, 0.15], lambda m: (
        "oracle-check", {"fixture": {"name": "normal_exp",
                                     "params": {"mu": m, "sigma": 0.2}}}, None)),
    "oracle-capped_exp_limit": ("mu", [0.1, 0.15], lambda m: (
        "oracle-check", {"fixture": {"name": "capped_exp_limit",
                                     "params": {"mu": m, "sigma": 0.2, "q": 2.0}}}, None)),
    "oracle-lognormal_butterfly": ("mu", [-0.1, -0.05], lambda m: (
        "oracle-check", {"fixture": {"name": "lognormal_butterfly",
                                     "params": {"mu": m, "sigma": 0.2}}}, None)),
}


def closed_form_cases(rng: random.Random | None):
    """(op name, command, config, preset) per family; every value when rng is None."""
    for family, (label, values, make) in CLOSED_FORM_FAMILIES.items():
        for value in (values if rng is None else [rng.choice(values)]):
            name = family if label == "preset" else f"{family}.{label}={value:g}"
            yield (name, *make(value))


def _closed_form_ops(rng: random.Random, golden: Path) -> list[Op]:
    from robustfolio import cli
    ops = []
    for name, command, cfg, preset in closed_form_cases(rng):
        cli.validate_config(cfg)
        expected = (golden / "closed_forms" / f"{name}.csv").read_bytes()

        def run(command=command, cfg=cfg, preset=preset) -> bytes:
            return cli.emit(cli.run(command, cfg, preset)).encode()

        def check(out: bytes, expected=expected) -> "str | None":
            return None if out == expected else "CSV differs from the golden recording"

        ops.append(Op(name, run, check))
    return ops


# ---------------------------------------------------------------------------
# finite_p
# ---------------------------------------------------------------------------

_SIX_POINTS = [-0.6, -0.3, -0.1, 0.1, 0.4, 0.7]

FINITE_P_FAMILIES = {
    # solve_delta_grid, binomial/log, p = 2
    "grid-binomial": ("a", [0.25, 0.3, 0.35]),
    # robust_solve_p on the criterion-09 instance (12-atom truncated normal)
    "solve-truncnormal": ("mu", [0.17, 0.19]),
    # robust_solve_p, 6-atom explicit model, power utility, p = 3
    "solve-explicit6": ("weights", [(0.1, 0.15, 0.2, 0.2, 0.2, 0.15),
                                    (0.1, 0.15, 0.15, 0.2, 0.25, 0.15)]),
    # robust_davis_price, zero-mean model, p = 2 (ball-infimum path)
    "davis-zeromean": ("strike", [0.0, 0.1]),
}


def _label(value) -> str:
    if isinstance(value, tuple):
        return "-".join(f"{v:g}" for v in value)
    return f"{value:g}"


def finite_p_cases(rng: random.Random | None):
    """(op name, family, value) per family; every value when rng is None."""
    for family, (label, values) in FINITE_P_FAMILIES.items():
        for value in (values if rng is None else [rng.choice(values)]):
            yield f"{family}.{label}={_label(value)}", family, value


def finite_p_instance(family: str, value, wrap_utility=None):
    """(spec, radii, payoff) for one finite-p case."""
    import robustfolio as rf
    wrap = wrap_utility or (lambda u: u)
    if family == "grid-binomial":
        space = rf.StateSpace.interval(-1.25, 1.25)
        spec = rf.ProblemSpec(model=rf.binomial(value, space),
                              utility=wrap(rf.log_shifted(1.0)),
                              action_space=rf.StateSpace.interval(-0.75, 0.75),
                              order=rf.WassersteinOrder(2.0))
        return spec, [0.02, 0.05, 0.1, 0.2], None
    if family == "solve-truncnormal":
        spec = rf.ProblemSpec(model=rf.truncated_normal(value, 0.1, 0.4, 12),
                              utility=wrap(rf.exponential(1.0)),
                              action_space=rf.StateSpace.interval(-18.0, 18.0),
                              order=rf.WassersteinOrder(2.0))
        return spec, [1e-3], None
    if family == "solve-explicit6":
        space = rf.StateSpace.interval(-1.0, 1.0)
        spec = rf.ProblemSpec(model=rf.explicit(_SIX_POINTS, value, space),
                              utility=wrap(rf.power(2.0, 1.0)),
                              action_space=rf.StateSpace.interval(-0.75, 0.75),
                              order=rf.WassersteinOrder(3.0))
        return spec, [0.05], None
    if family == "davis-zeromean":
        space = rf.StateSpace.interval(-1.0, 1.0)
        spec = rf.ProblemSpec(model=rf.explicit([-0.5, -0.2, 0.2, 0.5], [0.25] * 4, space),
                              utility=wrap(rf.log_shifted(1.0)),
                              action_space=rf.StateSpace.interval(-0.75, 0.75),
                              order=rf.WassersteinOrder(2.0))
        return spec, [0.1], rf.call_payoff(value)
    raise ValueError(f"unknown finite-p family {family!r}")


def solve_finite_p(family: str, spec, radii, payoff) -> dict:
    """One finite_p op: the library calls, looked up at call time."""
    from robustfolio import robust_solver
    if family == "grid-binomial":
        sols = robust_solver.solve_delta_grid(spec, radii)
    else:
        sols = [robust_solver.robust_solve_p(spec, radii[0])]
    out = {"V": [s.V_delta for s in sols], "cost": [s.transport_cost for s in sols]}
    if payoff is not None:
        out["price"] = robust_solver.robust_davis_price(spec, payoff, radii[0], sols[0])
    return out


def _finite_p_ops(rng: random.Random, golden: Path, wrap_utility) -> list[Op]:
    refs = json.loads((golden / "finite_p.json").read_text())
    ops = []
    for name, family, value in finite_p_cases(rng):
        spec, radii, payoff = finite_p_instance(family, value, wrap_utility)
        upper = upper_bounds(spec, radii)

        def run(family=family, spec=spec, radii=radii, payoff=payoff) -> dict:
            return solve_finite_p(family, spec, radii, payoff)

        def check(out: dict, radii=radii, upper=upper, ref=refs[name]) -> "str | None":
            return certificate_failure(out, radii, upper, ref)

        ops.append(Op(name, run, check))
    return ops


def upper_bounds(spec, radii) -> list[float]:
    """V_inf(delta) on the same spec, which no finite-p value may exceed."""
    from robustfolio import WassersteinOrder, robust_solve_inf
    inf_spec = dataclasses.replace(spec, order=WassersteinOrder(math.inf))
    return [robust_solve_inf(inf_spec, d).V_delta for d in radii]


def certificate_failure(out: dict, radii, upper, ref: dict) -> "str | None":
    """The finite-p certificates; None when every one holds. ``upper`` holds
    the bounds from ``upper_bounds``."""
    V, cost = out["V"], out["cost"]
    for d, c in zip(radii, cost):
        if not c <= d:
            return f"transport cost {c!r} exceeds radius {d!r}"
    for lo, hi in zip(V, V[1:]):
        if not hi <= lo:
            return f"V increases along the radius grid: {lo!r} -> {hi!r}"
    for v, bound in zip(V, upper):
        if not v <= bound + ORDER_SLACK:
            return f"V_p {v!r} exceeds its upper bound {bound!r}"
    for key in ("V", "price"):
        if (key in out) != (key in ref):
            return f"{key} is in only one of the output and the reference"
        if key not in ref:
            continue
        got = out[key] if isinstance(out[key], list) else [out[key]]
        want = ref[key] if isinstance(ref[key], list) else [ref[key]]
        if len(got) != len(want) or any(not abs(g - w) <= REF_TOL for g, w in zip(got, want)):
            return f"{key} {out[key]!r} is not within {REF_TOL:g} of the reference {ref[key]!r}"
    return None


# ---------------------------------------------------------------------------

def build(workload: str, seed: int, golden: Path = GOLDEN, tracer=None) -> list[Op]:
    """The ops of one run. A tracer switches cli_cold to bench/cli_traced.py and
    gives finite_p specs utilities that count their evaluations."""
    rng = random.Random(f"params-{seed}")
    if workload == "cli_cold":
        return _cli_ops(golden, traced=tracer is not None)
    if workload == "closed_forms":
        return _closed_form_ops(rng, golden)
    if workload == "finite_p":
        return _finite_p_ops(rng, golden, tracer.counting_utility if tracer else None)
    raise ValueError(f"unknown workload {workload!r}")
