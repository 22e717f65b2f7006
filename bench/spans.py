"""In-memory span tracing around robustfolio's public functions.

A span is (id, name, start, end, parent id, op id, key). Wrappers are
installed at every ``robustfolio.*`` module attribute bound to a traced
function, which is where callers look the name up, so calls between modules
and calls inside the defining module are both seen. Nothing under ``src/``
is changed. Spans stay in memory until the benchmark writes them out.

This module imports only the standard library at import time; robustfolio is
imported by ``Tracer.install``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time

# Traced functions: (module, attribute). The span name is "<module>.<attribute>".
TRACED = (
    ("cli", "validate_config"),
    ("cli", "run"),
    ("cli", "emit"),
    ("measures", "make_model"),
    ("measures", "binomial"),
    ("measures", "normal"),
    ("measures", "shifted_lognormal"),
    ("measures", "truncated_normal"),
    ("measures", "explicit"),
    ("measures", "wasserstein_distance"),
    ("baseline_solver", "solve_baseline"),
    ("baseline_solver", "davis_price"),
    ("baseline_solver", "davis_price_via_root"),
    ("sensitivity", "sensitivity_report"),
    ("sensitivity", "value_sensitivity"),
    ("sensitivity", "optimizer_sensitivity"),
    ("sensitivity", "kl_value_sensitivity"),
    ("sensitivity", "davis_sensitivity"),
    ("analytic_fixtures", "fixture"),
    ("robust_solver", "solve_delta_grid"),
    ("robust_solver", "robust_solve"),
    ("robust_solver", "robust_solve_inf"),
    ("robust_solver", "robust_solve_p"),
    ("robust_solver", "adversary_inner_inf"),
    ("robust_solver", "robust_davis_price"),
    ("robust_solver", "martingale_check_robust"),
)

MODEL_MAKERS = frozenset({"measures.make_model", "measures.binomial", "measures.normal",
                      "measures.shifted_lognormal", "measures.truncated_normal",
                      "measures.explicit"})
SENSITIVITY = frozenset(f"sensitivity.{a}" for m, a in TRACED if m == "sensitivity")
INNER = "robust_solver.adversary_inner_inf"
OUTER = "robust_solver.robust_solve_p"


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _inner_key(args, kwargs):
    """(pi, delta) of an adversary_inner_inf call."""
    import numpy as np
    pi = args[2] if len(args) > 2 else kwargs["pi"]
    delta = args[3] if len(args) > 3 else kwargs["delta"]
    return [float(np.atleast_1d(np.asarray(pi, dtype=float))[0]), float(delta)]



class Tracer:
    """Records spans for wrapped calls and counts of scalar utility evaluations."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self.utility_evals: dict[int, int] = {}
        self._open_solves = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # a pool worker's outermost call belongs to the span that is open
        # on the main thread (the command that submitted it)
        main = self._main_stack
        return main[-1] if main else -1

    def wrap(self, name: str, fn):
        key_fn = _inner_key if name == INNER else None
        solve = int(name == OUTER)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [next(self._ids), name, 0.0, 0.0, self._parent(stack), self.op,
                    key_fn(args, kwargs) if key_fn else None]
            stack.append(span[0])
            self._open_solves += solve
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open_solves -= solve
                stack.pop()
                self.spans.append(span)

        traced.__wrapped_by_bench__ = fn
        return traced

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span timed outside a wrapper (e.g. a module import)."""
        self.spans.append([next(self._ids), name, start, end, -1, self.op, None])

    def count_utility(self, n: int) -> None:
        """Count ``n`` scalar evaluations made inside a robust_solve_p call."""
        if self._open_solves:
            self.utility_evals[self.op] = self.utility_evals.get(self.op, 0) + n

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every robustfolio module attribute bound to a traced function."""
        if not self._patches:
            importlib.import_module("robustfolio.cli")
            modules = [m for n, m in sys.modules.items() if m is not None
                       and (n == "robustfolio" or n.startswith("robustfolio."))]
            for mod_name, attr in TRACED:
                original = getattr(sys.modules[f"robustfolio.{mod_name}"], attr)
                if hasattr(original, "__wrapped_by_bench__"):
                    raise RuntimeError(f"robustfolio.{mod_name}.{attr} is already traced")
                wrapper = self.wrap(f"{mod_name}.{attr}", original)
                self._patches += [(module, name, original, wrapper)
                                  for module in modules
                                  for name, value in vars(module).items() if value is original]
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in self._patches:
            setattr(module, name, original)

    def counting_utility(self, utility):
        """Copy of ``utility`` whose u, u', u'' count scalar evaluations
        made inside robust_solve_p."""
        import dataclasses

        import numpy as np

        def counted(fn):
            def call(x):
                self.count_utility(int(np.size(x)))
                return fn(x)
            return call

        return dataclasses.replace(utility, u=counted(utility.u),
                                   u_prime=counted(utility.u_prime),
                                   u_double_prime=counted(utility.u_double_prime))


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, start, end, parent, _, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def time_shares(spans: list[list], op_seconds: float) -> dict[str, float]:
    """Self time per module (import and the inner oracle on their own) as a
    share of the traced ops' latency; pool threads' time is summed."""
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        key = s[1] if s[1] in ("cli.import", INNER) else s[1].split(".")[0]
        totals[key] = totals.get(key, 0.0) + selfs[s[0]]
    return {k: v / op_seconds for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}


def layer_metrics(spans: list[list], n_ops: int, utility_evals: int,
                  import_s: list[float], import_scipy_s: list[float]) -> dict[str, float]:
    """Per-layer metrics over the traced ops (see BENCHMARK.json / predictions.json)."""
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}

    def per_call_ms(names) -> float:
        vals = [selfs[s[0]] for s in spans if s[1] in names]
        return 1e3 * sum(vals) / len(vals) if vals else 0.0

    def calls(names) -> int:
        return sum(1 for s in spans if s[1] in names)

    def per_op(count: int) -> float:
        return count / n_ops if n_ops else 0.0

    outermost_builds = sum(1 for s in spans if s[1] in MODEL_MAKERS
                           and by_id.get(s[4], (None, None))[1] not in MODEL_MAKERS)
    solves = calls({OUTER})
    seen = set()
    repeats = 0
    inner = 0
    for s in sorted(spans, key=lambda s: s[2]):
        if s[1] == INNER and by_id.get(s[4], (None, None))[1] == OUTER:
            inner += 1
            key = (s[5], s[4], *s[6])
            repeats += key in seen
            seen.add(key)

    def median_ms(values) -> float:
        return 1e3 * statistics.median(values) if values else 0.0

    return {
        "cli.import_ms": median_ms(import_s),
        "cli.import_scipy_ms": median_ms(import_scipy_s),
        "cli.validate_ms": per_call_ms({"cli.validate_config"}),
        "cli.validate_calls_per_op": per_op(calls({"cli.validate_config"})),
        "cli.emit_ms": per_call_ms({"cli.emit"}),
        "cli.run_self_ms": per_call_ms({"cli.run"}),
        "measures.build_ms": per_call_ms(MODEL_MAKERS),
        "measures.build_calls": per_op(outermost_builds),
        "measures.wasserstein_ms": per_call_ms({"measures.wasserstein_distance"}),
        "measures.wasserstein_calls": per_op(calls({"measures.wasserstein_distance"})),
        "baseline_solver.solve_ms": per_call_ms({"baseline_solver.solve_baseline"}),
        "baseline_solver.solve_calls": per_op(calls({"baseline_solver.solve_baseline"})),
        "baseline_solver.davis_root_ms": per_call_ms({"baseline_solver.davis_price_via_root"}),
        "sensitivity.report_ms": per_call_ms(SENSITIVITY),
        "sensitivity.report_calls": per_op(calls(SENSITIVITY)),
        "robust_solver.inf_ms": per_call_ms({"robust_solver.robust_solve_inf"}),
        "robust_solver.inf_calls": per_op(calls({"robust_solver.robust_solve_inf"})),
        "robust_solver.inner_ms": per_call_ms({INNER}),
        "robust_solver.inner_calls_per_solve": inner / solves if solves else 0.0,
        "robust_solver.inner_repeat_ratio": repeats / inner if inner else 0.0,
        "robust_solver.outer_self_ms": per_call_ms({OUTER}),
        "robust_solver.davis_ms": per_call_ms({"robust_solver.robust_davis_price"}),
        "utility.evals_per_solve": utility_evals / solves if solves else 0.0,
    }
