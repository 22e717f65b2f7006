"""Batch front end: configs in, CSV/JSON tables out.

Commands
--------
solve        baseline optimum: pi_star, V0, foc_residual, boundary [, davis_price]
sensitivity  first-order report: q, V_prime0, pi_prime0, kappa_u, branch,
             kl_V_prime0, davis_price, davis_prime0 (nan where undefined)
robust       per-radius solve: delta, V_delta, pi_delta, transport_cost,
             martingale_residual, davis_price_delta
davis        pricing cross-check: davis_price, davis_price_root, davis_prime0
sweep        one row per grid value of a named parameter, with the Sharpe
             ratio and all sensitivities
figures      named presets (fig1, fig2-left, fig2-right, fig3-left,
             fig3-right, fig4) emitting the corresponding curve data
oracle-check closed-form fixture vs module outputs, one wide row of
             (quantity_fixture, quantity_module, quantity_err) triples

Exit codes: 0 success; 2 invalid config/arguments; 3 assumption violation
(arbitrage, degeneracy guard, boundary optimum, domain incompatibility);
4 numerical failure, unwritable output, or any other unexpected error (one
'error:' line naming the exception and where it was raised, no traceback).
An unwritable stdout (its descriptor closed, or a pipe no one reads, found
on the write or on the flush at exit) is exit 4 with one 'error:' line.

Output contract: CSV has a header row, '.'-decimal reals at 17 significant
digits, LF line endings, and trailing '# key=value' provenance lines (config
hash, package version); JSON is a column-oriented object with the same
provenance. Identical configs produce byte-identical files — nothing in the
pipeline is randomized, and sweep rows follow the grid order.

Start-up: the engine modules this one names are the package's lazily loaded
modules, and every engine call goes through them
(``baseline_solver.solve_baseline(spec)``), as do the numpy imports inside
the functions that use numpy. So a command runs only what it calls into:
parsing, config loading and validation need the standard library and
``errors`` (the schema takes the fixture names from the package, without
running ``analytic_fixtures``), and a rejected config exits before numpy or
dataclasses loads. A finished table's config is hashed with CPython's
built-in SHA-256, so no process maps OpenSSL, and traceback loads only to
place an internal failure. The process ends in ``entry``: the atexit
handlers run and stdout and stderr are flushed, then ``os._exit`` skips the
interpreter's teardown (a profiled process exits normally).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from pathlib import Path

from . import (FIXTURE_NAMES, __version__, analytic_fixtures, baseline_solver, measures,
               robust_solver, sensitivity)
from . import utility as utilities
from .errors import ConfigError, NumericalFailure, RobustfolioError

_NUMBER = {"type": "number"}
_BOUND = {"oneOf": [{"type": "number"}, {"enum": ["inf", "-inf"]}]}
_INTERVAL = {"type": "array", "items": _BOUND, "minItems": 2, "maxItems": 2}
_GRID3 = {"type": "array", "items": _NUMBER, "minItems": 3, "maxItems": 3}
_POS_INT = {"type": "integer", "minimum": 2}


def _tagged(kind: str, required: list[str], **properties) -> dict:
    """A catalog branch: an object of this ``kind`` with no other keys than
    ``properties``, of which ``required`` must be present."""
    return {"type": "object", "additionalProperties": False, "required": ["kind", *required],
            "properties": {"kind": {"const": kind}, **properties}}


_MODEL_SCHEMA = {"oneOf": [
    _tagged("binomial", ["a"], a=_NUMBER, state_space=_INTERVAL),
    _tagged("normal", ["mu", "sigma"], mu=_NUMBER, sigma=_NUMBER, n_nodes=_POS_INT,
            state_space=_INTERVAL),
    _tagged("shifted_lognormal", ["mu", "sigma"], mu=_NUMBER, sigma=_NUMBER, n_nodes=_POS_INT,
            state_space=_INTERVAL),
    _tagged("truncated_normal", ["mu", "sigma", "radius"], mu=_NUMBER, sigma=_NUMBER,
            radius=_NUMBER, n_nodes=_POS_INT, state_space=_INTERVAL),
    _tagged("explicit", ["points", "weights"], points={"type": "array", "minItems": 1},
            weights={"type": "array", "items": _NUMBER, "minItems": 1}, state_space=_INTERVAL),
]}

_UTILITY_SCHEMA = {"oneOf": [
    _tagged("log_shifted", [], w0=_NUMBER),
    _tagged("exponential", ["gamma"], gamma=_NUMBER),
    _tagged("power", ["eta"], eta=_NUMBER, w0=_NUMBER),
    _tagged("capped_exponential", ["gamma", "kappa"], gamma=_NUMBER, kappa=_NUMBER),
]}

# sweep parameter -> (config section, key) it sets
_SWEEP_TARGETS = {"a": ("model", "a"), "mu": ("model", "mu"),
                  "sigma": ("model", "sigma"), "gamma": ("utility", "gamma"),
                  "kappa": ("utility", "kappa")}

_PAYOFF_SCHEMA = {"oneOf": [
    _tagged("power", ["k"], k={"type": "integer", "minimum": 1}),
    _tagged("call", [], strike=_NUMBER, smoothing=_NUMBER),
    _tagged("butterfly", ["K"], K=_NUMBER, smoothing=_NUMBER),
    _tagged("abs_shift", ["x0"], x0=_NUMBER, smoothing=_NUMBER),
    _tagged("custom", ["xs", "ys"], xs={"type": "array", "items": _NUMBER, "minItems": 2},
            ys={"type": "array", "items": _NUMBER, "minItems": 2}),
]}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "robustfolio run configuration",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "model": _MODEL_SCHEMA,
        "utility": _UTILITY_SCHEMA,
        "wasserstein_p": {"oneOf": [{"type": "number", "exclusiveMinimum": 1.0},
                                    {"const": "inf"}]},
        "action_space": _INTERVAL,
        "state_space": _INTERVAL,
        "payoff": _PAYOFF_SCHEMA,
        "delta": {"type": "number", "minimum": 0.0},
        "delta_grid": _GRID3,
        "sweep": {"type": "object", "additionalProperties": False,
                  "required": ["parameter", "grid"],
                  "properties": {"parameter": {"enum": list(_SWEEP_TARGETS)},
                                 "grid": _GRID3}},
        "fixture": {"type": "object", "additionalProperties": False,
                    "required": ["name"],
                    "properties": {"name": {"enum": list(FIXTURE_NAMES)},
                                   "params": {"type": "object"}}},
        "output": {"type": "object", "additionalProperties": False,
                   "properties": {"path": {"type": "string"},
                                  "format": {"enum": ["csv", "json"]}}},
    },
}


# ---------------------------------------------------------------------------
# Result table + emission
# ---------------------------------------------------------------------------

class ResultTable:
    """Rectangular numeric table with provenance; the single output shape."""

    def __init__(self, columns: list[str], rows: list[list[float]],
                 provenance: dict[str, str] | None = None) -> None:
        for row in rows:
            if len(row) != len(columns):
                raise NumericalFailure("ragged result table")
        self.columns = columns
        self.rows = rows
        self.provenance = {} if provenance is None else provenance


def _fmt_real(x: float) -> str:
    return "%.17g" % float(x)


def render(table: ResultTable, fmt: str = "csv") -> str:
    if fmt == "csv":
        lines = [",".join(table.columns)]
        lines += [",".join(_fmt_real(v) for v in row) for row in table.rows]
        lines += [f"# {k}={table.provenance[k]}" for k in sorted(table.provenance)]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        cols = {}
        for j, name in enumerate(table.columns):
            vals = [row[j] for row in table.rows]
            cols[name] = [None if not math.isfinite(v) else v for v in vals]
        doc = {"columns": cols, "column_order": table.columns,
               "provenance": table.provenance}
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    raise ConfigError(f"unknown output format {fmt!r}")


def emit(table: ResultTable, fmt: str = "csv", path: str | None = None) -> str:
    """Render and (optionally) write; unwritable paths are a runtime failure
    (exit 4), not a config error."""
    text = render(table, fmt)
    if path is not None:
        try:
            Path(path).write_text(text, encoding="utf-8", newline="")
        except OSError as exc:
            raise NumericalFailure(f"cannot write {path}: {exc}") from exc
    return text


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

_JSON_TYPES = {"object": dict, "array": list, "number": (int, float), "string": str}


def _is_type(value, name: str) -> bool:
    if isinstance(value, bool):  # JSON true/false is none of the types the schema names
        return False
    if name == "integer":
        return isinstance(value, int) or isinstance(value, float) and value.is_integer()
    return isinstance(value, _JSON_TYPES[name])


def _same(a, b) -> bool:
    """JSON equality of scalars: 1 == 1.0, but true != 1."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _violation(value, schema: dict, where: str) -> str | None:
    """The first way ``value`` breaks ``schema``, as 'path: reason', or None.

    Draft 2020-12 semantics for exactly the keywords CONFIG_SCHEMA uses: type,
    const, enum, minimum, exclusiveMinimum, minItems, maxItems, items,
    required, properties, additionalProperties (false only) and oneOf. The
    tests hold it to jsonschema's verdicts and refuse any other keyword."""
    if "type" in schema and not _is_type(value, schema["type"]):
        return f"{where}: {value!r} is not of type {schema['type']!r}"
    if "const" in schema and not _same(value, schema["const"]):
        return f"{where}: {value!r} is not {schema['const']!r}"
    if "enum" in schema and not any(_same(value, v) for v in schema["enum"]):
        return f"{where}: {value!r} is not one of {schema['enum']!r}"
    if _is_type(value, "number"):  # NaN passes both bounds, as in jsonschema
        if "minimum" in schema and value < schema["minimum"]:
            return f"{where}: {value!r} is less than {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return f"{where}: {value!r} is not greater than {schema['exclusiveMinimum']!r}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return f"{where}: needs at least {schema['minItems']} items, has {len(value)}"
        if len(value) > schema.get("maxItems", len(value)):
            return f"{where}: takes at most {schema['maxItems']} items, has {len(value)}"
        for i, item in enumerate(value if "items" in schema else ()):
            found = _violation(item, schema["items"], f"{where}[{i}]")
            if found:
                return found
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return f"{where}: {key!r} is required"
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                found = _violation(item, properties[key], f"{where}.{key}")
                if found:
                    return found
            elif schema.get("additionalProperties") is False:
                return f"{where}: unknown key {key!r}"
    if "oneOf" in schema:
        branches = schema["oneOf"]
        found = [_violation(value, branch, where) for branch in branches]
        if found.count(None) == 1:
            return None
        if None in found:
            return f"{where}: {value!r} fits more than one alternative"
        # a tagged object is held to the branch its kind names
        kinds = [b.get("properties", {}).get("kind", {}).get("const") for b in branches]
        if isinstance(value, dict) and None not in kinds:
            kind = value.get("kind", kinds[0])  # kindless: the first says it is required
            if kind in kinds:
                return found[kinds.index(kind)]
            return f"{where}.kind: {kind!r} is not one of {kinds!r}"
        reasons = "; ".join(m.removeprefix(f"{where}: ") for m in found)
        return f"{where}: {value!r} fits no alternative ({reasons})"
    return None


def _integers_as_int(value, schema: dict):
    """``value`` (valid for ``schema``) with every number the schema types as
    an integer made an int, in place: Draft 2020-12 counts 64.0 as an
    integer, numpy's shapes and polynomial degrees do not."""
    if "oneOf" in schema:
        schema = next(b for b in schema["oneOf"] if _violation(value, b, "") is None)
    if schema.get("type") == "integer":
        return int(value)
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in value.keys() & properties.keys():
            value[key] = _integers_as_int(value[key], properties[key])
    elif isinstance(value, list) and "items" in schema:
        value[:] = [_integers_as_int(item, schema["items"]) for item in value]
    return value


def validate_config(cfg: dict) -> dict:
    """Return ``cfg`` with its integer-typed values made ints, or raise
    ConfigError naming the first path in it that CONFIG_SCHEMA rejects."""
    found = _violation(cfg, CONFIG_SCHEMA, "config")
    if found is not None:
        raise ConfigError(f"config rejected: {found}")
    return _integers_as_int(cfg, CONFIG_SCHEMA)


def _order_from(cfg: dict) -> measures.WassersteinOrder:
    p_raw = cfg.get("wasserstein_p", "inf")
    return measures.WassersteinOrder(math.inf if p_raw == "inf" else float(p_raw))


def build_spec(cfg: dict,
               utility: utilities.Utility | None = None) -> baseline_solver.ProblemSpec:
    """The problem a config states; ``utility``, when given, stands for the
    one its utility section makes."""
    if "model" not in cfg or "utility" not in cfg:
        raise ConfigError("config needs 'model' and 'utility' sections")
    model = measures.make_model(cfg["model"])
    if utility is None:
        utility = utilities.make_utility(cfg["utility"])
    a_lo, a_hi = cfg.get("action_space", [-1000.0, 1000.0])
    action = measures.StateSpace.interval(a_lo, a_hi)
    state = None
    if "state_space" in cfg:
        s_lo, s_hi = cfg["state_space"]
        state = measures.StateSpace.interval(s_lo, s_hi)
    payoff = baseline_solver.make_payoff(cfg["payoff"]) if "payoff" in cfg else None
    return baseline_solver.ProblemSpec(model=model, utility=utility, action_space=action,
                                       order=_order_from(cfg), payoff=payoff,
                                       state_space=state)


def _sha256():
    """CPython's built-in SHA-256, the one hashlib falls back to (``_sha2``
    from 3.12, ``_sha256`` before): the same digest as hashlib's without
    mapping OpenSSL. hashlib's own only on an interpreter built without it."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256


def _config_hash(cfg: dict, command: str, preset: str | None) -> dict[str, str]:
    digest = _sha256()(
        json.dumps({"config": cfg, "command": command, "preset": preset},
                   sort_keys=True).encode()).hexdigest()
    out = {"config_sha256": digest, "command": command,
           "package_version": __version__}
    if preset:
        out["preset"] = preset
    return out


def _grid_values(grid) -> list[float]:
    start, stop, step = (float(g) for g in grid)
    if not all(math.isfinite(g) for g in (start, stop, step)):
        raise ConfigError(f"grid entries must be finite, got {list(grid)}")
    if step <= 0.0:
        raise ConfigError(f"grid step must be positive, got {step}")
    if stop < start:
        raise ConfigError("grid stop must be >= start")
    import numpy as np
    return [float(v) for v in np.arange(start, stop + step * 0.5, step)]


def _deltas_from(cfg: dict) -> list[float]:
    if "delta_grid" in cfg:
        values = _grid_values(cfg["delta_grid"])
    elif "delta" in cfg:
        values = [float(cfg["delta"])]
    else:
        raise ConfigError("robust command needs 'delta' or 'delta_grid'")
    if not all(math.isfinite(d) and d >= 0.0 for d in values):
        raise ConfigError("delta must be finite and nonnegative")
    return values


_NAN = float("nan")


def _nz(value, fallback=_NAN) -> float:
    return fallback if value is None else float(value)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_solve(cfg: dict) -> ResultTable:
    import numpy as np
    spec = build_spec(cfg)
    sol = baseline_solver.solve_baseline(spec)
    columns = ["pi_star", "V0", "foc_residual", "boundary"]
    row = [sol.pi_star_scalar, sol.V0, float(np.linalg.norm(sol.foc_residual)),
           1.0 if sol.boundary else 0.0]
    if spec.payoff is not None:
        columns.append("davis_price")
        row.append(baseline_solver.davis_price(spec, sol, spec.payoff))
    return ResultTable(columns, [row])


# branch tags encoded as reals (rows carry no strings): interior -> 0,
# pi_star_zero -> 1; documented here and in the README.
_BRANCH_CODE = {"interior": 0.0, "pi_star_zero": 1.0}


def cmd_sensitivity(cfg: dict) -> ResultTable:
    spec = build_spec(cfg)
    sol = baseline_solver.solve_baseline(spec)
    report = sensitivity.sensitivity_report(spec, sol)
    columns = ["q", "V_prime0", "pi_prime0", "kappa_u", "branch",
               "kl_V_prime0", "davis_price", "davis_prime0"]
    row = [report.q, report.V_prime0, float(report.pi_prime0[0]), report.kappa_u,
           _BRANCH_CODE[report.branch], _nz(report.kl_V_prime0),
           _nz(report.davis_price), _nz(report.davis_prime0)]
    return ResultTable(columns, [row])


def cmd_robust(cfg: dict) -> ResultTable:
    spec = build_spec(cfg)
    deltas = _deltas_from(cfg)
    solutions = robust_solver.solve_delta_grid(spec, deltas)
    columns = ["delta", "V_delta", "pi_delta", "transport_cost",
               "martingale_residual", "davis_price_delta"]
    rows = []
    for sol in solutions:
        davis_delta = (robust_solver.robust_davis_price(spec, spec.payoff, sol.delta, sol)
                       if spec.payoff is not None else _NAN)
        rows.append([sol.delta, sol.V_delta, sol.pi_delta_scalar, sol.transport_cost,
                     robust_solver.martingale_check_robust(spec, sol), davis_delta])
    table = ResultTable(columns, rows)
    table.provenance["method"] = solutions[0].method if solutions else "none"
    return table


def cmd_davis(cfg: dict) -> ResultTable:
    spec = build_spec(cfg)
    if spec.payoff is None:
        raise ConfigError("davis command needs a payoff")
    sol = baseline_solver.solve_baseline(spec)
    report = sensitivity.sensitivity_report(spec, sol)
    p_d = report.davis_price
    assert p_d is not None
    if abs(p_d) < 1e-8:
        # the root construction has no sign change around a zero price
        root = _NAN
    else:
        bracket = (0.5 * p_d, 1.5 * p_d) if p_d > 0 else (1.5 * p_d, 0.5 * p_d)
        root = baseline_solver.davis_price_via_root(spec, spec.payoff, bracket)
    return ResultTable(["davis_price", "davis_price_root", "davis_prime0"],
                       [[p_d, root, _nz(report.davis_prime0)]])


def cmd_sweep(cfg: dict) -> ResultTable:
    sweep = cfg.get("sweep")
    if not sweep:
        raise ConfigError("sweep command needs a 'sweep' section")
    parameter = sweep["parameter"]
    section, key = _SWEEP_TARGETS[parameter]
    values = _grid_values(sweep["grid"])
    shared = None  # a sweep over the model makes its utility once: the lanes share it

    def build(value: float) -> baseline_solver.ProblemSpec:
        nonlocal shared
        local = copy.deepcopy(cfg)
        local.setdefault(section, {})[key] = value
        spec = build_spec(local, shared)
        if section == "model":
            shared = spec.utility
        return spec

    specs, failure = baseline_solver._until_error(build, values)
    rows = []
    for value, spec, sol in zip(values, specs, baseline_solver.solve_baselines(specs)):
        report = sensitivity.sensitivity_report(spec, sol)
        _, _, sharpe = measures.moments(spec.model)
        rows.append([value, _nz(sharpe), sol.pi_star_scalar, sol.V0, report.V_prime0,
                     report.kappa_u, float(report.pi_prime0[0]), _nz(report.kl_V_prime0),
                     _nz(report.davis_price), _nz(report.davis_prime0)])
    if failure is not None:  # the grid value that failed to build, after the rows before it
        raise failure
    columns = [parameter, "sharpe", "pi_star", "V0", "V_prime0", "kappa_u",
               "pi_prime0", "kl_V_prime0", "davis_price", "davis_prime0"]
    return ResultTable(columns, rows)


def cmd_oracle_check(cfg: dict) -> ResultTable:
    fx_cfg = cfg.get("fixture")
    if not fx_cfg:
        raise ConfigError("oracle-check needs a 'fixture' section")
    fx = analytic_fixtures.fixture(fx_cfg["name"], **fx_cfg.get("params", {}))
    triples = _fixture_deviations(fx)
    columns: list[str] = []
    row: list[float] = []
    for name, fixture_value, module_value in triples:
        columns += [f"{name}_fixture", f"{name}_module", f"{name}_err"]
        row += [fixture_value, module_value, abs(fixture_value - module_value)]
    table = ResultTable(columns, [row])
    table.provenance["fixture"] = fx.name
    return table


def _p_for_q(q: float) -> float:
    return math.inf if q == 1.0 else q / (q - 1.0)


def _spec(model, utility, action: tuple[float, float], p: float = math.inf,
          payoff=None) -> baseline_solver.ProblemSpec:
    """The problem of ``model`` and ``utility`` on the action interval, at order p."""
    return baseline_solver.ProblemSpec(model=model, utility=utility,
                                       action_space=measures.StateSpace.interval(*action),
                                       order=measures.WassersteinOrder(p), payoff=payoff)


def _fixture_deviations(fx: analytic_fixtures.Fixture) -> list[tuple[str, float, float]]:
    """(quantity, fixture value, module value) triples for one fixture."""
    out: list[tuple[str, float, float]] = []
    params = fx.params
    if fx.name == "binomial_log":
        q = params["q"]
        spec = _spec(measures.make_model({"kind": "binomial", "a": params["a"]}),
                     utilities.log_shifted(1.0), (-50.0, 50.0), _p_for_q(q))
        sol = baseline_solver.solve_baseline(spec)
        pi_prime, _ = sensitivity.optimizer_sensitivity(spec, sol)
        out += [("pi_star", fx.pi_star, sol.pi_star_scalar),
                ("V0", fx.V0, sol.V0),
                ("value_prime0", fx.value_prime0, sensitivity.value_sensitivity(spec, sol)),
                ("pi_prime0", fx.pi_prime0, float(pi_prime[0])),
                ("kl_prime0", fx.kl_prime0, sensitivity.kl_value_sensitivity(spec, sol))]
        if q == 1.0:
            payoffs = {"power3": baseline_solver.power_payoff(3),
                       "call0": baseline_solver.call_payoff(0.0)}
            robust = robust_solver.robust_solve(spec, 0.1)
            for label, payoff in payoffs.items():
                out.append((f"davis_price_{label}", fx.davis_price0[label],
                            baseline_solver.davis_price(spec, sol, payoff)))
                curve = fx.price_curves[label]
                out.append((f"davis_curve_{label}_d01", curve(0.1),
                            robust_solver.robust_davis_price(spec, payoff, 0.1, robust)))
    elif fx.name == "binomial_exp":
        q = params["q"]
        # pi* = ln((1-a)/a)/(2 gamma) grows without bound as a -> 0; A keeps
        # it interior
        half = max(10.0, 2.0 * abs(fx.pi_star))
        spec = _spec(measures.make_model({"kind": "binomial", "a": params["a"]}),
                     utilities.exponential(params["gamma"]), (-half, half), _p_for_q(q))
        sol = baseline_solver.solve_baseline(spec)
        out += [("pi_star", fx.pi_star, sol.pi_star_scalar),
                ("V0", fx.V0, sol.V0),
                ("value_prime0", fx.value_prime0, sensitivity.value_sensitivity(spec, sol)),
                ("kl_prime0", fx.kl_prime0, sensitivity.kl_value_sensitivity(spec, sol))]
    elif fx.name == "normal_exp":
        spec = _spec(measures.normal(params["mu"], params["sigma"]),
                     utilities.exponential(params["gamma"]), (-1000.0, 1000.0))
        sol = baseline_solver.solve_baseline(spec)
        pi_prime, _ = sensitivity.optimizer_sensitivity(spec, sol)
        payoff = baseline_solver.power_payoff(2)
        out += [("pi_star", fx.pi_star, sol.pi_star_scalar),
                ("V0", fx.V0, sol.V0),
                ("value_prime0", fx.value_prime0, sensitivity.value_sensitivity(spec, sol)),
                ("pi_prime0", fx.pi_prime0, float(pi_prime[0])),
                ("davis_price_power2", fx.davis_price0["power2"],
                 baseline_solver.davis_price(spec, sol, payoff))]
        for d in (0.02, 0.05, 0.1):
            rs = robust_solver.robust_solve(spec, d)
            tag = f"{d:g}".replace(".", "p")
            out += [(f"V_delta_{tag}", fx.value_curve(d), rs.V_delta),
                    (f"pi_delta_{tag}", fx.pi_curve(d), rs.pi_delta_scalar),
                    (f"davis_curve_power2_{tag}", fx.price_curves["power2"](d),
                     robust_solver.robust_davis_price(spec, payoff, d, rs))]
    elif fx.name == "capped_exp_limit":
        # module at a small cap parameter vs the kappa -> 0 closed-form limits
        kappa = 0.01
        q = params["q"]
        spec = _spec(measures.normal(params["mu"], params["sigma"]),
                     utilities.capped_exponential(params["gamma"], kappa), (-1000.0, 1000.0),
                     _p_for_q(q))
        sol = baseline_solver.solve_baseline(spec)
        pi_prime, _ = sensitivity.optimizer_sensitivity(spec, sol)
        out += [("value_prime0", fx.value_prime0, sensitivity.value_sensitivity(spec, sol)),
                ("pi_prime0", fx.pi_prime0, float(pi_prime[0])),
                ("pi_prime0_variant", fx.pi_prime0_variant, float(pi_prime[0]))]
    elif fx.name == "lognormal_butterfly":
        payoff = baseline_solver.butterfly_payoff(params["K"])
        spec = _spec(measures.make_model({"kind": "shifted_lognormal", "mu": params["mu"],
                                          "sigma": params["sigma"]}),
                     utilities.log_shifted(1.0), (0.0, 1.0), payoff=payoff)
        sol = baseline_solver.solve_baseline(spec)
        report = sensitivity.sensitivity_report(spec, sol, payoff)
        out.append(("davis_prime0", fx.davis_prime0["butterfly"],
                    _nz(report.davis_prime0)))
        for d in (0.0, 0.05, 0.1):
            tag = f"{d:g}".replace(".", "p")
            out.append((f"davis_curve_{tag}", fx.price_curves["butterfly"](d),
                        robust_solver.robust_davis_price(spec, payoff, d)))
    else:  # pragma: no cover - catalog and dispatch kept in sync
        raise ConfigError(f"no oracle check wired for fixture {fx.name!r}")
    return [(n, float(a), float(b)) for n, a, b in out]


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

_A_GRID_COARSE = [round(0.05 * k, 10) for k in range(1, 10)]  # 0.05 .. 0.45
_A_GRID_TAIL = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6]
_A_GRID_FULL = sorted(_A_GRID_TAIL + _A_GRID_COARSE)


def _binomial_spec(a: float, utility) -> baseline_solver.ProblemSpec:
    return _spec(measures.make_model({"kind": "binomial", "a": a}), utility, (-50.0, 50.0))


def _at_q(spec: baseline_solver.ProblemSpec, q: float) -> baseline_solver.ProblemSpec:
    """The problem with conjugate exponent q. The baseline optimum does not
    depend on the order, so one solve serves the sensitivities at every q."""
    return spec.with_order(measures.WassersteinOrder(_p_for_q(q)))


def _binomial_sharpe(a: float) -> float:
    return (1.0 - 2.0 * a) / (2.0 * math.sqrt(a * (1.0 - a)))


def _fig1() -> ResultTable:
    sigma, gamma = 0.2, 1.0
    utility = utilities.exponential(gamma)
    mus = [0.02 * k for k in range(1, 31)]
    specs = [_spec(measures.normal(mu, sigma), utility, (-1000.0, 1000.0)) for mu in mus]
    rows = []
    for mu, spec, sol in zip(mus, specs, baseline_solver.solve_baselines(specs)):
        v_prime = sensitivity.value_sensitivity(spec, sol)
        rows.append([mu, mu / sigma, v_prime, abs(v_prime)])
    return ResultTable(["mu", "sharpe", "V_prime0", "magnitude"], rows)


def _fig2(utility, q_list: list[float], labels: list[str]) -> ResultTable:
    specs = [_binomial_spec(a, utility) for a in _A_GRID_FULL]
    rows = []
    for a, spec, sol in zip(_A_GRID_FULL, specs, baseline_solver.solve_baselines(specs)):
        rows.append([a, _binomial_sharpe(a)]
                    + [sensitivity.value_sensitivity(_at_q(spec, q), sol) for q in q_list]
                    + [sensitivity.kl_value_sensitivity(spec, sol)])
    return ResultTable(["a", "sharpe"] + labels + ["kl_V_prime0"], rows)


def _fig3(utility) -> ResultTable:
    specs = [_binomial_spec(a, utility) for a in _A_GRID_COARSE]
    rows = []
    for a, spec, sol in zip(_A_GRID_COARSE, specs, baseline_solver.solve_baselines(specs)):
        rows.append([a, _binomial_sharpe(a)]
                    + [float(sensitivity.optimizer_sensitivity(_at_q(spec, q), sol)[0][0])
                       for q in (1.0, 2.0, 3.0)])
    return ResultTable(["a", "sharpe", "pi_prime0_q1", "pi_prime0_q2",
                        "pi_prime0_q3"], rows)


def _fig4() -> ResultTable:
    mu, sigma, gamma, q = 0.1, 0.2, 1.0, 2.0
    fx = analytic_fixtures.fixture("capped_exp_limit", mu=mu, sigma=sigma, gamma=gamma, q=q)
    kappas = (1.0, 0.3, 0.1, 0.03, 0.01)
    specs = [_spec(measures.normal(mu, sigma), utilities.capped_exponential(gamma, kappa),
                   (-1000.0, 1000.0), _p_for_q(q)) for kappa in kappas]
    rows = []
    for kappa, spec, sol in zip(kappas, specs, baseline_solver.solve_baselines(specs)):
        pi_prime, _ = sensitivity.optimizer_sensitivity(spec, sol)
        rows.append([kappa, sensitivity.value_sensitivity(spec, sol), fx.value_prime0,
                     float(pi_prime[0]), fx.pi_prime0, fx.pi_prime0_variant])
    return ResultTable(["kappa", "V_prime0", "V_prime0_limit", "pi_prime0",
                        "pi_prime0_limit", "pi_prime0_variant"], rows)


# preset -> its curve data
_FIGURES = {
    "fig1": _fig1,
    "fig2-left": lambda: _fig2(utilities.log_shifted(1.0), [1.0, 1.5, 2.0, 3.0],
                               ["V_prime0_q1", "V_prime0_q1_5", "V_prime0_q2", "V_prime0_q3"]),
    # orders inf, 4, 2.5 -> conjugates 1, 4/3, 5/3
    "fig2-right": lambda: _fig2(utilities.exponential(1.0), [1.0, 4.0 / 3.0, 5.0 / 3.0],
                                ["V_prime0_pinf", "V_prime0_p4", "V_prime0_p2_5"]),
    "fig3-left": lambda: _fig3(utilities.log_shifted(1.0)),
    "fig3-right": lambda: _fig3(utilities.exponential(1.0)),
    "fig4": _fig4,
}
FIGURE_PRESETS = tuple(_FIGURES)


def cmd_figures(preset: str | None) -> ResultTable:
    if not preset:
        raise ConfigError(f"figures needs a preset argument ({', '.join(FIGURE_PRESETS)})")
    if preset not in _FIGURES:
        raise ConfigError(f"unknown figure preset {preset!r}; "
                          f"known: {', '.join(FIGURE_PRESETS)}")
    return _FIGURES[preset]()


# command -> its table, made from the validated config and the preset (the
# command functions are looked up when called)
_COMMANDS = {
    "solve": lambda cfg, preset: cmd_solve(cfg),
    "sensitivity": lambda cfg, preset: cmd_sensitivity(cfg),
    "robust": lambda cfg, preset: cmd_robust(cfg),
    "davis": lambda cfg, preset: cmd_davis(cfg),
    "sweep": lambda cfg, preset: cmd_sweep(cfg),
    "figures": lambda cfg, preset: cmd_figures(preset),
    "oracle-check": lambda cfg, preset: cmd_oracle_check(cfg),
}
COMMANDS = tuple(_COMMANDS)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse_grid_token(token: str) -> list[float]:
    parts = token.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:step, got {token!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad grid {token!r}: {exc}") from exc


def _finite_number(text: str) -> float:
    """A JSON float literal, or NaN/Infinity/-Infinity, which Python's json
    reads; only a finite float passes (1e400 overflows to inf)."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config holds {text}, which is not a finite number")
    return value


def _float_sized_int(text: str) -> int:
    """A JSON integer literal whose magnitude a float can hold: the solvers
    compute in floats, and a larger one would overflow there. A JSON integer
    has no leading zeros, so one of more than 309 digits is past
    sys.float_info.max; the message names the length, not the digits."""
    digits = len(text.lstrip("-"))
    if digits <= 309:
        value = int(text)
        if abs(value) <= sys.float_info.max:
            return value
    raise ConfigError(f"config holds an integer of {digits} digits, too large for a float")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=_finite_number, parse_int=_float_sized_int,
                            parse_constant=_finite_number)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def run(command: str, cfg: dict, preset: str | None = None) -> ResultTable:
    """Dispatch one command on a validated config; returns the table."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    table = _COMMANDS[command](cfg, preset)
    table.provenance.update(_config_hash(cfg, command, preset))
    return table


_STDOUT_FAILURE = "cannot write the table to stdout"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="robustfolio",
        description="Wasserstein-robust expected utility: solve, first-order "
                    "sensitivities, worst-case pricing, figure data.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("preset", nargs="?", default=None,
                        help="figure preset (figures command only)")
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.add_argument("--delta", type=float, default=None,
                        help="single robustness radius (overrides config)")
    parser.add_argument("--delta-grid", default=None, metavar="A:B:STEP",
                        help="radius grid (overrides config)")
    parser.add_argument("--sweep", default=None, metavar="PARAM=A:B:STEP",
                        help="sweep specification (overrides config)")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.command != "figures" and args.config is None:
            raise ConfigError(f"command {args.command!r} needs --config")
        if args.delta is not None:
            if not (math.isfinite(args.delta) and args.delta >= 0.0):
                raise ConfigError(f"delta must be finite and nonnegative, got {args.delta}")
            cfg["delta"] = args.delta
            cfg.pop("delta_grid", None)
        if args.delta_grid is not None:
            cfg["delta_grid"] = _parse_grid_token(args.delta_grid)
            cfg.pop("delta", None)
        if args.sweep is not None:
            param, _, grid = args.sweep.partition("=")
            cfg["sweep"] = {"parameter": param, "grid": _parse_grid_token(grid)}
        validate_config(cfg)
        table = run(args.command, cfg, args.preset)
        fmt = args.format or cfg.get("output", {}).get("format", "csv")
        path = args.out or cfg.get("output", {}).get("path")
        text = emit(table, fmt, path)
        if path is None:
            if sys.stdout is None:
                raise NumericalFailure(f"{_STDOUT_FAILURE}: it is closed")
            try:
                sys.stdout.write(text)
            except OSError as exc:
                raise NumericalFailure(f"{_STDOUT_FAILURE}: {exc}") from exc
        return 0
    except RobustfolioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # no failure may leave as a traceback with exit 1
        import traceback
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"error: internal failure ({type(exc).__name__} at "
              f"{Path(where.filename).name}:{where.lineno}): {exc}", file=sys.stderr)
        return NumericalFailure.exit_code


def _watched() -> bool:
    """Whether a trace or profile function watches this process, or from
    Python 3.12 a sys.monitoring tool (cProfile's, say)."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or monitoring is not None and any(monitoring.get_tool(i) is not None
                                              for i in range(6)))


def entry() -> None:
    """Run ``main`` as a process and end it: the entry of
    ``python -m robustfolio.cli`` and of the ``robustfolio`` script.

    The process ends with ``os._exit``, which skips the interpreter's module
    teardown and garbage collection, after what a normal exit does first:
    the atexit handlers run, then stdout and stderr are flushed. stdout may
    be None (its descriptor closed) or fail its flush (a pipe with no
    reader); a flush that fails after a successful run prints one error line
    and ends with exit 4. A process under a trace or profile function exits
    normally instead, so that, say, ``python -m cProfile`` prints its
    statistics."""
    code = main()
    if _watched():
        sys.exit(code)
    import atexit
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code == 0:
            print(f"error: {_STDOUT_FAILURE}: {exc}", file=sys.stderr)
            code = NumericalFailure.exit_code
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it
    os._exit(code)


if __name__ == "__main__":
    entry()
