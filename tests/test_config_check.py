"""The in-tree config checker against jsonschema, and the CLI's exit codes on
configs drawn from CONFIG_SCHEMA itself."""

import contextlib
import copy
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from robustfolio import cli
from robustfolio.errors import ConfigError

from conftest import read_result_csv

REFERENCE = Draft202012Validator(cli.CONFIG_SCHEMA)
CHECKED_KEYWORDS = {"type", "const", "enum", "minimum", "exclusiveMinimum", "minItems",
                    "maxItems", "items", "required", "properties",
                    "additionalProperties", "oneOf"}
ANNOTATIONS = {"$schema", "title"}


def _subschemas(schema: dict):
    yield schema
    for branch in schema.get("oneOf", ()):
        yield from _subschemas(branch)
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_checker_covers_every_schema_keyword():
    # a keyword outside the checker's set would be ignored without a word
    for schema in _subschemas(cli.CONFIG_SCHEMA):
        assert set(schema) <= CHECKED_KEYWORDS | ANNOTATIONS, sorted(set(schema))
        assert schema.get("additionalProperties", False) is False
        assert schema.get("type", "object") in {"object", "array", "number", "integer",
                                                "string"}
        assert all(isinstance(v, str) for v in [schema.get("const", "")]
                   + schema.get("enum", []))


def _base(**extra) -> dict:
    cfg = {"model": {"kind": "binomial", "a": 0.25},
           "utility": {"kind": "log_shifted", "w0": 1.0},
           "wasserstein_p": "inf", "action_space": [-0.95, 0.95]}
    cfg.update(extra)
    return cfg


@pytest.mark.parametrize("broken, message", [
    ({"model": {"kind": "binomial"}}, "config.model: 'a' is required"),
    ({"unknown_key": 1.0}, "config: unknown key 'unknown_key'"),
    ({"model": {"kind": "trinomial", "a": 0.25}},
     "config.model.kind: 'trinomial' is not one of ['binomial', 'normal', "
     "'shifted_lognormal', 'truncated_normal', 'explicit']"),
    ({"wasserstein_p": 0.5},
     "config.wasserstein_p: 0.5 fits no alternative (0.5 is not greater than 1.0; "
     "0.5 is not 'inf')"),
])
def test_rejection_names_the_path_and_the_reason(broken, message):
    with pytest.raises(ConfigError) as caught:
        cli.validate_config(_base(**broken))
    assert str(caught.value) == f"config rejected: {message}"


# ---------------------------------------------------------------------------
# configs drawn from the schema
# ---------------------------------------------------------------------------

_SCALARS = st.one_of(st.integers(-3, 3), st.floats(-2.0, 2.0), st.text(max_size=3))
# round values that model parameters, bounds and radii often take
_ROUND = [0.25, 0.1, 0.5, -0.5, 1.0, -1.0, 2.0, 0.0]


def from_schema(schema: dict, hints: dict | None = None) -> st.SearchStrategy:
    """Values that ``schema`` accepts, kept small: numbers lie within a few
    units of their lower bounds (or are round), arrays and free objects hold
    a few entries. ``hints`` maps a property name to the strategy for its
    values, which must stay inside the schema."""
    hints = hints or {}
    if "oneOf" in schema:
        return st.one_of([from_schema(branch, hints) for branch in schema["oneOf"]])
    if "const" in schema:
        return st.just(schema["const"])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        properties = schema.get("properties", {})
        if not properties:
            return st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2)
        required = schema.get("required", [])
        sub = {key: hints[key] if key in hints else from_schema(value, hints)
               for key, value in properties.items()}
        return st.fixed_dictionaries({key: sub[key] for key in required},
                                     optional={key: strategy for key, strategy in sub.items()
                                               if key not in required})
    if kind == "array":
        items = from_schema(schema["items"], hints) if "items" in schema else _SCALARS
        low = schema.get("minItems", 0)
        return st.lists(items, min_size=low, max_size=schema.get("maxItems", low + 3))
    if kind == "integer":
        low = schema.get("minimum", -3)
        return st.integers(low, low + 8) | st.integers(low, low + 8).map(float)
    if kind == "number":
        low = schema.get("minimum", schema.get("exclusiveMinimum", -2.0))
        exclusive = "exclusiveMinimum" in schema
        return (st.sampled_from([v for v in _ROUND if v > low or v == low and not exclusive])
                | st.floats(low, low + 4.0, exclude_min=exclusive)
                | st.integers(int(low) + 1, int(low) + 4))
    assert kind == "string"
    return st.text(max_size=4)


CONFIGS = from_schema(cli.CONFIG_SCHEMA)
# The commands need both sections the schema leaves optional, and parameters
# in their domains: drawn from the schema alone, nearly every config stops at
# a parameter check with exit 2 and the solvers never run. The hints also
# reach float range: orders near 1, narrow and wide truncated normals (an
# optimum in the hundreds), a subnormal radius, and explicit atoms on the
# edge of S = [-2, 2].
RUNNABLE = from_schema(dict(cli.CONFIG_SCHEMA, required=["model", "utility"]), hints={
    "a": st.floats(0.05, 0.45), "mu": st.floats(-0.3, 0.3),
    "sigma": st.sampled_from([0.005, 0.03, 0.05, 0.0625]) | st.floats(0.005, 0.5),
    "radius": st.floats(1.0, 8.0), "gamma": st.floats(0.2, 3.0),
    "kappa": st.floats(0.01, 1.0), "w0": st.floats(0.5, 2.0), "eta": st.floats(0.2, 3.0),
    "delta": st.sampled_from([5e-324, 0.01]) | st.floats(0.0, 0.3),
    "n_nodes": st.integers(2, 24),
    "wasserstein_p": st.sampled_from([1.0001, 1.5, 2.0, 3.0, "inf"]),
    "points": st.lists(st.sampled_from([-2.0, -1.0, 0.5, 2.0]) | st.floats(-2.0, 2.0),
                       min_size=2, max_size=2),
    "weights": st.sampled_from([[0.5, 0.5], [0.25, 0.75]]),
    "xs": st.just([-2.0, 0.0, 2.0]), "ys": st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    "action_space": st.sampled_from([[-1.0, 1.0], [0.0, 0.75], [-0.75, 0.0], [-10.0, 10.0],
                                     ["-inf", "inf"]]),
    "state_space": st.sampled_from([[-2.0, 2.0], [-1.0, 1.5], ["-inf", "inf"]]),
})


def _slots(value):
    """(container, key) of every value nested in ``value``."""
    if isinstance(value, (dict, list)):
        for key in list(value if isinstance(value, dict) else range(len(value))):
            yield value, key
            yield from _slots(value[key])


_WRONG_TYPES = ["x", [], {}, None, 0.5, 3, [1.0, 2.0], {"kind": "binomial"}]
_NEAR_BOUNDS = [-1, -0.5, 0, 0.0, 0.5, 1, 1.0, 1.5, 2, 63, 64, math.nan, math.inf]
MUTATIONS = ("wrong type", "drop", "extra key", "out of range", "bool", "float int")


def _mutate(root: dict, draw) -> None:
    """Apply one mutation to a value somewhere under ``root["config"]``."""
    container, key = draw(st.sampled_from(list(_slots(root))))
    how = draw(st.sampled_from(MUTATIONS))
    old = container[key]
    if how == "wrong type":
        container[key] = copy.deepcopy(draw(st.sampled_from(_WRONG_TYPES)))
    elif how == "drop" and container is not root:
        del container[key]
    elif how == "extra key":
        target = old if isinstance(old, (dict, list)) else container
        if isinstance(target, dict):
            target[draw(st.sampled_from(["extra", "kind", "a", "delta"]))] = 1.0
        else:
            target.append(draw(_SCALARS))
    elif how == "out of range":
        container[key] = draw(st.sampled_from(_NEAR_BOUNDS))
    elif how == "bool":
        container[key] = draw(st.booleans())
    elif how == "float int" and type(old) is int:
        container[key] = float(old)
    elif how == "float int" and type(old) is float and old.is_integer():
        container[key] = int(old)


def _accepted(cfg) -> bool:
    try:
        cli.validate_config(cfg)
    except ConfigError:
        return False
    return True


@settings(max_examples=300)
@given(st.data())
def test_checker_agrees_with_jsonschema(data):
    # one drawn config and three mutations of it, one on top of the other
    root = {"config": copy.deepcopy(data.draw(CONFIGS))}
    for _ in range(4):
        assert _accepted(root["config"]) == REFERENCE.is_valid(root["config"]), root
        _mutate(root, data.draw)


@pytest.mark.parametrize("cfg, valid", [
    (_base(model={"kind": "normal", "mu": 0.1, "sigma": 0.2, "n_nodes": 64.0}),
     True),                                         # 64.0 is an integer
    (_base(model={"kind": "normal", "mu": 0.1, "sigma": 0.2, "n_nodes": 2.5}), False),
    (_base(delta=True), False),                     # a bool is no number
    (_base(payoff={"kind": "power", "k": True}), False),
    (_base(wasserstein_p=1), False),                # 1 == 1.0, not above 1.0
    (_base(delta=math.nan), True),                  # NaN fails no comparison
    (_base(model={"kind": "binomial", "a": 0.25, "state_space": ["inf", 1]}), True),
])
def test_checker_follows_json_number_rules(cfg, valid):
    assert _accepted(cfg) is valid
    assert REFERENCE.is_valid(cfg) is valid


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cfg.json"


# the columns that README documents as NaN where the quantity is undefined
NAN_COLUMNS = {"solve": set(),
               "sensitivity": {"kappa_u", "kl_V_prime0", "davis_price", "davis_prime0"},
               "davis": {"davis_price_root"},
               "robust": {"davis_price_delta"}}


# an atom so far out that the gradient's root lies below Brent's tolerance,
# where the Newton polish stepped to the end of A and on to NaN (a NaN row
# with exit 0); at 1e155 its square also leaves float range
DATA = Path(__file__).parent / "data"
FAR_ATOM = json.loads((DATA / "far_atom.json").read_text())
FARTHER_ATOM = dict(FAR_ATOM, model=dict(FAR_ATOM["model"], points=[-1.0, 1e155]), delta=0.1)
# the gradient's atom sum past float range: u' about 1e9 at the lower end of
# the feasible interval times an atom at 1e300, and u' near float max at an
# end of A times a moderate atom
OVERFLOW_ATOM = json.loads((DATA / "overflow_atom.json").read_text())
SATURATED_SLOPE = {"model": {"kind": "explicit", "points": [-709.0, 1.0], "weights": [0.5, 0.5]},
                   "utility": {"kind": "exponential", "gamma": 1.0}, "action_space": [-1, 1]}
# a smoothing width so narrow that the band's formula overflowed off the band
NARROW_BAND = {"model": {"kind": "binomial", "a": 0.25}, "utility": {"kind": "log_shifted"},
               "action_space": [-0.95, 0.95],
               "payoff": {"kind": "call", "strike": 0.0, "smoothing": 1e-310}}
# an optimum near 290 where |u'|^(q-1) and ||u'||_q^(1-q) leave float range,
# and the dual weight's fallback overflowed as a Python float power
DUAL_OVERFLOW = json.loads((DATA / "dual_weights_overflow.json").read_text())
NEAR_ONE = dict(DUAL_OVERFLOW, model=dict(DUAL_OVERFLOW["model"], sigma=0.0625),
                wasserstein_p=1.0001)
# an atom on the edge of S at a subnormal radius: its neighbour's distance
# overflowed in units of the radius
SUBNORMAL_EDGE = json.loads((DATA / "subnormal_radius_edge.json").read_text())
# a worst case past float range at pi*(0): the search stopped there with V -inf
PAST_FLOAT = json.loads((DATA / "worst_case_past_float.json").read_text())
# an order so high (p = 1100) that the certificate's sum of |move|^p overflowed
COUPLING_OVERFLOW = json.loads((DATA / "coupling_cost_overflow.json").read_text())
# a power payoff on S = [-1e110, 1e110]: its ball infimum overflowed at the edge
# of S and the multiplier search weighed the infinities (exit 4)
POWER_FAR_EDGE = json.loads((DATA / "power_payoff_far_edge.json").read_text())


@settings(max_examples=300)
@given(cfg=RUNNABLE, command=st.sampled_from(list(NAN_COLUMNS)))
@example(cfg=FAR_ATOM, command="solve")
@example(cfg=FARTHER_ATOM, command="robust")
@example(cfg=NARROW_BAND, command="sensitivity")
@example(cfg=OVERFLOW_ATOM, command="solve")
@example(cfg=SATURATED_SLOPE, command="solve")
@example(cfg=DUAL_OVERFLOW, command="sensitivity")
@example(cfg=NEAR_ONE, command="robust")
@example(cfg=SUBNORMAL_EDGE, command="robust")
@example(cfg=PAST_FLOAT, command="robust")
@example(cfg=COUPLING_OVERFLOW, command="robust")
@example(cfg=POWER_FAR_EDGE, command="robust")
def test_cli_exit_code_contract(config_path, cfg, command):
    # no output files and one radius keep runs small
    for key in ("output", "delta_grid", "sweep"):
        cfg.pop(key, None)
    config_path.write_text(json.dumps(cfg), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(config_path)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    # a RuntimeWarning, an error under pytest, maps to "internal failure"
    assert "internal failure" not in err.getvalue(), err.getvalue()
    if code != 0:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        return
    # exit 0 reads NaN only where the quantity is documented as undefined,
    # and no infinity
    header, rows, _ = read_result_csv(out.getvalue())
    for row in rows:
        for column, value in zip(header, row):
            assert not math.isnan(value) or column in NAN_COLUMNS[command], (column, row)
            assert not math.isinf(value), (column, row)
