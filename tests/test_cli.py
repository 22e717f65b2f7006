"""CLI contract: config validation, exit codes, output formats, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jsonschema import Draft202012Validator

import robustfolio as rf
from robustfolio import baseline_solver, cli, robust_solver
from robustfolio.errors import ConfigError, DegenerateSensitivityError

from conftest import load_bench, read_result_csv

ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict[str, str]:
    """The environment of a child Python that imports the package from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def base_config(**extra) -> dict:
    cfg = {
        "model": {"kind": "binomial", "a": 0.25},
        "utility": {"kind": "log_shifted", "w0": 1.0},
        "wasserstein_p": "inf",
        "action_space": [-0.95, 0.95],
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path: Path, cfg: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_validate_config_accepts_full_config():
    cfg = base_config(delta=0.1,
                      payoff={"kind": "call", "strike": 0.0},
                      output={"path": "out.csv", "format": "csv"})
    assert cli.validate_config(cfg) is cfg


@pytest.mark.parametrize("broken", [
    {"unknown_key": 1.0},
    {"delta": -0.1},
    {"model": {"kind": "binomial"}},                      # missing a
    {"model": {"kind": "trinomial", "a": 0.25}},
    {"utility": {"kind": "exponential"}},                 # missing gamma
    {"wasserstein_p": 1.0},                               # needs p > 1
    {"sweep": {"parameter": "zeta", "grid": [0.1, 0.4, 0.1]}},
    {"sweep": {"parameter": "a", "grid": [0.1, 0.4]}},    # grid needs 3 entries
    {"output": {"format": "xml"}},
    {"fixture": {"name": "unknown_family"}},
    {"solver": {"grid_points": 64}},                      # the oracle grid is fixed
])
def test_validate_config_rejects(broken):
    cfg = base_config()
    cfg.update(broken)
    with pytest.raises(ConfigError, match="config rejected"):
        cli.validate_config(cfg)


SCHEMA_DOC_COMMAND = (
    "PYTHONPATH=src python -c \"import json; from robustfolio.cli import CONFIG_SCHEMA; "
    "print(json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True))\" > docs/config_schema.json")


def test_shipped_schema_document_matches_module():
    # the document is generated from CONFIG_SCHEMA, byte for byte
    expected = json.dumps(cli.CONFIG_SCHEMA, indent=2, sort_keys=True) + "\n"
    shipped = ROOT / "docs" / "config_schema.json"
    assert shipped.read_bytes() == expected.encode(), \
        f"docs/config_schema.json is stale; regenerate it from the root with: {SCHEMA_DOC_COMMAND}"


def test_config_schema_passes_its_meta_schema():
    # validate_config no longer re-checks the schema on every call
    Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)


def test_main_validates_the_config_once(tmp_path, monkeypatch, capsys):
    calls = []
    validate = cli.validate_config

    def counting(cfg):
        calls.append(cfg)
        return validate(cfg)

    monkeypatch.setattr(cli, "validate_config", counting)
    assert cli.main(["robust", "--config", write_config(tmp_path, base_config(delta=0.5)),
                     "--delta", "0.1"]) == 0
    capsys.readouterr()
    assert len(calls) == 1 and calls[0]["delta"] == 0.1  # after the override


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_solve_exits_zero_and_writes_csv(tmp_path):
    out = tmp_path / "solve.csv"
    rc = cli.main(["solve", "--config", write_config(tmp_path, base_config()),
                   "--out", str(out)])
    assert rc == 0
    header, rows, prov = read_result_csv(out.read_text(encoding="utf-8"))
    assert header == ["pi_star", "V0", "foc_residual", "boundary"]
    assert len(rows) == 1
    assert rows[0][0] == pytest.approx(0.5, abs=1e-8)
    assert rows[0][3] == 0.0
    assert {"config_sha256", "command", "package_version"} <= set(prov)
    assert prov["command"] == "solve"


def test_invalid_config_exits_two_without_output(tmp_path, capsys):
    cfg = base_config(unknown_key=1.0)
    out = tmp_path / "never.csv"
    rc = cli.main(["solve", "--config", write_config(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_missing_config_exits_two(capsys):
    assert cli.main(["solve"]) == 2
    assert "needs --config" in capsys.readouterr().err


def test_unparseable_json_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("extra, literal", [
    ({"payoff": {"kind": "call", "strike": "X"}}, "NaN"),
    ({"payoff": {"kind": "butterfly", "K": "X"}}, "NaN"),
    ({"payoff": {"kind": "abs_shift", "x0": "X"}}, "NaN"),
    ({"payoff": {"kind": "custom", "xs": [-1.0, 0.0, 1.0], "ys": [0.0, "X", 1.0]}}, "NaN"),
    ({"payoff": {"kind": "custom", "xs": [-1.0, 0.0, 1.0], "ys": [0.0, "X", 1.0]}},
     "Infinity"),
    ({"utility": {"kind": "log_shifted", "w0": "X"}}, "NaN"),
    ({"utility": {"kind": "log_shifted", "w0": "X"}}, "1e400"),
    ({"model": {"kind": "explicit", "points": [-0.5, 0.1, 0.5],
                "weights": [0.5, "X", 0.5]}}, "NaN"),
    ({"action_space": ["X", 0.95]}, "-Infinity"),
], ids=["strike", "K", "x0", "table-nan", "table-inf", "w0", "w0-overflow", "weights",
        "bound"])
def test_non_finite_json_numbers_exit_two(tmp_path, capsys, extra, literal):
    # Python's json reads NaN and +-Infinity, and 1e400 as inf; they used to
    # reach the solvers and come back as a NaN or inf column with exit 0, or
    # as exit 3 or 4
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(**extra)).replace('"X"', literal),
                    encoding="utf-8")
    assert cli.main(["solve", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config holds {literal}," in captured.err


@pytest.mark.parametrize("extra", [
    {"utility": {"kind": "log_shifted", "w0": "X"}},
    {"utility": {"kind": "log_shifted", "w0": "-X"}},
    {"model": {"kind": "normal", "mu": 0.1, "sigma": 0.2, "n_nodes": "X"},
     "utility": {"kind": "exponential", "gamma": 1.0}},
], ids=["w0", "w0-negative", "n_nodes"])
def test_oversized_json_integers_exit_two(tmp_path, capsys, extra):
    # an integer literal past float range used to reach the solvers and exit 4
    # with an OverflowError (or, for n_nodes, exit 2 echoing all its digits)
    digits = "1" + "0" * 400
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(**extra)).replace('"X"', digits)
                    .replace('"-X"', "-" + digits), encoding="utf-8")
    assert cli.main(["solve", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too large" in captured.err and digits not in captured.err


def test_arbitrage_model_exits_three(tmp_path, capsys):
    cfg = base_config(model={"kind": "explicit", "points": [0.5, 1.5],
                             "weights": [0.5, 0.5]})
    out = tmp_path / "never.csv"
    rc = cli.main(["solve", "--config", write_config(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_degenerate_sensitivity_exits_three(tmp_path, capsys):
    # untruncated quadrature stand-in for a normal law with exponential tails
    # and a finite transport order: the sensitivity regime is degenerate
    cfg = {
        "model": {"kind": "normal", "mu": 0.1, "sigma": 0.2},
        "utility": {"kind": "exponential", "gamma": 1.0},
        "wasserstein_p": 2.0,
        "action_space": [-1000.0, 1000.0],
    }
    rc = cli.main(["sensitivity", "--config", write_config(tmp_path, cfg)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_boundary_optimum_exits_three(tmp_path, capsys):
    cfg = base_config(action_space=[0.05, 0.2])  # optimum pinned at 0.2
    rc = cli.main(["sensitivity", "--config", write_config(tmp_path, cfg)])
    assert rc == 3
    capsys.readouterr()


@pytest.mark.parametrize("order", [2.0, "inf"])
def test_atom_on_the_edge_it_moves_into_exits_three(tmp_path, capsys, order):
    # pi* > 0 moves every atom down, and the atom at -1 sits on the edge of S
    cfg = base_config(model={"kind": "explicit", "points": [-1.0, 1.0],
                             "weights": [0.25, 0.75]},
                      state_space=[-1.0, 1.0], wasserstein_p=order,
                      action_space=[-0.75, 0.75])
    rc = cli.main(["sensitivity", "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "edge of the state space" in captured.err


def test_unwritable_output_exits_four(tmp_path, capsys):
    rc = cli.main(["solve", "--config", write_config(tmp_path, base_config()),
                   "--out", str(tmp_path / "no_such_dir" / "out.csv")])
    assert rc == 4
    assert "cannot write" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# output contract
# ---------------------------------------------------------------------------

def test_csv_format_contract(tmp_path):
    out = tmp_path / "robust.csv"
    cfg = base_config(payoff={"kind": "power", "k": 3})
    rc = cli.main(["robust", "--config", write_config(tmp_path, cfg),
                   "--delta-grid", "0:0.2:0.05", "--out", str(out)])
    assert rc == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    text = raw.decode("utf-8")
    assert text.endswith("\n")
    lines = text.split("\n")[:-1]
    data_lines = [ln for ln in lines if not ln.startswith("# ")]
    footer = [ln for ln in lines if ln.startswith("# ")]
    assert data_lines[0] == ("delta,V_delta,pi_delta,transport_cost,"
                             "martingale_residual,davis_price_delta")
    assert len(data_lines) == 1 + 5  # header + one row per radius
    assert footer and all("=" in ln for ln in footer)
    # reals carry 17 significant digits: the parsed row reproduces the float
    header, rows, prov = read_result_csv(text)
    assert [r[0] for r in rows] == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2])
    assert prov["method"] == "inf_exact"
    for row in rows:
        assert row[3] <= row[0] + 1e-12  # transport cost within budget
    values = [row[1] for row in rows]
    assert all(lo <= hi + 1e-12 for hi, lo in zip(values[:-1], values[1:]))


def test_csv_round_trip_is_bit_exact():
    table = cli.ResultTable(
        columns=["x", "y"],
        rows=[[1.0 / 3.0, 1e-17], [-2.5e300, 0.1]],
        provenance={"note": "round-trip"},
    )
    header, rows, prov = read_result_csv(cli.render(table, "csv"))
    assert header == ["x", "y"]
    assert rows[0][0] == 1.0 / 3.0 and rows[0][1] == 1e-17
    assert rows[1][0] == -2.5e300 and rows[1][1] == 0.1
    assert prov == {"note": "round-trip"}


def test_json_format_contract(tmp_path):
    out = tmp_path / "solve.json"
    rc = cli.main(["solve", "--config", write_config(tmp_path, base_config()),
                   "--out", str(out), "--format", "json"])
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"column_order", "columns", "provenance"}
    assert doc["column_order"] == ["pi_star", "V0", "foc_residual", "boundary"]
    assert doc["columns"]["pi_star"][0] == pytest.approx(0.5, abs=1e-8)


def test_json_replaces_non_finite_with_null(tmp_path):
    # sweep without a payoff leaves the davis columns undefined
    cfg = base_config(sweep={"parameter": "a", "grid": [0.2, 0.3, 0.1]})
    out = tmp_path / "sweep.json"
    rc = cli.main(["sweep", "--config", write_config(tmp_path, cfg),
                   "--out", str(out), "--format", "json"])
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert all(v is None for v in doc["columns"]["davis_price"])


def test_stdout_when_no_output_path(tmp_path, capsys):
    rc = cli.main(["solve", "--config", write_config(tmp_path, base_config())])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("pi_star,V0,")


def test_output_path_from_config_section(tmp_path):
    out = tmp_path / "from_config.csv"
    cfg = base_config(output={"path": str(out), "format": "csv"})
    rc = cli.main(["solve", "--config", write_config(tmp_path, cfg)])
    assert rc == 0
    assert out.exists()


def test_identical_configs_are_byte_identical(tmp_path):
    cfg = base_config(sweep={"parameter": "a", "grid": [0.05, 0.45, 0.05]})
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli.main(["sweep", "--config", path, "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_provenance_hash_depends_on_command(tmp_path):
    cfg = base_config(delta=0.1)
    path = write_config(tmp_path, cfg)
    o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["solve", "--config", path, "--out", str(o1)]) == 0
    assert cli.main(["robust", "--config", path, "--out", str(o2)]) == 0
    _, _, p1 = read_result_csv(o1.read_text(encoding="utf-8"))
    _, _, p2 = read_result_csv(o2.read_text(encoding="utf-8"))
    assert p1["config_sha256"] != p2["config_sha256"]


# ---------------------------------------------------------------------------
# commands end to end
# ---------------------------------------------------------------------------

def test_sweep_rows_track_closed_form(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--config", write_config(tmp_path, base_config()),
                   "--sweep", "a=0.05:0.45:0.05", "--out", str(out)])
    assert rc == 0
    header, rows, _ = read_result_csv(out.read_text(encoding="utf-8"))
    assert header[:2] == ["a", "sharpe"]
    assert len(rows) == 9
    for row in rows:
        a = row[0]
        sharpe = (1.0 - 2.0 * a) / (2.0 * math.sqrt(a * (1.0 - a)))
        v_prime = row[header.index("V_prime0")]
        assert row[1] == pytest.approx(sharpe, abs=1e-10)
        assert v_prime == pytest.approx(-(1.0 - 2.0 * a), abs=1e-10)


def test_davis_command_cross_check(tmp_path):
    cfg = base_config(payoff={"kind": "call", "strike": 0.0})
    out = tmp_path / "davis.csv"
    rc = cli.main(["davis", "--config", write_config(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 0
    header, rows, _ = read_result_csv(out.read_text(encoding="utf-8"))
    assert header == ["davis_price", "davis_price_root", "davis_prime0"]
    price, root, prime = rows[0]
    assert price == pytest.approx(0.5, abs=1e-10)
    assert root == pytest.approx(price, abs=1e-5)
    assert prime == pytest.approx(0.0, abs=1e-10)


def test_unbounded_action_space_finds_the_finite_optimum(tmp_path, capsys):
    # binomial(0.25) with exponential(1) on A = R: pi* = ln 3 / 2, which the
    # root search can only bracket from finite ends
    cfg = {"model": {"kind": "binomial", "a": 0.25},
           "utility": {"kind": "exponential", "gamma": 1.0},
           "action_space": ["-inf", "inf"], "payoff": {"kind": "call", "strike": 0.0}}
    path = write_config(tmp_path, cfg)
    for command in ("solve", "sensitivity", "davis"):
        assert cli.main([command, "--config", path]) == 0
        header, rows, _ = read_result_csv(capsys.readouterr().out)
        assert all(math.isfinite(v) for v in rows[0]), (command, header, rows)
        if command == "solve":
            assert abs(rows[0][header.index("pi_star")] - math.log(3.0) / 2.0) <= 1e-12
    sol = rf.solve_baseline(cli.build_spec(cfg))
    assert abs(sol.pi_star_scalar - math.log(3.0) / 2.0) <= 1e-12


def test_zero_weight_atoms_leave_the_solve_to_the_others(tmp_path, capsys):
    # the outer Gauss-Legendre weights underflow to 0, and at the end -1000
    # of the default A their marginal utility overflows: 0 * inf was NaN
    cfg = {"model": {"kind": "truncated_normal", "mu": -0.15922532224647543,
                     "sigma": 0.08286459923101319, "radius": 4.193969724871905,
                     "n_nodes": 7},
           "utility": {"kind": "exponential", "gamma": 2.4885890320069715}}
    spec = cli.build_spec(cfg)
    w = spec.model.weights
    assert not w.all()
    assert cli.main(["solve", "--config", write_config(tmp_path, cfg)]) == 0
    header, rows, _ = read_result_csv(capsys.readouterr().out)
    # the same problem on the atoms that carry weight
    kept = rf.explicit(spec.model.support_1d[w > 0], w[w > 0])
    want = rf.solve_baseline(dataclasses.replace(spec, model=kept)).pi_star_scalar
    assert rows[0][header.index("pi_star")] == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(-49.289204587216751, rel=1e-12)


def _with_float_ints(value):
    """The config with every int written as its float (64 -> 64.0)."""
    if isinstance(value, dict):
        return {k: _with_float_ints(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_with_float_ints(v) for v in value]
    return float(value) if type(value) is int else value


@pytest.mark.parametrize("command, cfg", [
    ("solve", base_config(model={"kind": "normal", "mu": 0.1, "sigma": 0.2, "n_nodes": 16},
                          utility={"kind": "exponential", "gamma": 1.0})),
    ("solve", base_config(payoff={"kind": "power", "k": 3})),
], ids=["n_nodes", "payoff-k"])
def test_integral_floats_count_as_integers(tmp_path, capsys, command, cfg):
    # JSON Schema counts 64.0 as an integer; the commands must read it as 64
    twin = _with_float_ints(cfg)
    assert json.dumps(twin) != json.dumps(cfg)
    rows = []
    for i, config in enumerate((cfg, twin)):
        assert cli.main([command, "--config", write_config(tmp_path, config, f"{i}.json")]) == 0
        rows.append([[repr(v) for v in row]
                     for row in read_result_csv(capsys.readouterr().out)[1]])
    assert rows[0] == rows[1]


def test_robust_without_delta_exits_two(tmp_path, capsys):
    rc = cli.main(["robust", "--config", write_config(tmp_path, base_config())])
    assert rc == 2
    assert "delta" in capsys.readouterr().err


@pytest.mark.parametrize("argv_extra", [
    ["--delta-grid", "0:0.2"],          # not start:stop:step
    ["--delta-grid", "0:0.2:0"],        # zero step
    ["--delta-grid", "0:0.2:x"],
    ["--delta", "-0.5"],
    ["--sweep", "zeta=0:1:0.5"],
])
def test_bad_grid_arguments_exit_two(tmp_path, argv_extra, capsys):
    rc = cli.main(["robust", "--config", write_config(tmp_path, base_config())]
                  + argv_extra)
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("order", ["inf", 2.0])
@pytest.mark.parametrize("how", ["argument", "config", "grid"])
def test_nan_radius_exits_two(tmp_path, capsys, order, how):
    # NaN passes every `delta < 0` guard; it must be refused up front, not
    # turned into a NaN row with exit 0 or a traceback
    cfg = base_config(wasserstein_p=order, action_space=[-0.75, 0.75],
                      model={"kind": "binomial", "a": 0.25, "state_space": [-1.25, 1.25]})
    argv_extra = {"argument": ["--delta", "nan"], "grid": ["--delta-grid", "nan:0.2:0.1"],
                  "config": []}[how]
    if how == "config":
        cfg["delta"] = math.nan
    rc = cli.main(["robust", "--config", write_config(tmp_path, cfg)] + argv_extra)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err


def test_robust_at_an_order_past_float_range_exits_two(tmp_path, capsys):
    # p = 250 exited 0 with overflow warnings on stderr (exit 4 in the test
    # suite, where RuntimeWarnings are errors); (2.25 / 0.1)^250 budgets is
    # past float range
    cfg = base_config(wasserstein_p=250.0, action_space=[-0.75, 0.75], delta=0.1,
                      model={"kind": "binomial", "a": 0.25, "state_space": [-1.25, 1.25]})
    rc = cli.main(["robust", "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "use p = inf" in captured.err and "Traceback" not in captured.err


def test_robust_reads_top_level_state_space(tmp_path, capsys):
    # the finite-p oracle caps displacements by the state space of the
    # problem, whether the config sets it at the top level or on the model
    cfg = base_config(wasserstein_p=2.0, action_space=[-0.75, 0.75], delta=0.1)
    top = dict(cfg, state_space=[-1.25, 1.25])
    on_model = dict(cfg, model={"kind": "binomial", "a": 0.25,
                                "state_space": [-1.25, 1.25]})
    outputs = []
    for name, c in (("top.json", top), ("model.json", on_model)):
        assert cli.main(["robust", "--config", write_config(tmp_path, c, name)]) == 0
        outputs.append([line for line in capsys.readouterr().out.splitlines()
                        if not line.startswith("#")])
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("points", [["x", 1.0], [[1.0, 2.0], [3.0]]])
def test_explicit_model_with_malformed_points_exits_two(tmp_path, capsys, points):
    # both pass the schema ("points" items are untyped) and used to leave
    # numpy's ValueError as a traceback with exit 1
    cfg = base_config(model={"kind": "explicit", "points": points, "weights": [0.5, 0.5]})
    rc = cli.main(["solve", "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: explicit model needs numeric points")


def test_unexpected_exception_exits_four_without_traceback(tmp_path, capsys, monkeypatch):
    def broken(cfg):
        return 1.0 / 0.0

    monkeypatch.setattr(cli, "cmd_solve", broken)
    rc = cli.main(["solve", "--config", write_config(tmp_path, base_config())])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: internal failure (ZeroDivisionError at test_cli.py:")
    assert "Traceback" not in captured.err


def test_cli_runs_without_scipy_optimize(tmp_path):
    # the Brent routines are in-tree; scipy.optimize (linprog) is loaded only
    # for d > 1 models
    solve_cfg = write_config(tmp_path, base_config(), "solve.json")
    robust_cfg = write_config(tmp_path, base_config(
        wasserstein_p=2.0, action_space=[-0.75, 0.75], delta=0.05,
        model={"kind": "binomial", "a": 0.25, "state_space": [-1.25, 1.25]}), "robust.json")
    code = ("import sys\n"
            "from robustfolio.cli import main\n"
            "codes = [main(['solve', '--config', sys.argv[1]]),\n"
            "         main(['robust', '--config', sys.argv[2]])]\n"
            "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", code, solve_cfg, robust_cfg],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from robustfolio import *", namespace)
    assert set(rf.__all__) <= namespace.keys()
    assert len(set(rf.__all__)) == len(rf.__all__)


def test_cli_loads_no_jsonschema(tmp_path):
    # configs are checked in-tree; jsonschema (and what it pulls in) is a test
    # dependency only, on the exit-0 and the exit-2 path alike
    invalid = ROOT / "bench" / "configs" / "invalid_schema.json"
    code = ("import sys\n"
            "from robustfolio.cli import main\n"
            "codes = [main(['solve', '--config', sys.argv[1]]),\n"
            "         main(['solve', '--config', sys.argv[2]])]\n"
            "print(codes, sorted(m for m in sys.modules\n"
            "                    if m.startswith(('jsonschema', 'referencing', 'attr'))))\n")
    proc = subprocess.run([sys.executable, "-c", code,
                           write_config(tmp_path, base_config()), str(invalid)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 2] []"
    assert "config rejected: config.wasserstein_p" in proc.stderr


def test_figures_presets_shapes(tmp_path):
    expected = {
        "fig1": (30, ["mu", "sharpe", "V_prime0", "magnitude"]),
        "fig3-left": (9, ["a", "sharpe", "pi_prime0_q1", "pi_prime0_q2",
                          "pi_prime0_q3"]),
        "fig4": (5, ["kappa", "V_prime0", "V_prime0_limit", "pi_prime0",
                     "pi_prime0_limit", "pi_prime0_variant"]),
    }
    for preset, (n_rows, columns) in expected.items():
        out = tmp_path / f"{preset}.csv"
        rc = cli.main(["figures", preset, "--out", str(out)])
        assert rc == 0
        header, rows, prov = read_result_csv(out.read_text(encoding="utf-8"))
        assert header == columns
        assert len(rows) == n_rows
        assert prov["preset"] == preset


def test_figures_without_preset_exits_two(capsys):
    assert cli.main(["figures"]) == 2
    assert "preset" in capsys.readouterr().err


def test_figures_unknown_preset_exits_two(capsys):
    assert cli.main(["figures", "fig9"]) == 2
    capsys.readouterr()


def test_oracle_check_errors_are_small(tmp_path):
    cfg = {"fixture": {"name": "binomial_log", "params": {"a": 0.25, "q": 2.0}}}
    out = tmp_path / "oracle.csv"
    rc = cli.main(["oracle-check", "--config", write_config(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 0
    header, rows, prov = read_result_csv(out.read_text(encoding="utf-8"))
    assert prov["fixture"] == "binomial_log"
    err_cols = [j for j, name in enumerate(header) if name.endswith("_err")]
    assert err_cols
    for j in err_cols:
        assert rows[0][j] <= 1e-8


# baseline solves per preset: one lockstep lane per model, the order enters
# only the sensitivities taken on that solution
PRESET_SOLVES = {"fig1": 30, "fig2-left": 18, "fig2-right": 18, "fig3-left": 9,
                 "fig3-right": 9, "fig4": 5}


def test_figure_presets_solve_each_model_once(monkeypatch, lockstep_lanes):
    assert sorted(PRESET_SOLVES) == sorted(cli.FIGURE_PRESETS)
    singles = []
    solve = cli.solve_baseline
    monkeypatch.setattr(cli, "solve_baseline", lambda spec: singles.append(spec) or solve(spec))
    for preset, count in PRESET_SOLVES.items():
        lockstep_lanes.clear()
        cli.run("figures", {}, preset)
        assert [len(lanes) for lanes in lockstep_lanes] == [count], preset
        assert not singles, preset
    # fig4's lanes are five utilities on one model; the others share one
    assert len({id(lane[2]) for lane in lockstep_lanes[0]}) == 5


@pytest.mark.parametrize("parameter, grid, utilities", [
    ("mu", [0.05, 0.40, 0.05], 1), ("a", [0.1, 0.4, 0.1], 1), ("gamma", [0.5, 2.0, 0.5], 4)])
def test_sweep_solves_each_grid_value_once(lockstep_lanes, parameter, grid, utilities):
    # one lane per grid value, in one lockstep solve; a sweep over the model
    # makes its utility once, so its lanes share it
    model = ({"kind": "binomial", "a": 0.25} if parameter == "a"
             else {"kind": "normal", "mu": 0.1, "sigma": 0.2})
    cfg = {"model": model, "utility": {"kind": "exponential", "gamma": 1.0},
           "sweep": {"parameter": parameter, "grid": grid}}
    table = cli.run("sweep", cfg)
    values = [row[0] for row in table.rows]
    assert len(lockstep_lanes) == 1 and len(lockstep_lanes[0]) == len(values)
    assert len({id(lane[2]) for lane in lockstep_lanes[0]}) == utilities
    models = {(lane[0].tobytes(), lane[1].tobytes(), id(lane[2])) for lane in lockstep_lanes[0]}
    assert len(models) == len(values)


def test_sweep_raises_a_build_error_after_the_rows_before_it(monkeypatch):
    # a grid value that fails to build raises where the one-value-at-a-time
    # loop raised it: after the reports of the values before it, so an
    # error there comes first
    cfg = {"model": {"kind": "binomial", "a": 0.25}, "utility": {"kind": "log_shifted"},
           "sweep": {"parameter": "a", "grid": [0.4, 1.2, 0.4]}}
    with pytest.raises(ConfigError, match="a"):
        cli.run("sweep", cfg)
    reported = []

    def failing_report(spec, sol):
        reported.append(spec)
        raise DegenerateSensitivityError("the first row's report")

    monkeypatch.setattr(cli, "sensitivity_report", failing_report)
    with pytest.raises(DegenerateSensitivityError, match="first row"):
        cli.run("sweep", cfg)
    assert len(reported) == 1


def test_oracle_check_prices_both_payoffs_on_one_robust_solve(monkeypatch):
    solves = []
    solve = robust_solver.robust_solve_inf
    monkeypatch.setattr(robust_solver, "robust_solve_inf",
                        lambda *args: solves.append(args) or solve(*args))
    cli.run("oracle-check", {"fixture": {"name": "binomial_log",
                                         "params": {"a": 0.25, "q": 1.0}}}, None)
    assert len(solves) == 1


def test_davis_root_solves_each_perturbed_problem_once(monkeypatch):
    # 9 Brent points, each one lockstep solve of its two perturbed problems;
    # the bracket ends are Brent's first two points and are not solved again
    endowments = []
    solve = baseline_solver.solve_with_endowments
    monkeypatch.setattr(baseline_solver, "solve_with_endowments", lambda spec, es: (
        endowments.append([e.tobytes() for e in es]) or solve(spec, es)))
    cases = [case for case in load_bench("workloads").closed_form_cases(None)
             if case[0].startswith("davis-root")]
    assert len(cases) == 3
    for name, command, cfg, preset in cases:
        endowments.clear()
        cli.run(command, cfg, preset)
        assert len(endowments) == 9 and all(len(pair) == 2 for pair in endowments), name
        flat = [e for pair in endowments for e in pair]
        assert len(set(flat)) == len(flat) == 18, name


NEAR_P_ONE = {"model": {"kind": "explicit", "points": [-1, 1], "weights": [1e-4, 0.9999],
                        "state_space": [-2, 2]},
              "utility": {"kind": "log_shifted", "w0": 1.0},
              "wasserstein_p": 1.0101010101010102}


@pytest.mark.filterwarnings("error")
def test_sensitivity_near_p_one_is_finite(tmp_path, capsys):
    # |u'|^q overflows at q ~ 100; the closed forms take it relative to max|u'|
    rc = cli.main(["sensitivity", "--config", write_config(tmp_path, NEAR_P_ONE)])
    header, rows, _ = read_result_csv(capsys.readouterr().out)
    assert rc == 0
    row = dict(zip(header, rows[0]))
    assert row["V_prime0"] == pytest.approx(-4559.1421859407, rel=1e-12)
    for name in ("pi_prime0", "kappa_u", "kl_V_prime0"):
        assert math.isfinite(row[name]), name


@pytest.mark.filterwarnings("error")
def test_oracle_check_near_p_one_is_finite(tmp_path, capsys):
    cfg = {"fixture": {"name": "binomial_log", "params": {"a": 1e-4, "q": 100}}}
    rc = cli.main(["oracle-check", "--config", write_config(tmp_path, cfg)])
    header, rows, _ = read_result_csv(capsys.readouterr().out)
    assert rc == 0
    values = dict(zip(header, rows[0]))
    assert values["value_prime0_fixture"] == pytest.approx(-4559.14218594, rel=1e-10)
    for name in ("pi_star", "V0", "value_prime0", "pi_prime0", "kl_prime0"):
        fixture_value = values[f"{name}_fixture"]
        assert math.isfinite(fixture_value), name
        assert values[f"{name}_err"] <= 1e-12 * max(1.0, abs(fixture_value)), name


def test_oracle_check_capped_exp_limit_out_of_float_range_exits_two(tmp_path, capsys):
    # exp((q - 1) mu^2/sigma^2 / 2) at q = 1000, mu^2/sigma^2 = 6.25 is past
    # float range: a typed config error, not an internal failure
    cfg = {"fixture": {"name": "capped_exp_limit",
                       "params": {"mu": 0.5, "sigma": 0.2, "q": 1000}}}
    rc = cli.main(["oracle-check", "--config", write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "q = 1000" in err and "mu^2/sigma^2 = 6.25" in err


def test_oracle_check_binomial_exp_keeps_a_far_optimum_interior(tmp_path, capsys):
    # pi* = ln((1-a)/a)/2 = 10.36 at a = 1e-9, past the old box [-10, 10]
    cfg = {"fixture": {"name": "binomial_exp", "params": {"a": 1e-9}}}
    rc = cli.main(["oracle-check", "--config", write_config(tmp_path, cfg)])
    header, rows, _ = read_result_csv(capsys.readouterr().out)
    assert rc == 0
    values = dict(zip(header, rows[0]))
    assert values["pi_star_fixture"] == pytest.approx(10.3616329, rel=1e-8)
    for name in ("pi_star", "V0", "value_prime0", "kl_prime0"):
        assert values[f"{name}_err"] <= 1e-8 * max(1.0, abs(values[f"{name}_fixture"])), name


def test_oracle_check_needs_fixture_section(tmp_path, capsys):
    rc = cli.main(["oracle-check", "--config", write_config(tmp_path, {})])
    assert rc == 2
    capsys.readouterr()


def test_console_script_entry_point(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; from robustfolio.cli import main; "
                           "sys.exit(main(sys.argv[1:]))",
                           "solve", "--config", cfg_path],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("pi_star,")
