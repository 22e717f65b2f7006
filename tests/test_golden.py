"""Byte-for-byte replay of the golden CLI recordings under bench/golden.

The benchmark's own op lists (bench/workloads.py) name the cases: the
cli_cold commands run in process through ``cli.main`` and must print the
recorded stdout with the recorded exit code; the closed_forms cases run
through ``cli.run`` + ``cli.emit`` and must render the recorded CSV bytes.
Every function the benchmark's tracer (bench/spans.py) wraps must still
exist, and each finite_p case must pass the benchmark's own checks with a
fixed number of finite-p oracle calls. Nothing under bench/ is written.
"""

import importlib
import json

import pytest

from robustfolio import cli

from conftest import ROOT, load_bench

GOLDEN = ROOT / "bench" / "golden"
_WORKLOADS = load_bench("workloads")
EXIT_CODES = json.loads((GOLDEN / "cli_cold" / "exit_codes.json").read_text())
CLOSED_FORM_CASES = list(_WORKLOADS.closed_form_cases(None))


def test_golden_case_lists_are_complete():
    assert sorted(EXIT_CODES) == sorted(_WORKLOADS.CLI_OPS)
    assert len(_WORKLOADS.CLI_OPS) == 9
    recorded = sorted(p.stem for p in (GOLDEN / "closed_forms").glob("*.csv"))
    assert sorted(case[0] for case in CLOSED_FORM_CASES) == recorded
    assert len(recorded) == 28


@pytest.mark.parametrize("name", list(_WORKLOADS.CLI_OPS))
def test_cli_cold_golden(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the recorded argv name configs relative to the root
    code = cli.main(list(_WORKLOADS.CLI_OPS[name]))
    out = capsys.readouterr().out
    assert code == EXIT_CODES[name]
    assert out.encode() == (GOLDEN / "cli_cold" / f"{name}.stdout").read_bytes()


@pytest.mark.parametrize("name, command, cfg, preset", CLOSED_FORM_CASES,
                         ids=[case[0] for case in CLOSED_FORM_CASES])
def test_closed_forms_golden(name, command, cfg, preset):
    cli.validate_config(cfg)
    text = cli.emit(cli.run(command, cfg, preset))
    assert text.encode() == (GOLDEN / "closed_forms" / f"{name}.csv").read_bytes()


def test_closed_forms_golden_twice_in_one_process():
    # every case forward, then every case in reverse, in one process: a
    # cache that carried state from one case into another would show here
    cases = CLOSED_FORM_CASES + CLOSED_FORM_CASES[::-1]
    for name, command, cfg, preset in cases:
        text = cli.emit(cli.run(command, cfg, preset))
        assert text.encode() == (GOLDEN / "closed_forms" / f"{name}.csv").read_bytes(), name


def test_benchmark_traced_names_resolve():
    # the benchmark wraps these (module, attribute) pairs; a renamed or
    # deleted function would otherwise surface only in the benchmark's runs
    for module, attribute in load_bench("spans").TRACED:
        found = getattr(importlib.import_module(f"robustfolio.{module}"), attribute, None)
        assert callable(found), f"robustfolio.{module}.{attribute}"


# adversary_inner_inf calls per finite_p op: the outer search takes its
# slopes at 0 in closed form, starts next to the answer (the first-order
# strategy, or the line through the radii below) and stops once V cannot
# rise past its rounding, so a pi = 0 answer (davis-zeromean) calls the
# oracle not at all
ORACLE_CALLS = {
    "grid-binomial.a=0.25": 19,
    "grid-binomial.a=0.3": 19,
    "grid-binomial.a=0.35": 18,
    "solve-truncnormal.mu=0.17": 4,
    "solve-truncnormal.mu=0.19": 5,
    "solve-explicit6.weights=0.1-0.15-0.2-0.2-0.2-0.15": 4,
    "solve-explicit6.weights=0.1-0.15-0.15-0.2-0.25-0.15": 5,
    "davis-zeromean.strike=0": 0,
    "davis-zeromean.strike=0.1": 0,
}


@pytest.mark.parametrize("name, family, value", list(_WORKLOADS.finite_p_cases(None)),
                         ids=[case[0] for case in _WORKLOADS.finite_p_cases(None)])
def test_finite_p_oracle_call_budget(oracle_calls, name, family, value):
    refs = json.loads((GOLDEN / "finite_p.json").read_text())
    spec, radii, payoff = _WORKLOADS.finite_p_instance(family, value)
    upper = _WORKLOADS.upper_bounds(spec, radii)
    out = _WORKLOADS.solve_finite_p(family, spec, radii, payoff)
    # costs within the radii, V falling along them and below V_inf, V (and
    # the price) within 1e-6 of the recording
    assert _WORKLOADS.certificate_failure(out, radii, upper, refs[name]) is None
    assert len(oracle_calls) == ORACLE_CALLS[name]
