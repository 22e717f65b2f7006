"""Byte-for-byte replay of the golden CLI recordings under bench/golden.

The benchmark's own op lists (bench/workloads.py) name the cases: the
cli_cold commands run in process through ``cli.main`` and must print the
recorded stdout with the recorded exit code; the closed_forms cases run
through ``cli.run`` + ``cli.emit`` and must render the recorded CSV bytes.
Every function the benchmark's tracer (bench/spans.py) wraps must still
exist. Nothing under bench/ is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from robustfolio import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "bench" / "golden"


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _load_bench("workloads")
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
    for module, attribute in _load_bench("spans").TRACED:
        found = getattr(importlib.import_module(f"robustfolio.{module}"), attribute, None)
        assert callable(found), f"robustfolio.{module}.{attribute}"
