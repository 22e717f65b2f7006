"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import math

import pytest

import robustfolio as rf

from conftest import ROOT


def quick_start_source() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs_as_documented():
    source = quick_start_source()
    scope: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(source, "README.md", "exec"), scope)
    sol, report, price = scope["sol"], scope["report"], scope["price"]
    assert sol.pi_star_scalar == pytest.approx(0.5, abs=1e-12)
    assert sol.V0 == pytest.approx(0.25 * math.log(0.5) + 0.75 * math.log(1.5), abs=1e-15)
    assert repr(sol.V0) in source  # the value the comment quotes
    assert report.V_prime0 == pytest.approx(-0.5, abs=1e-12)
    assert report.pi_prime0.tolist() == pytest.approx([-1.0], abs=1e-10)
    curve = rf.fixture("binomial_log", a=0.25, x0=0.5).price_curves["abs_shift"]
    assert curve(0.1) == pytest.approx(1.04, abs=1e-15)
    assert price == pytest.approx(curve(0.1), abs=1e-12)
