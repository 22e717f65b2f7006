"""Shared builders for the test suite."""

import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import robustfolio as rf
from robustfolio import baseline_solver, robust_solver

ROOT = Path(__file__).resolve().parent.parent

# Every run draws the same examples: property tests then compare two versions
# of the code on one input set, and a failure replays without a database.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@functools.lru_cache(maxsize=None)
def load_bench(name: str):
    """bench/<name>.py as a module, loaded once and read only."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def oracle_calls(monkeypatch) -> list:
    """The strategy of every finite-p oracle call (adversary_inner_inf, as
    the robust solver looks it up) the test makes."""
    calls = []
    oracle = robust_solver.adversary_inner_inf
    monkeypatch.setattr(robust_solver, "adversary_inner_inf",
                        lambda *args: calls.append(args[2]) or oracle(*args))
    return calls


@pytest.fixture
def lockstep_lanes(monkeypatch) -> list:
    """The problems of every lockstep solve (``_concave_max_lanes``, as the
    solvers look it up) the test makes, one list per call."""
    calls = []
    lanes = baseline_solver._concave_max_lanes

    def traced(problems):
        calls.append(list(problems))
        return lanes(calls[-1])

    for module in (baseline_solver, robust_solver):
        monkeypatch.setattr(module, "_concave_max_lanes", traced)
    return calls


def wide_interval(half_width: float = 1000.0) -> rf.StateSpace:
    return rf.StateSpace.interval(-half_width, half_width)


def binomial_log_spec(a: float = 0.25, p: float = math.inf,
                      action: tuple[float, float] = (-0.95, 0.95),
                      state: tuple[float, float] | None = None) -> rf.ProblemSpec:
    """Two-point model with shifted-log utility, the workhorse fixture."""
    space = rf.StateSpace.interval(*state) if state is not None else None
    return rf.ProblemSpec(
        model=rf.binomial(a, state_space=space),
        utility=rf.log_shifted(1.0),
        action_space=rf.StateSpace.interval(*action),
        order=rf.WassersteinOrder(p),
    )


def binomial_exp_spec(a: float = 0.25, gamma: float = 1.0,
                      p: float = math.inf) -> rf.ProblemSpec:
    return rf.ProblemSpec(
        model=rf.binomial(a),
        utility=rf.exponential(gamma),
        action_space=rf.StateSpace.interval(-10.0, 10.0),
        order=rf.WassersteinOrder(p),
    )


def normal_exp_spec(mu: float = 0.1, sigma: float = 0.2, gamma: float = 1.0,
                    n_nodes: int = 128) -> rf.ProblemSpec:
    return rf.ProblemSpec(
        model=rf.normal(mu, sigma, n_nodes),
        utility=rf.exponential(gamma),
        action_space=wide_interval(),
        order=rf.WassersteinOrder(math.inf),
    )


def gl_normal(mu: float, sigma: float, cuts=(), panel_nodes: int = 48,
              radius: float = 10.0) -> rf.DiscreteMeasure:
    """Composite Gauss-Legendre quadrature of N(mu, sigma^2) with panel
    breaks at the given cut points.

    Plain Gauss-Hermite loses accuracy when the integrand has kinks; panels
    split at the kinks restore spectral convergence, which the tight Davis
    sensitivity tolerances need.
    """
    lo, hi = mu - radius * sigma, mu + radius * sigma
    edges = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    z, gw = np.polynomial.legendre.leggauss(panel_nodes)
    pts, wts = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        xm, xr = 0.5 * (a + b), 0.5 * (b - a)
        xs = xm + xr * z
        dens = np.exp(-0.5 * ((xs - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        pts.append(xs)
        wts.append(gw * xr * dens)
    return rf.explicit(np.concatenate(pts), np.concatenate(wts))


def kink_cuts(payoff: rf.Payoff) -> list[float]:
    """Panel breaks covering a payoff's smoothed kink neighborhoods."""
    cuts = []
    for k in payoff.kinks:
        cuts.extend((k - payoff.smoothing, k, k + payoff.smoothing))
    return cuts


def random_measure(rng: np.random.Generator, n_max: int = 6) -> rf.DiscreteMeasure:
    n = int(rng.integers(1, n_max + 1))
    pts = rng.uniform(-2.0, 2.0, size=n)
    w = rng.uniform(0.1, 1.0, size=n)
    return rf.explicit(pts, w / w.sum())


def read_result_csv(text: str) -> tuple[list[str], list[list[float]], dict[str, str]]:
    """Parse a table the CLI rendered as CSV: header, rows, provenance."""
    lines = [ln for ln in text.split("\n") if ln]
    provenance: dict[str, str] = {}
    data: list[list[float]] = []
    header: list[str] = []
    for i, ln in enumerate(lines):
        if ln.startswith("# "):
            key, _, value = ln[2:].partition("=")
            provenance[key] = value
        elif i == 0:
            header = ln.split(",")
        else:
            data.append([float(tok) for tok in ln.split(",")])
    return header, data, provenance
