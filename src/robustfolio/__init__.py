"""Wasserstein-robust one-period portfolio choice.

Solve max-expected-utility problems over discrete return models, compute
closed-form first-order sensitivities of the value, the optimal strategy and
the marginal-utility (Davis) option price to the robustness radius, and solve
the distributionally robust problem itself — exactly for the sup-transport
order, by a verified adversarial construction for finite orders.

Importing the package runs only ``errors``. Each engine module is registered
in ``sys.modules`` at once but runs on first attribute access, so a CLI
command pays for the modules it uses and a rejected config for none of them.
"""

import importlib.util
import sys

__version__ = "0.1.0"

from .errors import (ArbitrageError, AssumptionViolation, BoundaryOptimumError,
                     ConfigError, DegenerateSensitivityError,
                     DomainCompatibilityError, NumericalFailure, RobustfolioError)

# the analytic fixtures' names, which key analytic_fixtures' catalog; they
# live here so that the CLI's config schema lists them without running it
FIXTURE_NAMES = ("binomial_exp", "binomial_log", "capped_exp_limit", "lognormal_butterfly",
                 "normal_exp")

# engine module -> the names the package exports from it
_EXPORTS = {
    "measures": ("DiscreteMeasure", "StateSpace", "WassersteinOrder", "binomial", "explicit",
                 "make_model", "moments", "no_arbitrage_check", "normal",
                 "shifted_lognormal", "truncated_normal", "wasserstein_distance"),
    "utility": ("Utility", "capped_exponential", "exponential", "finite_difference_check",
                "log_shifted", "make_utility", "power"),
    "baseline_solver": ("BaselineSolution", "Payoff", "ProblemSpec", "abs_shift_payoff",
                        "butterfly_payoff", "call_payoff", "custom_payoff", "davis_price",
                        "davis_price_via_root", "make_payoff", "power_payoff", "q_u_measure",
                        "solve_baseline", "solve_baselines", "solve_with_endowment",
                        "solve_with_endowments"),
    "sensitivity": ("PreferenceComparison", "SensitivityReport", "davis_sensitivity",
                    "degeneracy_guard", "kl_value_sensitivity", "optimizer_sensitivity",
                    "preference_compare", "sensitivity_report", "transport_direction",
                    "value_sensitivity"),
    "robust_solver": ("RobustSolution", "adversary_inner_inf", "martingale_check_robust",
                      "robust_davis_first_order", "robust_davis_price", "robust_solve",
                      "robust_solve_inf", "robust_solve_p", "solve_delta_grid"),
    "transport": (),
    "analytic_fixtures": ("Fixture", "bs_value", "fixture"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def _lazy(name: str):
    """robustfolio.<name>, in sys.modules now, run on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _module in _EXPORTS:
    globals()[_module] = _lazy(_module)
del _module


def __getattr__(name: str):
    # looked up on every access, not cached here: a name patched in its
    # module is seen through the package as well
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})


__all__ = [
    "ArbitrageError", "AssumptionViolation", "BoundaryOptimumError",
    "ConfigError", "DegenerateSensitivityError", "DomainCompatibilityError",
    "NumericalFailure", "RobustfolioError", "FIXTURE_NAMES",
    *_OWNER,
    "__version__",
]
