"""Wasserstein-robust one-period portfolio choice.

Solve max-expected-utility problems over discrete return models, compute
closed-form first-order sensitivities of the value, the optimal strategy and
the marginal-utility (Davis) option price to the robustness radius, and solve
the distributionally robust problem itself — exactly for the sup-transport
order, by a verified adversarial construction for finite orders.
"""

__version__ = "0.1.0"

from .errors import (ArbitrageError, AssumptionViolation, BoundaryOptimumError,
                     ConfigError, DegenerateSensitivityError,
                     DomainCompatibilityError, NumericalFailure, RobustfolioError)
from .measures import (DiscreteMeasure, StateSpace, WassersteinOrder, binomial,
                       explicit, make_model, moments, no_arbitrage_check, normal,
                       shifted_lognormal, truncated_normal, wasserstein_distance)
from .utility import (Utility, capped_exponential, exponential,
                      finite_difference_check, log_shifted, make_utility, power)
from .baseline_solver import (BaselineSolution, Payoff, ProblemSpec,
                              abs_shift_payoff, butterfly_payoff, call_payoff,
                              custom_payoff, davis_price, davis_price_via_root,
                              make_payoff, power_payoff, q_u_measure,
                              solve_baseline, solve_baselines, solve_with_endowment,
                              solve_with_endowments)
from .sensitivity import (PreferenceComparison, SensitivityReport,
                          davis_sensitivity, degeneracy_guard,
                          kl_value_sensitivity, optimizer_sensitivity,
                          preference_compare, sensitivity_report,
                          transport_direction, value_sensitivity)
from .robust_solver import (RobustSolution, adversary_inner_inf,
                            martingale_check_robust, robust_davis_first_order,
                            robust_davis_price, robust_solve, robust_solve_inf,
                            robust_solve_p, solve_delta_grid)
from .analytic_fixtures import FIXTURE_NAMES, Fixture, bs_value, fixture

__all__ = [
    "ArbitrageError", "AssumptionViolation", "BoundaryOptimumError",
    "ConfigError", "DegenerateSensitivityError", "DomainCompatibilityError",
    "NumericalFailure", "RobustfolioError",
    "DiscreteMeasure", "StateSpace", "WassersteinOrder", "binomial", "explicit",
    "make_model", "moments", "no_arbitrage_check", "normal",
    "shifted_lognormal", "truncated_normal", "wasserstein_distance",
    "Utility", "capped_exponential", "exponential", "finite_difference_check",
    "log_shifted", "make_utility", "power",
    "BaselineSolution", "Payoff", "ProblemSpec", "abs_shift_payoff",
    "butterfly_payoff", "call_payoff", "custom_payoff", "davis_price",
    "davis_price_via_root", "make_payoff", "power_payoff", "q_u_measure",
    "solve_baseline", "solve_baselines", "solve_with_endowment", "solve_with_endowments",
    "PreferenceComparison", "SensitivityReport", "davis_sensitivity",
    "degeneracy_guard", "kl_value_sensitivity", "optimizer_sensitivity",
    "preference_compare", "sensitivity_report", "transport_direction",
    "value_sensitivity",
    "RobustSolution", "adversary_inner_inf", "martingale_check_robust",
    "robust_davis_first_order", "robust_davis_price", "robust_solve",
    "robust_solve_inf", "robust_solve_p", "solve_delta_grid",
    "FIXTURE_NAMES", "Fixture", "bs_value", "fixture",
    "__version__",
]
