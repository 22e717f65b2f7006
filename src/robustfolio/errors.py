"""Exception hierarchy shared across the package.

Exit-code contract (used by the CLI):
    2  invalid configuration (schema violations, bad parameter ranges)
    3  assumption violation (arbitrage, degenerate sensitivity regime,
       boundary optimum where a formula requires interiority, state/action
       incompatibility with the utility domain)
    4  numerical failure (non-convergence, missing root bracket, unwritable
       output path)
"""

from __future__ import annotations


class RobustfolioError(Exception):
    """Base class; `exit_code` drives the CLI process status."""

    exit_code = 1


class ConfigError(RobustfolioError):
    exit_code = 2


class AssumptionViolation(RobustfolioError):
    exit_code = 3


class ArbitrageError(AssumptionViolation):
    """The baseline model admits a strategy with no downside."""


class DegenerateSensitivityError(AssumptionViolation):
    """Finite transport order with exponential-type tails: the first-order
    sensitivity is -inf and the closed forms do not apply."""


class BoundaryOptimumError(AssumptionViolation):
    """The optimizer sits on the action-space boundary where an
    interiority-based formula is requested."""


class DomainCompatibilityError(AssumptionViolation):
    """Wealth can leave the utility domain on the declared state/action box."""


class NumericalFailure(RobustfolioError):
    exit_code = 4


def catalog_member(builders: dict, descriptor, what: str):
    """The catalog member a config-style descriptor names, e.g.
    ``{"kind": "binomial", "a": 0.25}``: ``builders[kind]`` called with the
    other keys. ``what`` names the catalog in the ConfigError that refuses a
    descriptor with no kind, an unknown kind, or parameters the builder does
    not take."""
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise ConfigError(f"{what} descriptor needs a 'kind' field")
    kind = descriptor["kind"]
    if kind not in builders:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    try:
        return builders[kind](**{k: v for k, v in descriptor.items() if k != "kind"})
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {what} kind {kind!r}: {exc}") from exc
