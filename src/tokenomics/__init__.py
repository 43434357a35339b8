"""Steady-state token economics: equilibrium solvers, supply policy, welfare.

The package namespace is lazy (PEP 562): ``import tokenomics`` loads no
submodule, and each public name or submodule is imported on first access
and then bound here, so a process loads only the modules it uses.
"""

import importlib

#: the public names, each with the module that defines it
_MODULE_OF = {
    "AgentTypeSpec": "econ_core",
    "BLOCKSPACE_CAPACITY": "econ_core",
    "CostFn": "econ_core",
    "EconomyConfig": "econ_core",
    "SCHEMA_VERSION": "econ_core",
    "ShockKind": "econ_core",
    "ShockProcess": "econ_core",
    "UtilityFn": "econ_core",
    "ZeroUtility": "econ_core",
    "config_from_dict": "econ_core",
    "config_to_dict": "econ_core",
    "family": "econ_core",
    "load_config": "econ_core",
    "require_valid": "econ_core",
    "validate_config": "econ_core",
    "REGIMES": "equilibrium",
    "StateOutcome": "equilibrium",
    "SteadyStateEquilibrium": "equilibrium",
    "solve_regime": "equilibrium",
    "ConfigError": "errors",
    "InfeasiblePolicyError": "errors",
    "OracleError": "errors",
    "SolverError": "errors",
    "TokenomicsError": "errors",
    "Allocation": "first_best",
    "expected_first_best_surplus": "first_best",
    "first_best_allocation": "first_best",
    "flow_surplus": "first_best",
    "GridSpec": "oracle",
    "first_best_dual_gap": "oracle",
    "grid_best_response": "oracle",
    "holdings_slope": "oracle",
    "SupplyPath": "policy",
    "SupplyRule": "policy",
    "SupplyRuleKind": "policy",
    "friedman_supply_ratio": "policy",
    "supply_path": "policy",
    "SweepResult": "welfare",
    "WelfareReport": "welfare",
    "evaluate": "welfare",
    "shock_foc_residual": "welfare",
    "sweep_tax": "welfare",
    "CERT_TOL": "verify",
    "cert_failures": "verify",
    "certify": "verify",
    "heterogeneous_roles": "verify",
    "proposition_report": "verify",
}

__all__ = sorted(_MODULE_OF)

_SUBMODULES = frozenset({
    "_roots", "cli", "econ_core", "equilibrium", "errors", "first_best", "oracle", "policy",
    "verify", "welfare",
})


def __getattr__(name: str):
    """A submodule, or a name of __all__ bound here on first access, so that
    later lookups are plain reads of the module dict."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value
