"""Model primitives for a fee-based token economy.

Users value on-chain activity through isoelastic flow utilities, validators
supply blockspace at a power marginal cost, and per-period demand shifts are
driven by a binary shock process. Everything here is an immutable value type
or a pure function, so the rest of the package can share these objects freely.

Blockspace capacity is normalized to one unit per period throughout.
"""

from __future__ import annotations

import json
import logging
import math
from enum import Enum
from pathlib import Path
from typing import Mapping, NamedTuple, Union

from .errors import ConfigError

log = logging.getLogger("tokenomics")

#: version stamp expected in configuration documents
SCHEMA_VERSION = 1

#: per-period blockspace capacity (the model is normalized to this)
BLOCKSPACE_CAPACITY = 1.0

_MASS_TOL = 1e-12


# ---------------------------------------------------------------------------
# functional families
# ---------------------------------------------------------------------------


class _PowerFields(NamedTuple):
    scale: float
    curvature: float


class UtilityFn(_PowerFields):
    """Isoelastic flow utility u(a) = scale * a**(1 - curvature) / (1 - curvature).

    scale sets the dollar value of activity and curvature in (0, 1) controls
    how quickly the marginal value scale * a**(-curvature) decays. Marginal
    utility is strictly decreasing and spans (0, inf), so inversion is exact.
    """

    __slots__ = ()

    def __new__(cls, scale: float, curvature: float) -> UtilityFn:
        if not (isinstance(scale, (int, float)) and scale > 0 and math.isfinite(scale)):
            raise ValueError(f"utility scale must be a positive finite number, got {scale!r}")
        if not (isinstance(curvature, (int, float)) and 0.0 < curvature < 1.0):
            raise ValueError(f"utility curvature must lie in (0, 1), got {curvature!r}")
        return super().__new__(cls, scale, curvature)


class ZeroUtility(NamedTuple):
    """No demand in a state: u(a) = 0 for every activity level.

    Used instead of a vanishing scale so marginal-utility inversion never
    has to evaluate a 0**(-curvature) singularity. As a record with no
    fields it is an empty tuple, so it is falsy: test it with isinstance.
    """


Utility = Union[UtilityFn, ZeroUtility]


def u_eval(f: Utility, a: float) -> float:
    """Flow utility of activity a >= 0 (zero-demand states evaluate to 0)."""
    if a < 0:
        raise ValueError(f"activity must be nonnegative, got {a}")
    if isinstance(f, ZeroUtility):
        return 0.0
    return f.scale * a ** (1.0 - f.curvature) / (1.0 - f.curvature)


def u_prime(f: UtilityFn, a: float) -> float:
    """Marginal utility scale * a**(-curvature); requires a > 0."""
    if isinstance(f, ZeroUtility):
        raise TypeError("marginal utility is undefined for a zero-demand state")
    if a <= 0:
        raise ValueError(f"marginal utility needs a > 0, got {a}")
    return f.scale * a ** (-f.curvature)


def u_prime_inv(f: UtilityFn, x: float) -> float:
    """Activity level at which marginal utility equals x > 0."""
    if isinstance(f, ZeroUtility):
        raise TypeError("marginal utility is undefined for a zero-demand state")
    if x <= 0:
        raise ValueError(f"marginal utility inversion needs x > 0, got {x}")
    try:
        return (f.scale / x) ** (1.0 / f.curvature)
    except OverflowError:
        # more demand than a float holds: an overfilled load, which a
        # clearing bracket expands past
        return math.inf


class CostFn(_PowerFields):
    """Validator cost c(s) = scale * s**(1 + curvature) / (1 + curvature).

    Marginal cost scale * s**curvature is strictly increasing from zero, so
    any positive price clears an interior supply. curvature must be positive;
    values near zero give an effectively flat (perfectly elastic) fee margin.
    """

    __slots__ = ()

    def __new__(cls, scale: float, curvature: float) -> CostFn:
        if not (isinstance(scale, (int, float)) and scale > 0 and math.isfinite(scale)):
            raise ValueError(f"cost scale must be a positive finite number, got {scale!r}")
        if not (isinstance(curvature, (int, float)) and curvature > 0 and math.isfinite(curvature)):
            raise ValueError(f"cost curvature must be positive, got {curvature!r}")
        return super().__new__(cls, scale, curvature)


def c_eval(c: CostFn, s: float) -> float:
    """Total cost of supplying s >= 0 units of blockspace."""
    if s < 0:
        raise ValueError(f"supply must be nonnegative, got {s}")
    return c.scale * s ** (1.0 + c.curvature) / (1.0 + c.curvature)


def c_prime(c: CostFn, s: float) -> float:
    """Marginal cost at supply s >= 0."""
    if s < 0:
        raise ValueError(f"supply must be nonnegative, got {s}")
    if s == 0:
        return 0.0
    try:
        return c.scale * s**c.curvature
    except OverflowError:
        # more marginal cost than a float holds, at a load far past capacity
        return math.inf


# ---------------------------------------------------------------------------
# shocks and agents
# ---------------------------------------------------------------------------


class ShockKind(Enum):
    DETERMINISTIC = "deterministic"
    IID_BINARY = "iid_binary"
    COMMON_BINARY = "common_binary"


class _ShockFields(NamedTuple):
    kind: ShockKind
    rho: float


class ShockProcess(_ShockFields):
    """Per-period demand shock process.

    deterministic: a single state (labelled 1) occurs every period.
    iid_binary: each agent independently draws state 1 with probability rho,
        so cross-sectional aggregates are deterministic.
    common_binary: all agents share one draw, state 1 with probability rho.
    """

    __slots__ = ()

    def __new__(cls, kind: ShockKind, rho: float = 1.0) -> ShockProcess:
        if not (0.0 < rho <= 1.0):
            raise ValueError(f"shock probability rho must lie in (0, 1], got {rho!r}")
        return super().__new__(cls, kind, rho)

    def states(self) -> tuple[int, ...]:
        if self.kind is ShockKind.DETERMINISTIC:
            return (1,)
        return (0, 1)

    def probability(self, state: int) -> float:
        if self.kind is ShockKind.DETERMINISTIC:
            return 1.0 if state == 1 else 0.0
        return self.rho if state == 1 else 1.0 - self.rho


class _AgentFields(NamedTuple):
    mass: float
    utility_by_state: Mapping[int, Utility]
    name: str


class AgentTypeSpec(_AgentFields):
    """A positive mass of identical users, with one utility per shock state
    (a state left out has zero utility)."""

    __slots__ = ()

    def __new__(cls, mass: float, utility_by_state: Mapping[int, Utility], name: str = "") -> AgentTypeSpec:
        if not (isinstance(mass, (int, float)) and mass > 0 and math.isfinite(mass)):
            raise ValueError(f"agent mass must be a positive finite number, got {mass!r}")
        cleaned: dict[int, Utility] = {0: ZeroUtility(), 1: ZeroUtility()}
        for state, f in dict(utility_by_state).items():
            if state not in (0, 1):
                raise ValueError(f"unknown shock state {state!r}; expected 0 or 1")
            if not isinstance(f, (UtilityFn, ZeroUtility)):
                raise ValueError(f"state {state} utility must be UtilityFn or ZeroUtility")
            cleaned[state] = f
        return super().__new__(cls, mass, cleaned, name)

    def utility_in(self, state: int) -> Utility:
        return self.utility_by_state[state]

    def is_active(self, state: int) -> bool:
        return isinstance(self.utility_by_state[state], UtilityFn)


class _EconomyFields(NamedTuple):
    r: float
    gamma: float
    agent_types: tuple[AgentTypeSpec, ...]
    cost: CostFn
    shocks: ShockProcess


class EconomyConfig(_EconomyFields):
    """Full description of one economy.

    r is the per-period real interest rate (so the discount factor is
    1/(1+r)), gamma the growth rate of the activity value scale. Agent
    masses must sum to one; blockspace capacity is fixed at one unit. An
    unnamed type is named type<i> after its position.

    It declares no __slots__: its instance __dict__ holds the first-best
    memo (first_best._memo), which equality and repr do not read.
    """

    def __new__(
        cls, r: float, gamma: float, agent_types: tuple[AgentTypeSpec, ...],
        cost: CostFn, shocks: ShockProcess,
    ) -> EconomyConfig:
        named = tuple(
            spec if spec.name else AgentTypeSpec(spec.mass, spec.utility_by_state, f"type{i}")
            for i, spec in enumerate(agent_types)
        )
        return super().__new__(cls, r, gamma, named, cost, shocks)


class Violation(NamedTuple):
    """One failed (or suspect) configuration invariant."""

    field: str
    message: str
    severity: str = "error"  # "error" or "warning"

    def __str__(self) -> str:
        return f"[{self.severity}] {self.field}: {self.message}"


def validate_config(cfg: EconomyConfig) -> list[Violation]:
    """Check cross-field invariants, returning violations as data.

    Errors make the config unusable, one that no regime solves (family)
    included; warnings flag economically suspect but solvable setups (for
    example r < gamma, where deflationary supply rules have no steady state).
    """
    out: list[Violation] = []
    if not (math.isfinite(cfg.r) and cfg.r > 0):
        out.append(Violation("r", f"interest rate must be positive, got {cfg.r!r}"))
    if not (math.isfinite(cfg.gamma) and cfg.gamma > -1):
        out.append(Violation("gamma", f"growth rate must exceed -1, got {cfg.gamma!r}"))
    if not cfg.agent_types:
        out.append(Violation("agent_types", "at least one agent type is required"))
    else:
        total_mass = math.fsum(t.mass for t in cfg.agent_types)
        if abs(total_mass - 1.0) > _MASS_TOL:
            out.append(Violation("agent_types", f"masses must sum to 1, got {total_mass!r}"))
        names = [t.name for t in cfg.agent_types]
        if len(set(names)) != len(names):
            out.append(Violation("agent_types", f"duplicate type names: {names}"))
        if not any(t.is_active(s) for t in cfg.agent_types for s in cfg.shocks.states()):
            out.append(Violation("agent_types", "every type has zero utility in every "
                                 "reachable state; there is no demand"))
    if out:
        return out
    if cfg.r < cfg.gamma:
        out.append(Violation(
            "r",
            f"r = {cfg.r} is below gamma = {cfg.gamma}; deflationary supply "
            "rules (fixed supply, tax-and-burn) have no steady state here",
            severity="warning",
        ))
    try:
        fam = family(cfg)
    except ConfigError as e:
        return [*out, Violation("family", str(e))]
    if fam == "heterogeneous":
        out.extend(_check_shock_degeneracy(cfg))
    return out


def family(cfg: EconomyConfig) -> str:
    """Demand family of a config, which names the regimes that solve it:
    'deterministic'; 'iid' or 'common' for one type with zero utility in
    state 0 and demand in state 1; 'heterogeneous' for a common shock with
    gamma = 0 and rho < 1 and every type, any number of them, active in both
    states. ConfigError for any other config, naming the solver it lacks."""
    kind, types = cfg.shocks.kind, cfg.agent_types
    if kind is ShockKind.DETERMINISTIC:
        return "deterministic"
    if len(types) == 1 and not types[0].is_active(0) and types[0].is_active(1):
        return "iid" if kind is ShockKind.IID_BINARY else "common"
    one_type = "one agent type with zero utility in state 0 and demand in state 1"
    if kind is ShockKind.IID_BINARY:
        why = f"the iid regime needs {one_type}"
    elif not all(t.is_active(0) and t.is_active(1) for t in types):
        why = (f"the common regime needs {one_type}, the heterogeneous regime every type "
               "active in both states")
    elif cfg.gamma != 0.0:
        why = "the heterogeneous regime needs gamma = 0"
    elif cfg.shocks.rho >= 1.0:
        why = "the heterogeneous regime needs rho < 1: the low state must occur"
    else:
        return "heterogeneous"
    raise ConfigError(f"no regime solves this {kind.value} config: {why}")


def _check_shock_degeneracy(cfg: EconomyConfig) -> list[Violation]:
    # A common shock that leaves the socially optimal allocation unchanged in
    # both states carries no risk, which defeats the point of state-contingent
    # analysis. Checked numerically on the first-best allocations of a
    # heterogeneous config (a common config shuts its market in state 0).
    from . import first_best  # deferred: first_best imports this module

    low, high = (first_best.first_best_allocation(cfg, s).activities for s in (0, 1))
    gap = max(abs(low[t.name] - high[t.name]) for t in cfg.agent_types)
    if gap > 1e-10:
        return []
    return [Violation("shocks", "common shock is degenerate: the optimal allocation is "
                      f"identical in both states (max difference {gap:.1e})")]


def require_valid(cfg: EconomyConfig) -> list[Violation]:
    """Raise ConfigError on any error-severity violation; return warnings."""
    violations = validate_config(cfg)
    errors = [v for v in violations if v.severity == "error"]
    if errors:
        raise ConfigError("; ".join(str(v) for v in errors))
    return [v for v in violations if v.severity == "warning"]


# ---------------------------------------------------------------------------
# JSON configuration documents
# ---------------------------------------------------------------------------


def _expect_keys(obj: dict, where: str, required: set[str], optional: set[str] = frozenset()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - required - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing required field(s) {sorted(missing)}")


def _number(obj: dict, key: str, where: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    return float(v)


def _utility_from_dict(obj: dict, where: str) -> Utility:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{where}: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "zero":
        _expect_keys(obj, where, {"kind"})
        return ZeroUtility()
    if kind == "isoelastic":
        _expect_keys(obj, where, {"kind", "scale", "curvature"})
        try:
            return UtilityFn(scale=_number(obj, "scale", where), curvature=_number(obj, "curvature", where))
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from e
    raise ConfigError(f"{where}.kind: unknown utility kind {kind!r}")


def config_from_dict(doc: dict) -> EconomyConfig:
    """Build and validate an EconomyConfig from a parsed JSON document.

    Unknown fields anywhere in the document are rejected rather than ignored,
    and the document must carry schema_version = 1. The config is validated
    once: errors raise ConfigError, warnings go to the "tokenomics" logger.
    """
    _expect_keys(
        doc, "config", {"schema_version", "r", "gamma", "agent_types", "cost", "shocks"}
    )
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {doc['schema_version']!r}"
        )

    cost_obj = doc["cost"]
    _expect_keys(cost_obj, "config.cost", {"scale", "curvature"})
    try:
        cost = CostFn(
            scale=_number(cost_obj, "scale", "config.cost"),
            curvature=_number(cost_obj, "curvature", "config.cost"),
        )
    except ValueError as e:
        raise ConfigError(f"config.cost: {e}") from e

    shock_obj = doc["shocks"]
    _expect_keys(shock_obj, "config.shocks", {"kind"}, {"rho"})
    kind_raw = shock_obj["kind"]
    try:
        kind = ShockKind(kind_raw)
    except ValueError:
        raise ConfigError(
            f"config.shocks.kind: unknown kind {kind_raw!r}; expected one of "
            f"{[k.value for k in ShockKind]}"
        ) from None
    rho = _number(shock_obj, "rho", "config.shocks") if "rho" in shock_obj else 1.0
    try:
        shocks = ShockProcess(kind=kind, rho=rho)
    except ValueError as e:
        raise ConfigError(f"config.shocks: {e}") from e

    types_raw = doc["agent_types"]
    if not isinstance(types_raw, list) or not types_raw:
        raise ConfigError("config.agent_types: expected a non-empty array")
    specs = []
    for i, t in enumerate(types_raw):
        where = f"config.agent_types[{i}]"
        _expect_keys(t, where, {"mass", "utility_by_state"}, {"name"})
        ubs_raw = t["utility_by_state"]
        if not isinstance(ubs_raw, dict):
            raise ConfigError(f"{where}.utility_by_state: expected an object")
        ubs: dict[int, Utility] = {}
        for key, val in ubs_raw.items():
            if key not in ("0", "1"):
                raise ConfigError(f"{where}.utility_by_state: unknown state {key!r}; expected '0' or '1'")
            ubs[int(key)] = _utility_from_dict(val, f"{where}.utility_by_state.{key}")
        name = t.get("name", "")
        if not isinstance(name, str):
            raise ConfigError(f"{where}.name: expected a string")
        try:
            specs.append(AgentTypeSpec(mass=_number(t, "mass", where), utility_by_state=ubs, name=name))
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from e

    cfg = EconomyConfig(
        r=_number(doc, "r", "config"),
        gamma=_number(doc, "gamma", "config"),
        agent_types=tuple(specs),
        cost=cost,
        shocks=shocks,
    )
    for v in require_valid(cfg):
        log.warning("%s: %s", v.field, v.message)
    return cfg


def load_config(path: str | Path) -> EconomyConfig:
    """Read a UTF-8 JSON config file; malformed JSON reports line and column."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config file: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: config file is not UTF-8: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    return config_from_dict(doc)


def _utility_to_dict(f: Utility) -> dict:
    if isinstance(f, ZeroUtility):
        return {"kind": "zero"}
    return {"kind": "isoelastic", "scale": f.scale, "curvature": f.curvature}


def config_to_dict(cfg: EconomyConfig) -> dict:
    """Serialize back to the JSON document shape accepted by config_from_dict."""
    return {
        "schema_version": SCHEMA_VERSION,
        "r": cfg.r,
        "gamma": cfg.gamma,
        "cost": {"scale": cfg.cost.scale, "curvature": cfg.cost.curvature},
        "shocks": {"kind": cfg.shocks.kind.value, "rho": cfg.shocks.rho},
        "agent_types": [
            {
                "name": t.name,
                "mass": t.mass,
                "utility_by_state": {
                    str(s): _utility_to_dict(t.utility_by_state[s]) for s in (0, 1)
                },
            }
            for t in cfg.agent_types
        ],
    }
