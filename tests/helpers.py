"""Config builders and an evaluation recorder shared across the test modules."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from tokenomics import econ_core as ec
from tokenomics import equilibrium as eqm
from tokenomics import first_best as fb
from tokenomics.oracle import holdings_objective, holdings_slope

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

ISO = ec.UtilityFn
ZERO = ec.ZeroUtility()


def replace(record, **changes):
    """A copy of a record with the given fields changed, built through its
    constructor, so a validated type checks and normalises the copy as it
    would a new record (NamedTuple._replace skips that)."""
    return type(record)(**{**record._asdict(), **changes})


@dataclass
class Evaluations:
    """Work recorded while a test runs: the argument of every u_prime_inv,
    u_prime and c_prime call, and for every market clear the prices its load
    was evaluated at."""

    u_prime_inv: list[float] = field(default_factory=list)
    u_prime: list[float] = field(default_factory=list)
    c_prime: list[float] = field(default_factory=list)
    clears: list[list[float]] = field(default_factory=list)

    def clear(self) -> None:
        """Forget the calls recorded so far."""
        for calls in (self.u_prime_inv, self.u_prime, self.c_prime, self.clears):
            calls.clear()


def record_evaluations(monkeypatch) -> Evaluations:
    """Record u_prime_inv, u_prime and c_prime calls and the loads of
    _clear_blockspace (in both modules that call it) for the rest of the
    test."""
    seen = Evaluations()
    u_prime_inv, u_prime, c_prime = ec.u_prime_inv, ec.u_prime, ec.c_prime
    kernel = fb._clear_blockspace

    def counting(f, x):
        seen.u_prime_inv.append(x)
        return u_prime_inv(f, x)

    def counting_u_prime(f, a):
        seen.u_prime.append(a)
        return u_prime(f, a)

    def counting_c_prime(c, s):
        seen.c_prime.append(s)
        return c_prime(c, s)

    def clearing(cost, load, guess=None):
        prices: list[float] = []
        seen.clears.append(prices)

        def recording(p: float) -> float:
            prices.append(p)
            return load(p)

        return kernel(cost, recording, guess)

    monkeypatch.setattr(ec, "u_prime_inv", counting)
    monkeypatch.setattr(ec, "u_prime", counting_u_prime)
    monkeypatch.setattr(ec, "c_prime", counting_c_prime)
    monkeypatch.setattr(fb, "_clear_blockspace", clearing)
    monkeypatch.setattr(eqm, "_clear_blockspace", clearing)
    return seen


def one_sided_ascent(cfg: ec.EconomyConfig, eq: eqm.SteadyStateEquilibrium) -> dict[str, float]:
    """Largest gain per token from moving each type's balance m one step of
    1e-6 * m up or down, by differences of its holdings objective.

    The objective is concave in m, so at its maximum neither step gains and
    the reading is at most rounding, also where rT = r puts the optimum on a
    kink (flat above, concave below).
    """
    out: dict[str, float] = {}
    for t in cfg.agent_types:
        objective = holdings_objective(cfg, eq, t.name)
        m = eq.holdings[t.name]
        step = 1e-6 * m if m > 0.0 else 1e-6
        here = objective(m)
        up = objective(m + step) - here
        down = objective(max(m - step, 0.0)) - here
        out[t.name] = max(up, down) / step
    return out


def assert_holdings_slope_matches(cfg: ec.EconomyConfig, eq: eqm.SteadyStateEquilibrium,
                                  reference) -> None:
    """holdings_slope equals reference(doc, eq_doc, name, m), the same
    derivative written independently, at eq's holdings and at 1 -+ 1e-3
    times them, where the concave objective's slope is > 0 below the
    optimum and < 0 above it (0 where E[rT] = r leaves it flat above)."""
    doc = ec.config_to_dict(cfg)
    for factor in (1.0 - 1e-3, 1.0, 1.0 + 1e-3):
        off = replace(eq, holdings={n: factor * m for n, m in eq.holdings.items()})
        state = off.as_dict()
        for name, slope in holdings_slope(cfg, off).items():
            expected = reference(doc, state, name, off.holdings[name])
            assert abs(slope - expected) <= 1e-12, (name, factor, slope, expected)
            if factor < 1.0:
                assert slope > 0.0, (name, slope)
            elif factor > 1.0 and cfg.r - eq.expected_return > 1e-9:
                assert slope < 0.0, (name, slope)
            else:
                assert abs(slope) <= 1e-12, (name, factor, slope)


def scaled_config(name: str, utility: float = 1.0, cost: float = 1.0) -> ec.EconomyConfig:
    """A shipped config with every utility scale multiplied by utility and
    the cost scale by cost."""
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    for t in doc["agent_types"]:
        for f in t["utility_by_state"].values():
            if f["kind"] == "isoelastic":
                f["scale"] *= utility
    doc["cost"]["scale"] *= cost
    return ec.config_from_dict(doc)


def split_iid_config() -> ec.EconomyConfig:
    """configs/iid.json with its one type split into two of mass 0.5."""
    cfg = ec.load_config(CONFIG_DIR / "iid.json")
    (users,) = cfg.agent_types
    halves = tuple(replace(users, mass=0.5, name=f"{users.name}_{i}") for i in (1, 2))
    return replace(cfg, agent_types=halves)


def split_steady_config() -> ec.EconomyConfig:
    """configs/heterogeneous.json with its steady type split into two
    identical halves, steady_1 and steady_2."""
    cfg = ec.load_config(CONFIG_DIR / "heterogeneous.json")
    shocked, steady = cfg.agent_types
    halves = tuple(
        replace(steady, mass=0.5 * steady.mass, name=f"{steady.name}_{i}") for i in (1, 2)
    )
    return replace(cfg, agent_types=(shocked, *halves))


def het_band_config(
    scales: tuple[float, ...], curvatures: tuple[float, ...], mass: float, rho: float
) -> ec.EconomyConfig:
    """configs/heterogeneous.json with its four utility scales and curvatures
    (type by type, state 0 then 1) multiplied by scales and curvatures, the
    curvatures clipped to [0.05, 0.95], the first type's mass set to mass
    (the second's to 1 - mass) and the shock probability set to rho."""
    doc = json.loads((CONFIG_DIR / "heterogeneous.json").read_text())
    fns = [f for t in doc["agent_types"] for f in t["utility_by_state"].values()]
    for f, scale, curvature in zip(fns, scales, curvatures, strict=True):
        f["scale"] *= scale
        f["curvature"] = min(max(f["curvature"] * curvature, 0.05), 0.95)
    doc["agent_types"][0]["mass"], doc["agent_types"][1]["mass"] = mass, 1.0 - mass
    doc["shocks"]["rho"] = rho
    return ec.config_from_dict(doc)


def single_user_config(
    kind: ec.ShockKind,
    *,
    r: float = 0.05,
    gamma: float = 0.0,
    rho: float = 0.5,
    scale: float = 0.5,
    curvature: float = 0.5,
    cost: tuple[float, float] = (1.0, 1.0),
) -> ec.EconomyConfig:
    """One unit-mass type, active only under a positive shock."""
    return ec.EconomyConfig(
        r=r,
        gamma=gamma,
        agent_types=(
            ec.AgentTypeSpec(
                mass=1.0,
                utility_by_state={0: ZERO, 1: ISO(scale, curvature)},
                name="users",
            ),
        ),
        cost=ec.CostFn(*cost),
        shocks=ec.ShockProcess(kind, rho=rho),
    )


def underflow_config() -> ec.EconomyConfig:
    """One deterministic type whose demand at its closed-form fee, about
    e^-892 per unit of mass, lies below the smallest positive float."""
    return single_user_config(
        ec.ShockKind.DETERMINISTIC, r=0.0142, scale=0.0020151548992530144,
        curvature=0.013414665238003508, cost=(315.6546993348991, 1e-9),
    )


def marginal_cost_overflow_config() -> ec.EconomyConfig:
    """Two deterministic types under cost curvature 11, one of utility
    curvature 0.01: at fees not far below the clearing one, the marginal
    cost of their load exceeds the largest float."""
    return ec.EconomyConfig(
        r=0.05,
        gamma=0.0,
        agent_types=(
            ec.AgentTypeSpec(mass=0.5, utility_by_state={1: ISO(0.99, 0.01)}, name="a"),
            ec.AgentTypeSpec(mass=0.5, utility_by_state={1: ISO(0.5, 0.5)}, name="b"),
        ),
        cost=ec.CostFn(1.0, 11.0),
        shocks=ec.ShockProcess(ec.ShockKind.DETERMINISTIC),
    )


def three_type_config() -> ec.EconomyConfig:
    """Three deterministic types with the same utility, masses 1/2, 1/4, 1/4."""
    users = {1: ISO(1.0, 0.5)}
    return ec.EconomyConfig(
        r=0.05,
        gamma=0.0,
        agent_types=tuple(
            ec.AgentTypeSpec(mass=m, utility_by_state=users, name=n)
            for m, n in ((0.5, "a"), (0.25, "b"), (0.25, "c"))
        ),
        cost=ec.CostFn(1.0, 1.0),
        shocks=ec.ShockProcess(ec.ShockKind.DETERMINISTIC),
    )


def two_type_config(
    *,
    r: float = 0.05,
    gamma: float = 0.0,
    rho: float = 0.5,
    shocked_high: float = 2.0,
    shocked_low: float = 0.5,
    steady_high: float = 0.5,
    steady_low: float = 0.5,
    curvature: float = 0.5,
    cost: tuple[float, float] = (1.0, 1e-9),
) -> ec.EconomyConfig:
    """Shocked + unshocked types under a common binary shock (utility scales
    per state; the near-flat default cost keeps the low-state fee pinned)."""
    return ec.EconomyConfig(
        r=r,
        gamma=gamma,
        agent_types=(
            ec.AgentTypeSpec(
                mass=0.5,
                utility_by_state={0: ISO(shocked_low, curvature), 1: ISO(shocked_high, curvature)},
                name="shocked",
            ),
            ec.AgentTypeSpec(
                mass=0.5,
                utility_by_state={0: ISO(steady_low, curvature), 1: ISO(steady_high, curvature)},
                name="steady",
            ),
        ),
        cost=ec.CostFn(*cost),
        shocks=ec.ShockProcess(ec.ShockKind.COMMON_BINARY, rho=rho),
    )


def both_bind_config() -> ec.EconomyConfig:
    """Two-type common-shock economy where, at zero tax, the unshocked type's
    budget binds in both states: neither single binding pattern is consistent."""
    return ec.EconomyConfig(
        r=0.07,
        gamma=0.0,
        agent_types=(
            ec.AgentTypeSpec(
                mass=0.73,
                utility_by_state={0: ISO(0.45, 0.49), 1: ISO(3.43, 0.65)},
                name="a",
            ),
            ec.AgentTypeSpec(
                mass=0.27,
                utility_by_state={0: ISO(0.85, 0.38), 1: ISO(1.0, 0.55)},
                name="b",
            ),
        ),
        cost=ec.CostFn(1.41, 1e-9),
        shocks=ec.ShockProcess(ec.ShockKind.COMMON_BINARY, rho=0.5),
    )


def low_state_over_capacity_config() -> ec.EconomyConfig:
    """Two-type common-shock economy whose low-state demand at the marginal
    cost of capacity exceeds the unit capacity, so the low state must clear
    at capacity."""
    return ec.EconomyConfig(
        r=0.05,
        gamma=0.0,
        agent_types=(
            ec.AgentTypeSpec(
                mass=0.5, utility_by_state={0: ISO(1.2, 0.5), 1: ISO(3.0, 0.5)}, name="a"
            ),
            ec.AgentTypeSpec(
                mass=0.5, utility_by_state={0: ISO(1.2, 0.5), 1: ISO(0.5, 0.5)}, name="b"
            ),
        ),
        cost=ec.CostFn(1.0, 1e-9),
        shocks=ec.ShockProcess(ec.ShockKind.COMMON_BINARY, rho=0.5),
    )
