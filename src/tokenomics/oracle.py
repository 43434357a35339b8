"""Oracles.

Cross-checks for the analytic solvers that share no solution logic with
them; all only reuse the primitive utility and cost definitions, written
out inline. Two are exact certificates: holdings_slope, the derivative
V'(m) of each type's holdings objective at the solver's holdings, which is
0 at the best response since the objective is concave and C^1, and
first_best_dual_gap, the weak-duality bound on the planner's surplus minus
an allocation's surplus, which is 0 at the first best for any number of
types. One is a grid search: a token-holdings best response on a holdings
grid (holdings_grid_steps reads each type's distance from it in grid
steps). The activity bought at each balance is the budget-capped demand in
closed form: only holdings are searched on a grid.

Tie handling is deterministic: among grid values within a small tolerance
of the maximum, the smallest index wins. The tolerance matters because a
carry-cost-free optimum (token return equal to r) leaves the objective
exactly flat above the optimal holdings. It is relative to the largest
magnitude among the scored values or the grid's upper bound, whichever is
larger, so rounding is absorbed at any utility scale while neighbouring
grid points of a small objective stay distinct; the upper bound is the size
of the rounding where the carry terms -m and beta (1 + r) m cancel.

The holdings objective is concave, so the grid oracle does not score its
whole grid: the argmax is found by bisection from a few dozen points.
Everything is plain floats.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple

from . import econ_core as ec
from .errors import OracleError

if TYPE_CHECKING:
    from .equilibrium import SteadyStateEquilibrium

#: relative tolerance for treating grid values as tied at the maximum
TIE_RTOL = 1e-11

_MAX_EXPANSIONS = 4


class _GridFields(NamedTuple):
    upper: float
    points: int


class GridSpec(_GridFields):
    """Uniform grid on [0, upper] with the given number of points."""

    __slots__ = ()

    def __new__(cls, upper: float, points: int = 2001) -> GridSpec:
        if not (upper > 0 and math.isfinite(upper)):
            raise ValueError(f"grid upper bound must be positive and finite, got {upper!r}")
        if points < 3:
            raise ValueError(f"grid needs at least 3 points, got {points}")
        return super().__new__(cls, upper, points)

    def values(self) -> list[float]:
        """The grid points as linspace(0, upper, points) computes them:
        index times step, with the last point set to upper."""
        step = self.upper / (self.points - 1)
        return [i * step for i in range(self.points - 1)] + [self.upper]


def _holdings_terms(
    utility_by_state: Mapping[int, ec.Utility],
    probs: Mapping[int, float],
    prices: Mapping[int, float],
    taxes: Mapping[int, float],
    returns: Mapping[int, float],
    r: float,
) -> list[tuple[float, float, tuple[float, float, float, float] | None]]:
    """(1 + rT, beta * pi, demand) of each state that occurs, in label order.

    demand is None where the state adds its wealth alone, else
    (P, u'^-1(P), scale, 1 - curvature) at the effective price
    P = (1 + theta) p. A token return <= -1 in a state that occurs raises
    ValueError: the state's wealth would be negative for every positive
    balance.
    """
    beta = 1.0 / (1.0 + r)
    terms = []
    for s in sorted(utility_by_state):
        pi = probs[s]
        if pi <= 0.0:
            continue
        gross_return = 1.0 + returns[s]
        if gross_return <= 0.0:
            raise ValueError(f"token return must exceed -1 in state {s}, got {returns[s]!r}")
        f = utility_by_state[s]
        eff_price = (1.0 + taxes[s]) * prices[s]
        if isinstance(f, ec.ZeroUtility) or not eff_price > 0.0:
            demand = None
        else:
            unconstrained = (f.scale / eff_price) ** (1.0 / f.curvature)
            demand = (eff_price, unconstrained, f.scale, 1.0 - f.curvature)
        terms.append((gross_return, beta * pi, demand))
    return terms


def _holdings_objective(
    utility_by_state: Mapping[int, ec.Utility],
    probs: Mapping[int, float],
    prices: Mapping[int, float],
    taxes: Mapping[int, float],
    returns: Mapping[int, float],
    r: float,
) -> Callable[[float], float]:
    """m -> -m + beta * E[u(a*) + (1 + rT) m - (1 + theta) p a*], with a*
    the budget-capped demand min((1 + rT) m / ((1 + theta) p), u'^-1((1 + theta) p)),
    over the states of _holdings_terms."""
    terms = _holdings_terms(utility_by_state, probs, prices, taxes, returns, r)

    def objective(m: float) -> float:
        value = -m
        for gross_return, weight, demand in terms:
            term = gross_return * m
            if demand is not None:
                eff_price, unconstrained, scale, power = demand
                a_star = min(term / eff_price, unconstrained)
                term += a_star**power * scale / power - a_star * eff_price
            value += term * weight
        return value

    return objective


def _market(cfg: ec.EconomyConfig, eq: SteadyStateEquilibrium, type_name: str) -> dict:
    """The named type's utilities and the probabilities, prices, taxes and
    token returns of eq, as _holdings_terms takes them."""
    spec = next(t for t in cfg.agent_types if t.name == type_name)
    states = eq.states
    return dict(
        utility_by_state={s: spec.utility_in(s) for s in states},
        probs={s: cfg.shocks.probability(s) for s in states},
        prices={s: out.price for s, out in states.items()},
        taxes={s: out.tax for s, out in states.items()},
        returns={s: out.token_return for s, out in states.items()},
        r=cfg.r,
    )


def holdings_objective(
    cfg: ec.EconomyConfig, eq: SteadyStateEquilibrium, type_name: str
) -> Callable[[float], float]:
    """m -> the holdings objective of the named type at the prices, taxes
    and token returns of eq.

    The objective is concave in m: with curvature in (0, 1) and 1 + rT > 0,
    each state's wealth plus net flow rises with slope u'(a*) / ((1 + theta) p)
    >= 1 while the budget binds and with slope 1 once demand is satiated, a
    concave nondecreasing function of wealth, which is linear in m. So its
    values on a grid rise to a peak and then fall (or stay flat, at a token
    return equal to r), the premise of grid_best_response.
    """
    return _holdings_objective(**_market(cfg, eq, type_name))


def holdings_slope(cfg: ec.EconomyConfig, eq: SteadyStateEquilibrium) -> dict[str, float]:
    """Each type's holdings-objective slope at its holdings m in eq:
    V'(m) = -1 + beta * sum_s pi_s (1 + rT_s) max(1, u'(w_s) / P_s), with
    w_s = (1 + rT_s) m / P_s the activity the whole balance buys at the
    effective price P_s; +inf at m = 0 when some state has demand.

    V is concave and C^1 (see holdings_objective), so V'(m) = 0 certifies m
    as a best response, and V'(m) > 0 below it, < 0 above it. Where rT = r
    the objective is flat above the smallest best response, and V' reads 0
    there too. The slope is per token, so its size does not scale with the
    config.
    """
    out: dict[str, float] = {}
    for t in cfg.agent_types:
        m = eq.holdings[t.name]
        value = -1.0
        for gross_return, weight, demand in _holdings_terms(**_market(cfg, eq, t.name)):
            marginal = 1.0
            if demand is not None:
                eff_price, unconstrained, _, power = demand
                wealth = gross_return * m / eff_price
                # u'(w) / P = (u'^-1(P) / w) ** curvature
                marginal = (
                    max(1.0, (unconstrained / wealth) ** (1.0 - power)) if wealth > 0.0 else math.inf
                )
            value += gross_return * marginal * weight
        out[t.name] = value
    return out


def holdings_grid_steps(cfg: ec.EconomyConfig, eq: SteadyStateEquilibrium) -> float:
    """Largest distance, in grid steps, between a type's holdings m in eq
    and its grid best response on [0, 2m] (on [0, 1] when m = 0), 2001
    points; inf when some type's objective has no finite optimum (an
    expected token return above r)."""
    worst = 0.0
    for t in cfg.agent_types:
        m_k = eq.holdings[t.name]
        upper = 2.0 * m_k if m_k > 0 else 1.0
        grid = GridSpec(upper)
        try:
            m_star, _ = grid_best_response(holdings_objective(cfg, eq, t.name), grid)
        except OracleError:
            return math.inf
        step = upper / (grid.points - 1)
        worst = max(worst, abs(m_star - m_k) / step)
    return worst


def grid_best_response(
    objective: Callable[[float], float], m_grid: GridSpec
) -> tuple[float, float]:
    """Best grid balance and its value for a holdings objective.

    The grid point of index i is i * upper / (points - 1), the last one
    upper itself. The objective must rise to a peak on the grid and then
    fall or stay flat, as a concave one does (see holdings_objective), so
    the search scores a few dozen points, not the grid: bisection on
    V(i) < V(i + 1) finds the peak, and bisection on [0, peak] finds the
    smallest index within TIE_RTOL * max(|vmin|, |vmax|, upper) of it, vmin
    the lower of the two grid ends. The upper bound in that tolerance
    absorbs the rounding left where -m and beta (1 + r) m cancel.

    The grid auto-expands (doubling the upper bound, up to 4 times) whenever
    the argmax lands on the upper boundary; persistent boundary solutions raise
    OracleError, which is the expected signal for non-existent optima such
    as a token return above r.
    """
    last = m_grid.points - 1

    for _ in range(_MAX_EXPANSIONS + 1):
        upper = m_grid.upper
        step = upper / last
        scored: dict[int, float] = {}

        def value(i: int) -> float:
            v = scored.get(i)
            if v is None:
                v = scored[i] = objective(upper if i == last else i * step)
            return v

        # the first i where the grid stops rising: V(i) >= V(i + 1)
        peak = bisect_left(range(last), True, key=lambda i: not value(i) < value(i + 1))
        vmax = value(peak)
        vmin = min(value(0), value(last))
        floor = vmax - TIE_RTOL * max(abs(vmin), abs(vmax), upper)
        best = bisect_left(range(peak), True, key=lambda i: value(i) >= floor)
        if best < last:
            return best * step, value(best)
        m_grid = GridSpec(upper * 2.0, m_grid.points)

    raise OracleError(
        f"holdings argmax stayed on the grid boundary after {_MAX_EXPANSIONS} "
        f"expansions (upper bound {m_grid.upper:.6g}); the objective appears unbounded"
    )


def first_best_dual_gap(
    cfg: ec.EconomyConfig, state: int, activities: Mapping[str, float]
) -> float:
    """Weak-duality bound on the planner's surplus in one state minus the
    surplus of the given activities (by type name).

    The planner maximizes sum_k m_k u_k(a_k) - C(L) over loads
    L = sum_k m_k a_k <= 1, a concave problem, so at any price x > 0
    D(x) = sum_k m_k sup_a (u_k(a) - x a) + sup_{0 <= L <= 1} (x L - C(L))
         = sum_k m_k x a_k(x) c_k / (1 - c_k) + x L(x) - C(L(x))
    bounds every feasible surplus from above, with a_k(x) = u_k'^-1(x),
    c_k the utility curvature and L(x) the capped supply, 1 at
    x >= C'(1) and C'^-1(x) below. At the first best the active types'
    marginal utilities u_k'(a_k) share one value x, where the bound is
    attained, so the gap is 0 up to rounding; the smallest bound over them
    is taken. It is inf when an active type has no activity, and
    negative only when the activities overfill capacity.
    """
    active = [(t.mass, t.utility_in(state), activities[t.name])
              for t in cfg.agent_types if t.is_active(state)]
    if any(a <= 0.0 for _, _, a in active):
        return math.inf
    load = math.fsum(t.mass * activities[t.name] for t in cfg.agent_types)
    scale, q = cfg.cost.scale, 1.0 + cfg.cost.curvature
    surplus = math.fsum(
        m * (a ** (1.0 - f.curvature) * f.scale / (1.0 - f.curvature)) for m, f, a in active
    ) - scale * load**q / q

    def bound(x: float) -> float:
        demand = math.fsum(
            m * x * (f.scale / x) ** (1.0 / f.curvature) * f.curvature / (1.0 - f.curvature)
            for m, f, _ in active
        )
        # C'(1) = scale; below it the supply is interior (and the power
        # cannot overflow at a tiny cost curvature)
        supply = 1.0 if x >= scale else (x / scale) ** (1.0 / cfg.cost.curvature)
        return demand + x * supply - scale * supply**q / q

    return min((bound(f.scale * a ** -f.curvature) for _, f, a in active), default=0.0) - surplus
