"""Grid oracles.

Cross-checks for the analytic solvers: a token-holdings best response on a
holdings grid (holdings_grid_steps reads each type's distance from it in
grid steps), one-sided steps of the same holdings objective from solver
holdings (holdings_ascent), and a first-best allocation on a product grid
of activities. None shares any solution logic with the solvers; all only
reuse the primitive utility and cost definitions, written out inline. The
activity bought at each grid balance is the budget-capped demand in closed
form: only holdings are searched on a grid.

Tie handling is deterministic: among grid values within a small tolerance
of the maximum, the smallest index wins (the first cell in row-major order
on a product grid). The tolerance matters because a carry-cost-free optimum
(token return equal to r) leaves the objective exactly flat above the
optimal holdings. It is relative to the largest magnitude among the scored
values, so rounding is absorbed at any utility scale while neighbouring
grid points of a small objective stay distinct; the holdings tolerance also
scales with the grid's upper bound, the size of the rounding where the
carry terms -m and beta (1 + r) m cancel.

Both objectives are concave, so neither oracle scores its whole grid: the
holdings argmax is found by bisection from a few dozen points, and the
first best by a walk that visits each row and column of its product grid
about once (see grid_first_best). Everything is plain floats.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from . import econ_core as ec
from .errors import OracleError

if TYPE_CHECKING:
    from .equilibrium import SteadyStateEquilibrium

#: relative tolerance for treating grid values as tied at the maximum
TIE_RTOL = 1e-11

#: most active types grid_first_best searches
MAX_ACTIVE_TYPES = 2

_MAX_EXPANSIONS = 4


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0, upper] with the given number of points."""

    upper: float
    points: int = 2001

    def __post_init__(self) -> None:
        if not (self.upper > 0 and math.isfinite(self.upper)):
            raise ValueError(f"grid upper bound must be positive and finite, got {self.upper!r}")
        if self.points < 3:
            raise ValueError(f"grid needs at least 3 points, got {self.points}")

    def values(self) -> list[float]:
        """The grid points as linspace(0, upper, points) computes them:
        index times step, with the last point set to upper."""
        step = self.upper / (self.points - 1)
        return [i * step for i in range(self.points - 1)] + [self.upper]


def _holdings_objective(
    utility_by_state: Mapping[int, ec.Utility],
    probs: Mapping[int, float],
    prices: Mapping[int, float],
    taxes: Mapping[int, float],
    returns: Mapping[int, float],
    r: float,
) -> Callable[[float], float]:
    """m -> -m + beta * E[u(a*) + (1 + rT) m - (1 + theta) p a*], with a*
    the budget-capped demand min((1 + rT) m / ((1 + theta) p), u'^-1((1 + theta) p)).

    States are summed in label order and states of probability 0 are left
    out. A token return <= -1 in a state that occurs raises ValueError: the
    state's wealth would be negative for every positive balance.
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
            demand = None  # the state adds its wealth alone
        else:
            unconstrained = (f.scale / eff_price) ** (1.0 / f.curvature)
            demand = (eff_price, unconstrained, f.scale, 1.0 - f.curvature)
        terms.append((gross_return, beta * pi, demand))

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
    spec = next(t for t in cfg.agent_types if t.name == type_name)
    states = eq.states
    return _holdings_objective(
        {s: spec.utility_in(s) for s in states},
        {s: cfg.shocks.probability(s) for s in states},
        {s: out.price for s, out in states.items()},
        {s: out.tax for s, out in states.items()},
        {s: out.token_return for s, out in states.items()},
        cfg.r,
    )


def holdings_ascent(cfg: ec.EconomyConfig, eq: SteadyStateEquilibrium) -> dict[str, float]:
    """Largest gain per token from moving each type's balance m one step of
    1e-6 * m up or down.

    The holdings objective is concave in m, so at its maximum neither step
    gains and the reading is at most rounding, also where rT = r puts the
    optimum on a kink (flat above, concave below). A centered difference
    reads step / 4 times the curvature below the kink there, a figure that
    scales with the config.
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


def grid_first_best(
    cfg: ec.EconomyConfig,
    state: int,
    grids: Mapping[str, GridSpec],
) -> tuple[dict[str, float], float]:
    """First-best activities for one state: the best feasible cell of a
    product grid of activities, with at most two active types.

    grids gives each active type's activity grid by name. Returns every
    type's activity at the best feasible cell (0 for inactive types) and
    its flow surplus.

    The surplus m1 u1(x) + m2 u2(y) - C(m1 x + m2 y) is scored on the cells
    with load at most capacity, rows indexed by the first active type's
    activity x (one active type is a single column at y = 0). Each row is
    concave in y, and its feasible end J(i) does not rise with x. The cross
    partial -m1 m2 C'' is <= 0, so the leftmost row argmax k(i) does not
    rise either: bisection finds k(0), and every later row's peak is found
    by stepping down from min(k(i - 1), J(i)) while the value does not
    fall. The smallest feasible value lies at a row end, which sets the
    tie tolerance; the first row whose peak is within it holds the winning
    cell, the first one within it on that row's ascending part. So about
    rows + columns cells are scored, not rows * columns, and the cell is
    the one a full row-major scan with the same tie rule would pick.
    """
    active = [t for t in cfg.agent_types if t.is_active(state)]
    if not active:
        return {t.name: 0.0 for t in cfg.agent_types}, 0.0
    if len(active) > MAX_ACTIVE_TYPES:
        raise OracleError(
            f"product grid limited to {MAX_ACTIVE_TYPES} active types, got {len(active)}"
        )

    def axis(t: ec.AgentTypeSpec) -> tuple[list[float], list[float], list[float]]:
        """A type's grid, with its mass times utility and its load there."""
        f = t.utility_in(state)
        power = 1.0 - f.curvature
        acts = grids[t.name].values()
        utility = [t.mass * (a**power * f.scale / power) for a in acts]
        return acts, utility, [t.mass * a for a in acts]

    xs, row_utility, row_load = axis(active[0])
    ys, col_utility, col_load = axis(active[1]) if len(active) == 2 else ([0.0], [0.0], [0.0])
    scale, q = cfg.cost.scale, 1.0 + cfg.cost.curvature
    capacity = ec.BLOCKSPACE_CAPACITY + 1e-12

    def value(i: int, j: int) -> float:
        return row_utility[i] + col_utility[j] - scale * (row_load[i] + col_load[j]) ** q / q

    peaks: list[int] = []  # leftmost argmax of each feasible row
    row_max: list[float] = []
    vmin = math.inf
    end = len(ys) - 1
    for i in range(len(xs)):
        while end >= 0 and row_load[i] + col_load[end] > capacity:
            end -= 1
        if end < 0:
            break  # this row's first cell overfills capacity, and so do the later rows'
        if i == 0:
            # the first j where the row stops rising
            k = bisect_left(range(end), True, key=lambda j: not value(0, j) < value(0, j + 1))
            here = value(0, k)
        else:
            k = min(k, end)
            here = value(i, k)
            while k > 0:
                left = value(i, k - 1)
                if left < here:
                    break
                k, here = k - 1, left
        peaks.append(k)
        row_max.append(here)
        vmin = min(vmin, here if k == 0 else value(i, 0), here if k == end else value(i, end))

    vmax = max(row_max)
    floor = vmax - TIE_RTOL * max(abs(vmin), abs(vmax))
    i = next(i for i, v in enumerate(row_max) if v >= floor)
    cell = (i, bisect_left(range(peaks[i]), True, key=lambda j: value(i, j) >= floor))
    for t, index, ax in zip(active, cell, (xs, ys)):
        if index == len(ax) - 1:
            raise OracleError(
                f"first-best argmax on grid boundary for type {t.name}; widen the grid"
            )

    acts = {t.name: 0.0 for t in cfg.agent_types}
    for t, index, ax in zip(active, cell, (xs, ys)):
        acts[t.name] = ax[index]
    return acts, value(*cell)
