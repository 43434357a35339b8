"""Grid oracles.

Cross-checks for the analytic solvers: a token-holdings best response on a
holdings grid, one-sided steps of the same holdings objective from solver
holdings (holdings_ascent), and a first-best allocation by product-grid
enumeration. None shares any solution logic with the solvers; all only
reuse the primitive utility and cost definitions. The activity bought at
each grid balance is the budget-capped demand in closed form: only
holdings are searched on a grid.

Tie handling is deterministic: among grid values within a small tolerance
of the maximum, the smallest index wins. The tolerance matters because a
carry-cost-free optimum (token return equal to r) leaves the objective
exactly flat above the optimal holdings. It is relative to the largest
magnitude among the scored values, so rounding is absorbed at any utility
scale while neighbouring grid points of a small objective stay distinct;
the holdings tolerance also scales with the grid's upper bound, the size
of the rounding where the carry terms -m and beta (1 + r) m cancel.

The holdings objective is concave in m (see grid_best_response), so its
grid argmax is found by bisection from a few dozen points, scored in plain
floats; the first best scores every cell of its product grid. numpy
is used only there, by grid_first_best and GridSpec.values, and imported
where those grids are built, so importing the package, and every CLI
command but verify, does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Mapping

from . import econ_core as ec
from .errors import OracleError
from .first_best import Allocation

if TYPE_CHECKING:
    import numpy as np

    from .equilibrium import SteadyStateEquilibrium

#: relative tolerance for treating grid values as tied at the maximum
TIE_RTOL = 1e-11

_MAX_EXPANSIONS = 4

#: product-grid cells grid_first_best evaluates at once
_CHUNK_CELLS = 1 << 15


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

    def values(self) -> np.ndarray:
        """np.linspace(0, upper, points), bit for bit: index times step,
        with the last point set to upper."""
        grid = _index(self.points) * (self.upper / (self.points - 1))
        grid[-1] = self.upper
        return grid


@lru_cache(maxsize=4)
def _index(points: int) -> np.ndarray:
    import numpy as np

    index = np.arange(points, dtype=float)
    index.flags.writeable = False
    return index


def _tie_tol(vmin: float, vmax: float) -> float:
    return TIE_RTOL * max(abs(vmin), abs(vmax))


def _utility_on_grid(f: ec.Utility, a: np.ndarray) -> np.ndarray:
    import numpy as np

    if isinstance(f, ec.ZeroUtility):
        return np.zeros_like(a)
    u = a ** (1.0 - f.curvature)
    u *= f.scale
    u /= 1.0 - f.curvature
    return u


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
    and token returns of eq."""
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


def grid_best_response(
    utility_by_state: Mapping[int, ec.Utility],
    probs: Mapping[int, float],
    prices: Mapping[int, float],
    taxes: Mapping[int, float],
    returns: Mapping[int, float],
    r: float,
    m_grid: GridSpec,
) -> tuple[float, float]:
    """Best token holdings for one agent facing fixed market conditions.

    Maximises -m + beta * E[u(a*) + (1 + rT) m - (1 + theta) p a*] over the
    m-grid, where a* is the budget-capped demand: the marginal-utility
    inversion, cut to what the state's wealth buys. The grid point of index
    i is i * upper / (points - 1), the last one upper itself.

    The objective is concave in m: with curvature in (0, 1) and 1 + rT > 0,
    each state's wealth plus net flow rises with slope u'(a*) / ((1 + theta) p)
    >= 1 while the budget binds and with slope 1 once demand is satiated, a
    concave nondecreasing function of wealth, which is linear in m. So its
    grid values rise to a peak and then fall (or stay flat, at a token return
    equal to r), and the search scores a few dozen points, not the grid:
    bisection on V(i) < V(i + 1) finds the peak, and bisection on [0, peak]
    finds the smallest index within TIE_RTOL * max(|vmin|, |vmax|, upper) of
    it, vmin the lower of the two grid ends. The upper bound in that
    tolerance absorbs the rounding left where -m and beta (1 + r) m cancel.

    The grid auto-expands (doubling the upper bound, up to 4 times) whenever
    the argmax lands on the upper boundary; persistent boundary solutions raise
    OracleError, which is the expected signal for non-existent optima such
    as a token return above r.
    """
    objective = _holdings_objective(utility_by_state, probs, prices, taxes, returns, r)
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

        lo, hi = 0, last
        while lo < hi:
            mid = (lo + hi) // 2
            if value(mid) < value(mid + 1):
                lo = mid + 1
            else:
                hi = mid
        vmax = value(lo)
        vmin = min(value(0), value(last))
        floor = vmax - TIE_RTOL * max(abs(vmin), abs(vmax), upper)
        lo, hi = 0, lo
        while lo < hi:
            mid = (lo + hi) // 2
            if value(mid) >= floor:
                hi = mid
            else:
                lo = mid + 1
        if lo < last:
            return lo * step, value(lo)
        m_grid = GridSpec(upper * 2.0, m_grid.points)

    raise OracleError(
        f"holdings argmax stayed on the grid boundary after {_MAX_EXPANSIONS} "
        f"expansions (upper bound {m_grid.upper:.6g}); the objective appears unbounded"
    )


def grid_first_best(
    cfg: ec.EconomyConfig,
    state: int,
    grids: Mapping[str, GridSpec] | None = None,
    points: int = 2001,
) -> tuple[Allocation, float]:
    """First-best allocation for one state by product-grid enumeration.

    Supports at most three active types (every cell of the product grid is
    evaluated, a block of rows at a time).
    Default per-type grids span [0, 2 * analytic optimum] so the boundary is
    never binding for a correct solver; explicit grids override that anchor.
    Returns the best feasible allocation and its flow surplus.
    """
    active = [t for t in cfg.agent_types if t.is_active(state)]
    if not active:
        alloc = Allocation(
            activities={t.name: 0.0 for t in cfg.agent_types},
            total=0.0,
            congested=False,
            shadow_marginal=0.0,
        )
        return alloc, 0.0
    if len(active) > 3:
        raise OracleError(f"product grid limited to 3 active types, got {len(active)}")

    if grids is None:
        from .first_best import first_best_allocation

        anchor = first_best_allocation(cfg, state)
        grids = {
            t.name: GridSpec(max(2.0 * anchor.activities[t.name], 1e-6), points)
            for t in active
        }

    axes = [grids[t.name].values() for t in active]
    total_cells = math.prod(len(ax) for ax in axes)
    if total_cells > 2 * 10**8:
        raise OracleError(f"grid of {total_cells} cells is too large; reduce points")

    import numpy as np

    def load(mesh: list[np.ndarray]) -> np.ndarray:
        return sum(t.mass * ax for t, ax in zip(active, mesh))

    # grids rise from 0, so a row (first-axis value) whose first cell
    # overfills capacity is infeasible throughout: only the rows before it
    # can hold the maximum
    first_cells = load(np.meshgrid(axes[0], *(ax[:1] for ax in axes[1:]), indexing="ij", sparse=True))
    fitting = int(np.count_nonzero(first_cells <= ec.BLOCKSPACE_CAPACITY + 1e-12))

    # the surplus is evaluated a block of rows at a time, so memory stays
    # near _CHUNK_CELLS cells whatever the grid size
    rows = max(1, _CHUNK_CELLS * len(axes[0]) // total_cells)
    starts = range(0, fitting, rows)

    def surplus_rows(start: int) -> np.ndarray:
        mesh = np.meshgrid(axes[0][start:start + rows], *axes[1:], indexing="ij", sparse=True)
        total = load(mesh)
        surplus = sum(t.mass * _utility_on_grid(t.utility_in(state), ax) for t, ax in zip(active, mesh))
        surplus = surplus - cfg.cost.scale * total ** (1.0 + cfg.cost.curvature) / (1.0 + cfg.cost.curvature)
        return np.where(total <= ec.BLOCKSPACE_CAPACITY + 1e-12, surplus, -np.inf)

    # _tie_argmax over the whole grid: the global maximum first, then the
    # first row-major cell within the tie tolerance of it
    block_max, block_min = [], []
    for start in starts:
        block = surplus_rows(start)
        block_max.append(float(block.max()))
        block_min.append(float(np.min(block, where=block > -np.inf, initial=np.inf)))
    vmax = max(block_max)
    tol = _tie_tol(min(block_min), vmax)
    start = next(i for i, v in zip(starts, block_max) if v >= vmax - tol)
    block = surplus_rows(start)
    local = np.unravel_index(int((block >= vmax - tol).argmax()), block.shape)
    idx = (start + int(local[0]), *local[1:])
    for d, ax in enumerate(axes):
        if idx[d] == len(ax) - 1:
            raise OracleError(
                f"first-best argmax on grid boundary for type {active[d].name}; widen the grid"
            )

    acts = {t.name: 0.0 for t in cfg.agent_types}
    for d, t in enumerate(active):
        acts[t.name] = float(axes[d][idx[d]])
    best_total = math.fsum(t.mass * acts[t.name] for t in cfg.agent_types)
    steps = [grids[t.name].upper / (grids[t.name].points - 1) for t in active]
    congested = best_total >= ec.BLOCKSPACE_CAPACITY - max(
        t.mass * s for t, s in zip(active, steps)
    )
    alloc = Allocation(
        activities=acts, total=best_total, congested=bool(congested), shadow_marginal=0.0
    )
    return alloc, float(block[local])
