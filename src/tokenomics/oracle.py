"""Brute-force grid oracles.

Slow, dumb cross-checks for the analytic solvers: a token-holdings best
response by direct search over a holdings grid, and a first-best allocation
by product-grid enumeration. Neither shares any solution logic with the
solvers; both only reuse the primitive utility and cost evaluations. The
activity bought at each grid balance is the budget-capped demand in closed
form: only holdings are searched on a grid.

Tie handling is deterministic: among grid values within a small tolerance
of the maximum, the smallest index wins. The tolerance matters because a
carry-cost-free optimum (token return equal to r) leaves the objective
exactly flat above the optimal holdings. It is relative to the largest
magnitude among the scored values, so rounding is absorbed at any utility
scale while neighbouring grid points of a small objective stay distinct.

The holdings search stays brute force, but is written to make few passes
over its arrays: the grid is a cached index array times the step, and the
objective is accumulated in place, state by state.

numpy is imported where the grids are built, so importing the package
(and running the CLI commands that need no oracle) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

from . import econ_core as ec
from .errors import OracleError
from .first_best import Allocation

if TYPE_CHECKING:
    import numpy as np

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


def _tie_argmax(values: np.ndarray) -> int:
    vmax = float(values.max())
    tol = _tie_tol(float(values.min()), vmax)
    return int((values >= vmax - tol).argmax())


def _utility_on_grid(f: ec.Utility, a: np.ndarray) -> np.ndarray:
    import numpy as np

    if isinstance(f, ec.ZeroUtility):
        return np.zeros_like(a)
    u = a ** (1.0 - f.curvature)
    u *= f.scale
    u /= 1.0 - f.curvature
    return u


def _net_flow(f: ec.UtilityFn, eff_price: float, wealth: np.ndarray) -> np.ndarray:
    """u(a*) - eff_price * a* with a* the budget-capped demand, per wealth."""
    import numpy as np

    unconstrained = (f.scale / eff_price) ** (1.0 / f.curvature)
    a_star = wealth / eff_price
    np.minimum(a_star, unconstrained, out=a_star)
    net = _utility_on_grid(f, a_star)
    a_star *= eff_price
    net -= a_star
    return net


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

    Evaluates -m + beta * E[u(a*) + (1 + rT) m - (1 + theta) p a*] on the
    m-grid, where a* is the budget-capped demand: the marginal-utility
    inversion, cut to what the state's wealth buys.

    The grid auto-expands (doubling the upper bound, up to 4 times) whenever
    the argmax lands on the upper boundary; persistent boundary solutions raise
    OracleError, which is the expected signal for non-existent optima such
    as a token return above r.
    """
    states = sorted(utility_by_state)
    beta = 1.0 / (1.0 + r)

    for _ in range(_MAX_EXPANSIONS + 1):
        m = m_grid.values()
        value = None
        for s in states:
            f = utility_by_state[s]
            pi = probs[s]
            if pi <= 0.0:
                continue
            gross_return = 1.0 + returns[s]
            eff_price = (1.0 + taxes[s]) * prices[s]
            # beta * pi * (wealth + net flow), built in place; a state with
            # no demand adds its wealth alone
            term = gross_return * m
            if not isinstance(f, ec.ZeroUtility) and eff_price > 0.0:
                term += _net_flow(f, eff_price, term)
            term *= beta * pi
            if value is None:
                term -= m
                value = term
            else:
                value += term
        if value is None:
            value = -m
        best = _tie_argmax(value)
        if best < m.size - 1:
            return float(m[best]), float(value[best])
        m_grid = GridSpec(m_grid.upper * 2.0, m_grid.points)

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
