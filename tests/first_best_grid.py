"""The first best searched on a product grid of activities: the reference
that the planner's analytic solution is compared against in the acceptance
battery and the oracle tests.

It shares no solution logic with the planner; it reuses only the primitive
utility and cost definitions, written out inline, and the holdings
oracle's grid (GridSpec) and tie tolerance (TIE_RTOL).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Mapping

from tokenomics import econ_core as ec
from tokenomics.errors import OracleError
from tokenomics.oracle import TIE_RTOL, GridSpec

#: most active types grid_first_best searches
MAX_ACTIVE_TYPES = 2


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
