"""Steady-state competitive equilibrium of the token economy.

REGIMES is the one regime table: its row for each regime gives the demand
family of the configs the regime solves (econ_core.family, the one rule that
admits a config: 'deterministic', 'iid', 'common' or 'heterogeneous'),
whether it takes a tax, and its solver. solve_regime is the one entry point:
it checks the config's family and the sign of the tax, runs the row's
solver and logs the result. Two solvers cover the five regimes:

* _solve_law solves the four regimes whose token return is fixed in closed
  form by the supply rule, each row binding its law: friedman (deterministic
  demand, rT = r), deterministic (tax-and-burn), iid (idiosyncratic binary
  shocks, one type) and common (one aggregate binary shock, one type, no
  trade in the low state). A row gives the return law, the wedge u'(a)/p
  of the trading state and what state 0 is; the market then clears once.
* _solve_heterogeneous: common binary shock with any number of types, each
  active in both states, competing for blockspace. The return feeds back
  into demand, so it is the outer root and prices are solved for each trial
  return. Each type's budget binds in the high state, the low state or
  both, whichever is its best response at the clearing prices.

_solve_law and the planner's first best share one market solve,
first_best._clear_demands, which returns each type's activity and the load;
every market, the heterogeneous ones too, clears in its kernel,
first_best._clear_blockspace. The FOC residuals are welfare's, the
certificate verify's: this module holds only the solvers and REGIMES.
"""

from __future__ import annotations

import logging
import math
from functools import partial
from typing import Callable, NamedTuple

from . import econ_core as ec
from ._roots import MAX_ITER, RESIDUAL_FLOOR, RESIDUAL_TOL, find_log_root
from .errors import ConfigError, InfeasiblePolicyError, SolverError
from .first_best import _clear_blockspace, _clear_demands, first_best_allocation

log = logging.getLogger(__name__)

class StateOutcome(NamedTuple):
    """Market outcome in one shock state.

    aggregate_activity is the cross-sectional blockspace load while the
    state prevails (for idiosyncratic shocks that is the probability-weighted
    average, which both personal states share).
    """

    price: float
    tax: float
    token_return: float
    activities: dict[str, float]
    congested: bool
    aggregate_activity: float

    @property
    def effective_price(self) -> float:
        return (1.0 + self.tax) * self.price

    def as_dict(self) -> dict:
        return {
            "price": self.price,
            "tax": self.tax,
            "effective_price": self.effective_price,
            "token_return": self.token_return,
            "congested": self.congested,
            "aggregate_activity": self.aggregate_activity,
            "activities": dict(self.activities),
        }


class SteadyStateEquilibrium(NamedTuple):
    """A stationary equilibrium: per-state outcomes plus token holdings.

    holdings are real balances per type member; aggregate_real_balances is
    the mass-weighted sum that enters the burn identity. congestion_broken
    marks a heterogeneous solve whose high state does not clear at capacity;
    the states then hold that uncongested equilibrium. regime is the
    config's shock kind for a closed-form regime, "heterogeneous" otherwise.
    """

    regime: str
    states: dict[int, StateOutcome]
    holdings: dict[str, float]
    expected_return: float
    aggregate_real_balances: float
    congestion_broken: bool = False

    def as_dict(self) -> dict:
        return {
            "schema_version": ec.SCHEMA_VERSION,
            "regime": self.regime,
            "congestion_broken": self.congestion_broken,
            "expected_return": self.expected_return,
            "aggregate_real_balances": self.aggregate_real_balances,
            "holdings": dict(self.holdings),
            "states": {str(s): out.as_dict() for s, out in self.states.items()},
        }


# ---------------------------------------------------------------------------
# closed-form regimes
# ---------------------------------------------------------------------------


def _solve_law(
    token_return: Callable[[float, float, float, float], float],
    wedge: Callable[[float, float, float, float], float],
    idle: str | None,
    cfg: ec.EconomyConfig,
    theta: float,
) -> SteadyStateEquilibrium:
    """Steady state at tax theta of a regime whose token return is fixed in
    closed form by its supply rule.

    token_return and wedge take (theta, r, gamma, rho); the wedge is
    u'(a) / p in the trading state 1, so the market clears once. idle says
    what state 0 is: None (there is none), "iid" (idle holders share the
    trading market) or "shut" (no trade, no burn, zero return).

    Holdings come from the binding budget of state 1: users spend their whole
    balance there whenever the token return is below r, so
    m = (1 + theta) * p * a / (1 + rT), and the wedge is the holdings FOC at it.
    Past the frontier where E[rT] reaches r no finite holdings are optimal; the
    closed-form regimes do not yet reject such theta and return the formal
    solution of the burn identity there, except where the wedge is not
    positive (iid with r < gamma at a large theta: the idle holders' return
    alone beats r), which raises InfeasiblePolicyError.
    """
    rho = cfg.shocks.rho
    rt = token_return(theta, cfg.r, cfg.gamma, rho)
    w = wedge(theta, cfg.r, cfg.gamma, rho)
    if not w > 0.0:
        raise InfeasiblePolicyError(
            f"theta={theta} is past the feasibility frontier: the token return "
            f"{rt!r} leaves a wedge u'(a)/p = {w!r} that is not positive, so no "
            "finite token holdings are optimal"
        )
    share = rho if idle == "iid" else 1.0  # fraction of each type trading
    price, congested, acts, aggregate = _clear_demands(cfg, 1, w, share)
    holdings = {n: (1.0 + theta) * price * a / (1.0 + rt) for n, a in acts.items()}
    states = {1: StateOutcome(price, theta, rt, acts, congested, aggregate)}
    idle_acts = {n: 0.0 for n in acts}
    if idle == "iid":
        states[0] = StateOutcome(price, theta, rt, idle_acts, congested, aggregate)
    elif idle == "shut":
        states[0] = StateOutcome(0.0, 0.0, 0.0, idle_acts, False, 0.0)
    return SteadyStateEquilibrium(
        regime=cfg.shocks.kind.value,
        states=states,
        holdings=holdings,
        expected_return=rho * rt if idle == "shut" else rt,
        aggregate_real_balances=math.fsum(t.mass * holdings[t.name] for t in cfg.agent_types),
    )


# ---------------------------------------------------------------------------
# common binary shock, heterogeneous types
# ---------------------------------------------------------------------------


def _solve_heterogeneous(cfg: ec.EconomyConfig, theta_high: float) -> SteadyStateEquilibrium:
    """Tax-and-burn steady state with one or more user types under a common shock.

    High state: every type pays the surcharge, and blockspace clears at the
    unit capacity when demand at its marginal cost c'(1) overfills it;
    otherwise that uncongested equilibrium is returned with
    congestion_broken = True. Low state: untaxed, and congested only when
    demand at c'(1) exceeds capacity. Each type, active in both states,
    has its budget bind in the high state, in the low state or in both
    ("high", "low", "both"): one response per pattern gives its balance and
    activities at given prices, and its holdings FOC picks the pattern.

    The burn-funded return r_high^T relaxes every binding budget, so a
    positive theta moves the activity margins toward first best: this is
    the one regime where the tax is not neutral. family() admits only
    configs with gamma = 0 and rho < 1.

    The return is the outer unknown: a root of burn(rT) = rT on
    [0, min(theta, r / rho)], solved as the relative residual
    p A / M - rT / theta (A the high-state load, M the aggregate balance)
    in rT's share of that cap, so the bracket stays wide enough for the
    root finder even for a subnormal theta. Each trial rT clears both
    markets at the patterns of the previous trial (first: "high" for the
    first type with the largest state-1 utility scale, "low" for the rest),
    then again at the types' best responses there until none changes
    (SolverError if the patterns cycle). Loads and balances are summed in
    type order from 0.0.

    Every root starts from a prediction made from this call's own trials,
    so a solve does not depend on what was solved before it. The first
    trial is the cap itself (share 1). Each trial reads how its prices and
    its burn ratio move with rT (see sensitivities), so the outer root is
    one rtsafe loop from share 1 (Press et al., Numerical Recipes, 9.4): a
    Newton step with Chebyshev's term -bend gap**2 / (2 slope**3), on the
    bend of the last two trials' slopes, where it lands strictly inside the
    tightest bracket the trials give and the last Newton step, if any, at
    least halved the gap; otherwise, or where the trial has no slopes, a
    bisection of that bracket. It accepts a trial at RESIDUAL_FLOOR, or
    else the bracket's end with the smaller gap once the midpoint rounds to
    an end (SolverError above RESIDUAL_TOL).
    Each market clear evaluates its predicted price first (see
    predicted_prices) and keeps it when the residual there is at float
    resolution; a clear again under a new pattern starts at the last
    clear's prices. A budget binding in both states roots its balance from
    the type's last balance moved on its FOC's partials (see balance), and
    its low state clears again from the last low price found. High states
    are kept for the whole solve, so the root's is not solved again.
    Holdings cover high-state spending, so the burn never exceeds theta; if
    it still exceeds rT at r / rho, the expected return would pass r and
    InfeasiblePolicyError is raised.

    One DEBUG line per solve gives where each type's budget binds, whether
    the first high-state clear bracketed its root from the planner's price
    alone or evaluated c'(1), the number of trial returns, the counters
    kept below and how the burn identity was rooted (outer=newton:<steps>,
    with +bisect:<steps> where it bisected, or outer=none where no root
    was run).
    """
    rho, r = cfg.shocks.rho, cfg.r
    # (mass, high-state utility, low-state utility) of each type, in config order
    types = [(t.mass, t.utility_in(1), t.utility_in(0)) for t in cfg.agent_types]

    # for the DEBUG line: the prices each high-state clear evaluated its
    # load at, the low-state load evaluations, the holdings FOC evaluations
    # of the both-binding balance roots, the extra clears the pattern checks
    # caused, and the clears and balance roots accepted at their prediction
    # (a clear that evaluates its load once accepted it)
    high_clears: list[list[float]] = []
    low_evals = foc_evals = switches = hits = 0
    # by (u1, u0, rT, eff, p), each balance root where both budgets bind and
    # its marginal utilities per token (high, low); and each type's last key
    roots: dict[tuple, tuple[float, float, float]] = {}
    last_root: dict[tuple[ec.UtilityFn, ec.UtilityFn], tuple] = {}

    def partials(u1: ec.UtilityFn, u0: ec.UtilityFn, rt: float, high: float, low: float) -> tuple:
        """The holdings FOC's partials in log m, log p, log eff and rT where
        both budgets bind, from the marginal utilities per token high and low."""
        c1, c0 = u1.curvature, u0.curvature
        return (-rho * (1.0 + rt) * c1 * high - (1.0 - rho) * c0 * low,
                (1.0 - rho) * (c0 - 1.0) * low, rho * (1.0 + rt) * (c1 - 1.0) * high,
                rho * (1.0 - c1) * high)

    def balance(u1: ec.UtilityFn, u0: ec.UtilityFn, rt: float, eff: float, p: float) -> float:
        """Balance at which both budgets bind: the root of the holdings FOC
        with (1+rT) m / eff bought in the high state and m / p in the low,
        which falls in m, found in log m. The root starts at the type's last
        root in this solve moved by d log m = -(F_p d log p + F_eff d log eff
        + F_rT d rT) / F_m on the FOC's partials there, and keeps it when the
        FOC there is at float resolution; otherwise it runs toward the end a
        Newton step in log m names. The FOC is convex in log m, so that end
        lies past the root where the FOC is negative and short of it where it
        is positive. Where an activity underflows to 0 the FOC reads +inf, as
        u'(0+) is, so the root lies above. The type's first balance starts at
        the smaller balance at which one budget stops binding."""
        nonlocal hits
        at: dict[float, tuple[float, float]] = {}  # (high, low) at each m evaluated

        def foc(m: float) -> float:
            nonlocal foc_evals
            foc_evals += 1
            a1, a0 = (1.0 + rt) * m / eff, m / p
            if a1 == 0.0 or a0 == 0.0:
                return math.inf  # an activity underflows: u'(0+) is infinite
            # marginal utility per token in each state
            high, low = at[m] = ec.u_prime(u1, a1) / eff, ec.u_prime(u0, a0) / p
            return rho * (1.0 + rt) * (high - 1.0) + (1.0 - rho) * (low - 1.0) - (r - rho * rt)

        key = last_root.get((u1, u0))
        if key is None:
            m = min(eff * ec.u_prime_inv(u1, eff) / (1.0 + rt), p * ec.u_prime_inv(u0, p))
        else:
            (_, _, rt0, eff0, p0), (m, high, low) = key, roots[key]
            d_m, d_p, d_eff, d_rt = partials(u1, u0, rt0, high, low)
            shift = d_p * math.log(p / p0) + d_eff * math.log(eff / eff0) + d_rt * (rt - rt0)
            m *= math.exp(min(max(-shift / d_m, -30.0), 30.0)) if d_m < 0.0 else 1.0
        f = foc(m)
        values = {m: f}
        slope = partials(u1, u0, rt, *at[m])[0]
        # a step of at most 30 in log m: find_log_root widens past it where needed
        end = m * math.exp(min(max(-f / slope, -30.0), 30.0)) if slope < 0.0 else m
        if end == m:
            end = 2.0 * m if f > 0.0 else 0.5 * m
        root = find_log_root(foc, values, m, end)
        last_root[u1, u0] = key = (u1, u0, rt, eff, p)
        roots[key] = (root, *at[root])
        hits += len(values) == 1
        return root

    # A type's response to high-state effective price eff, low-state price p
    # and return rt when its budget binds as pat says: low_demand gives its
    # low-state activity a0, and respond its (balance, high-state activity, a0).
    def low_demand(pat: str, u1: ec.UtilityFn, u0: ec.UtilityFn, rt: float, eff: float,
                   p: float) -> float:
        if pat == "both":
            return balance(u1, u0, rt, eff, p) / p
        # where only the low budget binds, (1-rho)(u'(a)/p - 1) = r - rho rT
        return ec.u_prime_inv(u0, (1.0 + (r - rho * rt) / (1.0 - rho)) * p if pat == "low" else p)

    def respond(pat: str, u1: ec.UtilityFn, rt: float, eff: float, p: float,
                a0: float) -> tuple[float, float, float]:
        if pat == "high":
            # where only the high budget binds, rho (1+rT)(u'(a)/eff - 1) = r - rho rT
            a1 = ec.u_prime_inv(u1, eff * (1.0 + r / rho) / (1.0 + rt))
            return eff * a1 / (1.0 + rt), a1, a0
        m = p * a0
        return m, ec.u_prime_inv(u1, eff) if pat == "low" else (1.0 + rt) * m / eff, a0

    def best_response(pat: str, u1: ec.UtilityFn, u0: ec.UtilityFn, rt: float, eff: float,
                      p: float, got: tuple[float, float, float]) -> str:
        """Where the type's budget binds at these prices, given its response
        got when it binds as pat says. A one-state pattern holds when the
        slack state's spending fits the balance; the holdings FOC falls in m,
        so where neither holds, its root lies below both kinks. pat is
        tried first, as its response is known."""
        for alt in ("low", "high") if pat == "low" else ("high", "low"):
            m, a1, a0 = got if alt == pat else respond(
                alt, u1, rt, eff, p, low_demand(alt, u1, u0, rt, eff, p))
            if (p * a0 <= m) if alt == "high" else (eff * a1 <= (1.0 + rt) * m):
                return alt
        return "both"

    def clear(pats: tuple[str, ...], rt: float, guess: list[float | None]):
        """Both markets cleared at rt with each type's budget binding as pats
        says, from the predicted prices guess (low state, high state):
        the high-state price, whether it is congested, and there the
        low-state price, whether it is congested, and each type's response."""
        nonlocal hits

        def low_state(eff: float) -> tuple[float, bool, list[float]]:
            nonlocal hits
            acts: dict[float, list[float]] = {}

            def load(p: float) -> float:
                nonlocal low_evals
                low_evals += 1
                a = acts[p] = []
                total = 0.0
                for (k, u1, u0), pat in zip(types, pats):
                    a0 = low_demand(pat, u1, u0, rt, eff, p)
                    a.append(a0)
                    total += k * a0
                return total

            p, congested = _clear_blockspace(cfg.cost, load, guess[0])
            hits += len(acts) == 1
            guess[0] = p  # where a coupled low state clears again
            return p, congested, acts[p]

        # eff matters to the low state only through a type whose budget binds
        # in both states; such a type couples the markets, so the low state
        # then clears again at each high-state price
        fixed = None if "both" in pats else low_state(math.nan)
        points = {}

        def load(p_high: float) -> float:
            eff = (1.0 + theta_high) * p_high
            p_low, low_congested, a0s = fixed or low_state(eff)
            got = []
            total = 0.0
            for (k, u1, _), pat, a0 in zip(types, pats, a0s):
                response = respond(pat, u1, rt, eff, p_low, a0)
                got.append(response)
                total += k * response[1]
            points[p_high] = p_low, low_congested, got
            return total

        # every price the root finder returns is one it evaluated
        p_high, congested = _clear_blockspace(cfg.cost, load, guess[1])
        high_clears.append(list(points))
        hits += len(points) == 1
        return p_high, congested, points[p_high]

    # per solve: the high state of every trial return solved so far, with
    # its low-state price and patterns, and the implicit-function slopes of
    # those used that have them
    high_states: dict[float, tuple] = {}
    slopes: dict[float, tuple[float, float, float]] = {}
    # where each budget binds at the last trial; first, "high" at the largest u'(1), the scale
    top = max(range(len(types)), key=lambda i: types[i][1].scale)
    pats = tuple("high" if i == top else "low" for i in range(len(types)))
    # With no trial solved, the planner stands in for one at rT = r / rho:
    # there a type whose budget binds in the high state has the FOC
    # u'(a) = (1+theta) p (1+r/rho) / (1+rT), the planner's margin u'(a) = x
    # at the congested shadow value x, so the high-state price is x / (1+theta).
    planner = first_best_allocation(cfg, 1)
    anchor = (r / rho, planner.shadow_marginal / (1.0 + theta_high)) if planner.congested else None

    def total(got: list[tuple[float, float, float]], i: int) -> float:
        """Mass-weighted sum of entry i of the types' responses got."""
        out = 0.0
        for (k, _, _), response in zip(types, got):
            out += k * response[i]
        return out

    def sensitivities(rt: float) -> tuple[float, float, float] | None:
        """d log p_low / d rT, d log p_high / d rT and d log(p_high A / M) / d rT
        of the trial solved at rt.

        The implicit-function theorem on its two clears, its patterns held:
        a 2x2 linear system in d log p_low and d log p_high, triangular where
        no budget binds in both states. Each activity is a power -1/c of its
        price, c the utility curvature, times (1 + rT)**(1/c) in the high
        state of a high-binding type and times its wedge**(-1/c) in the low
        state of a low-binding one, the wedge 1 + (r - rho rT) / (1 - rho). A
        balance is eff a1 / (1 + rT) where the high budget binds, p_low a0
        where the low one does; where both bind, a0 = m / p_low and
        a1 = (1 + rT) m / eff, m moving as balance predicts it. A congested
        state holds its load at 1; a slack one has log p = log c'(1) + kappa log load.
        None where the system is singular, as where a load or the balance
        underflows to 0.
        """
        if rt in slopes:
            return slopes[rt]
        p_high, congested, (p_low, low_congested, got), binds = high_states[rt]
        eff = (1.0 + theta_high) * p_high
        # d log(1 + rT) / d rT and d log(wedge) / d rT
        growth, d_wedge = 1.0 / (1.0 + rt), -rho / (1.0 - rho + r - rho * rt)
        # the low load, the high load and the balance M move by sum k a d log a
        # (sum k m d log m) = l, h, m . (d log p_low, d log p_high, d rT); a
        # slack state's load moves with its price, log p = log c'(1) + kappa log load
        load0 = load1 = balance = l_low = l_high = l_rt = h_low = h_high = h_rt = 0.0
        m_low = m_high = m_rt = 0.0
        for (k, u1, u0), pat, (m, a1, a0) in zip(types, binds, got):
            k0, k1, km, e0, e1 = k * a0, k * a1, k * m, 1.0 / u0.curvature, 1.0 / u1.curvature
            load0, load1, balance = load0 + k0, load1 + k1, balance + km
            if pat == "both":
                d_m, d_p, d_eff, d_rt = partials(u1, u0, rt, *roots[u1, u0, rt, eff, p_low][1:])
                x, y, t = -d_p / d_m, -d_eff / d_m, -d_rt / d_m  # d log m
                l_low, l_high, l_rt = l_low + k0 * (x - 1.0), l_high + k0 * y, l_rt + k0 * t
                h_low, h_high, h_rt = h_low + k1 * x, h_high + k1 * (y - 1.0), h_rt + k1 * (t + growth)
                m_low, m_high, m_rt = m_low + km * x, m_high + km * y, m_rt + km * t
            elif pat == "high":
                l_low, h_high, h_rt = l_low - k0 * e0, h_high - k1 * e1, h_rt + k1 * e1 * growth
                m_high, m_rt = m_high + km * (1.0 - e1), m_rt + km * (e1 - 1.0) * growth
            else:
                l_low, l_rt, h_high = l_low - k0 * e0, l_rt - k0 * e0 * d_wedge, h_high - k1 * e1
                m_low, m_rt = m_low + km * (1.0 - e0), m_rt - km * e0 * d_wedge
        kappa = cfg.cost.curvature
        l_low -= 0.0 if low_congested else load0 / kappa
        h_high -= 0.0 if congested else load1 / kappa
        det = l_low * h_high - l_high * h_low
        if 0.0 < abs(det) < math.inf and balance > 0.0:
            d_low, d_high = (l_high * h_rt - l_rt * h_high) / det, (l_rt * h_low - l_low * h_rt) / det
            d_balance = (m_low * d_low + m_high * d_high + m_rt) / balance
            slopes[rt] = d_low, d_high, d_high + (0.0 if congested else d_high / kappa) - d_balance
            return slopes[rt]
        return None

    def predicted_prices(rt: float) -> list[float | None]:
        """Prices of the low and the high state at rt: the nearest solved
        trial's, held where it has no slopes and otherwise each moved by
        exp(slope * d + bend * d**2 / 2), d = rt less its rT: the bend is the
        difference of its implicit-function slopes and those of the nearest
        other trial that has them, over their distance, else 0. Before the
        first trial, the planner's congested high state stands in for one:
        its price scaled by 1 + rT, with no low-state prediction (None; both
        None where the planner's high state is slack)."""
        if not high_states:
            return [None, None if anchor is None else anchor[1] * (1.0 + rt) / (1.0 + anchor[0])]
        near = min(high_states, key=lambda s: abs(s - rt))
        p_high, _, (p_low, _, _), _ = high_states[near]
        if sensitivities(near) is None:
            return [p_low, p_high]
        d, (d_low, d_high, _) = rt - near, slopes[near]
        if len(slopes) > 1:
            other = min((s for s in slopes if s != near), key=lambda s: abs(s - rt))
            half = 0.5 * d / (near - other)
            d_low += half * (d_low - slopes[other][0])
            d_high += half * (d_high - slopes[other][1])
        return [p_low * math.exp(d_low * d), p_high * math.exp(d_high * d)]

    def high_state(rt: float) -> tuple:
        """(p_high, congested, (p_low, low_congested, responses), patterns) at rt."""
        nonlocal pats, switches
        if rt not in high_states:
            tried: list[tuple[str, ...]] = []
            guess = predicted_prices(rt)
            while pats not in tried:
                tried.append(pats)
                p_high, congested, (p_low, low_congested, got) = point = clear(pats, rt, guess)
                # a clear under the next pattern starts at these prices
                guess = [p_low, p_high]
                eff = (1.0 + theta_high) * p_high
                pats = tuple([best_response(pat, u1, u0, rt, eff, p_low, response)
                              for (_, u1, u0), pat, response in zip(types, pats, got)])
            if pats != tried[-1]:
                raise SolverError(f"binding patterns cycle at rT = {rt!r}: {tried} then {pats}")
            switches += len(tried) - 1
            high_states[rt] = (*point, pats)
        return high_states[rt]

    rt, outer = 0.0, "none"  # outer: how the burn identity was rooted
    if theta_high > 0.0:
        rt_max = min(theta_high, r / rho)
        cap = rt_max / theta_high

        def burn_gap(share: float) -> float:
            # burn per unit of tax and balance, the burn ratio p_high A / M,
            # at rT = share * rt_max, less rT / theta = share * cap
            p_high, _, (_, _, got), _ = high_state(share * rt_max)
            return p_high * total(got, 1) / total(got, 0) - share * cap

        gap = burn_gap(1.0)
        if gap < 0.0:
            # rtsafe from share 1 inside the tightest bracket the trials give,
            # lo = 0 unevaluated (burn_gap(0) > 0): a Chebyshev-Newton step where
            # it lands strictly inside and the last one, if any, halved |gap|;
            # otherwise, or from a trial with no slopes, a bisection, until the
            # midpoint rounds to an end
            share, steps, bisections, halved, previous = 1.0, 0, 0, True, None
            lo, hi, gap_lo, gap_hi = 0.0, 1.0, math.inf, gap
            for _ in range(MAX_ITER):
                if abs(gap) <= RESIDUAL_FLOOR:
                    break
                # gap + share * cap is the burn ratio p_high A / M
                trial_slopes = sensitivities(share * rt_max)
                slope = (rt_max * (gap + share * cap) * trial_slopes[2] - cap
                         if trial_slopes else math.nan)
                bend = 0.0 if previous is None else (slope - previous[1]) / (share - previous[0])
                previous = (share, slope) if trial_slopes else None
                step = (share - gap / slope - bend * gap * gap / (2.0 * slope * slope * slope)
                        if halved and slope < 0.0 else math.nan)
                newton = lo < step < hi
                if not newton:
                    step = 0.5 * (lo + hi)
                    if not lo < step < hi:
                        break
                gap_before, share = gap, step
                gap = burn_gap(share)
                if gap > 0.0:
                    lo, gap_lo = share, gap
                else:
                    hi, gap_hi = share, gap
                steps += newton
                bisections += not newton
                halved = not newton or abs(gap) <= 0.5 * abs(gap_before)
            outer = f"newton:{steps}" + (f"+bisect:{bisections}" if bisections else "")
            share, gap = (lo, gap_lo) if abs(gap_lo) < abs(gap_hi) else (hi, gap_hi)
            if abs(gap) > RESIDUAL_TOL:
                raise SolverError(
                    f"burn identity stalled with residual {gap:.3e} > {RESIDUAL_TOL:.0e} "
                    f"on bracket rT in [{lo * rt_max:.12g}, {hi * rt_max:.12g}]"
                )
            rt = share * rt_max
        elif rt_max == theta_high:
            # every budget binds in the high state, so the burn funds exactly
            # rT = theta (up to rounding) and the surcharge is neutral
            rt = theta_high
        else:
            raise InfeasiblePolicyError(
                f"the burn at theta_high={theta_high} funds an expected token return "
                f"above r = {r}; no steady state with finite token demand exists for "
                "this tax"
            )
    p_high, congested, (p_low, low_congested, got), pats = high_state(rt)
    if log.isEnabledFor(logging.DEBUG):
        # c'(1), the cost's scale, is the first clear's guess, or tested below the
        # planner's price
        cold = cfg.cost.scale in high_clears[0]
        log.debug(
            "heterogeneous theta=%r binds=%s pattern_switches=%d first_bracket=%s "
            "trial_returns=%d high_load_evals=%d low_load_evals=%d foc_evals=%d "
            "prediction_hits=%d outer=%s",
            theta_high, ",".join(f"{t.name}:{pat}" for t, pat in zip(cfg.agent_types, pats)),
            switches, "cold-test" if cold else "planner-seed", len(high_states),
            sum(map(len, high_clears)), low_evals, foc_evals, hits, outer,
        )
    by_type = [{t.name: response[i] for t, response in zip(cfg.agent_types, got)}
               for i in range(3)]
    states = {
        1: StateOutcome(p_high, theta_high, rt, by_type[1], congested, total(got, 1)),
        0: StateOutcome(p_low, 0.0, 0.0, by_type[2], low_congested, total(got, 2)),
    }
    return SteadyStateEquilibrium(
        regime="heterogeneous", states=states, holdings=by_type[0],
        expected_return=rho * rt, aggregate_real_balances=total(got, 0),
        congestion_broken=not congested,
    )


# ---------------------------------------------------------------------------
# the regime table
# ---------------------------------------------------------------------------


class RegimeRow(NamedTuple):
    """A regime: the family() of the configs it solves, whether it takes a
    tax (one that does not is solved at theta = 0) and its solver(cfg, theta)."""

    family: str
    taxed: bool
    solve: Callable[[ec.EconomyConfig, float], SteadyStateEquilibrium]


REGIMES: dict[str, RegimeRow] = {
    # Friedman rule: supply contracts at (1+gamma)/(1+r), so rT = r and holding
    # tokens is costless; the static margin u'(a) = p is the planner's, and a
    # congested fee is the capacity shadow value. It takes no tax: theta = 0.
    "friedman": RegimeRow("deterministic", False, partial(
        _solve_law,
        lambda theta, r, gamma, rho: r,
        lambda theta, r, gamma, rho: 1.0,
        None,
    )),
    # Burning theta * p * a while balances grow at gamma forces
    # 1 + rT = (1+theta)(1+gamma); the surcharge and the capital gain it funds
    # cancel out of the margin u'(a)/p = (1+r)/(1+gamma): the tax is neutral.
    "deterministic": RegimeRow("deterministic", True, partial(
        _solve_law,
        lambda theta, r, gamma, rho: theta * (1.0 + gamma) + gamma,
        lambda theta, r, gamma, rho: (1.0 + r) / (1.0 + gamma),
        None,
    )),
    # Only the active fraction rho trades and pays the surcharge, so the burn
    # gives 1 + rT = (1+gamma)(1+theta)/(1+(1-rho)theta) to every holder: idle
    # holders ride the deflation without paying the tax, so theta > 0 subsidizes
    # idle balances and distorts the active margin. The wedge solves the holdings
    # FOC rho (1+rT) u'(a)/((1+theta)p) + (1-rho)(1+rT) = 1+r at that return.
    "iid": RegimeRow("iid", True, partial(
        _solve_law,
        lambda theta, r, gamma, rho:
            (gamma + (rho + gamma) * theta) / (1.0 + (1.0 - rho) * theta),
        lambda theta, r, gamma, rho:
            1.0 + (r - gamma) * (1.0 + (1.0 - rho) * theta) / (rho * (1.0 + gamma)),
        "iid",
    )),
    # Burning only in the active state gives 1 + rT = (1+theta)(1+gamma) there;
    # the whole balance carries over the shut state, and the active margin
    # u'(a)/p = (rho+r)/((1+gamma)rho) does not involve theta: the surcharge is
    # exactly offset by the deflation it funds.
    "common": RegimeRow("common", True, partial(
        _solve_law,
        lambda theta, r, gamma, rho: theta * (1.0 + gamma) + gamma,
        lambda theta, r, gamma, rho: (rho + r) / ((1.0 + gamma) * rho),
        "shut",
    )),
    "heterogeneous": RegimeRow("heterogeneous", True, _solve_heterogeneous),
}


def solve_regime(cfg: ec.EconomyConfig, regime: str, theta: float = 0.0) -> SteadyStateEquilibrium:
    """Steady state of the named regime at tax theta ('friedman' ignores
    theta); logs the result at INFO.

    ConfigError if the regime is unknown, if cfg is of no family or not of
    the family the regime solves, or if a taxed regime gets a theta outside
    [0, inf).
    """
    row = REGIMES.get(regime)
    if row is None:
        raise ConfigError(f"unknown regime {regime!r}; expected one of {tuple(REGIMES)}")
    fam = ec.family(cfg)
    if fam != row.family:
        raise ConfigError(
            f"the {regime} regime solves {row.family!r} configs; this config's family is {fam!r}"
        )
    if row.taxed and not 0 <= theta < math.inf:
        raise ConfigError(f"tax rate must be nonnegative and finite, got {theta}")
    eq = row.solve(cfg, theta if row.taxed else 0.0)
    if log.isEnabledFor(logging.INFO):
        log.info(
            "solved %s theta=%r E[rT]=%r congested=%s congestion_broken=%s",
            regime, theta, eq.expected_return,
            ",".join(f"{s}:{out.congested}" for s, out in sorted(eq.states.items())),
            eq.congestion_broken,
        )
    return eq

