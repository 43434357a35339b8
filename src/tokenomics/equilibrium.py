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
from ._roots import RESIDUAL_FLOOR, find_log_root, find_root
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
    trial is the cap itself (share 1); the burn share barely moves with rT,
    so the outer root is bracketed just below the share that trial
    predicts. Each market clear evaluates its predicted price first (see
    predicted_brackets) and keeps it when the residual there is at float
    resolution; a clear again under a new pattern starts within 5% of the
    last clear's prices. A budget binding in both states roots its balance
    from the type's last balance. High states are kept for the whole solve,
    so the root's is not solved again. Holdings cover high-state spending,
    so the burn never exceeds theta; if it still exceeds rT at r / rho, the
    expected return would pass r and InfeasiblePolicyError is raised.

    One DEBUG line per solve gives where each type's budget binds, whether
    the first bracket came from the planner or from the cold test at c'(1),
    the number of trial returns and the counters kept below.
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
    # the last balance found for each type whose budget binds in both states
    balances: dict[tuple[ec.UtilityFn, ec.UtilityFn], float] = {}

    def balance(u1: ec.UtilityFn, u0: ec.UtilityFn, rt: float, eff: float, p: float) -> float:
        """Balance at which both budgets bind: the root of the holdings FOC
        with (1+rT) m / eff bought in the high state and m / p in the low,
        which falls in m, found in log m. The type's last balance in this
        solve is tried first and kept when the FOC there is at float
        resolution; otherwise the root is bracketed from it by a factor of 2
        on the side the FOC's sign names. The type's first balance is
        bracketed below the smaller balance at which one budget stops
        binding."""
        nonlocal hits
        values: dict[float, float] = {}

        def foc(m: float) -> float:
            nonlocal foc_evals
            if m not in values:
                foc_evals += 1
                high = rho * (1.0 + rt) * (ec.u_prime(u1, (1.0 + rt) * m / eff) / eff - 1.0)
                low = (1.0 - rho) * (ec.u_prime(u0, m / p) / p - 1.0)
                values[m] = high + low - (r - rho * rt)
            return values[m]

        last = balances.get((u1, u0))
        if last is None:
            top = min(eff * ec.u_prime_inv(u1, eff) / (1.0 + rt), p * ec.u_prime_inv(u0, p))
            lo, hi = 0.5 * top, top
        elif abs(foc(last)) <= RESIDUAL_FLOOR:
            hits += 1
            return last
        else:
            lo, hi = (last, 2.0 * last) if foc(last) > 0.0 else (0.5 * last, last)
        balances[u1, u0] = find_log_root(foc, lo, hi)
        return balances[u1, u0]

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

    def clear(pats: tuple[str, ...], rt: float, warm: list[tuple[float, float] | None]):
        """Both markets cleared at rt with each type's budget binding as pats
        says, from the predicted price brackets warm (low state, high state):
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

            p, congested = _clear_blockspace(cfg.cost, load, warm[0])
            hits += len(acts) == 1
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
        p_high, congested = _clear_blockspace(cfg.cost, load, warm[1])
        high_clears.append(list(points))
        hits += len(points) == 1
        return p_high, congested, points[p_high]

    # per solve: the high state of every trial return solved so far, with
    # its low-state price and patterns
    high_states: dict[float, tuple] = {}
    # where each budget binds at the last trial; first, "high" at the largest u'(1), the scale
    top = max(range(len(types)), key=lambda i: types[i][1].scale)
    pats = tuple("high" if i == top else "low" for i in range(len(types)))
    # With no trial solved, the planner stands in for one at rT = r / rho:
    # there a type whose budget binds in the high state has the FOC
    # u'(a) = (1+theta) p (1+r/rho) / (1+rT), the planner's margin u'(a) = x
    # at the congested shadow value x, so the high-state price is x / (1+theta).
    planner = first_best_allocation(cfg, 1)
    anchor = (r / rho, planner.shadow_marginal / (1.0 + theta_high)) if planner.congested else None

    def predicted_brackets(rt: float) -> list[tuple[float, float] | None]:
        """Price brackets of the low and the high state at rt, predicted from
        the solved trials (None where there is no prediction).

        From two or more trials each price is linear in rT through the two
        nearest. From one, only the high state is predicted: its price
        scales with 1 + rT, as a high-binding type's FOC does at a fixed
        shadow value; before the first, the planner stands in for it. (A
        low-state price held from one trial would need an ulp-wide bracket,
        which costs more than the cold test when it misses.) Each bracket is
        as wide as the move its prediction makes from the nearest solved
        price: at most 5% of the price, at least an ulp of it. A linear
        prediction at or below zero is no prediction.
        """
        def around(p: float, p_near: float) -> tuple[float, float] | None:
            if p <= 0.0:
                return None
            half = max(min(abs(p - p_near), 0.05 * p), math.ulp(p))
            return p - half, p + half

        near = sorted(high_states, key=lambda s: abs(s - rt))[:2]
        # (p_low, p_high) of each of the nearest trials
        prices = [(high_states[s][2][0], high_states[s][0]) for s in near]
        if len(near) == 2:
            ra, rb = near
            w = (rt - ra) / (rb - ra)
            return [around(pa + (pb - pa) * w, pa) for pa, pb in zip(*prices)]
        if near or anchor is not None:
            r_near, p_near = (near[0], prices[0][1]) if near else anchor
            return [None, around(p_near * (1.0 + rt) / (1.0 + r_near), p_near)]
        return [None, None]

    def high_state(rt: float) -> tuple:
        """(p_high, congested, (p_low, low_congested, responses), patterns) at rt."""
        nonlocal pats, switches
        if rt not in high_states:
            tried: list[tuple[str, ...]] = []
            warm = predicted_brackets(rt)
            while pats not in tried:
                tried.append(pats)
                p_high, congested, (p_low, low_congested, got) = point = clear(pats, rt, warm)
                # a clear under the next pattern starts within 5% of these prices
                warm = [(0.95 * p, 1.05 * p) for p in (p_low, p_high)]
                eff = (1.0 + theta_high) * p_high
                pats = tuple([best_response(pat, u1, u0, rt, eff, p_low, response)
                              for (_, u1, u0), pat, response in zip(types, pats, got)])
            if pats != tried[-1]:
                raise SolverError(f"binding patterns cycle at rT = {rt!r}: {tried} then {pats}")
            switches += len(tried) - 1
            high_states[rt] = (*point, pats)
        return high_states[rt]

    def total(got: list[tuple[float, float, float]], i: int) -> float:
        """Mass-weighted sum of entry i of the types' responses got."""
        out = 0.0
        for (k, _, _), response in zip(types, got):
            out += k * response[i]
        return out

    rt = 0.0
    if theta_high > 0.0:
        rt_max = min(theta_high, r / rho)
        cap = rt_max / theta_high

        def burn_gap(share: float) -> float:
            # burn per unit of tax and balance at rT = share * rt_max, less
            # rT / theta = share * cap
            p_high, _, (_, _, got), _ = high_state(share * rt_max)
            return p_high * total(got, 1) / total(got, 0) - share * cap

        gap_max = burn_gap(1.0)
        if gap_max < 0.0:
            # the burn share barely moves with rT, so the root lies near
            # B(1) / cap = 1 + gap_max / cap: bracket it from twice that
            # distance below 1, or below there (burn_gap(0) > 0)
            lo = max(0.0, 1.0 + 2.0 * gap_max / cap)
            gap_lo = burn_gap(lo)
            if gap_lo > 0.0:
                rt = find_root(burn_gap, lo, 1.0, gap_lo, gap_max) * rt_max
            else:
                rt = find_root(burn_gap, 0.0, lo, fhi=gap_lo) * rt_max
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
        # the planner's bracket is kept unless the first clear tests c'(1)
        cold = anchor is None or ec.c_prime(cfg.cost, ec.BLOCKSPACE_CAPACITY) in high_clears[0]
        log.debug(
            "heterogeneous theta=%r binds=%s pattern_switches=%d first_bracket=%s "
            "trial_returns=%d high_load_evals=%d low_load_evals=%d foc_evals=%d "
            "prediction_hits=%d",
            theta_high, ",".join(f"{t.name}:{pat}" for t, pat in zip(cfg.agent_types, pats)),
            switches, "cold-test" if cold else "planner-seed", len(high_states),
            sum(map(len, high_clears)), low_evals, foc_evals, hits,
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

