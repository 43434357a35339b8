"""Independent model of the token economy, used to check the solver's output.

Nothing here imports the package under test. The primitives, the planner's
first best, the return laws and each type's best response are written again
from the model as the package README states it, and work on the JSON forms
the package reads and writes: a config document (``configs/*.json``) and an
equilibrium document (``SteadyStateEquilibrium.as_dict()`` or the CLI's
``equilibrium.json``).

``check_equilibrium`` returns a list of violations; an empty list means the
solution satisfies every invariant the model requires of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CAPACITY = 1.0
LOAD_TOL = 1e-9
RETURN_TOL = 1e-9
LAW_TOL = 1e-10
BURN_RTOL = 1e-8
WELFARE_TOL = 1e-9
FIRST_BEST_RTOL = 1e-8
HOLDINGS_RTOL = 1e-7


@dataclass(frozen=True)
class Violation:
    """One failed invariant: a short code, the state or type it concerns, and the numbers."""

    code: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}[{self.where}]: {self.detail}"


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def utility(doc_types: list, state: int) -> list[tuple[str, float, tuple[float, float] | None]]:
    """(name, mass, (scale, curvature) or None) per type in one state."""
    out = []
    for t in doc_types:
        spec = t["utility_by_state"].get(str(state), {"kind": "zero"})
        iso = None if spec["kind"] == "zero" else (float(spec["scale"]), float(spec["curvature"]))
        out.append((t["name"], float(t["mass"]), iso))
    return out


def u_level(iso, a: float) -> float:
    if iso is None:
        return 0.0
    s, c = iso
    return s * a ** (1.0 - c) / (1.0 - c)


def u_marginal(iso, a: float) -> float:
    s, c = iso
    return s * a ** (-c)


def demand_at(iso, x: float) -> float:
    """Activity at which marginal utility equals x > 0."""
    s, c = iso
    return math.exp((math.log(s) - math.log(x)) / c)


def cost_level(cost: dict, load: float) -> float:
    k, e = float(cost["scale"]), float(cost["curvature"])
    return k * load ** (1.0 + e) / (1.0 + e)


def cost_marginal(cost: dict, load: float) -> float:
    k, e = float(cost["scale"]), float(cost["curvature"])
    return 0.0 if load <= 0.0 else k * load**e


def probabilities(doc: dict) -> dict[int, float]:
    shocks = doc["shocks"]
    if shocks["kind"] == "deterministic":
        return {1: 1.0}
    rho = float(shocks.get("rho", 1.0))
    return {0: 1.0 - rho, 1: rho}


def bisect_increasing(f, lo: float, hi: float, iters: int = 200) -> float:
    """Root of an increasing function on [lo, hi], by bisection to float resolution."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------


def planner_state(cost: dict, types: list) -> tuple[dict[str, float], float]:
    """First best in one state: (activities, flow surplus).

    Every active type equates marginal utility to a common value x. Without
    rationing x equals marginal cost at the total; if that total exceeds the
    unit capacity, x rises until demand exactly fills it. Solved on log x.
    """
    active = [(n, m, iso) for n, m, iso in types if iso is not None]
    acts = {n: 0.0 for n, _, _ in types}
    if not active:
        return acts, 0.0

    def total(log_x: float) -> float:
        x = math.exp(log_x)
        return math.fsum(m * demand_at(iso, x) for _, m, iso in active)

    k, e = float(cost["scale"]), float(cost["curvature"])

    def unconstrained(log_x: float) -> float:
        # log x - log c'(total(x)); increasing in x
        return log_x - math.log(k) - e * math.log(total(log_x))

    lo, hi = -30.0, 30.0
    log_x = bisect_increasing(unconstrained, lo, hi)
    if total(log_x) > CAPACITY:
        log_x = bisect_increasing(lambda lx: math.log(CAPACITY) - math.log(total(lx)), lo, hi)
    x = math.exp(log_x)
    for n, _, iso in active:
        acts[n] = demand_at(iso, x)
    load = math.fsum(m * acts[n] for n, m, _ in types)
    surplus = math.fsum(m * u_level(iso, acts[n]) for n, m, iso in types) - cost_level(cost, load)
    return acts, surplus


def first_best(doc: dict) -> tuple[float, dict[int, dict[str, float]]]:
    """Expected first-best surplus and the planner's activities per state.

    With iid shocks the cross-section is deterministic: the planner faces one
    economy whose types are the (type, state) pairs weighted by probability.
    """
    probs = probabilities(doc)
    kind = doc["shocks"]["kind"]
    if kind == "iid_binary":
        cross = []
        for s, pi in probs.items():
            if pi <= 0.0:
                continue
            for n, m, iso in utility(doc["agent_types"], s):
                cross.append((f"{n}@{s}", m * pi, iso))
        acts, surplus = planner_state(doc["cost"], cross)
        per_state = {
            s: {t["name"]: acts.get(f"{t['name']}@{s}", 0.0) for t in doc["agent_types"]}
            for s in probs
        }
        return surplus, per_state
    expected = 0.0
    per_state = {}
    for s, pi in probs.items():
        acts, surplus = planner_state(doc["cost"], utility(doc["agent_types"], s))
        per_state[s] = acts
        expected += pi * surplus
    return expected, per_state


# ---------------------------------------------------------------------------
# equilibrium invariants
# ---------------------------------------------------------------------------


def _states(eq: dict) -> dict[int, dict]:
    return {int(s): out for s, out in eq["states"].items()}


def cross_section_load(doc: dict, eq: dict) -> dict[int, float]:
    """Load each state must carry, recomputed from masses and activities."""
    probs = probabilities(doc)
    states = _states(eq)
    masses = {t["name"]: float(t["mass"]) for t in doc["agent_types"]}
    if doc["shocks"]["kind"] == "iid_binary":
        shared = math.fsum(
            masses[n] * probs[s] * states[s]["activities"][n] for s in states for n in masses
        )
        return {s: shared for s in states}
    return {
        s: math.fsum(masses[n] * out["activities"][n] for n in masses) for s, out in states.items()
    }


def equilibrium_welfare(doc: dict, eq: dict) -> float:
    probs = probabilities(doc)
    states = _states(eq)
    loads = cross_section_load(doc, eq)
    if doc["shocks"]["kind"] == "iid_binary":
        gross = math.fsum(
            probs[s] * m * u_level(iso, states[s]["activities"][n])
            for s in states
            for n, m, iso in utility(doc["agent_types"], s)
        )
        return gross - cost_level(doc["cost"], loads[1])
    return math.fsum(
        probs[s]
        * (
            math.fsum(m * u_level(iso, states[s]["activities"][n]) for n, m, iso in utility(doc["agent_types"], s))
            - cost_level(doc["cost"], loads[s])
        )
        for s in states
    )


def return_law(doc: dict, regime: str, theta: float) -> float | None:
    """Token return the README's burn identity fixes, or None (heterogeneous)."""
    r, g = float(doc["r"]), float(doc["gamma"])
    if regime == "friedman":
        return r
    if regime in ("deterministic", "common"):
        return (1.0 + theta) * (1.0 + g) - 1.0
    if regime == "iid":
        rho = probabilities(doc)[1]
        return (1.0 + g) * (1.0 + theta) / (1.0 + (1.0 - rho) * theta) - 1.0
    return None


def frontier_theta(doc: dict, regime: str) -> float:
    """Largest tax with E[rT] <= r under the README's return laws.

    For the heterogeneous regime there is no closed form; the bound
    theta <= r / rho is sufficient there, because holdings must cover
    high-state spending, which caps the burn-funded return at rT <= theta.
    """
    r, g = float(doc["r"]), float(doc["gamma"])
    rho = probabilities(doc).get(1, 1.0)
    if regime == "deterministic":
        return (1.0 + r) / (1.0 + g) - 1.0
    if regime == "common":
        return (1.0 + r / rho) / (1.0 + g) - 1.0
    if regime == "iid":
        slope = (1.0 + g) - (1.0 + r) * (1.0 - rho)
        return math.inf if slope <= 0.0 else (r - g) / slope
    if regime == "heterogeneous":
        return r / rho
    raise ValueError(f"no tax in regime {regime!r}")


def holdings_slope(doc: dict, eq: dict, name: str, m: float) -> float:
    """Derivative of -m + beta * E[u(a*) + (1 + rT) m - (1 + theta) p a*] in m.

    a* is the budget-capped demand; the state flow is concave in wealth with
    slope max(1, u'(w / P) / P) at effective price P, so the objective is
    concave in m and its slope falls from +inf toward (E[rT] - r) / (1 + r).
    """
    probs = probabilities(doc)
    spec = next(t for t in doc["agent_types"] if t["name"] == name)
    beta = 1.0 / (1.0 + float(doc["r"]))
    total = 0.0
    for s, out in _states(eq).items():
        pi = probs[s]
        if pi <= 0.0:
            continue
        gross = 1.0 + float(out["token_return"])
        price = (1.0 + float(out["tax"])) * float(out["price"])
        u = spec["utility_by_state"].get(str(s), {"kind": "zero"})
        slope = 1.0
        if u["kind"] != "zero" and price > 0.0:
            iso = (float(u["scale"]), float(u["curvature"]))
            slope = max(1.0, u_marginal(iso, gross * m / price) / price)
        total += pi * gross * slope
    return -1.0 + beta * total


def best_response(doc: dict, eq: dict, name: str, hint: float) -> float:
    """Smallest maximiser of the holdings objective at the solver's prices.

    Found as the first m where the objective's slope reaches zero (to 1e-12),
    by bisection on a bracket grown from hint. With E[rT] = r the objective
    is flat above this point, and the smallest maximiser is the one to hold.
    """
    flat = 1e-12
    lo = hi = max(hint, 1e-12)
    while holdings_slope(doc, eq, name, lo) <= flat:
        lo *= 0.5
        if lo < 1e-300:
            return 0.0
    while holdings_slope(doc, eq, name, hi) > flat:
        hi *= 2.0
        if hi > 1e300:
            return math.inf
    return bisect_increasing(lambda m: flat - holdings_slope(doc, eq, name, m), lo, hi)


def check_equilibrium(
    doc: dict, regime: str, theta: float, eq: dict, report: dict | None = None
) -> list[Violation]:
    """Every model invariant a returned steady state must satisfy.

    doc is the config document, eq the equilibrium document and report the
    optional welfare document (WelfareReport.as_dict() or welfare.json).
    """
    bad: list[Violation] = []
    probs = probabilities(doc)
    states = _states(eq)
    r, g = float(doc["r"]), float(doc["gamma"])

    loads = cross_section_load(doc, eq)
    for s, out in states.items():
        load = float(out["aggregate_activity"])
        if abs(load - loads[s]) > LOAD_TOL * max(1.0, loads[s]):
            bad.append(Violation("load-mismatch", f"state {s}", f"reported {load!r}, sum {loads[s]!r}"))
        if loads[s] > CAPACITY + LOAD_TOL:
            bad.append(Violation("over-capacity", f"state {s}", f"load {loads[s]!r} > {CAPACITY}"))

    expected_rt = math.fsum(probs[s] * float(out["token_return"]) for s, out in states.items())
    if abs(expected_rt - float(eq["expected_return"])) > RETURN_TOL:
        bad.append(Violation("return-mismatch", "E[rT]", f"reported {eq['expected_return']!r}, states give {expected_rt!r}"))
    if expected_rt > r + RETURN_TOL:
        bad.append(Violation("return-above-r", "E[rT]", f"{expected_rt!r} > r = {r!r}"))

    masses = {t["name"]: float(t["mass"]) for t in doc["agent_types"]}
    m_agg = math.fsum(masses[n] * float(eq["holdings"][n]) for n in masses)
    if abs(m_agg - float(eq["aggregate_real_balances"])) > BURN_RTOL * max(m_agg, 1e-12):
        bad.append(Violation("balances-mismatch", "M", f"reported {eq['aggregate_real_balances']!r}, sum {m_agg!r}"))
    for s, out in states.items():
        burn = float(out["tax"]) * float(out["price"]) * float(out["aggregate_activity"])
        if burn > 0.0:
            lhs = (float(out["token_return"]) - g) * m_agg
            if abs(lhs - burn) > BURN_RTOL * burn:
                bad.append(Violation("burn-identity", f"state {s}", f"(rT - gamma) M = {lhs!r}, theta p A = {burn!r}"))

    law = return_law(doc, regime, theta)
    if law is not None:
        active = max(states)
        rt = float(states[active]["token_return"])
        if abs(rt - law) > LAW_TOL:
            bad.append(Violation("return-law", f"state {active}", f"rT = {rt!r}, law gives {law!r}"))
        if regime == "common":
            law_expected = probs[1] * law
            if abs(expected_rt - law_expected) > LAW_TOL:
                bad.append(Violation("return-law", "E[rT]", f"{expected_rt!r}, law gives {law_expected!r}"))

    fb_surplus, fb_acts = first_best(doc)
    welfare = equilibrium_welfare(doc, eq)
    if welfare > fb_surplus + WELFARE_TOL * max(1.0, abs(fb_surplus)):
        bad.append(Violation("above-first-best", "welfare", f"{welfare!r} > first best {fb_surplus!r}"))
    if regime == "friedman":
        for n, a_fb in fb_acts[1].items():
            a = float(states[1]["activities"][n])
            if abs(a - a_fb) > FIRST_BEST_RTOL * max(1.0, a_fb):
                bad.append(Violation("friedman-not-first-best", n, f"activity {a!r}, first best {a_fb!r}"))
    if report is not None:
        w = float(report["expected_flow_welfare"])
        if abs(w - welfare) > WELFARE_TOL * max(1.0, abs(welfare)):
            bad.append(Violation("welfare-mismatch", "welfare", f"reported {w!r}, recomputed {welfare!r}"))
        gap = float(report["first_best_gap"])
        if abs(gap - (fb_surplus - welfare)) > WELFARE_TOL * max(1.0, abs(fb_surplus)):
            bad.append(Violation("gap-mismatch", "first_best_gap", f"reported {gap!r}, recomputed {fb_surplus - welfare!r}"))

    for n in masses:
        m = float(eq["holdings"][n])
        if m <= 0.0:
            continue
        m_star = best_response(doc, eq, n, m)
        if abs(m_star - m) > HOLDINGS_RTOL * m:
            bad.append(Violation("not-best-response", n, f"holdings {m!r}, best response {m_star!r}"))
    return bad


def supply_path_rows(doc: dict, rule: str, theta: float, M0: float, q0: float, T: int) -> list[tuple]:
    """(t, M, q, rT, m) in closed form: q grows at rT, M at (1 + gamma) / (1 + rT).

    At a steady state real balances grow with the economy, so with any burn
    the nominal supply contracts by the ratio the return leaves over.
    """
    r, g = float(doc["r"]), float(doc["gamma"])
    if rule == "fixed_supply":
        rt, ratio = g, 1.0
    elif rule == "friedman_target":
        rt, ratio = r, (1.0 + g) / (1.0 + r)
    else:
        regime = "deterministic" if doc["shocks"]["kind"] == "deterministic" else "iid"
        rt = return_law(doc, regime, theta)
        ratio = (1.0 + g) / (1.0 + rt)
    rows = [(0.0, M0, q0, math.nan, M0 * q0)]
    for t in range(1, T + 1):
        M, q = M0 * ratio**t, q0 * (1.0 + rt) ** t
        rows.append((float(t), M, q, rt, M * q))
    return rows
