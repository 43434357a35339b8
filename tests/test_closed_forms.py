"""The closed-form regimes' laws, wedges and frontiers, derived symbolically.

Each taxed row of REGIMES binds a return law rT(theta, r, gamma, rho) and a
wedge u'(a) / p of its trading state. Both follow from three equations of
the model, per unit mass of a type that trades a share of the time:

* the binding budget: the whole balance is spent when trading,
  m (1 + rT) = (1 + theta) p a;
* the burn identity: balances grow at gamma and the burn funds the rest of
  the return, (rT - gamma) m = theta p share a, where share is the fraction
  of holders trading (rho under iid shocks, 1 otherwise);
* the holdings FOC: sum_s pi_s (1 + rT_s) max(1, u'(a_s) / ((1 + theta) p)) = 1 + r,
  the trading state binding and every other state adding its wealth alone.

The frontier theta-bar is the tax at which E[rT] reaches r. The derivations
are compared with the code's lambdas and with the independent model's
frontier_theta at random points.
"""

import random
import sys

import pytest
import sympy as sp

from tokenomics import econ_core as ec
from tokenomics import equilibrium as eqm

from helpers import CONFIG_DIR, single_user_config

sys.path.insert(0, str(CONFIG_DIR.parent / "perfbench"))
import model  # noqa: E402

theta, r, gamma, rho, m, pa, rt, wedge = sp.symbols("theta r gamma rho m pa rT w")

#: per taxed closed-form row: the share of holders trading, the probability
#: of the trading state, and the other state's return (iid: idle holders
#: earn the same rT; common: the shut state returns 0; deterministic: there
#: is no other state)
ROWS = {
    "deterministic": (1, 1, 0),
    "iid": (rho, rho, rt),
    "common": (1, rho, 0),
}


def derive(regime: str) -> tuple[sp.Expr, sp.Expr, sp.Expr]:
    """(law, wedge, frontier) of a taxed closed-form row."""
    share, pi, other = ROWS[regime]
    budget = sp.Eq(m * (1 + rt), (1 + theta) * pa)
    burn = sp.Eq((rt - gamma) * m, theta * share * pa)
    (solution,) = sp.solve([budget, burn], [rt, pa], dict=True)
    law = sp.simplify(solution[rt])
    foc = sp.Eq(pi * (1 + rt) * wedge / (1 + theta) + (1 - pi) * (1 + other), 1 + r)
    (w,) = sp.solve(foc.subs(rt, law), wedge)
    expected = (pi * rt + (1 - pi) * other).subs(rt, law)
    (frontier,) = sp.solve(sp.Eq(expected, r), theta)
    return law, sp.simplify(w), sp.simplify(frontier)


DERIVED = {regime: derive(regime) for regime in ROWS}


def points(count: int):
    rng = random.Random(18)
    for _ in range(count):
        yield (rng.uniform(0.0, 1.0), rng.uniform(0.01, 0.1), rng.uniform(-0.03, 0.03),
               rng.uniform(0.05, 1.0))


def close(x: float, y: float) -> bool:
    return abs(x - y) <= 1e-12 * max(1.0, abs(y))


@pytest.mark.parametrize("regime", sorted(ROWS))
def test_law_and_wedge_match_the_derivation(regime):
    law, w, _ = DERIVED[regime]
    code_law, code_wedge, _ = eqm.REGIMES[regime].solve.args
    f_law = sp.lambdify((theta, r, gamma, rho), law)
    f_wedge = sp.lambdify((theta, r, gamma, rho), w)
    for args in points(200):
        assert close(code_law(*args), f_law(*args)), (regime, args)
        assert close(code_wedge(*args), f_wedge(*args)), (regime, args)


def test_friedman_row_is_the_untaxed_foc_at_rt_equal_r():
    # the supply rule sets rT = r with no burn; the FOC then gives wedge 1
    code_law, code_wedge, _ = eqm.REGIMES["friedman"].solve.args
    (w,) = sp.solve(sp.Eq((1 + r) * wedge, 1 + r), wedge)
    for args in points(20):
        assert code_law(*args) == args[1]
        assert code_wedge(*args) == float(w) == 1.0


@pytest.mark.parametrize("regime", sorted(ROWS))
def test_frontier_matches_the_model(regime):
    _, _, frontier = DERIVED[regime]
    f_frontier = sp.lambdify((r, gamma, rho), frontier)
    code_law, _, _ = eqm.REGIMES[regime].solve.args
    kind = {"deterministic": ec.ShockKind.DETERMINISTIC, "iid": ec.ShockKind.IID_BINARY,
            "common": ec.ShockKind.COMMON_BINARY}[regime]
    checked = 0
    for _, r_, g_, rho_ in points(200):
        bar = f_frontier(r_, g_, rho_ if kind is not ec.ShockKind.DETERMINISTIC else 1.0)
        doc = ec.config_to_dict(single_user_config(kind, r=r_, gamma=g_, rho=rho_))
        reference = model.frontier_theta(doc, regime)
        if regime == "iid" and bar <= 0.0 and r_ > g_:
            # no finite frontier: E[rT] stays below r at every tax
            assert reference == float("inf")
            continue
        assert close(bar, reference), (regime, r_, g_, rho_)
        # the code's law puts E[rT] at r there (common: in the trading state,
        # which occurs with probability rho)
        pi = rho_ if regime == "common" else 1.0
        assert close(pi * code_law(bar, r_, g_, rho_), r_)
        checked += 1
    assert checked > 100
