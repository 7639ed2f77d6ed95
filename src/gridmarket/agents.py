"""Agent behaviors: scripted loads, parametrized bid/offer strategies and
the UCB bandit negotiator.

An agent returns its actions from its hooks: the environment asks for its
market action at each market step and, after the market clears, for a grid
action that replaces what the market cleared for it.
"""

import csv
import math
import os
from dataclasses import dataclass

from . import curves as cv
from .network import CaseFileError, _bus_id, content_lines

PRODUCER = "producer"
CONSUMER = "consumer"

P_CAP = 100.0   # price cap used by inelastic (near-vertical) demand bids
# the roles a roster strategy takes: a curve's side fixes its role
CURVE_ROLES = {"inelastic": (CONSUMER,), "elastic": (CONSUMER,),
               "flat_supply": (PRODUCER,), "supply": (PRODUCER,)}


class AgentError(Exception):
    pass


class Agent:
    """Agent template: owns its role and its bus, which is fixed for an
    episode (the clearing market reads it only when an action changes).
    `reset()` runs once per episode; `current_role(t_grid)` returns its P2P
    side this grid step, or None (the default) for no part in P2P;
    `market_action(t_grid, t_market)` its action for one market step (None:
    no action) and `grid_action(t_grid, result)` its `(bus, kW)`, given the
    market's result, in place of what the market cleared for it (None, the
    default, takes that); `observe_reward(r)` gets its last market reward."""

    def __init__(self, agent_id, bus, role):
        self.id = agent_id
        self.bus = bus
        self.role = role

    def reset(self):
        pass

    def current_role(self, t_grid):
        return None

    def market_action(self, t_grid, t_market):
        return None

    def grid_action(self, t_grid, result):
        return None

    def observe_reward(self, r):
        pass


class CurveBidder(Agent):
    """Submits a fixed parametrized curve to the clearing market."""

    def __init__(self, agent_id, bus, role, curve):
        super().__init__(agent_id, bus, role)
        self.curve = curve

    def market_action(self, t_grid, t_market):
        return self.curve


def inelastic_consumer(agent_id, bus, demand_kw, cap=P_CAP):
    """Near-vertical demand bid: quantity range of 1% of demand below the
    price cap."""
    curve = cv.Curve(cv.DEMAND, p_max=cap, p_min=cap * 0.999,
                     q_max=demand_kw, q_min=demand_kw * 0.99)
    return CurveBidder(agent_id, bus, CONSUMER, curve)


def elastic_consumer(agent_id, bus, p_max, p_min, q_max, q_min=0.0):
    curve = cv.Curve(cv.DEMAND, p_max=p_max, p_min=p_min,
                     q_max=q_max, q_min=q_min)
    return CurveBidder(agent_id, bus, CONSUMER, curve)


def flat_supplier(agent_id, bus, price, capacity):
    """Horizontal supply curve: fixed price for all quantities (the feeder)."""
    curve = cv.Curve(cv.SUPPLY, p_max=price, p_min=price,
                     q_max=capacity, q_min=0.0)
    return CurveBidder(agent_id, bus, PRODUCER, curve)


@dataclass
class BanditState:
    """A UCB bandit over a finite price grid. `counts` and `means` change
    only through `ucb_update`, which also refreshes that arm's entry of
    `index`, the per-arm UCB indices `ucb_select` takes the argmax of."""

    arms: list                       # bid prices, cents/kWh
    delta: float = 0.01              # fixed error probability
    counts: list = None
    means: list = None

    def __post_init__(self):
        if not self.arms:
            raise AgentError("at least one arm required")
        if not all(map(math.isfinite, self.arms)):
            raise AgentError("arm prices must be finite")
        if not 0 < self.delta < 1:
            raise AgentError("delta must be in (0, 1)")
        self.bonus_c = 2.0 * math.log(1.0 / self.delta)   # bonus numerator
        if self.counts is None:
            self.counts = [0] * len(self.arms)
        if self.means is None:
            self.means = [0.0] * len(self.arms)
        if not len(self.counts) == len(self.means) == len(self.arms):
            raise AgentError("need one count and one mean per arm")
        self.index = [ucb_index(self, i) for i in range(len(self.arms))]


def ucb_index(state, i):
    """Upper confidence index of arm i: infinite while unsampled, otherwise
    empirical mean plus the sqrt(2 log(1/delta) / count) bonus. A mean that
    overflowed to nan ranks the arm last, below every number."""
    n = state.counts[i]
    if n == 0:
        return math.inf
    v = state.means[i] + math.sqrt(state.bonus_c / n)
    return v if v == v else -math.inf


def ucb_select(state):
    """Argmax of the kept indices; ties break to the lowest arm index."""
    index = state.index
    return index.index(max(index))


def ucb_update(state, i, reward):
    """Incremental empirical-mean update after observing `reward` on arm i."""
    state.counts[i] += 1
    n = state.counts[i]
    state.means[i] += (reward - state.means[i]) / n
    state.index[i] = ucb_index(state, i)


class UcbNegotiator(Agent):
    """P2P participant bidding from a finite price grid via UCB, on its
    role's side every grid step."""

    def __init__(self, agent_id, bus, role, arms):
        super().__init__(agent_id, bus, role)
        self._arms = list(arms)
        self.reset()

    def reset(self):
        self.bandit = BanditState(arms=self._arms)
        self._last_arm = None

    def current_role(self, t_grid):
        return self.role

    def market_action(self, t_grid, t_market):
        self._last_arm = ucb_select(self.bandit)
        return self.bandit.arms[self._last_arm]

    def observe_reward(self, r):
        if self._last_arm is not None:
            ucb_update(self.bandit, self._last_arm, r)


class ScriptedAgent(Agent):
    """Exogenous load/generation driven by a scenario CSV (column `kw`,
    one row per grid step, cycled)."""

    def __init__(self, agent_id, bus, csv_path, role=CONSUMER):
        super().__init__(agent_id, bus, role)
        with open(csv_path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        if not rows or "kw" not in rows[0]:
            raise AgentError(f"{csv_path}: need a `kw` column")
        self.profile = [float(r["kw"]) for r in rows]
        if not all(map(math.isfinite, self.profile)):
            raise AgentError(f"{csv_path}: `kw` must be finite")

    def grid_action(self, t_grid, result):
        return self.bus, self.profile[t_grid % len(self.profile)]


def parse_roster(text, base_dir="."):
    """Parse `agent <id> <bus> <role> <strategy> [params...]` lines.

    Strategies: inelastic <kw>; elastic <p_max> <p_min> <q_max> [q_min];
    flat_supply <price> <capacity>; supply <p_max> <p_min> <q_max> [q_min];
    ucb <arm1> <arm2> ... ; scripted:<csvfile>. A curve strategy takes the
    role of its side, the others `producer` or `consumer`.
    """
    agents = []
    for ln, stripped in content_lines(text.splitlines()):
        tok = stripped.split()
        if tok[0] != "agent" or len(tok) < 5:
            raise CaseFileError(
                f"line {ln}: expected `agent <id> <bus> <role> <strategy> ...`")
        aid, bus, role, strat = tok[1], _bus_id(tok[2]), tok[3], tok[4]
        params = tok[5:]
        roles = CURVE_ROLES.get(strat, (PRODUCER, CONSUMER))
        if role not in roles:
            raise CaseFileError(f"line {ln}: strategy {strat} takes role "
                                f"{' or '.join(roles)}; got {role!r}")
        try:
            if strat == "inelastic":
                agents.append(inelastic_consumer(aid, bus, float(params[0])))
            elif strat in ("elastic", "supply"):
                side = cv.DEMAND if strat == "elastic" else cv.SUPPLY
                p_max, p_min, q_max, *q_min = map(float, params[:4])
                agents.append(CurveBidder(aid, bus, role, cv.Curve(
                    side, p_max, p_min, q_max, *q_min or [0.0])))
            elif strat == "flat_supply":
                agents.append(flat_supplier(aid, bus, float(params[0]),
                                            float(params[1])))
            elif strat == "ucb":
                agents.append(UcbNegotiator(aid, bus, role,
                                            [float(p) for p in params]))
            elif strat.startswith("scripted:"):
                path = os.path.join(base_dir, strat.split(":", 1)[1])
                agents.append(ScriptedAgent(aid, bus, path, role))
            else:
                raise CaseFileError(f"line {ln}: unknown strategy {strat!r}")
        except (ValueError, IndexError):
            raise CaseFileError(f"line {ln}: bad strategy parameters") from None
        except (cv.CurveError, AgentError, OSError) as e:
            raise CaseFileError(f"line {ln}: {e}") from None
    return agents
