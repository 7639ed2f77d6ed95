"""Agent behaviors: scripted loads, parametrized bid/offer strategies and
the UCB bandit negotiator.

Agents hold their actions locally; the environment pulls them in the
matching phase (market actions while the market iterates, grid actions after
it clears).
"""

import csv
import math
from dataclasses import dataclass

from . import curves as cv

PRODUCER = "producer"
CONSUMER = "consumer"
PROSUMER = "prosumer"

P_CAP = 100.0   # price cap used by inelastic (near-vertical) demand bids


class AgentError(Exception):
    pass


class PhaseViolation(AgentError):
    """Grid action submitted while the market is still negotiating."""


class Agent:
    """Base agent: owns its bus, role and pending actions."""

    def __init__(self, agent_id, bus, role):
        self.id = agent_id
        self.bus = bus
        self.role = role
        self.env = None            # set by the environment on attach
        self.market_action = None
        self.grid_action = None    # (bus, kW)
        self.rewards = []

    def reset(self, rng=None):
        self.market_action = None
        self.grid_action = None
        self.rewards = []

    def set_market_actions(self, observation=None):
        raise NotImplementedError

    def set_grid_actions(self, dispatch=None):
        raise NotImplementedError

    def submit_grid_action(self, bus, kw):
        if self.env is not None and self.env.phase == "market":
            raise PhaseViolation(
                f"agent {self.id}: grid action submitted mid-negotiation")
        self.grid_action = (bus, kw)

    def observe_reward(self, r):
        self.rewards.append(r)


class CurveBidder(Agent):
    """Submits a fixed parametrized curve to the clearing market and passes
    the dispatched quantity through as its grid action."""

    def __init__(self, agent_id, bus, role, curve):
        super().__init__(agent_id, bus, role)
        self.curve = curve

    def set_market_actions(self, observation=None):
        self.market_action = self.curve

    def set_grid_actions(self, dispatch=None):
        q = 0.0
        if dispatch is not None and hasattr(dispatch, "quantities"):
            q = dispatch.quantities.get(self.id, 0.0)
        sign = 1.0 if self.curve.side == cv.DEMAND else -1.0
        self.submit_grid_action(self.bus, sign * q)


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


def elastic_supplier(agent_id, bus, p_max, p_min, q_max, q_min=0.0):
    curve = cv.Curve(cv.SUPPLY, p_max=p_max, p_min=p_min,
                     q_max=q_max, q_min=q_min)
    return CurveBidder(agent_id, bus, PRODUCER, curve)


@dataclass
class BanditState:
    arms: list                       # bid prices, cents/kWh
    delta: float = 0.01              # fixed error probability
    counts: list = None
    means: list = None

    def __post_init__(self):
        if not self.arms:
            raise AgentError("at least one arm required")
        if not 0 < self.delta < 1:
            raise AgentError("delta must be in (0, 1)")
        if self.counts is None:
            self.counts = [0] * len(self.arms)
        if self.means is None:
            self.means = [0.0] * len(self.arms)


def ucb_index(state, i, t=None):
    """Upper confidence index of arm i: infinite while unsampled, otherwise
    empirical mean plus the sqrt(2 log(1/delta) / count) bonus."""
    n = state.counts[i]
    if n == 0:
        return math.inf
    return state.means[i] + math.sqrt(2.0 * math.log(1.0 / state.delta) / n)


def ucb_select(state):
    """Argmax of the indices; ties break to the lowest arm index."""
    best, best_val = 0, -math.inf
    for i in range(len(state.arms)):
        v = ucb_index(state, i)
        if v > best_val:
            best, best_val = i, v
    return best


def ucb_update(state, i, reward):
    """Incremental empirical-mean update after observing `reward` on arm i."""
    state.counts[i] += 1
    n = state.counts[i]
    state.means[i] += (reward - state.means[i]) / n


class UcbNegotiator(Agent):
    """P2P participant bidding from a finite price grid via UCB."""

    def __init__(self, agent_id, bus, role, arms, delta=0.01,
                 availability=None):
        super().__init__(agent_id, bus, role)
        self._arms = list(arms)
        self._delta = delta
        self.availability = availability   # per-grid-step PV booleans, or None
        self.bandit = BanditState(arms=self._arms, delta=delta)
        self._last_arm = None

    def reset(self, rng=None):
        super().reset(rng)
        self.bandit = BanditState(arms=self._arms, delta=self._delta)
        self._last_arm = None

    def current_role(self, t):
        """Prosumers without generation this step act as consumers."""
        if self.role != PROSUMER or self.availability is None:
            return self.role
        return PRODUCER if self.availability[t % len(self.availability)] else CONSUMER

    def set_market_actions(self, observation=None):
        self._last_arm = ucb_select(self.bandit)
        self.market_action = self.bandit.arms[self._last_arm]

    def observe_reward(self, r):
        super().observe_reward(r)
        if self._last_arm is not None:
            ucb_update(self.bandit, self._last_arm, r)

    def set_grid_actions(self, dispatch=None):
        kw = 0.0
        if dispatch is not None and hasattr(dispatch, "grid_kw"):
            kw = dispatch.grid_kw.get(self.id, 0.0)
        self.submit_grid_action(self.bus, kw)


class ScriptedAgent(Agent):
    """Exogenous load/generation driven by a scenario CSV (column `kw`,
    one row per grid step, cycled)."""

    def __init__(self, agent_id, bus, csv_path):
        super().__init__(agent_id, bus, CONSUMER)
        with open(csv_path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        if not rows or "kw" not in rows[0]:
            raise AgentError(f"{csv_path}: need a `kw` column")
        self.profile = [float(r["kw"]) for r in rows]

    def set_market_actions(self, observation=None):
        self.market_action = None   # exogenous: no market participation

    def set_grid_actions(self, dispatch=None):
        t = 0 if self.env is None else max(self.env.grid.state.t + 1, 0)
        self.submit_grid_action(self.bus, self.profile[t % len(self.profile)])


def parse_roster(text, base_dir="."):
    """Parse `agent <id> <bus> <role> <strategy> [params...]` lines.

    Strategies: inelastic <kw>; elastic <p_max> <p_min> <q_max> [q_min];
    flat_supply <price> <capacity>; supply <p_max> <p_min> <q_max> [q_min];
    ucb <arm1> <arm2> ... ; scripted:<csvfile>.
    """
    import os

    from .network import CaseFileError, _bus_id, content_lines

    agents = []
    for ln, stripped in content_lines(text.splitlines()):
        tok = stripped.split()
        if tok[0] != "agent" or len(tok) < 5:
            raise CaseFileError(
                f"line {ln}: expected `agent <id> <bus> <role> <strategy> ...`")
        aid, bus, role, strat = tok[1], _bus_id(tok[2]), tok[3], tok[4]
        params = tok[5:]
        try:
            if strat == "inelastic":
                agents.append(inelastic_consumer(aid, bus, float(params[0])))
            elif strat == "elastic":
                q_min = float(params[3]) if len(params) > 3 else 0.0
                agents.append(elastic_consumer(
                    aid, bus, float(params[0]), float(params[1]),
                    float(params[2]), q_min))
            elif strat == "flat_supply":
                agents.append(flat_supplier(aid, bus, float(params[0]),
                                            float(params[1])))
            elif strat == "supply":
                q_min = float(params[3]) if len(params) > 3 else 0.0
                agents.append(elastic_supplier(
                    aid, bus, float(params[0]), float(params[1]),
                    float(params[2]), q_min))
            elif strat == "ucb":
                agents.append(UcbNegotiator(aid, bus, role,
                                            [float(p) for p in params]))
            elif strat.startswith("scripted:"):
                path = os.path.join(base_dir, strat.split(":", 1)[1])
                agents.append(ScriptedAgent(aid, bus, path))
            else:
                raise CaseFileError(f"line {ln}: unknown strategy {strat!r}")
        except (ValueError, IndexError):
            raise CaseFileError(f"line {ln}: bad strategy parameters") from None
        agents[-1].role = role
    return agents
