"""Episode driver: two-timescale loop tying grid, market and agents.

The environment is the hub: every attached object holds a reference to it
and reaches the others through it. One episode runs an outer loop of grid
steps; inside each, the market is reset and iterated for a number of market
steps (agents submit market actions, the market dispatches), then the market
clears, agents submit grid actions and the grid state advances. Market
mechanism state is reset every grid step; agent memory (e.g. bandit
statistics) persists across the episode.

Each piece of episode work is done once. The clearing market reuses its last
`Dispatch` while the submitted curves do not change, and the DLMP market
solves its fixed SCOPF on the first step only; both memos last until the
market's `reset()`, and each keeps the log records of its result, built
once, so a step that reuses the result logs those same records. The P2P
market sorts a round's pairs for its log once, when it matches them, and
the UCB agents keep one index per arm, refreshed only when that arm is
updated. The episode log opens its file once per `run_episode` and encodes
every record with one JSON encoder.
"""

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import curves as cv
from . import p2p as p2p_mod
from .agents import CONSUMER, PRODUCER, UcbNegotiator
from .clearing import MarketInput, clear
from .dlmp import solve_dlmp
from .p2p import negotiate, settle_deficiency

PHASES = ("post_market_step", "post_clear", "post_grid_step")
# json.dumps(record, sort_keys=True) without building an encoder per record
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode


class EnvError(Exception):
    pass


@dataclass
class EpisodeLog:
    """Episode records in memory and, while `writing()` holds it open, in
    the file at `sink_path`: each record is written and flushed as it is
    added, so a crashed run keeps its prefix."""

    records: list = field(default_factory=list)
    sink_path: str = None
    _sink: object = field(default=None, init=False, repr=False, compare=False)

    @contextmanager
    def writing(self):
        """Hold the sink open for one episode; close it however that ends."""
        if not self.sink_path:
            yield
            return
        self._sink = open(self.sink_path, "a", encoding="utf-8")
        try:
            yield
        finally:
            self._sink.close()
            self._sink = None

    def add(self, record):
        self.records.append(record)
        if self._sink is not None:
            self._sink.write(_encode(record) + "\n")
            self._sink.flush()

    def by_phase(self, phase):
        return [r for r in self.records if r["phase"] == phase]


class MarketBase:
    """Market mechanism interface: reset once per episode, reset_round once
    per grid step, step once per market step, finalize at clearing."""

    env = None

    def reset(self):
        pass

    def reset_round(self, t_grid):
        pass

    def step(self, t_market):
        raise NotImplementedError

    def finalize(self):
        """Called when the market clears; returns the clearing result."""
        return None

    def extra_grid_actions(self):
        """Grid actions contributed by the market itself (not by agents)."""
        return {}

    def default_market_steps(self):
        return 1

    def step_record(self, result):
        """Fields the market adds to the `market_step` log record of a step
        that returned `result`."""
        return {}

    def clear_record(self, result):
        """Fields the market adds to the `clear` log record of the clearing
        result `result`."""
        return {"cleared": result is not None}


class ClearingMarket(MarketBase):
    """Use Case 1 mechanism: affine-curve surplus clearing each market step;
    the last step's dispatch binds.

    A step whose bids and offers equal the last cleared ones returns that
    clear's `Dispatch` again, and logs the records built from it once;
    `reset()` forgets both, so the memo lasts one episode. The same
    `Dispatch` and records are shared by those steps: treat them as
    read-only."""

    def __init__(self, network, segments=100):
        self.network = network
        self.segments = segments
        self.reset()

    def reset(self):
        self.dispatch = None
        # (submitted bids and offers, their Dispatch, its log records)
        self._last = (None, None, None)

    def reset_round(self, t_grid):
        self.dispatch = None

    def step(self, t_market):
        bids, offers = [], []
        for a in self.env.agents:
            curve = a.market_action
            if not isinstance(curve, cv.Curve):
                continue
            if curve.side == cv.DEMAND:
                bids.append((a.id, a.bus, curve))
            else:
                offers.append((a.id, a.bus, curve))
        if not bids or not offers:
            self.dispatch = None
            return None
        key = (tuple(bids), tuple(offers))
        if key != self._last[0]:
            dispatch = clear(
                MarketInput(bids=bids, offers=offers, network=self.network),
                segments=self.segments)
            self._last = (key, dispatch, dispatch.to_records())
        self.dispatch = self._last[1]
        return self.dispatch

    def finalize(self):
        if self.dispatch is None:
            return None
        for a in self.env.agents:
            curve = getattr(a, "curve", None)
            if curve is None or a.id not in self.dispatch.quantities:
                continue
            q = self.dispatch.quantities[a.id]
            p = self.dispatch.prices.get(a.id, 0.0)
            # truthful private valuation: the submitted curve's integral
            if curve.side == cv.DEMAND:
                r = cv.integral(curve, q) - p * q
            else:
                r = p * q - cv.integral(curve, q)
            a.observe_reward(r)
        return self.dispatch

    def step_record(self, dispatch):
        if dispatch is None:
            return {}
        _, memo, records = self._last
        return {"dispatch": records if dispatch is memo
                else dispatch.to_records()}

    def clear_record(self, dispatch):
        return {**super().clear_record(dispatch), **self.step_record(dispatch)}


@dataclass
class P2pRoundResult:
    outcomes: dict           # (producer, consumer) -> NegotiationOutcome
    grid_kw: dict            # agent -> signed kW for the grid step
    deficiency: dict         # consumer -> retail charge
    unmatched: list


class P2pMarket(MarketBase):
    """Use Case 2 mechanism: random matching then T bandit negotiation steps;
    the final step's outcome binds physically."""

    def __init__(self, config):
        self.config = config
        self.reset()

    def reset(self):
        self.round = None
        self._order = []        # the round's pairs, sorted for the log
        self.outcomes = {}
        self.result = None
        self._t_grid = None

    def _split_roles(self, t_grid):
        producers, consumers = [], []
        for a in self.env.agents:
            if not isinstance(a, UcbNegotiator):
                continue
            role = a.current_role(t_grid)
            (producers if role == PRODUCER else consumers).append(a.id)
        return producers, consumers

    def reset_round(self, t_grid):
        self._t_grid = t_grid
        producers, consumers = self._split_roles(t_grid)
        self.round = p2p_mod.match(producers, consumers, self.env.rng)
        self._order = sorted(self.round.pairs, key=str)
        self.outcomes = {}
        self.result = None

    def step(self, t_market):
        agents = self.env.agent_map
        for producer, consumer in self.round.pairs:
            out = negotiate(agents[producer].market_action,
                            agents[consumer].market_action, self.config)
            self.outcomes[(producer, consumer)] = out
            agents[producer].observe_reward(out.r_p)
            agents[consumer].observe_reward(out.r_c)
        return self.outcomes

    def finalize(self):
        q = self.config.trade_quantity
        agents = self.env.agent_map
        grid_kw, deficiency = {}, {}
        for (producer, consumer), out in self.outcomes.items():
            delivered = q if out.success else 0.0
            grid_kw[producer] = -delivered
            grid_kw[consumer] = q    # deficiency is drawn from the feeder
            charge = settle_deficiency(delivered, q, self.config.retail_price)
            if charge:
                deficiency[consumer] = charge
        for aid in self.round.unmatched:
            if agents[aid].current_role(self._t_grid) == CONSUMER:
                grid_kw[aid] = q
                deficiency[aid] = settle_deficiency(
                    0.0, q, self.config.retail_price)
        self.result = P2pRoundResult(outcomes=dict(self.outcomes),
                                     grid_kw=grid_kw, deficiency=deficiency,
                                     unmatched=list(self.round.unmatched))
        return self.result

    def default_market_steps(self):
        return self.config.T

    def step_record(self, outcomes):
        negotiations = []
        for p, c in self._order:
            o = outcomes[p, c]
            negotiations.append(
                {"producer": p, "consumer": c, "b_p": o.b_p, "b_c": o.b_c,
                 "success": o.success, "r_p": round(o.r_p, 9),
                 "r_c": round(o.r_c, 9)})
        return {"negotiations": negotiations}

    def clear_record(self, result):
        return {
            **super().clear_record(result),
            "deficiency": {str(k): round(v, 9) for k, v in sorted(
                result.deficiency.items(), key=lambda kv: str(kv[0]))},
            "successes": sum(1 for o in result.outcomes.values() if o.success),
        }


class DlmpMarket(MarketBase):
    """Use Case 3 mechanism: single-shot SCOPF solve; DLMP-based rewards.

    The SCOPF input is fixed, so the first step of an episode solves it and
    builds its `{"dlmp": ...}` log field; later steps return that same
    `DlmpResult` and log that same field (treat both as read-only).
    `reset()` drops them."""

    def __init__(self, scopf_input):
        self.scopf_input = scopf_input
        self.reset()

    def reset(self):
        self.result = None
        self._record = None     # the result's log field

    def step(self, t_market):
        if self.result is None:
            self.result = solve_dlmp(self.scopf_input)
            self._record = _dlmp_record(self.result)
        return self.result

    def finalize(self):
        return self.result

    def extra_grid_actions(self):
        if self.result is None:
            return {}
        actions = {}
        root = self.scopf_input.network.root
        for bus, (p_g, p_d) in self.result.dispatch.items():
            if bus == root:
                continue
            net_kw = p_d - p_g
            if net_kw != 0.0:
                actions[f"dso@{bus}"] = (bus, net_kw)
        return actions

    def step_record(self, result):
        return self._record if result is self.result else _dlmp_record(result)

    def clear_record(self, result):
        return {**super().clear_record(result), **self.step_record(result),
                "objective": round(result.objective, 9)}


def _dlmp_record(result):
    """The `{"dlmp": ...}` log field of a SCOPF result."""
    return {"dlmp": {str(b): round(v, 9) for b, v in result.dlmp.items()}}


class Environment:
    """Hub object: every grid/market/agent reaches the others through it."""

    def __init__(self, grid, market, agents, seed=0):
        self.grid = grid
        self.market = market
        self.agents = list(agents)
        self.agent_map = {a.id: a for a in self.agents}
        if len(self.agent_map) != len(self.agents):
            raise EnvError("duplicate agent ids")
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.phase = "idle"
        self.clock = (-1, -1)       # (grid_step, market_step)
        self.callbacks = {p: [] for p in PHASES}
        self.log = EpisodeLog()
        market.env = self
        for a in self.agents:
            a.env = self

    def register_callback(self, phase, sink):
        if phase not in PHASES:
            raise EnvError(f"unknown phase {phase!r}; one of {PHASES}")
        self.callbacks[phase].append(sink)

    def _fire(self, phase):
        for sink in self.callbacks[phase]:
            sink(self)

    def reset(self, log_path=None):
        self.rng = np.random.default_rng(self.seed)
        self.grid.reset()
        self.market.reset()
        for a in self.agents:
            a.reset()
        self.phase = "idle"
        self.clock = (-1, -1)
        self.log = EpisodeLog(sink_path=log_path)
        if log_path:
            open(log_path, "w", encoding="utf-8").close()
        return self

    def run_episode(self, grid_steps, market_steps_per_grid=None):
        """Algorithm: outer grid loop, nested market loop, clear, grid step."""
        steps = (market_steps_per_grid if market_steps_per_grid is not None
                 else self.market.default_market_steps())
        if grid_steps < 1 or steps < 1:
            raise EnvError("need grid_steps >= 1 and market steps >= 1")
        with self.log.writing():
            for t_grid in range(grid_steps):
                self.phase = "market"
                self.market.reset_round(t_grid)
                for t_market in range(steps):
                    self.clock = (t_grid, t_market)
                    for a in self.agents:
                        a.set_market_actions()
                    result = self.market.step(t_market)
                    self.log.add({"phase": "market_step", "t_grid": t_grid,
                                  "t_market": t_market,
                                  **self.market.step_record(result)})
                    self._fire("post_market_step")
                cleared = self.market.finalize()
                self.log.add({"phase": "clear", "t_grid": t_grid,
                              **self.market.clear_record(cleared)})
                self._fire("post_clear")

                self.phase = "grid"
                actions = dict(self.market.extra_grid_actions())
                for a in self.agents:
                    a.grid_action = None
                    a.set_grid_actions(cleared)
                    if a.grid_action is not None:
                        actions[a.id] = a.grid_action
                state = self.grid.step(actions)
                self.log.add({
                    "phase": "grid_step", "t_grid": t_grid,
                    "feasible": state.feasible,
                    "flows": {str(k): round(v, 9) for k, v in sorted(
                        state.flows.items(), key=lambda kv: str(kv[0]))},
                })
                self._fire("post_grid_step")
                self.phase = "idle"
        return self.log

    def summary_rows(self):
        """Per-grid-step summary rows for the episode CSV."""
        return [{"t_grid": rec["t_grid"], "feasible": rec["feasible"],
                 "max_abs_flow": max((abs(v) for v in rec["flows"].values()),
                                     default=0.0)}
                for rec in self.log.by_phase("grid_step")]
