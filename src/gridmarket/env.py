"""Episode driver: two-timescale loop tying grid, market and agents.

One episode runs an outer loop of grid steps; inside each, the market is
reset and iterated for a number of market steps (each agent returns its
market action and the market steps on them all), then the market clears,
each agent returns its grid action for the cleared result and the grid state
advances. Market mechanism state is reset every grid step; agent memory
(e.g. bandit statistics) persists across the episode. The market reaches the
agents and the seeded `rng` through its `env`.

A market step returns the fields of its `market_step` log record, and
`finalize` returns the clearing result, the fields of its `clear` record and
the market's own grid actions. Each piece of episode work is done once, and
its log text is encoded with it (`Encoded`): the clearing market reuses its
last `Dispatch` while the submitted curves do not change, the DLMP market
solves its fixed SCOPF once per episode, and the P2P market negotiates a
pair at a pair of prices once per round. The episode log keeps the lines it
wrote, each in one unbuffered write as it is added; `records` decodes them.
UCB agents refresh only the updated arm's index.
"""

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import curves as cv
from . import p2p as p2p_mod
from .agents import PRODUCER
from .clearing import MarketInput, clear
from .dlmp import solve_dlmp
from .network import str_clash
from .p2p import P2pRoundResult, negotiate, settle_deficiency

PHASES = ("post_market_step", "post_clear", "post_grid_step")
# json.dumps(value, sort_keys=True, allow_nan=False) without building an
# encoder per value: a non-finite number raises ValueError, not bad JSON
_encode = json.JSONEncoder(sort_keys=True, check_circular=False,
                           allow_nan=False).encode


class Encoded(str):
    """JSON text of a log value, encoded once by the market that reuses it."""


def _line(record, shapes):
    """json.dumps(record, sort_keys=True, allow_nan=False) for a record with
    str keys, writing each `Encoded` value as it is. `shapes` maps a record
    shape, its keys in insertion order, to its template: the keys sorted,
    each encoded once, with a `%s` slot per value."""
    try:
        template, keys = shapes[tuple(record)]
    except KeyError:
        keys = sorted(record)
        template = "{%s}" % ", ".join(
            [_encode(k).replace("%", "%%") + ": %s" for k in keys])
        shapes[tuple(record)] = template, keys
    values = []
    for k in keys:
        v = record[k]
        values.append(v if type(v) is Encoded else _encode(v))
    return template % tuple(values)


def _overflow(where, record, e):
    """The ValueError for a log record that strict JSON cannot hold: `where`
    the record is, then its first such field in the log's order."""
    for k, v in sorted(record.items()):
        if type(v) is not Encoded:
            try:
                _encode(v)
            except ValueError:
                return ValueError(f"{where}, field {k!r}: {e}")


class EnvError(Exception):
    pass


@dataclass
class EpisodeLog:
    """Episode log lines, as `(phase, JSON line)`, and, while `writing()`
    holds it open, the file at `sink_path`: each line is on disk as soon as
    it is added, in one unbuffered write, so a crashed run keeps its prefix.
    Lines end in `\n` on every platform."""

    lines: list = field(default_factory=list)
    sink_path: str = None
    _sink: object = field(default=None, init=False, repr=False, compare=False)
    _shapes: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @contextmanager
    def writing(self):
        """Hold the sink open for one episode; close it however that ends."""
        if not self.sink_path:
            yield
            return
        self._sink = open(self.sink_path, "ab", buffering=0)
        try:
            yield
        finally:
            self._sink.close()
            self._sink = None

    def add(self, record):
        try:
            line = _line(record, self._shapes)
        except ValueError as e:
            where = f"{record['phase']} record at t_grid {record['t_grid']}"
            if "t_market" in record:
                where += f", t_market {record['t_market']}"
            raise _overflow(where, record, e) from None
        self.lines.append((record["phase"], line))
        if self._sink is not None:
            data = (line + "\n").encode()
            while data:     # a short write leaves the rest to write
                data = data[self._sink.write(data):]

    @property
    def records(self):
        return [json.loads(line) for _, line in self.lines]

    def by_phase(self, phase):
        return [json.loads(line) for p, line in self.lines if p == phase]


class MarketBase:
    """Market mechanism template: reset once per episode, reset_round once
    per grid step, step once per market step, finalize at clearing."""

    env = None

    def reset(self):
        pass

    def reset_round(self, t_grid):
        pass

    def step(self, t_market, actions):
        """One market step on the agents' actions, `{agent id: action}` in
        agent order; returns its `market_step` log record's fields."""
        raise NotImplementedError

    def finalize(self):
        """Called when the market clears; returns `(result, fields,
        actions)`: the result each agent's `grid_action` receives, the
        fields of the `clear` log record and the market's own grid actions
        as `{id: (bus, kW)}`."""
        return None, {}, {}


class ClearingMarket(MarketBase):
    """Use Case 1 mechanism: affine-curve surplus clearing each market step;
    the last step's dispatch binds.

    A step whose actions, or else whose submitted curves, equal the last
    step's reuses that step's `Dispatch` (None while a side is empty) and
    its `dispatch` log field, encoded once when it cleared; `reset()`
    forgets them, so the memo lasts one episode. The same `Dispatch` is
    shared by those steps: treat it as read-only."""

    def __init__(self, network, segments=100):
        self.network = network
        self.segments = segments
        self.reset()

    def reset(self):
        self._actions = None        # the last step's actions, as a tuple
        self._submitted = []        # their curves, as (id, bus, curve)
        self.dispatch = None
        self._fields = {}           # the dispatch's log fields

    def step(self, t_market, actions):
        key = tuple(actions.values())
        if key != self._actions:
            agents = self.env.agent_map
            self._actions = key
            submitted = [(aid, agents[aid].bus, curve)
                         for aid, curve in actions.items()
                         if isinstance(curve, cv.Curve)]
            if submitted == self._submitted:
                return self._fields
            self._submitted = submitted
            bids = [s for s in submitted if s[2].side == cv.DEMAND]
            offers = [s for s in submitted if s[2].side != cv.DEMAND]
            self.dispatch, self._fields = None, {}
            if bids and offers:
                self.dispatch = clear(MarketInput(
                    bids=bids, offers=offers, network=self.network),
                    segments=self.segments)
                self._fields = {"dispatch": Encoded(_encode(
                    self.dispatch.to_records()))}
        return self._fields

    def finalize(self):
        if self.dispatch is None:
            return None, {}, {}
        agents = self.env.agent_map
        values = self.dispatch.values
        for aid, _, curve in self._submitted:
            q = self.dispatch.quantities[aid]
            p = self.dispatch.prices.get(aid, 0.0)
            # truthful private valuation: the submitted curve's integral
            if curve.side == cv.DEMAND:
                r = values[aid] - p * q
            else:
                r = p * q - values[aid]
            agents[aid].observe_reward(r)
        return self.dispatch, self._fields, {}


class P2pMarket(MarketBase):
    """Use Case 2 mechanism: random matching, then a bandit negotiation per
    market step (the paper's T per grid step); the last one binds physically.
    Each round matches every agent whose `current_role` is not None: its
    producers against the rest, who buy; an unmatched buyer draws its trade
    quantity from the feeder at the retail price.

    `negotiate` is pure, so within a round a pair that bids the very price
    objects of an outcome again (`is` tells `-0.0` from `0.0`, `1` from
    `1.0`) reuses that outcome (treat it as read-only) and its log entry,
    encoded once. A step negotiates the pairs in the log's order (by `str`):
    an agent sits in at most one pair, so the order changes no reward."""

    def __init__(self, config):
        self.config = config
        self.reset()

    def reset(self):
        self.round = None
        self.outcomes = {}
        self.result = None
        self._t_grid = None

    def reset_round(self, t_grid):
        self._t_grid = t_grid
        producers, consumers = [], []
        for a in self.env.agents:
            role = a.current_role(t_grid)
            if role is not None:
                (producers if role == PRODUCER else consumers).append(a.id)
        self._consumers = set(consumers)
        self.round = p2p_mod.match(producers, consumers, self.env.rng)
        self.round.pairs.sort(key=str)      # the log's order
        self._memo = {}      # (pair, b_p, b_c) -> (outcome, its log entry)
        self.outcomes = {}
        self.result = None

    def step(self, t_market, actions):
        agents = self.env.agent_map
        entries = []
        for pair in self.round.pairs:
            producer, consumer = pair
            b_p, b_c = actions[producer], actions[consumer]
            out, entry = self._memo.get((pair, b_p, b_c), (None, None))
            if out is None or out.b_p is not b_p or out.b_c is not b_c:
                out = negotiate(b_p, b_c, self.config)
                record = {"producer": producer, "consumer": consumer,
                          "b_p": b_p, "b_c": b_c, "success": out.success,
                          "r_p": round(out.r_p, 9), "r_c": round(out.r_c, 9)}
                try:
                    entry = Encoded(_encode(record))
                except ValueError as e:
                    raise _overflow(
                        f"market_step record at t_grid {self._t_grid}, "
                        f"t_market {t_market}, pair ({producer}, {consumer})",
                        record, e) from None
                self._memo[pair, b_p, b_c] = out, entry
            self.outcomes[pair] = out
            entries.append(entry)
            agents[producer].observe_reward(out.r_p)
            agents[consumer].observe_reward(out.r_c)
        return {"negotiations": Encoded(f"[{', '.join(entries)}]")}

    def finalize(self):
        q = self.config.trade_quantity
        grid_kw, deficiency = {}, {}
        for (producer, consumer), out in self.outcomes.items():
            delivered = q if out.success else 0.0
            grid_kw[producer] = -delivered
            grid_kw[consumer] = q    # deficiency is drawn from the feeder
            charge = settle_deficiency(delivered, q, self.config.retail_price)
            if charge:
                deficiency[consumer] = charge
        for aid in self.round.unmatched:
            if aid in self._consumers:
                grid_kw[aid] = q
                deficiency[aid] = settle_deficiency(
                    0.0, q, self.config.retail_price)
        self.result = P2pRoundResult(outcomes=dict(self.outcomes),
                                     grid_kw=grid_kw, deficiency=deficiency,
                                     unmatched=list(self.round.unmatched))
        fields = {
            "deficiency": {str(k): round(v, 9) for k, v in deficiency.items()},
            "successes": sum(1 for o in self.outcomes.values() if o.success),
        }
        return self.result, fields, {}


class DlmpMarket(MarketBase):
    """Use Case 3 mechanism: one SCOPF solve sets the DLMPs and the DSO's
    `dso@<bus>` grid actions; agents' actions are ignored and no rewards paid.
    The SCOPF input is fixed: the first step of an episode solves it and
    encodes the result's `dlmp` log field, and later steps reuse both (treat
    the `DlmpResult` as read-only) until `reset()`."""

    def __init__(self, scopf_input):
        self.scopf_input = scopf_input
        self.reset()

    def reset(self):
        self.result = None
        self._fields = {}       # the result's log fields

    def step(self, t_market, actions):
        if self.result is None:
            self.result = solve_dlmp(self.scopf_input)
            self._fields = {"dlmp": Encoded(_encode(
                {str(b): round(v, 9) for b, v in self.result.dlmp.items()}))}
        return self._fields

    def finalize(self):
        root = self.scopf_input.network.root
        actions = {}
        for bus, (p_g, p_d) in self.result.dispatch.items():
            net_kw = p_d - p_g
            if bus != root and net_kw != 0.0:
                actions[f"dso@{bus}"] = (bus, net_kw)
        fields = {**self._fields, "objective": round(self.result.objective, 9)}
        return self.result, fields, actions


class Environment:
    """Runs episodes of a grid, a market and agents; the market reaches the
    agents and the seeded `rng` through it."""

    def __init__(self, grid, market, agents, seed=0):
        self.grid = grid
        self.market = market
        self.agents = list(agents)
        self.agent_map = {a.id: a for a in self.agents}
        if len(self.agent_map) != len(self.agents):
            raise EnvError("duplicate agent ids")
        if clash := str_clash(self.agent_map):
            raise EnvError(f"agent {clash}")
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.clock = (-1, -1)       # (grid_step, market_step)
        self.callbacks = {p: [] for p in PHASES}
        self.log = EpisodeLog()
        market.env = self

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
        self.clock = (-1, -1)
        self.log = EpisodeLog(sink_path=log_path)
        if log_path:
            open(log_path, "w", encoding="utf-8").close()
        return self

    def run_episode(self, grid_steps, market_steps_per_grid=1):
        """Algorithm: outer grid loop, nested market loop, clear, grid step."""
        if grid_steps < 1 or market_steps_per_grid < 1:
            raise EnvError("need grid_steps >= 1 and market steps >= 1")
        # the market steps' numbers as log text, encoded once as the first
        # grid step reaches them
        ticks = []
        hooks = [(a.id, a.market_action) for a in self.agents]
        with self.log.writing():
            for t_grid in range(grid_steps):
                self.market.reset_round(t_grid)
                tick = Encoded(_encode(t_grid))
                for t_market in range(market_steps_per_grid):
                    if t_grid == 0:
                        ticks.append(Encoded(_encode(t_market)))
                    self.clock = (t_grid, t_market)
                    actions = {}
                    for aid, act in hooks:
                        actions[aid] = act(t_grid, t_market)
                    fields = self.market.step(t_market, actions)
                    record = {"phase": "market_step", "t_grid": tick,
                              "t_market": ticks[t_market], **fields}
                    if len(record) != len(fields) + 3:
                        self._refuse("step", fields)
                    self.log.add(record)
                    self._fire("post_market_step")
                cleared, fields, actions = self.market.finalize()
                if "phase" in fields or "t_grid" in fields:
                    self._refuse("finalize", fields)
                self.log.add({"phase": "clear", "t_grid": t_grid,
                              "cleared": cleared is not None, **fields})
                self._fire("post_clear")

                actions = dict(actions)
                for a in self.agents:
                    action = a.grid_action(t_grid, cleared)
                    if action is not None:
                        actions[a.id] = action
                state = self.grid.step(actions)
                self.log.add({
                    "phase": "grid_step", "t_grid": t_grid,
                    "feasible": state.feasible,
                    "flows": {str(k): round(v, 9)
                              for k, v in state.flows.items()},
                })
                self._fire("post_grid_step")
        return self.log

    def _refuse(self, hook, fields):
        """Raise EnvError: a market hook's log fields hold a key the
        environment writes (not `cleared`, which a clear's may replace)."""
        key = next(k for k in ("phase", "t_grid", "t_market") if k in fields)
        raise EnvError(f"{type(self.market).__name__}.{hook} returned log "
                       f"field {key!r}, which the environment writes")

    def summary_rows(self):
        """Per-grid-step summary rows for the episode CSV."""
        return [{"t_grid": rec["t_grid"], "feasible": rec["feasible"],
                 "max_abs_flow": max((abs(v) for v in rec["flows"].values()),
                                     default=0.0)}
                for rec in self.log.by_phase("grid_step")]
