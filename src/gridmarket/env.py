"""Episode driver: two-timescale loop tying grid, market and agents.

`Environment.episode` is the loop, a generator: an outer loop of grid steps;
in each, the market is reset and iterated for a number of market steps (each
agent returns its market action and the market steps on them all), then the
market clears and puts what it cleared on the grid, where an agent's own
grid action replaces the market's for it. Market state is reset every grid
step; agent memory (e.g. bandit statistics) persists across the episode.
The market reaches the agents and the seeded `rng` through its `env`.

A market step returns the fields of its `market_step` log record, and
`finalize` returns the clearing result, the fields of its `clear` record and
the grid actions of what it cleared. Each piece of episode work is done
once, its log text encoded with it (`Encoded`), and reused by one rule:
for the very same objects only (`_identical`; `is` tells `-0.0` from `0.0`
and `1` from `1.0`), so an episode logs what a loop with no cache would.
The clearing market reuses its `Dispatch` for the last step's very actions,
or else curves; the P2P market a pair's outcome for its very bids, within
a round; a grid step the log text of the very flows of the last; and a
market step returning the very fields dict, keys and `Encoded` values of
the step before it in its grid step, that line's bytes around its own
`t_market`. Two caches keep their own rule: `Grid.step` reuses a state for
equal kW of one type, which adding to +0.0 cannot tell apart, and the DLMP
market solves its fixed SCOPF once per episode. A log's file, or else its
byte buffer, is its only copy of a record.
"""

import io
import json
import weakref
from contextlib import contextmanager
from operator import is_
from pathlib import Path

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


# the log text of the `cleared` and `feasible` flags, and of each phase
_BOOLS = {True: Encoded("true"), False: Encoded("false")}
_MARKET_STEP, _CLEAR, _GRID_STEP = (
    Encoded(_encode(p)) for p in ("market_step", "clear", "grid_step"))


def _parts(record, shapes):
    """The line of json.dumps(record, sort_keys=True, allow_nan=False), for
    a record with str keys, writing each `Encoded` value as it is, in parts:
    each key's piece (`{` or `, `, the key encoded, `: `), then its value's
    text, and last `}` and the line's end. `shapes` maps a record shape, its
    keys in insertion order, to its keys sorted and their pieces, encoded
    once."""
    try:
        keys, pieces = shapes[tuple(record)]
    except KeyError:
        keys = sorted(record)
        pieces = [("{" if i == 0 else ", ") + _encode(k) + ": "
                  for i, k in enumerate(keys)] + ["}\n" if keys else "{}\n"]
        shapes[tuple(record)] = keys, pieces
    parts = []
    for k, piece in zip(keys, pieces):
        v = record[k]
        parts.append(piece)
        parts.append(v if type(v) is Encoded else _encode(v))
    parts.append(pieces[-1])
    return parts


def _identical(seen, last):
    """Whether `seen` holds the very objects of `last` (None: nothing yet),
    in order; `is` tells -0.0 from 0.0."""
    return (last is not None and len(seen) == len(last)
            and all(map(is_, seen, last)))


def _overflow(where, record, e):
    """The ValueError for a log record that strict JSON cannot hold: `where`
    the record is, then its first such field in the log's order."""
    for k, v in sorted(record.items()):
        if type(v) is not Encoded:
            try:
                _encode(v)
            except ValueError:
                return ValueError(f"{where}, field {k!r}: {e}")


def _encode_flows(flows, t_grid):
    """A grid step's `flows` log field, rounded to 9 decimals and encoded
    once, and the largest rounded magnitude, for its summary row."""
    rounded = {str(k): round(v, 9) for k, v in flows.items()}
    try:
        text = Encoded(_encode(rounded))
    except ValueError as e:
        raise _overflow(f"grid_step record at t_grid {t_grid}",
                        {"flows": rounded}, e) from None
    return text, max(map(abs, rounded.values()), default=0.0)


class EnvError(Exception):
    pass


class EpisodeLog:
    """An episode's JSON lines, each written once as it is added, in one
    unbuffered write: to the file at `sink_path`, held open by `writing()`,
    so a crashed run keeps its prefix, or else to an in-memory buffer, the
    log's only store. `\n` ends each line on every platform."""

    def __init__(self, sink_path=None):
        self.sink_path = sink_path
        self._sink = None if sink_path else io.BytesIO()
        self._shapes = {}

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

    def add(self, record, hole=None):
        """Write `record` as one line. Given `hole`, one of its keys, return
        the line's bytes before and after that key's value: joined around
        another value's text, they are the line of the record holding it."""
        try:
            parts = _parts(record, self._shapes)
        except ValueError as e:
            where = (record["phase"].strip('"')
                     + f" record at t_grid {record['t_grid']}")
            if "t_market" in record:
                where += f", t_market {record['t_market']}"
            raise _overflow(where, record, e) from None
        if hole is None:
            self.write("".join(parts).encode())
            return None
        i = 2 * self._shapes[tuple(record)][0].index(hole) + 1
        head = "".join(parts[:i]).encode()
        tail = "".join(parts[i + 1:]).encode()
        self.write(head + parts[i].encode() + tail)
        return head, tail

    def write(self, data):
        """Write the bytes of one whole line, `data`, to the sink."""
        while data:     # a short write leaves the rest to write
            data = data[self._sink.write(data):]

    @property
    def records(self):
        data = (Path(self.sink_path).read_bytes() if self.sink_path
                else self._sink.getvalue())
        return [json.loads(line) for line in data.splitlines()]

    def by_phase(self, phase):
        return [r for r in self.records if r["phase"] == phase]


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
        fields of the `clear` log record and the grid actions of what it
        cleared, `{id: (bus, kW)}`, which an agent's own grid action
        replaces."""
        return None, {}, {}


class ClearingMarket(MarketBase):
    """Use Case 1 mechanism: affine-curve surplus clearing each market step;
    the last step's dispatch binds.

    A step whose actions (by `_identical`'s test, inline on this hot path),
    or else whose curves, are the very objects of the last step's reuses its
    `Dispatch` (None while a side is empty) and its `dispatch` log field,
    encoded once when it cleared; `reset()` forgets them, so the memo lasts
    one episode. The same `Dispatch` is shared by those steps: read-only."""

    def __init__(self, network):
        self.network = network
        self.reset()

    def reset(self):
        self._actions = self._curves = None  # last actions; each if a curve
        self._submitted = []        # its curves, as (id, bus, curve)
        self.dispatch = None
        self._fields = {}           # the dispatch's log fields

    def step(self, t_market, actions):
        key, last = tuple(actions.values()), self._actions
        if not last or len(key) != len(last) or not all(map(is_, key, last)):
            self._actions = key
            curves = [a if isinstance(a, cv.Curve) else None for a in key]
            if _identical(curves, self._curves):
                return self._fields
            self._curves = curves
            self._submitted = submitted = [
                (aid, self.env.agent_map[aid].bus, c)
                for aid, c in zip(actions, curves) if c is not None]
            bids = [s for s in submitted if s[2].side == cv.DEMAND]
            offers = [s for s in submitted if s[2].side != cv.DEMAND]
            self.dispatch, self._fields = None, {}
            if bids and offers:
                self.dispatch = clear(MarketInput(
                    bids=bids, offers=offers, network=self.network))
                self._fields = {"dispatch": Encoded(_encode(
                    self.dispatch.to_records()))}
        return self._fields

    def finalize(self):
        if self.dispatch is None:
            return None, {}, {}
        agents = self.env.agent_map
        values = self.dispatch.values
        actions = {}
        for aid, bus, curve in self._submitted:
            q = self.dispatch.quantities[aid]
            p = self.dispatch.prices.get(aid, 0.0)
            # truthful private valuation: the submitted curve's integral
            if curve.side == cv.DEMAND:
                r = values[aid] - p * q
            else:
                r, q = p * q - values[aid], -q     # a supplier injects
            actions[aid] = bus, q
            agents[aid].observe_reward(r)
        return self.dispatch, self._fields, actions


class P2pMarket(MarketBase):
    """Use Case 2 mechanism: random matching, then a bandit negotiation per
    market step (the paper's T per grid step); the last one binds physically.
    Each round matches every agent whose `current_role` is not None: its
    producers against the rest, who buy; an unmatched buyer draws its trade
    quantity from the feeder at the retail price.

    `negotiate` is pure, so within a round a pair bidding the very price
    objects of an outcome again reuses it (read-only) and its log entry,
    encoded once: the memo keys on the bids' `id`s, which the outcome holds.
    A step negotiates the pairs in the log's order (by `str`): an agent sits
    in at most one pair, so the order changes no reward."""

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
        self._memo = {}      # (pair, id(b_p), id(b_c)) -> (outcome, entry)
        self.outcomes = {}
        self.result = None

    def step(self, t_market, actions):
        agents = self.env.agent_map
        entries = []
        for pair in self.round.pairs:
            producer, consumer = pair
            b_p, b_c = actions[producer], actions[consumer]
            key = pair, id(b_p), id(b_c)
            if (hit := self._memo.get(key)) is None:
                for aid, bid in ((producer, b_p), (consumer, b_c)):
                    if not isinstance(bid, (int, float)):
                        raise EnvError(f"agent {aid!r} bid {bid!r} at t_grid "
                                       f"{self._t_grid}, t_market {t_market}"
                                       ": a P2P participant must bid a number")
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
                hit = self._memo[key] = out, entry
            out, entry = hit
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
        return self.result, fields, {a.id: (a.bus, grid_kw[a.id])
                                     for a in self.env.agents
                                     if a.id in grid_kw}


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
        actions = {f"dso@{bus}": (bus, p_d - p_g)
                   for bus, (p_g, p_d) in self.result.dispatch.items()
                   if bus != root and p_d != p_g}
        fields = {**self._fields, "objective": round(self.result.objective, 9)}
        return self.result, fields, actions


class Environment:
    """Runs episodes of a grid, a market and agents (the market's `env`)."""

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
        self.callbacks = {p.removeprefix("post_"): [] for p in PHASES}
        self.log = EpisodeLog()
        self._rows = []         # summary rows, one per grid step logged
        self._live = None       # a weak reference to the latest episode
        market.env = self

    def register_callback(self, phase, sink):
        if phase not in PHASES:
            raise EnvError(f"unknown phase {phase!r}; one of {PHASES}")
        self.callbacks[phase.removeprefix("post_")].append(sink)

    def reset(self, log_path=None):
        self._close_live()
        self.rng = np.random.default_rng(self.seed)
        self.grid.reset()
        self.market.reset()
        for a in self.agents:
            a.reset()
        self.log = EpisodeLog(sink_path=log_path)
        self._rows = []
        if log_path:
            open(log_path, "w", encoding="utf-8").close()
        return self

    def run_episode(self, grid_steps, market_steps_per_grid=1):
        """Run `episode` through, calling each record's phase callbacks."""
        for phase, _, _ in self.episode(grid_steps, market_steps_per_grid):
            for sink in self.callbacks[phase]:
                sink(self)
        return self.log

    def episode(self, grid_steps, market_steps_per_grid=1):
        """Close the live episode, as `reset()` does, and start one: a
        generator yielding `(phase, t_grid, t_market)` once each record is on
        disk (a round's last `t_market` for `clear` and `grid_step`)."""
        if grid_steps < 1 or market_steps_per_grid < 1:
            raise EnvError("need grid_steps >= 1 and market steps >= 1")
        self._close_live()
        live = self._loop(grid_steps, market_steps_per_grid)
        self._live = weakref.ref(live)
        return live

    def _close_live(self):
        """Close the latest episode's generator, and so its sink, if live."""
        live = self._live and self._live()
        if live is not None:
            live.close()

    def _loop(self, grid_steps, market_steps_per_grid):
        # the market steps' numbers as log text, and as its bytes, encoded
        # once as the first grid step reaches them
        ticks, tick_bytes = [], []
        # the last grid step's flows, keys then values: a step with the very
        # same reuses their log text and largest magnitude
        last_seen = None
        hooks = [(a.id, a.market_action) for a in self.agents]
        with self.log.writing():
            for t_grid in range(grid_steps):
                self.market.reset_round(t_grid)
                tick = Encoded(_encode(t_grid))
                # the dict the last market step returned; once a step returns
                # it again holding only `Encoded` values, its keys then
                # values as logged, and that line's bytes around `t_market`,
                # which a step returning the very same dict, keys and values
                # writes again around its own
                last_fields = logged = None
                for t_market in range(market_steps_per_grid):
                    if t_grid == 0:
                        ticks.append(Encoded(_encode(t_market)))
                        tick_bytes.append(ticks[t_market].encode())
                    actions = {}
                    for aid, act in hooks:
                        actions[aid] = act(t_grid, t_market)
                    fields = self.market.step(t_market, actions)
                    if fields is last_fields and _identical(
                            held := (*fields, *fields.values()), logged):
                        self.log.write(head + tick_bytes[t_market] + tail)
                    else:
                        record = {"phase": _MARKET_STEP, "t_grid": tick,
                                  "t_market": ticks[t_market], **fields}
                        if len(record) != len(fields) + 3:
                            self._refuse("step", fields)
                        if fields is last_fields and all(
                                type(v) is Encoded for v in fields.values()):
                            head, tail = self.log.add(record, "t_market")
                            logged = held
                        else:
                            self.log.add(record)
                            last_fields, logged = fields, None
                    yield "market_step", t_grid, t_market
                cleared, fields, market_actions = self.market.finalize()
                if "phase" in fields or "t_grid" in fields:
                    self._refuse("finalize", fields)
                self.log.add({"phase": _CLEAR, "t_grid": tick,
                              "cleared": _BOOLS[cleared is not None], **fields})
                yield "clear", t_grid, t_market

                # non-agent ids first, then each agent's own or market action
                actions = {k: v for k, v in market_actions.items()
                           if k not in self.agent_map}
                for a in self.agents:
                    if (action := a.grid_action(t_grid, cleared)) is None:
                        action = market_actions.get(a.id)
                    if action is not None:
                        actions[a.id] = action
                state = self.grid.step(actions)
                seen = (*state.flows, *state.flows.values())
                if not _identical(seen, last_seen):
                    flows_text, max_flow = _encode_flows(state.flows, t_grid)
                    last_seen = seen
                feasible = state.feasible
                self.log.add({"phase": _GRID_STEP, "t_grid": tick, "feasible":
                              _BOOLS[feasible] if type(feasible) is bool
                              else feasible, "flows": flows_text})
                self._rows.append({"t_grid": t_grid, "feasible": feasible,
                                   "max_abs_flow": max_flow})
                yield "grid_step", t_grid, t_market

    def _refuse(self, hook, fields):
        """Raise EnvError: a market hook's log fields hold a key the
        environment writes (not `cleared`, which a clear's may replace)."""
        key = next(k for k in ("phase", "t_grid", "t_market") if k in fields)
        raise EnvError(f"{type(self.market).__name__}.{hook} returned log "
                       f"field {key!r}, which the environment writes")

    def summary_rows(self):
        """The episode CSV's rows, one per `grid_step` logged since `reset()`:
        `t_grid`, `feasible` and the largest logged flow's magnitude."""
        return list(self._rows)
