import json
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gridmarket.env as env_mod
from gridmarket.agents import (
    CONSUMER, PRODUCER, Agent, CurveBidder, ScriptedAgent, UcbNegotiator,
    elastic_consumer, flat_supplier,
)
from gridmarket.clearing import MarketInput, clear
from gridmarket.cli import build_environment, parse, read_config
from gridmarket.curves import DEMAND, SUPPLY, Curve
from gridmarket.dlmp import DrOffer, ScopfInput
from gridmarket.env import (
    ClearingMarket, DlmpMarket, EnvError, Environment, MarketBase, P2pMarket,
)
from gridmarket.network import Grid, build_network
from gridmarket.p2p import P2pConfig, negotiate
from helpers import Recording, state_fingerprint, surplus, to_jsonl

INF = float("inf")
CASES = os.path.join(os.path.dirname(__file__), "..", "cases")


def chain(limits=(INF, INF)):
    return build_network([0, 1, 2], [("a", 0, 1, limits[0]),
                                     ("b", 1, 2, limits[1])])


def clearing_env(seed=0):
    net = chain()
    agents = [flat_supplier("feeder", 0, 4.3, 500.0),
              elastic_consumer("d1", 2, p_max=8.0, p_min=1.0, q_max=10.0)]
    return Environment(grid=Grid(net), market=ClearingMarket(net),
                       agents=agents, seed=seed)


def p2p_env(seed=0):
    net = chain()
    cfg = P2pConfig()
    agents = [UcbNegotiator("p1", 1, PRODUCER, arms=[3.0, 4.0, 5.0]),
              UcbNegotiator("c1", 2, CONSUMER, arms=[4.0, 5.0, 6.0])]
    return Environment(grid=Grid(net), market=P2pMarket(cfg),
                       agents=agents, seed=seed)


def test_duplicate_agent_ids_rejected():
    net = chain()
    with pytest.raises(EnvError):
        Environment(grid=Grid(net), market=ClearingMarket(net),
                    agents=[flat_supplier("x", 0, 4.3, 1.0),
                            flat_supplier("x", 1, 4.3, 1.0)])


def test_agent_ids_that_log_as_one_key_are_rejected():
    # the logs key agents by str(id): 1 and "1" would merge
    net = chain()
    with pytest.raises(EnvError,
                       match=r"^agent ids 1 and '1' both log as '1'$"):
        Environment(grid=Grid(net), market=ClearingMarket(net),
                    agents=[flat_supplier(1, 0, 4.3, 1.0),
                            flat_supplier("1", 1, 4.3, 1.0)])


def test_hub_references():
    # only the market holds the environment; agents get their inputs as
    # hook arguments
    env = clearing_env()
    assert env.market.env is env
    assert not any(hasattr(a, "env") for a in env.agents)
    assert env.agent_map["d1"].bus == 2


def test_clearing_episode_runs_and_logs():
    env = clearing_env().reset()
    log = env.run_episode(grid_steps=3)
    assert len(log.by_phase("grid_step")) == 3
    assert len(log.by_phase("clear")) == 3
    clear0 = log.by_phase("clear")[0]
    assert clear0["cleared"]
    qs = {r["agent"]: r["q_kw"] for r in clear0["dispatch"] if "agent" in r}
    assert qs["d1"] > 0
    # dispatched consumption shows up as line flow
    grid0 = log.by_phase("grid_step")[0]
    assert grid0["flows"]["b"] == pytest.approx(qs["d1"], abs=1e-6)
    assert grid0["feasible"]


class RecordingBidder(Recording, CurveBidder):
    pass


def test_agent_rewards_accumulate():
    net = chain()
    d1 = RecordingBidder("d1", 2, CONSUMER, Curve(
        DEMAND, p_max=8.0, p_min=1.0, q_max=10.0, q_min=0.0))
    env = Environment(grid=Grid(net), market=ClearingMarket(net),
                      agents=[flat_supplier("feeder", 0, 4.3, 500.0), d1])
    env.reset().run_episode(grid_steps=4)
    assert len(d1.rewards) == 4
    assert all(r >= -1e-9 for r in d1.rewards)   # truthful bidding: no loss


def test_callbacks_fire_in_order():
    env = clearing_env().reset()
    seen = []
    env.register_callback("post_market_step", lambda e: seen.append("m"))
    env.register_callback("post_clear", lambda e: seen.append("c"))
    env.register_callback("post_grid_step", lambda e: seen.append("g"))
    env.run_episode(grid_steps=2, market_steps_per_grid=2)
    assert seen == ["m", "m", "c", "g"] * 2
    with pytest.raises(EnvError):
        env.register_callback("pre_flight", lambda e: None)


def test_determinism_same_seed():
    a = to_jsonl(p2p_env(seed=42).reset().run_episode(5, 3))
    b = to_jsonl(p2p_env(seed=42).reset().run_episode(5, 3))
    assert a == b


def test_different_seed_differs():
    # 5 grid steps x 3 negotiation steps: bid trajectories diverge
    a = to_jsonl(p2p_env(seed=1).reset().run_episode(5, 3))
    b = to_jsonl(p2p_env(seed=2).reset().run_episode(5, 3))
    # matching is trivial (1x1) but bandit exploration differs only through
    # rewards; identical rosters may coincide, so just require valid JSON
    for line in a.splitlines():
        json.loads(line)
    assert a  # episodes produced output


def test_reset_restores_initial_state():
    env = p2p_env(seed=7)
    env.reset()
    f0 = state_fingerprint(env)
    env.run_episode(grid_steps=3, market_steps_per_grid=3)
    assert state_fingerprint(env) != f0
    env.reset()
    assert state_fingerprint(env) == f0
    assert sum(env.agent_map["p1"].bandit.counts) == 0


def test_p2p_physical_binding_and_deficiency():
    env = p2p_env(seed=3).reset()
    log = env.run_episode(grid_steps=6, market_steps_per_grid=3)
    q = env.market.config.trade_quantity
    for rec in log.by_phase("grid_step"):
        # consumer always draws its quantity (peer or feeder)
        assert rec["flows"]["b"] == pytest.approx(q)
    for rec in log.by_phase("clear"):
        assert rec["cleared"]
        for charge in rec.get("deficiency", {}).values():
            assert charge == pytest.approx(
                q * env.market.config.retail_price)


def test_p2p_unmatched_consumer_pays_retail():
    net = chain()
    cfg = P2pConfig()
    agents = [UcbNegotiator("p1", 1, PRODUCER, arms=[4.0]),
              UcbNegotiator("c1", 2, CONSUMER, arms=[5.0]),
              UcbNegotiator("c2", 2, CONSUMER, arms=[5.0])]
    env = Environment(grid=Grid(net), market=P2pMarket(cfg),
                      agents=agents, seed=0).reset()
    env.run_episode(grid_steps=1)
    result = env.market.result
    assert len(result.unmatched) == 1
    loser = result.unmatched[0]
    assert result.deficiency[loser] == pytest.approx(3.0 * 12.0)
    assert result.grid_kw[loser] == pytest.approx(3.0)


def test_dlmp_market_moves_grid():
    net = chain(limits=(INF, 6.0))
    si = ScopfInput(lmp_source=4.3, gen_offers=[],
                    dr_offers=[DrOffer(bus=2, baseline=10.0,
                                       blocks=[(10.0, 15.0)])],
                    network=net)
    env = Environment(grid=Grid(net), market=DlmpMarket(si),
                      agents=[], seed=0).reset()
    log = env.run_episode(grid_steps=2)
    rec = log.by_phase("clear")[0]
    assert rec["cleared"]
    assert rec["dlmp"]["2"] == pytest.approx(15.0)
    grid0 = log.by_phase("grid_step")[0]
    assert grid0["flows"]["b"] == pytest.approx(6.0, abs=1e-6)


def test_incremental_log_sink(tmp_path):
    path = tmp_path / "episode.jsonl"
    env = clearing_env().reset(log_path=str(path))
    env.run_episode(grid_steps=2)
    lines = path.read_text().splitlines()
    assert len(lines) == len(env.log.records)
    assert "\n".join(lines) == to_jsonl(env.log)
    # the file is the log's lines, and a run without a sink keeps the same
    assert lines == [line for _, line in env.log.lines]
    unsunk = clearing_env().reset().run_episode(grid_steps=2)
    assert unsunk.lines == env.log.lines


def test_summary_rows():
    env = clearing_env().reset()
    env.run_episode(grid_steps=3)
    rows = env.summary_rows()
    assert len(rows) == 3
    assert rows[0]["feasible"] is True
    assert rows[0]["max_abs_flow"] > 0


class AlternatingProsumer(Agent):
    """A prosumer outside the library's: it sells on even grid steps and
    buys on odd ones, at one price."""

    def current_role(self, t_grid):
        return PRODUCER if t_grid % 2 == 0 else CONSUMER

    def market_action(self, t_grid, t_market):
        return 4.0


def test_p2p_deficiency_follows_grid_step_role_across_episodes():
    # Two episodes without reset: the market's round counter keeps
    # counting while t_grid restarts, so only t_grid gives the prosumers'
    # role at settlement.
    net = chain()
    agents = [UcbNegotiator("p1", 1, PRODUCER, arms=[4.0]),
              AlternatingProsumer("x1", 1, None),
              AlternatingProsumer("x2", 2, None),
              UcbNegotiator("c1", 2, CONSUMER, arms=[5.0])]
    env = Environment(grid=Grid(net), market=P2pMarket(P2pConfig()),
                      agents=agents, seed=4).reset()
    seen = []
    env.register_callback("post_clear", lambda e: seen.append(
        (e.clock[0], e.market.result)))
    env.run_episode(grid_steps=2)
    env.run_episode(grid_steps=2)
    assert [t for t, _ in seen] == [0, 1, 0, 1]
    charged_unmatched = 0
    for t_grid, result in seen:
        for aid in result.unmatched:
            consumer = env.agent_map[aid].current_role(t_grid) == CONSUMER
            assert (aid in result.deficiency) == consumer
            charged_unmatched += consumer
    assert charged_unmatched > 0


def test_clearing_rewards_equal_the_surplus_oracle_bit_for_bit():
    env = demo_environment("demo_clearing.cfg", 0).reset()
    rewards = {a.id: [] for a in env.agents}
    for a in env.agents:
        a.observe_reward = rewards[a.id].append
    dispatches = []
    env.register_callback("post_clear",
                          lambda e: dispatches.append(e.market.dispatch))
    env.run_episode(grid_steps=2, market_steps_per_grid=2)
    expect = {a.id: [] for a in env.agents}
    for d in dispatches:
        for a in env.agents:
            expect[a.id].append(surplus(a.curve, d.quantities[a.id],
                                        d.prices.get(a.id, 0.0)).hex())
    assert {a: [r.hex() for r in rs] for a, rs in rewards.items()} == expect
    assert sum(q > 0 for q in dispatches[0].quantities.values()) > 2


@pytest.mark.parametrize("grid_steps", [0, -1])
def test_run_episode_needs_a_grid_step(grid_steps):
    env = clearing_env().reset()
    with pytest.raises(EnvError):
        env.run_episode(grid_steps=grid_steps)
    assert env.log.records == []


def counted(monkeypatch, module, name):
    """Wrap `module.name` so each call is recorded; returns the call list."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


class AlternatingBidder(CurveBidder):
    """Bids `curves[0]` for two market steps, then `curves[1]` for two."""

    def __init__(self, agent_id, bus, curves):
        super().__init__(agent_id, bus, CONSUMER, curves[0])
        self.curves = curves

    def market_action(self, t_grid, t_market):
        self.curve = self.curves[t_market // 2 % 2]
        return self.curve


def logged_against_fresh(env):
    """After each market step and each clear, pair the `dispatch` field just
    logged with `to_records()` of a new clear on the curves the agents
    submit then; returns the list those pairs go to."""
    pairs = []

    def compare(e):
        curves = [(a.id, a.bus, a.market_action(*e.clock))
                  for a in e.agents]
        ref = clear(MarketInput(
            bids=[b for b in curves if b[2].side == DEMAND],
            offers=[b for b in curves if b[2].side == SUPPLY],
            network=e.market.network), segments=e.market.segments)
        pairs.append((e.log.records[-1]["dispatch"], ref.to_records()))
    env.register_callback("post_market_step", compare)
    env.register_callback("post_clear", compare)
    return pairs


def test_unchanged_bids_are_cleared_once(monkeypatch):
    calls = counted(monkeypatch, env_mod, "clear")
    env = clearing_env().reset()
    pairs = logged_against_fresh(env)
    log = env.run_episode(grid_steps=3, market_steps_per_grid=4)
    assert len(calls) == 1
    steps = log.by_phase("market_step")
    assert len(steps) == 12
    assert all(r["dispatch"] == steps[0]["dispatch"] for r in steps)
    assert len(pairs) == 15 and all(got == want for got, want in pairs)
    env.reset()
    env.run_episode(grid_steps=3, market_steps_per_grid=4)
    assert len(calls) == 2


class StepCounter(Agent):
    """Takes a new non-curve market action at every market step."""

    def market_action(self, t_grid, t_market):
        return t_market


def test_unchanged_curves_beside_other_changing_actions_clear_once(
        monkeypatch):
    calls = counted(monkeypatch, env_mod, "clear")
    net = chain()
    env = Environment(grid=Grid(net), market=ClearingMarket(net), agents=[
        flat_supplier("feeder", 0, 4.3, 500.0), StepCounter("n1", 1, CONSUMER),
        elastic_consumer("d1", 2, p_max=8.0, p_min=1.0, q_max=10.0)]).reset()
    log = env.run_episode(grid_steps=2, market_steps_per_grid=3)
    assert len(calls) == 1
    assert log.lines == clearing_env().reset().run_episode(
        grid_steps=2, market_steps_per_grid=3).lines


def test_changed_bids_are_cleared_again(monkeypatch):
    calls = counted(monkeypatch, env_mod, "clear")
    net = chain()
    curves = (Curve(DEMAND, p_max=8.0, p_min=1.0, q_max=10.0, q_min=0.0),
              Curve(DEMAND, p_max=6.0, p_min=2.0, q_max=4.0, q_min=0.0))
    env = Environment(grid=Grid(net), market=ClearingMarket(net),
                      agents=[flat_supplier("feeder", 0, 4.3, 500.0),
                              AlternatingBidder("d1", 2, curves)]).reset()
    seen = []

    def fresh_clear(e):
        curves = [(a.id, a.bus, a.market_action(*e.clock))
                  for a in e.agents]
        bids = [b for b in curves if b[2].side == DEMAND]
        offers = [b for b in curves if b[2].side == SUPPLY]
        ref = clear(MarketInput(bids=bids, offers=offers, network=net))
        seen.append((e.market.dispatch.to_jsonl(), ref.to_jsonl()))
    env.register_callback("post_market_step", fresh_clear)
    pairs = logged_against_fresh(env)
    env.run_episode(grid_steps=3, market_steps_per_grid=4)
    # a a b b | a a b b | a a b b: every change of curve clears again
    assert len(calls) == 6
    assert all(got == want for got, want in seen)
    assert len(seen) == 12 and seen[0] != seen[2]
    # market steps a a b b and the clear (b) of each grid step: the logged
    # records follow the bids both ways
    assert len(pairs) == 15 and all(got == want for got, want in pairs)
    logged = [got for got, _ in pairs]
    assert logged[0] == logged[1] != logged[2] == logged[3] == logged[4]
    assert logged[4] != logged[5]


def test_fixed_scopf_is_solved_once_per_episode(monkeypatch):
    calls = counted(monkeypatch, env_mod, "solve_dlmp")
    net = chain(limits=(INF, 6.0))
    si = ScopfInput(lmp_source=4.3, gen_offers=[],
                    dr_offers=[DrOffer(bus=2, baseline=10.0,
                                       blocks=[(10.0, 15.0)])],
                    network=net)
    env = Environment(grid=Grid(net), market=DlmpMarket(si), agents=[])
    log = env.reset().run_episode(grid_steps=3, market_steps_per_grid=2)
    assert len(calls) == 1
    assert len({json.dumps(r["dlmp"]) for r in log.by_phase("market_step")}) == 1
    env.reset().run_episode(grid_steps=3, market_steps_per_grid=2)
    assert len(calls) == 2


def test_log_sink_opens_once_per_episode(tmp_path, monkeypatch):
    path = tmp_path / "episode.jsonl"
    env = p2p_env().reset(log_path=str(path))
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]
    monkeypatch.setattr(env_mod, "open", counting_open, raising=False)
    env.run_episode(grid_steps=3, market_steps_per_grid=3)
    assert len(opened) == 1 and opened[0].closed
    env.run_episode(grid_steps=2, market_steps_per_grid=3)
    assert len(opened) == 2 and opened[1].closed
    assert len(env.log.records) == 5 * (3 + 2)
    assert path.read_text() == to_jsonl(env.log) + "\n"


def test_crashed_episode_keeps_its_prefix_and_closes_the_sink(
        tmp_path, monkeypatch):
    path = tmp_path / "episode.jsonl"
    env = p2p_env().reset(log_path=str(path))
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]
    monkeypatch.setattr(env_mod, "open", counting_open, raising=False)

    def crash(e):
        # each record is on disk as soon as it is added
        assert path.read_text() == to_jsonl(e.log) + "\n"
        if e.clock == (1, 2):
            raise RuntimeError("agent crashed")
    env.register_callback("post_market_step", crash)
    with pytest.raises(RuntimeError):
        env.run_episode(grid_steps=3, market_steps_per_grid=4)
    # grid step 0 (4 market steps, clear, grid step), then 3 market steps
    assert len(env.log.records) == 6 + 3
    assert path.read_text() == to_jsonl(env.log) + "\n"
    assert len(opened) == 1 and opened[0].closed


def test_a_sink_that_writes_short_still_gets_every_line_whole(
        tmp_path, monkeypatch):
    path = tmp_path / "episode.jsonl"
    env = p2p_env().reset(log_path=str(path))
    writes = []

    class Trickle:
        """A sink that takes at most 7 bytes per write."""

        def __init__(self, sink):
            self.sink = sink

        def write(self, data):
            writes.append(len(data))
            return self.sink.write(data[:7])

        def close(self):
            self.sink.close()
    monkeypatch.setattr(env_mod, "open", lambda *args, **kwargs: Trickle(
        open(*args, **kwargs)), raising=False)

    def on_disk(e):
        assert path.read_bytes() == (to_jsonl(e.log) + "\n").encode()
    for phase in env_mod.PHASES:
        env.register_callback(phase, on_disk)
    env.run_episode(grid_steps=2, market_steps_per_grid=3)
    assert len(env.log.lines) == 2 * (3 + 2)
    assert max(writes) > 7


class PriceBidder(Agent):
    """An agent outside the library's: it takes part in P2P under its own
    role and bids one price."""

    def current_role(self, t_grid):
        return self.role

    def market_action(self, t_grid, t_market):
        return 6.0


def test_p2p_matches_any_agent_that_returns_a_role():
    net = chain()
    rewards = []
    bidder = PriceBidder("c1", 2, CONSUMER)
    bidder.observe_reward = rewards.append
    agents = [UcbNegotiator("p1", 1, PRODUCER, arms=[3.0, 4.0]), bidder,
              Agent("idle", 2, CONSUMER)]     # no role: stays out
    env = Environment(grid=Grid(net), market=P2pMarket(P2pConfig()),
                      agents=agents, seed=0).reset()
    log = env.run_episode(grid_steps=2, market_steps_per_grid=3)
    steps = log.by_phase("market_step")
    assert len(steps) == 6
    for rec in steps:
        assert [(n["producer"], n["consumer"], n["b_c"])
                for n in rec["negotiations"]] == [("p1", "c1", 6.0)]
    assert len(rewards) == 6
    assert env.market.result.unmatched == []
    # a role other than producer buys
    agents = [UcbNegotiator("p1", 1, PRODUCER, arms=[3.0]),
              PriceBidder("b1", 2, "buyer")]
    env = Environment(grid=Grid(net), market=P2pMarket(P2pConfig()),
                      agents=agents, seed=0).reset()
    rec = env.run_episode(grid_steps=1).by_phase("market_step")[0]
    assert [(n["producer"], n["consumer"]) for n in rec["negotiations"]] == [
        ("p1", "b1")]


@pytest.mark.parametrize("role", [CONSUMER, "buyer"])
def test_p2p_settles_every_unmatched_buyer(role):
    # the market sends every role but producer to the buyers' side, and
    # settles an unmatched buyer from the feeder whatever its role's name
    agents = [UcbNegotiator("p1", 1, PRODUCER, arms=[3.0]),
              PriceBidder("c1", 2, role), PriceBidder("c2", 2, role)]
    env = Environment(grid=Grid(chain()), market=P2pMarket(P2pConfig()),
                      agents=agents, seed=0).reset()
    log = env.run_episode(grid_steps=1)
    result = env.market.result
    [unmatched] = result.unmatched
    assert result.grid_kw[unmatched] == 3.0
    assert result.deficiency[unmatched] == 36.0
    assert log.by_phase("clear")[0]["deficiency"] == {unmatched: 36.0}


class StopEpisode(Exception):
    pass


def stop_episode(env):
    raise StopEpisode


def test_market_step_numbers_are_encoded_as_the_loop_reaches_them(
        monkeypatch):
    # an episode stopped after its first market step encodes as many values
    # for a round of 100,000 steps as for one of 10
    counts = []
    for market_steps in (10, 10**5):
        calls = counted(monkeypatch, env_mod, "_encode")
        env = p2p_env().reset()
        env.register_callback("post_market_step", stop_episode)
        with pytest.raises(StopEpisode):
            env.run_episode(grid_steps=1, market_steps_per_grid=market_steps)
        counts.append(len(calls))
        monkeypatch.undo()
    assert counts[0] == counts[1]


class ClearEveryStep(ClearingMarket):
    """Reference market: forgets the last clear before every step."""

    def step(self, t_market, actions):
        self.reset()
        return super().step(t_market, actions)


class SolveEveryStep(DlmpMarket):
    """Reference market: forgets the last solve before every step."""

    def step(self, t_market, actions):
        self.reset()
        return super().step(t_market, actions)


def demo_environment(name, seed):
    path = os.path.join(CASES, name)
    cfg = {**read_config(path), "seed": str(seed)}
    return build_environment(parse(cfg, base_dir=CASES))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), grid_steps=st.integers(1, 3),
       market_steps=st.integers(1, 3))
def test_seeded_episodes_are_deterministic(seed, grid_steps, market_steps):
    def episode(env):
        env.reset().run_episode(grid_steps, market_steps)
        return to_jsonl(env.log)
    for name in ("demo_clearing.cfg", "demo_p2p.cfg", "demo_dlmp.cfg"):
        a, b = (demo_environment(name, seed) for _ in range(2))
        assert episode(a) == episode(b)
    for name, reference in (
            ("demo_clearing.cfg",
             lambda m: ClearEveryStep(m.network, m.segments)),
            ("demo_dlmp.cfg", lambda m: SolveEveryStep(m.scopf_input))):
        memo = demo_environment(name, seed)
        env = demo_environment(name, seed)
        ref = Environment(env.grid, reference(env.market), env.agents,
                          seed=seed)
        assert episode(memo) == episode(ref)


class PlainFieldsMarket(MarketBase):
    """A market built on the bare template: only `step`, logging plain
    (not `Encoded`) fields."""

    def step(self, t_market, actions):
        return {"note": f"step {t_market}", "bids": [t_market, 1.5]}


def test_a_template_market_logs_the_fields_its_step_returns():
    env = Environment(grid=Grid(chain()), market=PlainFieldsMarket(),
                      agents=[flat_supplier("feeder", 0, 4.3, 500.0)])
    log = env.reset().run_episode(grid_steps=2, market_steps_per_grid=3)
    assert log.by_phase("market_step") == [
        {"phase": "market_step", "t_grid": g, "t_market": m,
         "note": f"step {m}", "bids": [m, 1.5]}
        for g in range(2) for m in range(3)]
    assert log.by_phase("clear") == [
        {"phase": "clear", "t_grid": g, "cleared": False} for g in range(2)]


class ClearsWithActionsMarket(MarketBase):
    """A template market whose `finalize` returns a result, one `clear`
    field and one grid action of its own."""

    def step(self, t_market, actions):
        return {}

    def finalize(self):
        return "result", {"price": 4.5}, {"dso@1": (1, 5.0)}


def test_a_template_market_clears_with_its_fields_and_grid_actions():
    env = Environment(grid=Grid(chain()), market=ClearsWithActionsMarket(),
                      agents=[])
    log = env.reset().run_episode(grid_steps=2, market_steps_per_grid=2)
    assert [(r["t_grid"], r["t_market"]) for r in log.by_phase("market_step")
            ] == [(g, m) for g in range(2) for m in range(2)]
    assert log.by_phase("clear") == [
        {"phase": "clear", "t_grid": g, "cleared": True, "price": 4.5}
        for g in range(2)]
    assert [r["flows"] for r in log.by_phase("grid_step")] == [
        {"a": 5.0, "b": 0.0}] * 2


class OverwritingMarket(MarketBase):
    """A template market whose hooks return the given log fields."""

    def __init__(self, step_fields, clear_fields):
        self.step_fields, self.clear_fields = step_fields, clear_fields

    def step(self, t_market, actions):
        return self.step_fields

    def finalize(self):
        return None, self.clear_fields, {}


@pytest.mark.parametrize("step_fields, clear_fields, where", [
    ({"phase": "grid_step", "t_grid": 99}, {}, "step returned log field "
     "'phase'"),
    ({"note": 1, "t_market": 7}, {}, "step returned log field 't_market'"),
    ({}, {"t_grid": 5}, "finalize returned log field 't_grid'"),
    ({}, {"cleared": 1, "phase": "grid_step"},
     "finalize returned log field 'phase'"),
], ids=["step-phase", "step-t_market", "finalize-t_grid", "finalize-phase"])
def test_a_market_cannot_overwrite_the_environments_log_keys(
        step_fields, clear_fields, where):
    env = Environment(grid=Grid(chain()), market=OverwritingMarket(
        step_fields, clear_fields), agents=[]).reset()
    with pytest.raises(EnvError) as e:
        env.run_episode(grid_steps=1)
    assert str(e.value) == (f"OverwritingMarket.{where}, which the "
                            f"environment writes")
    assert all(r["phase"] == "market_step" for r in env.log.records)


def test_a_clear_record_field_may_replace_cleared():
    env = Environment(grid=Grid(chain()), market=OverwritingMarket(
        {}, {"cleared": "partly"}), agents=[]).reset()
    env.run_episode(grid_steps=1)
    assert env.log.by_phase("clear") == [
        {"phase": "clear", "t_grid": 0, "cleared": "partly"}]
    assert env.summary_rows()[0]["feasible"] is True


class CurveOnly(Agent):
    """A template agent with only a market action: a demand curve."""

    def market_action(self, t_grid, t_market):
        return Curve(DEMAND, p_max=8.0, p_min=1.0, q_max=10.0, q_min=0.0)


class LoadOnly(Agent):
    """A template agent with only a grid action: 2 kW more each grid step."""

    def grid_action(self, t_grid, result):
        return self.bus, 2.0 * (t_grid + 1)


def test_template_agents_act_through_the_hooks_they_define():
    agents = [flat_supplier("feeder", 0, 4.3, 500.0),
              CurveOnly("d1", 2, CONSUMER), LoadOnly("l1", 1, CONSUMER)]
    net = chain()
    env = Environment(grid=Grid(net), market=ClearingMarket(net),
                      agents=agents).reset()
    log = env.run_episode(grid_steps=2, market_steps_per_grid=2)
    for rec in log.by_phase("market_step") + log.by_phase("clear"):
        # the curve clears; the agent without a market action is not in it
        qs = {r["agent"]: r["q_kw"] for r in rec["dispatch"] if "agent" in r}
        assert set(qs) == {"feeder", "d1"} and qs["d1"] > 0
    # the curve's agent returns no grid action: only the load moves the grid
    assert [r["flows"] for r in log.by_phase("grid_step")] == [
        {"a": 2.0, "b": 0.0}, {"a": 4.0, "b": 0.0}]


class BareGrid:
    """A grid with only `reset` and `step`: flows as the summed kW."""

    def reset(self):
        pass

    def step(self, actions):
        total = sum(kw for _, kw in actions.values())
        return SimpleNamespace(flows={"total": total}, feasible=total < 5.0)


def test_a_grid_with_only_reset_and_step_drives_an_episode(tmp_path):
    (tmp_path / "load.csv").write_text("kw\n1\n4\n6\n")
    env = Environment(grid=BareGrid(), market=P2pMarket(P2pConfig()),
                      agents=[ScriptedAgent("load", 1, tmp_path / "load.csv"),
                              LoadOnly("l1", 2, CONSUMER)]).reset()
    log = env.run_episode(grid_steps=3, market_steps_per_grid=2)
    assert [r["flows"] for r in log.by_phase("grid_step")] == [
        {"total": 3.0}, {"total": 8.0}, {"total": 12.0}]
    assert env.summary_rows() == [
        {"t_grid": 0, "feasible": True, "max_abs_flow": 3.0},
        {"t_grid": 1, "feasible": False, "max_abs_flow": 8.0},
        {"t_grid": 2, "feasible": False, "max_abs_flow": 12.0}]


def test_scripted_profile_row_follows_t_grid_across_episodes(tmp_path):
    # two episodes without a reset: each restarts at the profile's first
    # row, as t_grid does
    (tmp_path / "load.csv").write_text("kw\n1\n2\n3\n")
    net = chain()
    env = Environment(grid=Grid(net), market=ClearingMarket(net), agents=[
        ScriptedAgent("load", 2, tmp_path / "load.csv")]).reset()
    env.run_episode(grid_steps=2)
    env.run_episode(grid_steps=2)
    assert [r["flows"]["b"] for r in env.log.by_phase("grid_step")] == [
        1.0, 2.0, 1.0, 2.0]


# JSON values as the log writes them: nested lists and dicts, -0.0 and the
# int/float twins, ints past 64 bits, non-ASCII strings and keys.
JSON_KEYS = (st.text(max_size=4)
             | st.sampled_from(["b_p", "ü", "北京", "\u2028"]))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([-0.0, 0.0, 1, 1.0, 2**70, -2**64]) | JSON_KEYS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(JSON_KEYS, inner, max_size=4)),
    max_leaves=12)


def strict_dumps(value):
    return json.dumps(value, sort_keys=True, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(record=st.dictionaries(JSON_KEYS, st.tuples(JSON_VALUES, st.booleans()),
                              max_size=6))
@example(record={"a": (INF, False), "b": (1.0, True)})
@example(record={"a": ([0.0, float("nan")], True), "b": ("x", True)})
@example(record={"%": (1, False), "%s": ("%s", True),
                 "%%": ({"%": 2.5}, False)})
@example(record={})
def test_log_line_equals_sorted_json_dumps(record):
    def encoded(v):
        # a value strict JSON cannot hold is handed over as it is
        try:
            return env_mod.Encoded(strict_dumps(v))
        except ValueError:
            return v
    # each value flagged True is handed over already encoded
    mixed = {k: encoded(v) if pre else v for k, (v, pre) in record.items()}
    plain = {k: v for k, (v, _) in record.items()}
    try:
        want = strict_dumps(plain)
    except ValueError:
        want = None
    # one cache: the record's keys in two insertion orders, the first twice
    backwards = dict(reversed(mixed.items()))
    shapes = {}
    for rec in (mixed, backwards, mixed):
        if want is None:
            with pytest.raises(ValueError):
                env_mod._line(rec, shapes)
        else:
            assert env_mod._line(rec, shapes) == want
    assert set(shapes) == {tuple(mixed), tuple(backwards)}


class NegotiateEveryStep(P2pMarket):
    """Reference market: negotiates every pair at every step and logs its
    entries as plain records."""

    def step(self, t_market, actions):
        agents = self.env.agent_map
        for p, c in self.round.pairs:
            out = negotiate(actions[p], actions[c], self.config)
            self.outcomes[p, c] = out
            agents[p].observe_reward(out.r_p)
            agents[c].observe_reward(out.r_c)
        return {"negotiations": [
            {"producer": p, "consumer": c, "b_p": o.b_p, "b_c": o.b_c,
             "success": o.success, "r_p": round(o.r_p, 9),
             "r_c": round(o.r_c, 9)}
            for (p, c), o in sorted(self.outcomes.items(),
                                    key=lambda kv: str(kv[0]))]}


# Prices that compare equal but encode differently, and plain ones.
TWINS = [(-0.0, 0.0), (0.0, -0.0), (1, 1.0), (1.0, 1)]
ARMS = st.tuples(st.sampled_from(TWINS),
                 st.lists(st.sampled_from([0.0, 1, 2.5, 4.0]), max_size=2)
                 ).flatmap(lambda t: st.permutations(list(t[0]) + t[1]))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(4, 12),
       grid_steps=st.integers(1, 3),
       producers=st.lists(ARMS, min_size=1, max_size=3),
       consumers=st.lists(ARMS, min_size=1, max_size=3))
@example(seed=0, T=6, grid_steps=2, producers=[[-0.0, 0.0]],
         consumers=[[1, 1.0]])
def test_p2p_log_equals_a_market_that_negotiates_every_step(
        seed, T, grid_steps, producers, consumers):
    def episode(market_class, path):
        agents = ([UcbNegotiator(f"p{k}", 1, PRODUCER, arms)
                   for k, arms in enumerate(producers)]
                  + [UcbNegotiator(f"c{k}", 2, CONSUMER, arms)
                     for k, arms in enumerate(consumers)])
        # no service fee: a signed zero price reaches the rewards too
        env = Environment(grid=Grid(chain()), market=market_class(
            P2pConfig(c_service=0.0)), agents=agents, seed=seed)
        env.reset(log_path=path).run_episode(grid_steps, T)
        with open(path, encoding="utf-8") as f:
            return f.read()
    with tempfile.TemporaryDirectory() as tmp:
        got = episode(P2pMarket, os.path.join(tmp, "memo.jsonl"))
        want = episode(NegotiateEveryStep, os.path.join(tmp, "ref.jsonl"))
    assert got == want


def test_p2p_negotiates_each_pair_at_each_price_pair_once_per_round(
        monkeypatch):
    calls = counted(monkeypatch, env_mod, "negotiate")
    log = p2p_env().reset().run_episode(grid_steps=3, market_steps_per_grid=40)
    bids = [(r["t_grid"], n["producer"], n["consumer"], n["b_p"], n["b_c"])
            for r in log.by_phase("market_step") for n in r["negotiations"]]
    assert len(bids) == 3 * 40
    # at most 3 x 3 arm pairs in each of the 3 rounds
    assert len(calls) == len(set(bids)) <= 3 * 9
