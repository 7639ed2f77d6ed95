import math

import numpy as np
import pytest

from gridmarket.agents import (
    AgentError, BanditState, CONSUMER, CurveBidder, PhaseViolation,
    PRODUCER, PROSUMER, ScriptedAgent, UcbNegotiator, elastic_consumer,
    flat_supplier, inelastic_consumer, parse_roster, ucb_index, ucb_select,
    ucb_update,
)
from gridmarket.curves import DEMAND, SUPPLY
from helpers import (
    PiecewiseLinear, reward_demand, reward_supply, ucb_select_and_update,
)


def test_piecewise_linear_eval():
    f = PiecewiseLinear([(2.0, 1.0), (3.0, 4.0)])
    assert f(0.0) == 0.0
    assert f(2.0) == pytest.approx(2.0)
    assert f(4.0) == pytest.approx(2.0 + 2 * 4.0)
    # beyond the last breakpoint the final slope extends
    assert f(6.0) == pytest.approx(2.0 + 3 * 4.0 + 4.0)


def test_reward_helpers():
    cost = PiecewiseLinear([(10.0, 2.0)])
    util = PiecewiseLinear([(10.0, 8.0)])
    assert reward_supply(5.0, 4.0, cost) == pytest.approx(20.0 - 8.0)
    assert reward_demand(5.0, 4.0, util) == pytest.approx(32.0 - 20.0)


def test_curve_factories():
    c = inelastic_consumer("c", 3, demand_kw=10.0)
    assert c.curve.side == DEMAND
    assert c.curve.q_max == 10.0
    assert c.curve.q_min == pytest.approx(9.9)
    s = flat_supplier("s", 0, price=4.3, capacity=500.0)
    assert s.curve.side == SUPPLY
    assert s.curve.p_max == s.curve.p_min == 4.3


def test_curve_bidder_actions():
    a = elastic_consumer("d1", 2, p_max=8.0, p_min=1.0, q_max=10.0)
    a.set_market_actions()
    assert a.market_action is a.curve

    class FakeDispatch:
        quantities = {"d1": 7.5}
    a.set_grid_actions(FakeDispatch())
    assert a.grid_action == (2, 7.5)   # consumption positive

    s = flat_supplier("s1", 1, 4.3, 100.0)
    s.set_grid_actions(FakeDispatch())
    assert s.grid_action == (1, 0.0)


def test_phase_violation():
    a = elastic_consumer("d1", 2, 8.0, 1.0, 10.0)

    class Env:
        phase = "market"
    a.env = Env()
    with pytest.raises(PhaseViolation):
        a.submit_grid_action(2, 1.0)
    a.env.phase = "grid"
    a.submit_grid_action(2, 1.0)
    assert a.grid_action == (2, 1.0)


def test_bandit_state_validation():
    with pytest.raises(AgentError):
        BanditState(arms=[])
    with pytest.raises(AgentError):
        BanditState(arms=[1.0], delta=0.0)


def test_ucb_unsampled_arms_first():
    st = BanditState(arms=[3.0, 4.0, 5.0])
    order = []
    for _ in range(3):
        i = ucb_select(st)
        order.append(i)
        ucb_update(st, i, 0.0)
    assert order == [0, 1, 2]   # ties break to the lowest index


def test_ucb_index_formula():
    st = BanditState(arms=[3.0, 4.0], delta=0.01)
    assert ucb_index(st, 0) == math.inf
    ucb_update(st, 0, 2.0)
    ucb_update(st, 0, 4.0)
    expected = 3.0 + math.sqrt(2.0 * math.log(1.0 / 0.01) / 2)
    assert ucb_index(st, 0) == pytest.approx(expected)


def test_ucb_mean_update_incremental():
    st = BanditState(arms=[1.0])
    rewards = [2.0, 6.0, 1.0, 3.0]
    for r in rewards:
        ucb_update(st, 0, r)
    assert st.means[0] == pytest.approx(np.mean(rewards))
    assert st.counts[0] == len(rewards)


def test_ucb_converges_to_best_arm():
    rng = np.random.default_rng(11)
    st = BanditState(arms=[0.0, 1.0, 2.0])
    true_means = [0.2, 0.8, 0.5]

    def feed(i):
        return true_means[i] + rng.normal(0, 0.1)
    picks = [ucb_select_and_update(st, feed) for _ in range(3000)]
    assert picks[-500:].count(1) / 500 > 0.9


def test_negotiator_reset_clears_learning():
    a = UcbNegotiator("p", 3, PRODUCER, arms=[3.0, 4.0, 5.0])
    a.set_market_actions()
    a.observe_reward(2.0)
    assert sum(a.bandit.counts) == 1
    a.reset()
    assert sum(a.bandit.counts) == 0
    assert a.rewards == []


def test_negotiator_bids_from_arms():
    a = UcbNegotiator("p", 3, PRODUCER, arms=[3.0, 4.0, 5.0])
    for _ in range(6):
        a.set_market_actions()
        assert a.market_action in (3.0, 4.0, 5.0)
        a.observe_reward(1.0)


def test_prosumer_availability_switch():
    a = UcbNegotiator("x", 3, PROSUMER, arms=[4.0],
                      availability=[True, False])
    assert a.current_role(0) == PRODUCER
    assert a.current_role(1) == CONSUMER
    assert a.current_role(2) == PRODUCER
    b = UcbNegotiator("y", 3, CONSUMER, arms=[4.0])
    assert b.current_role(5) == CONSUMER


def test_scripted_agent(tmp_path):
    p = tmp_path / "profile.csv"
    p.write_text("kw\n1.5\n2.5\n")
    a = ScriptedAgent("load", 4, str(p))
    a.set_grid_actions()
    assert a.grid_action == (4, 1.5)
    with pytest.raises(AgentError):
        bad = tmp_path / "bad.csv"
        bad.write_text("watts\n3\n")
        ScriptedAgent("load2", 4, str(bad))


def test_parse_roster(tmp_path):
    (tmp_path / "prof.csv").write_text("kw\n1\n")
    text = ("agent c1 5 consumer inelastic 12\n"
            "agent s1 0 producer flat_supply 4.3 500\n"
            "agent p1 7 producer ucb 3 4 5 6\n"
            "agent l1 8 consumer scripted:prof.csv\n")
    agents = parse_roster(text, base_dir=str(tmp_path))
    assert [a.id for a in agents] == ["c1", "s1", "p1", "l1"]
    assert isinstance(agents[2], UcbNegotiator)
    assert agents[2].bandit.arms == [3.0, 4.0, 5.0, 6.0]
    from gridmarket.network import CaseFileError
    with pytest.raises(CaseFileError):
        parse_roster("agent a 1 consumer juggle 3\n")
    with pytest.raises(CaseFileError):
        parse_roster("agent a 1 consumer inelastic\n")
