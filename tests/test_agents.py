import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridmarket.agents import (
    AgentError, BanditState, CONSUMER, CurveBidder, PRODUCER,
    ScriptedAgent, UcbNegotiator, elastic_consumer, flat_supplier,
    inelastic_consumer, parse_roster, ucb_index, ucb_select, ucb_update,
)
from gridmarket.clearing import Dispatch
from gridmarket.curves import DEMAND, SUPPLY
from gridmarket.network import CaseFileError
from gridmarket.p2p import P2pRoundResult
from helpers import (
    PiecewiseLinear, Recording, reward_demand, reward_supply,
    ucb_select_and_update, ucb_select_oracle,
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
    assert a.market_action(0, 0) is a.curve
    dispatch = Dispatch(quantities={"d1": 7.5, "s1": 7.5}, values={},
                        prices={}, sides={}, buses={}, line_flows={},
                        total_surplus=0.0)
    assert a.grid_action(0, dispatch) == (2, 7.5)   # consumption positive
    s = flat_supplier("s1", 1, 4.3, 100.0)
    assert s.grid_action(0, dispatch) == (1, -7.5)
    # a result of another market, or none, dispatches nothing
    assert a.grid_action(0, None) == (2, 0.0)
    p2p = P2pRoundResult(outcomes={}, grid_kw={"d1": 3.0}, deficiency={},
                         unmatched=[])
    assert a.grid_action(0, p2p) == (2, 0.0)


def test_bandit_state_validation():
    with pytest.raises(AgentError):
        BanditState(arms=[])
    with pytest.raises(AgentError):
        BanditState(arms=[1.0], delta=0.0)
    with pytest.raises(AgentError):
        BanditState(arms=[1.0, 2.0], counts=[0], means=[0.0, 0.0])
    with pytest.raises(AgentError):
        BanditState(arms=[1.0], counts=[0], means=[0.0, 0.0])


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


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# a few repeated values make tied means (and so tied indices) common
REWARDS = st.one_of(st.sampled_from([-1.0, 0.0, 2.5]), FINITE)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), stats=st.booleans())
def test_cached_ucb_selection_equals_the_argmax_loop(data, n, stats):
    arms = data.draw(st.lists(FINITE, min_size=n, max_size=n))
    kwargs = {}
    if stats:
        kwargs = {"counts": data.draw(st.lists(st.integers(0, 5),
                                               min_size=n, max_size=n)),
                  "means": data.draw(st.lists(REWARDS, min_size=n,
                                              max_size=n))}
    state = BanditState(arms=arms, **kwargs)
    for r in data.draw(st.lists(REWARDS, max_size=40)):
        i = ucb_select(state)
        assert i == ucb_select_oracle(state)
        ucb_update(state, i, r)
    assert ucb_select(state) == ucb_select_oracle(state)
    assert state.index == [ucb_index(state, i) for i in range(n)]


def test_ucb_never_takes_an_arm_whose_mean_overflowed_to_nan():
    st = BanditState(arms=[1.0, 2.0], counts=[1, 1], means=[-1e308, -1.5e308])
    ucb_update(st, ucb_select(st), 1e308)    # arm 0's mean: -1e308 -> inf
    ucb_update(st, ucb_select(st), 0.0)      # inf + (0 - inf) / 3 -> nan
    assert math.isnan(st.means[0])
    assert ucb_select(st) == ucb_select_oracle(st) == 1


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


class RecordingNegotiator(Recording, UcbNegotiator):
    pass


def test_negotiator_reset_clears_learning():
    a = RecordingNegotiator("p", 3, PRODUCER, arms=[3.0, 4.0, 5.0])
    a.market_action(0, 0)
    a.observe_reward(2.0)
    assert sum(a.bandit.counts) == 1 and a.rewards == [2.0]
    a.reset()
    assert sum(a.bandit.counts) == 0
    assert a.rewards == []


def test_negotiator_bids_from_arms():
    a = UcbNegotiator("p", 3, PRODUCER, arms=[3.0, 4.0, 5.0])
    for t in range(6):
        assert a.market_action(0, t) in (3.0, 4.0, 5.0)
        a.observe_reward(1.0)
    result = P2pRoundResult(outcomes={}, grid_kw={"p": -3.0}, deficiency={},
                            unmatched=[])
    assert a.grid_action(0, result) == (3, -3.0)
    assert a.grid_action(0, None) == (3, 0.0)


def test_scripted_agent(tmp_path):
    p = tmp_path / "profile.csv"
    p.write_text("kw\n1.5\n2.5\n")
    a = ScriptedAgent("load", 4, str(p))
    assert a.market_action(0, 0) is None
    assert [a.grid_action(t, None) for t in range(3)] == [
        (4, 1.5), (4, 2.5), (4, 1.5)]
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
    assert [a.role for a in agents] == [CONSUMER, PRODUCER, PRODUCER,
                                        CONSUMER]
    with pytest.raises(CaseFileError):
        parse_roster("agent a 1 consumer juggle 3\n")
    with pytest.raises(CaseFileError):
        parse_roster("agent a 1 consumer inelastic\n")


@pytest.mark.parametrize("line, message", [
    ("agent x1 6 banana ucb 4 6",
     "line 2: strategy ucb takes role producer or consumer; "
     "got 'banana'"),
    # no roster syntax sets a prosumer's availability
    ("agent x1 6 prosumer ucb 4 6",
     "line 2: strategy ucb takes role producer or consumer; "
     "got 'prosumer'"),
    ("agent g1 14 consumer flat_supply 3 10",
     "line 2: strategy flat_supply takes role producer; got 'consumer'"),
    ("agent g1 14 consumer supply 9 5 40",
     "line 2: strategy supply takes role producer; got 'consumer'"),
    ("agent c1 3 producer inelastic 8",
     "line 2: strategy inelastic takes role consumer; got 'producer'"),
    ("agent c1 3 producer elastic 8 1 10",
     "line 2: strategy elastic takes role consumer; got 'producer'"),
])
def test_roster_refuses_a_role_its_strategy_cannot_take(line, message):
    with pytest.raises(CaseFileError) as e:
        parse_roster(f"agent feeder 0 producer flat_supply 4.3 500\n{line}\n")
    assert str(e.value) == message


def test_roster_role_reaches_ucb_and_scripted_agents(tmp_path):
    (tmp_path / "prof.csv").write_text("kw\n-2\n")
    agents = parse_roster("agent p1 7 producer ucb 3 4\n"
                          "agent c1 8 consumer ucb 3 4\n"
                          "agent g1 8 producer scripted:prof.csv\n",
                          base_dir=str(tmp_path))
    assert [a.role for a in agents] == [PRODUCER, CONSUMER, PRODUCER]
    assert [a.current_role(0) for a in agents[:2]] == [PRODUCER, CONSUMER]
