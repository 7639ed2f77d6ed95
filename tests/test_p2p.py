import json

import numpy as np
import pytest

from gridmarket.p2p import (
    MatchRound, P2pConfig, match, negotiate, settle_deficiency,
)
from helpers import moving_average

CFG = P2pConfig(c_service=0.5, c_lose=1.0, ub=10.0)


def test_config_validation():
    with pytest.raises(ValueError):
        P2pConfig(c_service=11.0, ub=10.0)
    with pytest.raises(ValueError):
        P2pConfig(c_lose=-1.0)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("name", ["c_service", "c_lose", "ub",
                                  "trade_quantity", "retail_price"])
def test_config_refuses_non_finite_fields(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        P2pConfig(**{name: value})


def test_success_rewards():
    out = negotiate(4.0, 6.0, CFG)
    assert out.success
    assert out.trade_price == 4.0
    assert out.r_p == pytest.approx(4.0 - 0.5)
    assert out.r_c == pytest.approx(10.0 - 4.0 - 0.5)


def test_equal_bids_succeed():
    out = negotiate(5.0, 5.0, CFG)
    assert out.success
    assert out.trade_price == 5.0


def test_failure_rewards():
    out = negotiate(6.0, 4.0, CFG)
    assert not out.success
    assert out.trade_price is None
    assert out.r_p == -1.0
    assert out.r_c == -1.0


def test_reward_algebra_random_pairs():
    rng = np.random.default_rng(31)
    b_p = rng.uniform(0.0, 10.0, 10_000)
    b_c = rng.uniform(0.0, 10.0, 10_000)
    for p, c in zip(b_p, b_c):
        out = negotiate(p, c, CFG)
        if p <= c:
            assert out.r_p == p - CFG.c_service
            assert out.r_c == CFG.ub - p - CFG.c_service
            # combined surplus is constant on success
            assert out.r_p + out.r_c == pytest.approx(
                CFG.ub - 2 * CFG.c_service)
        else:
            assert out.r_p == out.r_c == -CFG.c_lose


def test_match_counts_and_unmatched():
    rng = np.random.default_rng(0)
    round_ = match(["p1", "p2", "p3"], ["c1", "c2"], rng)
    assert len(round_.pairs) == 2
    assert len(round_.unmatched) == 1
    assert round_.unmatched[0].startswith("p")
    seen = {a for pair in round_.pairs for a in pair}
    assert len(seen) == 4  # no one matched twice


def test_match_deterministic_under_seed():
    a = match(list("abcd"), list("wxyz"), 123)
    b = match(list("abcd"), list("wxyz"), 123)
    assert a.pairs == b.pairs


def test_match_is_uniform():
    # p1 should meet each of 3 consumers about equally often
    counts = {"x": 0, "y": 0, "z": 0}
    rng = np.random.default_rng(7)
    n = 3000
    for _ in range(n):
        round_ = match(["p1", "p2", "p3"], ["x", "y", "z"], rng)
        partner = dict(round_.pairs)["p1"]
        counts[partner] += 1
    for c in counts.values():
        assert abs(c / n - 1 / 3) < 0.03


def test_settle_deficiency():
    assert settle_deficiency(2.0, 5.0, 12.0) == pytest.approx(36.0)
    assert settle_deficiency(5.0, 5.0, 12.0) == 0.0
    with pytest.raises(ValueError):
        settle_deficiency(6.0, 5.0, 12.0)


def test_log_jsonl_and_moving_average():
    # negotiation entries as the episode log writes them, one per market step
    lines = []
    for k in range(10):
        out = negotiate(4.0 if k % 2 else 6.0, 5.0, CFG)
        lines.append(json.dumps({
            "phase": "market_step", "t_grid": 0, "t_market": k,
            "negotiations": [{"producer": "p", "consumer": "c",
                              "b_p": out.b_p, "b_c": out.b_c,
                              "success": out.success}]}, sort_keys=True))
    success = [n["success"] for line in lines
               for n in json.loads(line)["negotiations"]]
    ma = moving_average(success, window=10)
    assert ma.shape == (1,)
    assert ma[0] == pytest.approx(0.5)
