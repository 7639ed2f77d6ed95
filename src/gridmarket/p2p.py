"""Peer-to-peer market: random matching and bilateral price negotiation.

The market maker pairs producers and consumers uniformly at random, without
regard to location or quantity. A matched pair negotiates once per market
step, the paper's T steps per round; a step succeeds when the producer's ask
does not exceed the consumer's bid (inclusive). On success the trade
executes at the producer's ask, both sides pay a fixed service fee; on
failure both take a fixed penalty. Energy a consumer fails to secure is
drawn from the substation at the retail price.
"""

import math
from dataclasses import dataclass, fields

import numpy as np


@dataclass
class P2pConfig:
    c_service: float = 0.5      # cents/kWh, charged on success only
    c_lose: float = 1.0         # penalty on failed negotiation
    ub: float = 10.0            # utility fallback price in the reward rule
    trade_quantity: float = 3.0  # kW, homogeneous trades
    retail_price: float = 12.0  # cents/kWh for deficiency from the grid

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not self.ub > self.c_service >= 0:
            raise ValueError("need ub > c_service >= 0")
        if self.c_lose < 0 or self.trade_quantity <= 0:
            raise ValueError("need c_lose >= 0 and trade_quantity > 0")


@dataclass
class MatchRound:
    pairs: list        # (producer_id, consumer_id)
    unmatched: list


@dataclass
class NegotiationOutcome:
    success: bool
    b_p: float
    b_c: float
    trade_price: float = None   # defined iff success
    r_p: float = 0.0
    r_c: float = 0.0


@dataclass
class P2pRoundResult:
    outcomes: dict           # (producer, consumer) -> NegotiationOutcome
    grid_kw: dict            # agent -> signed kW for the grid step
    deficiency: dict         # consumer -> retail charge
    unmatched: list


def match(producers, consumers, rng):
    """Uniform random pairing of min(|P|, |C|) pairs, without replacement.

    `rng` is a seed or numpy Generator; identical seeds give identical
    pairings.
    """
    rng = np.random.default_rng(rng)
    producers, consumers = list(producers), list(consumers)
    k = min(len(producers), len(consumers))
    p_idx = rng.permutation(len(producers))[:k]
    c_idx = rng.permutation(len(consumers))[:k]
    pairs = [(producers[i], consumers[j]) for i, j in zip(p_idx, c_idx)]
    matched = {a for pair in pairs for a in pair}
    unmatched = [a for a in producers + consumers if a not in matched]
    return MatchRound(pairs=pairs, unmatched=unmatched)


def negotiate(producer_bid, consumer_bid, config):
    """One negotiation step. Success iff b_p <= b_c; trade at the producer's
    ask; the consumer's bid is only an acceptance threshold."""
    if producer_bid <= consumer_bid:
        return NegotiationOutcome(
            success=True, b_p=producer_bid, b_c=consumer_bid,
            trade_price=producer_bid,
            r_p=producer_bid - config.c_service,
            r_c=config.ub - producer_bid - config.c_service,
        )
    return NegotiationOutcome(
        success=False, b_p=producer_bid, b_c=consumer_bid,
        r_p=-config.c_lose, r_c=-config.c_lose,
    )


def settle_deficiency(delivered, demanded, retail_price):
    """Charge for energy not obtained peer-to-peer, drawn from the feeder."""
    if delivered > demanded + 1e-12:
        raise ValueError("delivered exceeds demanded")
    return (demanded - delivered) * retail_price
