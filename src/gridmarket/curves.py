"""Affine supply/demand curves.

A curve is the quadruple (p_max, p_min, q_max, q_min): supply price rises
from p_min at q_min to p_max at q_max, demand price falls from p_max at
q_min to p_min at q_max. Quantities below q_min are admissible for dispatch
(down to zero trade) and are valued at the q_min endpoint price.
`clearing.curve_params` and `on_curve` compute prices and integrals.
"""

import math
from dataclasses import dataclass

SUPPLY = "supply"
DEMAND = "demand"
# Quantities this far outside a curve's domain are rounding and are clipped
# to it; farther out they raise QuantityOutOfRange.
DOMAIN_TOL = 1e-12


class CurveError(Exception):
    pass


class QuantityOutOfRange(CurveError):
    pass


@dataclass(frozen=True)
class Curve:
    side: str        # SUPPLY or DEMAND
    p_max: float     # cents/kWh
    p_min: float
    q_max: float     # kW
    q_min: float

    def __post_init__(self):
        if self.side not in (SUPPLY, DEMAND):
            raise CurveError(f"side must be {SUPPLY!r} or {DEMAND!r}")
        if not all(map(math.isfinite,
                       (self.p_max, self.p_min, self.q_max, self.q_min))):
            raise CurveError("prices and quantities must be finite")
        if not self.p_max >= self.p_min:
            raise CurveError(f"p_max {self.p_max} < p_min {self.p_min}")
        if not self.q_max > self.q_min:
            raise CurveError(f"q_max {self.q_max} <= q_min {self.q_min}")
        if self.q_min < 0:
            raise CurveError("q_min must be >= 0")
        if not math.isfinite(self.slope):
            raise CurveError("price range over quantity range overflows")

    @property
    def slope(self):
        s = (self.p_max - self.p_min) / (self.q_max - self.q_min)
        return s if self.side == SUPPLY else -s
