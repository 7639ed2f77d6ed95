"""Security-constrained OPF on the linearized radial network and DLMPs.

The dispatch minimizes: source energy cost (positive imports priced at the
source LMP, exports unpaid), local generation cost and demand-response cost,
subject to power balance, generator limits, demand-response bounds and PTDF
line limits. DLMPs come from the row duals: the balance dual lambda plus the
congestion components H^T (mu_plus - mu_minus) per bus.

Cost curves are convex piecewise-linear blocks: a generator offer lists
(quantity, marginal price) blocks stacked above P_min; a DR offer lists
reduction blocks below the baseline load. The blocks, the per-bus sums and
the result are built from whole arrays, with no loop over blocks or buses.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .network import FLOW_TOL, CaseFileError, _bus_id, content_lines, ptdf
from .optim import InfeasibleLp, dispatch_duals, dispatch_lp, solve_lp


class DlmpError(Exception):
    pass


class NonConvexCost(DlmpError):
    pass


class InfeasibleBaseline(DlmpError):
    def __init__(self, message, binding_lines=()):
        super().__init__(message)
        self.binding_lines = list(binding_lines)


@dataclass
class GenOffer:
    bus: object
    p_min: float
    p_max: float
    blocks: list          # (quantity_kw, price_c_per_kwh), convex stack

    def __post_init__(self):
        if not 0 <= self.p_min <= self.p_max < math.inf:
            raise DlmpError(
                f"gen at bus {self.bus}: need 0 <= P_min <= P_max < inf")
        _check_convex(self.blocks, f"gen at bus {self.bus}")
        total = sum(q for q, _ in self.blocks)
        if total + 1e-9 < self.p_max - self.p_min:
            raise DlmpError(
                f"gen at bus {self.bus}: blocks cover {total} kW < "
                f"P_max - P_min = {self.p_max - self.p_min}")


@dataclass
class DrOffer:
    bus: object
    baseline: float       # load before demand response, kW
    blocks: list          # reduction blocks (quantity_kw, price)

    def __post_init__(self):
        if not 0 <= self.baseline < math.inf:
            raise DlmpError(
                f"dr at bus {self.bus}: baseline must be finite and >= 0")
        _check_convex(self.blocks, f"dr at bus {self.bus}")


def _check_convex(blocks, what):
    if not all(math.isfinite(v) for block in blocks for v in block):
        raise DlmpError(f"{what}: block quantities and prices must be finite")
    prices = [p for _, p in blocks]
    if any(b < a - 1e-12 for a, b in zip(prices, prices[1:])):
        raise NonConvexCost(f"{what}: marginal block prices must not decrease")
    if any(q <= 0 for q, _ in blocks):
        raise DlmpError(f"{what}: block quantities must be > 0")


@dataclass
class ScopfInput:
    lmp_source: float
    gen_offers: list          # GenOffer
    dr_offers: list           # DrOffer; also carries fixed loads (no blocks)
    network: object

    def __post_init__(self):
        buses = set(self.network.buses)
        for kind, offers in (("gen", self.gen_offers), ("dr", self.dr_offers)):
            for o in offers:
                if o.bus not in buses:
                    raise DlmpError(f"{kind} offer at unknown bus {o.bus}")
        if not 0 <= self.lmp_source < math.inf:
            raise DlmpError(
                f"lmp_source must be finite and >= 0, got {self.lmp_source}")

    def limits(self):
        """Line limits by id: only perfbench/checks.py calls it (ROADMAP 1)."""
        return self.network.line_limits()


@dataclass
class DlmpResult:
    dispatch: dict            # bus -> (P_g, P_d)
    p_source: float
    lam: float                # system marginal price (balance dual)
    mu_plus: dict             # line -> dual of f <= f_max
    mu_minus: dict            # line -> dual of -f <= f_max
    dlmp: dict                # bus -> cents/kWh (root included, = lam)
    objective: float
    flows: dict


def build_scopf(scopf_input):
    """Assemble the SCOPF LP. Returns (problem, index_maps) where index_maps
    carries the variable/row bookkeeping used for dual extraction."""
    net = scopf_input.network
    H = ptdf(net)
    gens, drs = scopf_input.gen_offers, scopf_input.dr_offers
    offers, n = gens + drs, len(net.buses)

    # Blocks, all producing: gen blocks, then DR reduction blocks. A gen
    # cannot run above P_max, nor DR cut below zero load: a block takes at
    # most what its offer's P_max - P_min or baseline has left, subtracted
    # block by block along the offer's row of `left`, for all offers with as
    # many blocks at once.
    blocks = [o.blocks for o in offers]
    counts = np.fromiter(map(len, blocks), np.intp, len(offers))
    qty, prices = np.fromiter(chain.from_iterable(chain.from_iterable(
        blocks)), float, 2 * counts.sum()).reshape(-1, 2).T
    owner = np.repeat(np.arange(len(offers)), counts)
    after = np.arange(qty.size) + owner + 1       # a block's slot in `left`
    start = np.cumsum(counts + 1) - counts - 1
    left = np.empty(qty.size + len(offers))
    left[start] = [g.p_max - g.p_min for g in gens] + [d.baseline for d in drs]
    left[after] = qty
    with np.errstate(over="ignore"):        # -inf: all taken, as any < 0
        for c in np.unique(counts):
            run = start[counts == c][:, None] + np.arange(c + 1)
            left[run] = np.subtract.accumulate(left[run], axis=1)
    caps = np.minimum(qty, left[after - 1])       # < 0 once all is taken
    kept = caps > 0

    # Gen floors and DR baselines are constant injections, summed per bus
    # in offer order: `sums` holds the floors by bus position, then the
    # baselines. The line limits count their flows, and the variables
    # balance their total, which adds the buses in their first offers' order.
    at = H.positions([o.bus for o in offers])
    slot = at + np.repeat([0, n], [len(gens), len(drs)])
    fixed = [g.p_min for g in gens] + [d.baseline for d in drs]
    if not math.isfinite(sum(fixed)):     # then no sum of them overflows
        raise DlmpError("gen P_min and dr baselines sum beyond the float range")
    sums = np.bincount(slot, fixed, 2 * n)
    f_const = H.flows((sums[n:] - sums[:n])[1:])
    first = slot[np.sort(np.unique(slot, return_index=True)[1])]

    # The source is a priced import and an unpaid export at the root, so
    # P_source = x[0] - x[1].
    problem = dispatch_lp(
        H, np.append([0, 0], at[owner[kept]]),
        np.append([-1.0, 1.0], -np.ones(kept.sum())),
        np.append([scopf_input.lmp_source, 0.0], prices[kept]),
        np.append([np.inf, np.inf], caps[kept]),
        balance=(sum(sums[first[first < n]].tolist())
                 - sum(sums[first[first >= n]].tolist())),
        f_const=f_const)

    maps = {
        "slot": slot,                # each offer's entry in the bus sums
        "fixed": fixed,              # and its floor or baseline
        "owner": owner[kept],        # the offer of each variable from x[2]
        "H": H,
        "f_const": f_const,          # flows of the constant injections
    }
    return problem, maps


def solve_dlmp(scopf_input):
    """Run SCOPF and extract per-bus DLMPs from the dual solution."""
    net = scopf_input.network
    problem, maps = build_scopf(scopf_input)
    H = maps["H"]
    # bounded: imports cost lmp_source >= 0 and the other blocks are capped
    try:
        sol = solve_lp(problem)
    except InfeasibleLp:
        binding = [H.line_order[i] for i in np.flatnonzero(
            np.abs(maps["f_const"]) > H.limits + FLOW_TOL).tolist()]
        raise InfeasibleBaseline(
            "SCOPF Infeasible: baseline load violates line limits",
            binding) from None

    lam, mu_plus, mu_minus = dispatch_duals(sol, H.limited)
    # Each bus's generation is its floors plus its gen blocks, and its load
    # its baselines less its DR blocks, added in offer and then block order
    # (in floats: np.bincount counts no offers at all in ints).
    slot, owner, x, n = maps["slot"], maps["owner"], sol.x[2:], len(net.buses)
    p_g, p_d = np.bincount(np.append(slot, slot[owner]), np.append(
        maps["fixed"], np.where(owner < len(scopf_input.gen_offers), x, -x)),
        2 * n).astype(float, copy=False).reshape(2, n)
    return DlmpResult(
        dispatch=dict(zip(net.buses, zip(p_g.tolist(), p_d.tolist()))),
        p_source=float(sol.x[0] - sol.x[1]),
        lam=lam,
        mu_plus=dict(zip(H.line_order, mu_plus.tolist())),
        mu_minus=dict(zip(H.line_order, mu_minus.tolist())),
        dlmp=dict(zip(net.buses, np.append(
            lam, lam + H.path_sums(mu_plus - mu_minus)).tolist())),
        objective=sol.objective,
        flows=dict(zip(H.line_order, H.flows((p_d - p_g)[1:]).tolist())),
    )


def parse_offers(text):
    """Parse a gen/dr offers file.

    `gen <bus> <pmin> <pmax> <qty,price> ...` and
    `dr <bus> <baseline> <qty,price> ...`; `#` starts a comment.
    """
    gens, drs = [], []
    for ln, stripped in content_lines(text.splitlines()):
        tok = stripped.split()
        try:
            if tok[0] == "gen":
                blocks = [tuple(map(float, b.split(","))) for b in tok[4:]]
                gens.append(GenOffer(bus=_bus_id(tok[1]), p_min=float(tok[2]),
                                     p_max=float(tok[3]), blocks=blocks))
            elif tok[0] == "dr":
                blocks = [tuple(map(float, b.split(","))) for b in tok[3:]]
                drs.append(DrOffer(bus=_bus_id(tok[1]), baseline=float(tok[2]),
                                   blocks=blocks))
            else:
                raise CaseFileError(f"line {ln}: unknown directive {tok[0]!r}")
        except (ValueError, IndexError):
            raise CaseFileError(f"line {ln}: malformed offer record") from None
        except DlmpError as e:
            raise CaseFileError(f"line {ln}: {e}") from None
    return gens, drs
