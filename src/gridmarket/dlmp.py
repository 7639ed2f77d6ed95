"""Security-constrained OPF on the linearized radial network and DLMPs.

The dispatch minimizes: source energy cost (positive imports priced at the
source LMP, exports unpaid), local generation cost and demand-response cost,
subject to power balance, generator limits, demand-response bounds and PTDF
line limits. DLMPs come from the row duals: the balance dual lambda plus the
congestion components H^T (mu_plus - mu_minus) per bus.

Cost curves are convex piecewise-linear blocks: a generator offer lists
(quantity, marginal price) blocks stacked above P_min; a DR offer lists
reduction blocks below the baseline load.
"""

import math
from dataclasses import dataclass

import numpy as np

from .network import (
    FLOW_TOL, CaseFileError, _bus_id, content_lines, line_flows, ptdf,
)
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
    f_max: dict = None        # optional per-line overrides of network limits

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
        lims = self.network.line_limits()
        if self.f_max:
            lims.update(self.f_max)
        return lims


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

    # Blocks, all producing: gen blocks, then DR reduction blocks.
    offers, caps, prices = [], [], []
    for o in scopf_input.gen_offers + scopf_input.dr_offers:
        # DR cannot cut below zero load
        avail = o.baseline if isinstance(o, DrOffer) else np.inf
        for qty, price in o.blocks:
            qty = min(qty, avail)
            if qty > 0:
                offers.append(o)
                caps.append(qty)
                prices.append(price)
                avail -= qty

    base_load = {d.bus: 0.0 for d in scopf_input.dr_offers}
    for d in scopf_input.dr_offers:
        base_load[d.bus] += d.baseline
    gen_floor = {g.bus: 0.0 for g in scopf_input.gen_offers}
    for g in scopf_input.gen_offers:
        gen_floor[g.bus] += g.p_min

    # The source is a priced import and an unpaid export at the root, so
    # P_source = x[0] - x[1]. Baseline loads less mandatory generation are
    # constant injections: the variables balance their total, and the line
    # limits count their flows.
    f_const = line_flows(net, {b: base_load.get(b, 0.0) - gen_floor.get(b, 0.0)
                               for b in base_load | gen_floor})
    problem, limited = dispatch_lp(
        H, scopf_input.limits(), [net.root] * 2 + [o.bus for o in offers],
        [-1.0, 1.0] + [-1.0] * len(offers),
        [scopf_input.lmp_source, 0.0] + prices, [np.inf] * 2 + caps,
        balance=sum(gen_floor.values()) - sum(base_load.values()),
        f_const=f_const)

    maps = {
        "offers": offers,            # the offer of each variable from x[2]
        "limited": limited,          # the finite-limit lines, for dispatch_duals
        "H": H,
        "base_load": base_load,
        "gen_floor": gen_floor,
        "f_const": f_const,          # line -> flow of the constant injections
    }
    return problem, maps


def solve_dlmp(scopf_input):
    """Run SCOPF and extract per-bus DLMPs from the dual solution."""
    net = scopf_input.network
    problem, maps = build_scopf(scopf_input)
    # bounded: imports cost lmp_source >= 0 and the other blocks are capped
    try:
        sol = solve_lp(problem)
    except InfeasibleLp:
        limits = scopf_input.limits()
        binding = [lid for lid, f in maps["f_const"].items()
                   if abs(f) > limits[lid] + FLOW_TOL]
        raise InfeasibleBaseline(
            "SCOPF Infeasible: baseline load violates line limits",
            binding) from None

    H = maps["H"]
    lam, mu_plus, mu_minus = dispatch_duals(sol, maps["limited"], H.line_order)
    mu = np.array([mu_plus[lid] - mu_minus[lid] for lid in H.line_order])
    dlmp = {net.root: lam, **dict(zip(H.bus_order, lam + H.path_sums(mu)))}

    p_g, p_d = dict(maps["gen_floor"]), dict(maps["base_load"])
    for o, x in zip(maps["offers"], sol.x[2:].tolist()):
        if isinstance(o, GenOffer):
            p_g[o.bus] = p_g.get(o.bus, 0.0) + x
        else:
            p_d[o.bus] = p_d.get(o.bus, 0.0) - x

    dispatch = {bus: (p_g.get(bus, 0.0), p_d.get(bus, 0.0))
                for bus in net.buses}
    flows = line_flows(net, {bus: p_d - p_g
                             for bus, (p_g, p_d) in dispatch.items()})
    return DlmpResult(
        dispatch=dispatch,
        p_source=float(sol.x[0] - sol.x[1]),
        lam=lam,
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        dlmp=dlmp,
        objective=float(sol.objective),
        flows=flows,
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
