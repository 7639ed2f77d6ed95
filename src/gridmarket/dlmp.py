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
    gens, drs = scopf_input.gen_offers, scopf_input.dr_offers
    offers, n = gens + drs, len(net.buses)

    # Blocks, all producing: gen blocks, then DR reduction blocks. DR cannot
    # cut below zero load: a block takes at most what its offer's baseline
    # (a gen's is inf) has left, subtracted block by block along the offer's
    # row of `left`, for all offers with as many blocks at once.
    counts = np.array([len(o.blocks) for o in offers], dtype=np.intp)
    qty, prices = np.array([v for o in offers for b in o.blocks for v in b],
                           dtype=float).reshape(-1, 2).T
    owner = np.repeat(np.arange(len(offers)), counts)
    after = np.arange(qty.size) + owner + 1       # a block's slot in `left`
    start = np.cumsum(counts + 1) - counts - 1
    left = np.empty(qty.size + len(offers))
    left[start] = [np.inf] * len(gens) + [d.baseline for d in drs]
    left[after] = qty
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
    sums = np.bincount(slot, fixed, 2 * n)
    f_const = H.flows((sums[n:] - sums[:n])[1:])
    first = slot[np.sort(np.unique(slot, return_index=True)[1])]

    # The source is a priced import and an unpaid export at the root, so
    # P_source = x[0] - x[1].
    problem, limited = dispatch_lp(
        H, scopf_input.limits(), np.append([0, 0], at[owner[kept]]),
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
        "limited": limited,          # the finite-limit lines, for dispatch_duals
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
        limits = scopf_input.limits()
        binding = [lid for lid, f in zip(H.line_order, maps["f_const"])
                   if abs(f) > limits[lid] + FLOW_TOL]
        raise InfeasibleBaseline(
            "SCOPF Infeasible: baseline load violates line limits",
            binding) from None

    lam, mu_plus, mu_minus = dispatch_duals(sol, maps["limited"])
    dlmp = {net.root: lam,
            **dict(zip(H.bus_order, lam + H.path_sums(mu_plus - mu_minus)))}

    # Each bus's generation is its floors plus its gen blocks, and its load
    # its baselines less its DR blocks, added in offer and then block order.
    slot, owner, x, n = maps["slot"], maps["owner"], sol.x[2:], len(net.buses)
    p_g, p_d = np.bincount(np.append(slot, slot[owner]), np.append(
        maps["fixed"], np.where(owner < len(scopf_input.gen_offers), x, -x)),
        2 * n).reshape(2, n)
    return DlmpResult(
        dispatch=dict(zip(net.buses, zip(p_g.tolist(), p_d.tolist()))),
        p_source=float(sol.x[0] - sol.x[1]),
        lam=lam,
        mu_plus=dict(zip(H.line_order, mu_plus.tolist())),
        mu_minus=dict(zip(H.line_order, mu_minus.tolist())),
        dlmp=dlmp,
        objective=float(sol.objective),
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
