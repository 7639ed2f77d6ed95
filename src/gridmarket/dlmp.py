"""Security-constrained OPF on the linearized radial network and DLMPs.

The dispatch minimizes: source energy cost (positive imports priced at the
source LMP, exports unpaid), local generation cost and demand-response cost,
subject to power balance, generator limits, demand-response bounds and PTDF
line limits. DLMPs come from the duals: the balance dual lambda plus the
congestion components H^T (mu_plus - mu_minus) per bus.

Cost curves are convex piecewise-linear blocks: a generator offer lists
(quantity, marginal price) blocks stacked above P_min; a DR offer lists
reduction blocks below the baseline load.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .network import line_limit_rows, ptdf
from .optim import LpProblem, OPTIMAL, epigraph_max0, solve_lp


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
        if not 0 <= self.p_min <= self.p_max:
            raise DlmpError(f"gen at bus {self.bus}: need 0 <= P_min <= P_max")
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
        if self.baseline < 0:
            raise DlmpError(f"dr at bus {self.bus}: baseline must be >= 0")
        _check_convex(self.blocks, f"dr at bus {self.bus}")


def _check_convex(blocks, what):
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
    limits = scopf_input.limits()

    # Variables: P_source, then gen blocks, then DR reduction blocks.
    c = [0.0]
    bounds = [(-np.inf, np.inf)]
    gen_vars, dr_vars = [], []   # (var_index, offer, block_index)
    for g in scopf_input.gen_offers:
        for qty, price in g.blocks:
            gen_vars.append((len(c), g))
            c.append(price)
            bounds.append((0.0, qty))
    for d in scopf_input.dr_offers:
        avail = d.baseline
        for qty, price in d.blocks:
            qty = min(qty, avail)       # DR cannot cut below zero load
            if qty <= 0:
                continue
            dr_vars.append((len(c), d))
            c.append(price)
            bounds.append((0.0, qty))
            avail -= qty
    n = len(c)

    base_load = {d.bus: 0.0 for d in scopf_input.dr_offers}
    for d in scopf_input.dr_offers:
        base_load[d.bus] += d.baseline
    gen_floor = {g.bus: 0.0 for g in scopf_input.gen_offers}
    for g in scopf_input.gen_offers:
        gen_floor[g.bus] += g.p_min

    # Balance: P_source + sum(gen blocks) + sum(dr reductions)
    #          = total baseline - total mandatory generation.
    A_eq = sparse.csr_array(np.ones((1, n)))
    b_eq = np.array([sum(base_load.values()) - sum(gen_floor.values())])

    # Injections (consumption positive) per non-root bus in terms of vars,
    # plus the constant part: baseline loads less mandatory generation.
    var_buses = [net.root] + [o.bus for _, o in gen_vars + dr_vars]
    inj = H.injection_map(var_buses, -np.ones(n))
    const = H.injection_map(
        list(base_load) + list(gen_floor),
        list(base_load.values()) + [-f for f in gen_floor.values()])
    f_const = H.matrix @ const.sum(axis=1)
    A_ub, b_ub, row_lines = line_limit_rows(H, inj, limits, f_const)

    problem = LpProblem(c=np.array(c), A_eq=A_eq, b_eq=b_eq,
                        A_ub=A_ub, b_ub=b_ub, bounds=bounds)
    # Price only positive imports: s >= max(0, P_source) at LMP_source.
    problem, s_index = epigraph_max0(problem, 0)
    problem.c[s_index] = scopf_input.lmp_source

    maps = {
        "gen_vars": gen_vars,
        "dr_vars": dr_vars,
        "row_lines": row_lines,      # per A_ub row before the epigraph row
        "s_index": s_index,
        "H": H,
        "base_load": base_load,
        "gen_floor": gen_floor,
        "f_const": f_const,
        "inj": inj,
    }
    return problem, maps


def solve_dlmp(scopf_input):
    """Run SCOPF and extract per-bus DLMPs from the dual solution."""
    net = scopf_input.network
    problem, maps = build_scopf(scopf_input)
    sol = solve_lp(problem)
    if sol.status != OPTIMAL:
        limits = scopf_input.limits()
        H = maps["H"]
        binding = [lid for r, lid in enumerate(H.line_order)
                   if np.isfinite(limits[lid])
                   and abs(maps["f_const"][r]) > limits[lid] + 1e-9]
        raise InfeasibleBaseline(
            f"SCOPF {sol.status}: baseline load violates line limits", binding)

    lam = float(sol.duals_eq[0])
    mu_plus = {lid: 0.0 for lid, _, _, _ in net.lines}
    mu_minus = dict(mu_plus)
    for (lid, direction), y in zip(maps["row_lines"], sol.duals_ub):
        (mu_plus if direction > 0 else mu_minus)[lid] = float(y)

    H = maps["H"]
    mu = np.array([mu_plus[lid] - mu_minus[lid] for lid in H.line_order])
    dlmp = {net.root: lam, **dict(zip(H.bus_order, lam + H.matrix.T @ mu))}

    p_g = dict(maps["gen_floor"])
    for j, g in maps["gen_vars"]:
        p_g[g.bus] = p_g.get(g.bus, 0.0) + float(sol.x[j])
    p_d = dict(maps["base_load"])
    for j, d in maps["dr_vars"]:
        p_d[d.bus] = p_d.get(d.bus, 0.0) - float(sol.x[j])

    dispatch = {bus: (p_g.get(bus, 0.0), p_d.get(bus, 0.0))
                for bus in net.buses}

    x = sol.x[:maps["inj"].shape[1]]
    flows = dict(zip(H.line_order, maps["f_const"] + H.matrix @ (maps["inj"] @ x)))
    return DlmpResult(
        dispatch=dispatch,
        p_source=float(sol.x[0]),
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
    from .network import CaseFileError, _bus_id, content_lines

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
    return gens, drs
