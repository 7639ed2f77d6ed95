"""Radial distribution network model.

Buses form a tree rooted at the feeder (bus 0). In this lossless radial
model the flow on the line into bus j equals the net consumption at j plus
the flows into all of j's children; every line flow is computed as the
network's cached PTDF applied to the bus injections. Sign convention:
consumption is positive, generation negative; line flow is positive in the
parent->child direction.
"""

from dataclasses import dataclass, field

import numpy as np


class NetworkError(Exception):
    pass


class CyclicTopology(NetworkError):
    pass


class Disconnected(NetworkError):
    pass


class DuplicateLine(NetworkError):
    pass


class UnknownBus(NetworkError):
    pass


class CaseFileError(Exception):
    """Raised on malformed case files; carries the offending line number."""


@dataclass
class Network:
    """Validated radial network. Bus 0 is the feeder/root."""

    buses: list
    lines: list              # (line_id, from_bus, to_bus, limit_kw)
    parent: dict = field(default_factory=dict)    # bus -> parent bus
    children: dict = field(default_factory=dict)  # bus -> set of child buses

    @property
    def n_buses(self):
        return len(self.buses)

    @property
    def n_lines(self):
        return len(self.lines)

    def line_limits(self):
        return {lid: lim for lid, _, _, lim in self.lines}

    def line_into(self, bus):
        """Line id of the (unique) line whose child endpoint is `bus`."""
        return self._line_into[bus]

    def non_root_buses(self):
        return [b for b in self.buses if b != self.root]

    @property
    def root(self):
        return self.buses[0]


def build_network(buses, lines):
    """Validate topology and derive parent/children maps.

    `buses` is a list of bus ids with the feeder first; `lines` is a list of
    (line_id, from_bus, to_bus, limit_kw) tuples. Raises CyclicTopology,
    Disconnected, DuplicateLine or UnknownBus naming the offending element.
    """
    if not buses:
        raise NetworkError("empty bus list")
    bus_set = set(buses)
    if len(bus_set) != len(buses):
        raise NetworkError("duplicate bus ids")
    root = buses[0]

    seen_ids = set()
    seen_pairs = set()
    adj = {b: [] for b in buses}
    for lid, u, v, lim in lines:
        if u not in bus_set:
            raise UnknownBus(f"line {lid}: unknown bus {u}")
        if v not in bus_set:
            raise UnknownBus(f"line {lid}: unknown bus {v}")
        if u == v:
            raise CyclicTopology(f"line {lid}: self-loop at bus {u}")
        if lid in seen_ids:
            raise DuplicateLine(f"line id {lid} appears twice")
        pair = frozenset((u, v))
        if pair in seen_pairs:
            raise DuplicateLine(f"line {lid}: duplicate edge {u}-{v}")
        if not (lim > 0):
            raise NetworkError(f"line {lid}: flow limit must be > 0, got {lim}")
        seen_ids.add(lid)
        seen_pairs.add(pair)
        adj[u].append((v, lid))
        adj[v].append((u, lid))

    if len(lines) >= len(buses):
        raise CyclicTopology(
            f"{len(lines)} lines for {len(buses)} buses: a radial tree needs |buses|-1")
    if len(lines) < len(buses) - 1:
        raise Disconnected(
            f"{len(lines)} lines cannot connect {len(buses)} buses")

    # BFS from the root orients every edge parent->child and detects
    # disconnection (cycle count is already excluded by the edge count).
    parent = {}
    children = {b: set() for b in buses}
    line_into = {}
    order = [root]
    visited = {root}
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        for v, lid in adj[u]:
            if v in visited:
                continue
            visited.add(v)
            parent[v] = u
            children[u].add(v)
            line_into[v] = lid
            order.append(v)
    if len(visited) != len(buses):
        missing = sorted(bus_set - visited, key=str)
        raise Disconnected(f"buses unreachable from root {root}: {missing}")

    # Reorder lines parent->child so the stored direction matches flow signs.
    oriented = []
    for lid, u, v, lim in lines:
        if parent.get(v) == u:
            oriented.append((lid, u, v, lim))
        else:
            oriented.append((lid, v, u, lim))

    net = Network(buses=list(buses), lines=oriented, parent=parent,
                  children=children)
    net._line_into = line_into
    return net


def content_lines(lines):
    """(line number, text) of each line of a line-oriented input file that
    holds more than a `#` comment, stripped of the comment and blanks."""
    for ln, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield ln, stripped


def parse_case(text):
    """Parse the line-oriented case format into (buses, lines).

    Directives: `bus <id>` and `line <id> <from> <to> <limit_kw>`; `#` starts
    a comment. Unknown directives are rejected.
    """
    buses, lines = [], []
    for ln, stripped in content_lines(text.splitlines()):
        tok = stripped.split()
        if tok[0] == "bus":
            if len(tok) != 2:
                raise CaseFileError(f"line {ln}: expected `bus <id>`")
            buses.append(_bus_id(tok[1]))
        elif tok[0] == "line":
            if len(tok) != 5:
                raise CaseFileError(
                    f"line {ln}: expected `line <id> <from> <to> <limit_kw>`")
            try:
                lim = float(tok[4])
            except ValueError:
                raise CaseFileError(f"line {ln}: bad limit {tok[4]!r}") from None
            lines.append((tok[1], _bus_id(tok[2]), _bus_id(tok[3]), lim))
        else:
            raise CaseFileError(f"line {ln}: unknown directive {tok[0]!r}")
    return buses, lines


def _bus_id(tok):
    return int(tok) if tok.lstrip("-").isdigit() else tok


def load_case(path):
    with open(path, encoding="utf-8") as f:
        buses, lines = parse_case(f.read())
    return build_network(buses, lines)


def line_flows(network, injections):
    """Directed kW flow per line from net bus consumption, f = H @ x on the
    network's cached PTDF (root-bus and missing buses inject 0)."""
    H = ptdf(network)
    x = np.array([injections.get(b, 0.0) for b in H.bus_order])
    return dict(zip(H.line_order, (H.matrix @ x).tolist()))


@dataclass
class PtdfMatrix:
    """0/1 path-indicator matrix: H[l, i] = 1 iff line l is on the root path
    of non-root bus i. Maps net injections to line flows: f = H @ x.

    Stored as a sparse CSR `matrix`; `entries` is its dense view."""

    matrix: object     # scipy.sparse.csr_array, lines x non-root buses
    line_order: list   # row index -> line_id
    bus_order: list    # column index -> bus id (non-root buses)

    @property
    def entries(self):
        return self.matrix.toarray()

    def injection_map(self, var_buses, coefs):
        """Sparse bus x variable map with one entry per variable: variable j
        injects coefs[j] at var_buses[j]. Root-bus variables get no entry."""
        from scipy import sparse

        col = {b: i for i, b in enumerate(self.bus_order)}
        rows = np.fromiter((col.get(b, -1) for b in var_buses), dtype=np.intp,
                           count=len(var_buses))
        j = np.flatnonzero(rows >= 0)
        j = j[np.argsort(rows[j], kind="stable")]     # CSR order: bus, then j
        counts = np.bincount(rows[j], minlength=len(self.bus_order))
        return sparse.csr_array(
            (np.asarray(coefs, dtype=float)[j], j, np.append(0, np.cumsum(counts))),
            shape=(len(self.bus_order), len(var_buses)))


def ptdf(network):
    """Path-indicator PTDF of a radial network, built once per network in
    O(sum of bus depths) and cached on it."""
    cached = getattr(network, "_ptdf", None)
    if cached is not None:
        return cached
    from scipy import sparse

    non_root = network.non_root_buses()
    line_order = [lid for lid, _, _, _ in network.lines]
    row = {lid: i for i, lid in enumerate(line_order)}
    rows, cols = [], []
    for i, bus in enumerate(non_root):
        b = bus
        while b != network.root:
            rows.append(row[network.line_into(b)])
            cols.append(i)
            b = network.parent[b]
    H = sparse.csr_array((np.ones(len(rows)), (rows, cols)),
                         shape=(len(line_order), len(non_root)))
    network._ptdf = PtdfMatrix(matrix=H, line_order=line_order,
                               bus_order=non_root)
    return network._ptdf


def line_limit_rows(H, inj, limits, f_const=None):
    """Sparse line-limit rows -lim <= H @ (inj @ x + const) <= lim.

    `inj` is the sparse bus x variable injection map, `f_const` the line
    flows of the constant injections by line id (None: zero). Emits
    `+row, -row` per finite-limit line in `H.line_order`. Returns (A_ub,
    b_ub, row_lines) with row_lines[k] = (line_id, +1 | -1); A_ub and b_ub
    are None when no line has a finite limit.
    """
    from scipy import sparse

    keep = [r for r, lid in enumerate(H.line_order)
            if np.isfinite(limits[lid])]
    if not keep:
        return None, None, []
    kept = [H.line_order[r] for r in keep]
    lims = np.array([limits[lid] for lid in kept])
    f0 = 0.0 if f_const is None else np.array([f_const[lid] for lid in kept])
    b_ub = np.column_stack([lims - f0, lims + f0]).ravel()
    # S picks each kept line twice, as +row then -row.
    S = sparse.csr_array(
        (np.tile([1.0, -1.0], len(keep)), np.repeat(keep, 2),
         np.arange(2 * len(keep) + 1)),
        shape=(2 * len(keep), len(H.line_order)))
    row_lines = [(lid, s) for lid in kept for s in (+1, -1)]
    return (S @ H.matrix) @ inj, b_ub, row_lines


@dataclass
class GridState:
    t: int
    injections: dict
    flows: dict
    feasible: bool


class Grid:
    """Grid-side state machine: reset/step driven by the environment."""

    def __init__(self, network):
        self.network = network
        self.limits = network.line_limits()
        self.state = None
        self.reset()

    def reset(self):
        self.state = GridState(
            t=-1,
            injections={b: 0.0 for b in self.network.non_root_buses()},
            flows={lid: 0.0 for lid, _, _, _ in self.network.lines},
            feasible=True,
        )
        return self.state

    def step(self, grid_actions):
        """Apply per-agent (bus, kW) actions, recompute flows and feasibility.

        Actions at the same bus superpose. Infeasible states are recorded,
        not rejected: market trades can overload lines.
        """
        injections = {b: 0.0 for b in self.network.non_root_buses()}
        bus_set = set(self.network.buses)
        for agent_id, (bus, kw) in grid_actions.items():
            if bus not in bus_set:
                raise UnknownBus(f"agent {agent_id}: unknown bus {bus}")
            if bus == self.network.root:
                continue  # feeder exchange is implicit in the root flow
            injections[bus] += kw
        flows = line_flows(self.network, injections)
        feasible = all(abs(flows[lid]) <= self.limits[lid] + 1e-9
                       for lid in flows)
        self.state = GridState(t=self.state.t + 1, injections=injections,
                               flows=flows, feasible=feasible)
        return self.state
