"""Radial distribution network model.

Buses form a tree rooted at the feeder (bus 0). In this lossless radial
model the flow on the line into bus j equals the net consumption at j plus
the flows into all of j's children; every line flow is computed as the
network's cached PTDF, held as numpy index arrays, applied to the bus
injections. Sign convention:
consumption is positive, generation negative; line flow is positive in the
parent->child direction.
"""

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

# A line is overloaded when its flow exceeds its limit by more than this (kW).
FLOW_TOL = 1e-9


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
    """Validated radial network. The first bus is the feeder/root; each
    line runs parent -> child."""

    buses: list
    lines: list              # (line_id, from_bus, to_bus, limit_kw)
    parent: dict = field(default_factory=dict)    # bus -> parent bus
    # the PTDF, built by the first `ptdf(network)`
    _ptdf: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_buses(self):
        return len(self.buses)

    @property
    def n_lines(self):
        return len(self.lines)

    def line_limits(self):
        return {lid: lim for lid, _, _, lim in self.lines}

    def non_root_buses(self):
        return [b for b in self.buses if b != self.root]

    @property
    def root(self):
        return self.buses[0]


def build_network(buses, lines):
    """Validate topology, orient lines parent -> child, derive parent map.

    `buses` is a list of bus ids with the feeder first; `lines` is a list of
    (line_id, from_bus, to_bus, limit_kw) tuples. Raises CyclicTopology,
    Disconnected, DuplicateLine or UnknownBus naming the offending element.
    """
    if not buses:
        raise NetworkError("empty bus list")
    bus_set = set(buses)
    if len(bus_set) != len(buses):
        raise NetworkError("duplicate bus ids")
    if clash := str_clash(buses):
        raise NetworkError(f"bus {clash}")
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
        adj[u].append(v)
        adj[v].append(u)

    if clash := str_clash([lid for lid, _, _, _ in lines]):
        raise DuplicateLine(f"line {clash}")
    if len(lines) >= len(buses):
        raise CyclicTopology(
            f"{len(lines)} lines for {len(buses)} buses: a radial tree needs |buses|-1")
    if len(lines) < len(buses) - 1:
        raise Disconnected(
            f"{len(lines)} lines cannot connect {len(buses)} buses")

    # BFS from the root orients every edge parent->child and detects
    # disconnection (cycle count is already excluded by the edge count).
    parent = {}
    order = [root]
    visited = {root}
    for u in order:                 # visits what the loop appends
        for v in adj[u]:
            if v not in visited:
                visited.add(v)
                parent[v] = u
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

    return Network(buses=list(buses), lines=oriented, parent=parent)


def str_clash(ids):
    """The first two distinct `ids` whose `str`, the key the logs give them,
    is the same, as "ids A and B both log as S"; else None."""
    first = {}
    for i in ids:
        if first.setdefault(str(i), i) is not i:
            return f"ids {first[str(i)]!r} and {i!r} both log as {str(i)!r}"


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
    return int(tok) if tok.removeprefix("-").isdecimal() else tok


def load_case(path):
    with open(path, encoding="utf-8") as f:
        buses, lines = parse_case(f.read())
    return build_network(buses, lines)


def line_flows(network, injections):
    """Directed kW flow per line from net bus consumption, f = H @ x on the
    network's cached PTDF (root-bus and missing buses inject 0)."""
    H = ptdf(network)
    x = np.array([injections.get(b, 0.0) for b in H.bus_order])
    return dict(zip(H.line_order, H.flows(x).tolist()))


@dataclass
class PtdfMatrix:
    """0/1 path-indicator matrix H, lines x non-root buses: H[l, i] = 1 iff
    line l is on the root path of bus i. f = H @ x maps net injections to
    line flows; H^T sums line values along each bus's root path. H is held
    as its 1-entries (path_rows, path_cols), ordered by bus and then by
    line, so both products add in the order of a CSR (for H^T, CSC) mat-vec.
    Beside H it holds the line limits, with `limited` marking the finite
    ones."""

    path_rows: np.ndarray   # line index of each entry
    path_cols: np.ndarray   # bus index of each entry, ascending
    line_order: list        # line index -> line_id
    bus_order: list         # bus index -> bus id (non-root buses)
    limits: np.ndarray      # line index -> flow limit, kW

    def __post_init__(self):
        self.bus_index = {b: i for i, b in enumerate(self.bus_order)}
        self.limited = np.isfinite(self.limits)

    def positions(self, buses):
        """Each bus's position in the network's bus list: 0 for the root."""
        return np.fromiter(map(self.bus_index.get, buses, repeat(-1)),
                           np.intp, len(buses)) + 1

    def flows(self, x):
        """H @ x: per-line flow of the bus injections x."""
        return np.bincount(self.path_rows, weights=x[self.path_cols],
                           minlength=len(self.line_order))

    def path_sums(self, y):
        """H^T @ y: per-bus sum of the line values y on its root path."""
        return np.bincount(self.path_cols, weights=y[self.path_rows],
                           minlength=len(self.bus_order))


def ptdf(network):
    """Path-indicator PTDF of a radial network, with its line limits, built
    once per network in O(sum of bus depths) and cached on it: a network's
    lines must not change after its first `ptdf`."""
    if network._ptdf is not None:
        return network._ptdf
    non_root = network.non_root_buses()
    line_order = [lid for lid, _, _, _ in network.lines]
    row_into = {v: i for i, (_, _, v, _) in enumerate(network.lines)}
    rows, cols = [], []
    for i, bus in enumerate(non_root):
        path, b = [], bus
        while b != network.root:
            path.append(row_into[b])
            b = network.parent[b]
        rows += sorted(path)
        cols += [i] * len(path)
    network._ptdf = PtdfMatrix(
        np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
        line_order, non_root, np.array([lim for *_, lim in network.lines], float))
    return network._ptdf


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
        self.reset()

    def reset(self):
        """The state of no actions, at t = -1."""
        self.state = None
        return self.step({})

    def step(self, grid_actions):
        """Apply per-agent (bus, kW) actions, recompute flows and feasibility.

        Actions at the same bus superpose, added in action order. Infeasible
        states are recorded, not rejected: market trades can overload lines.
        """
        H = ptdf(self.network)
        x = [0.0] * len(H.bus_order)
        for agent_id, (bus, kw) in grid_actions.items():
            i = H.bus_index.get(bus)
            if i is not None:
                x[i] += kw
            elif bus != self.network.root:  # the root's is the feeder's flow
                raise UnknownBus(f"agent {agent_id}: unknown bus {bus}")
        f = H.flows(np.array(x))
        self.state = GridState(
            t=-1 if self.state is None else self.state.t + 1,
            injections=dict(zip(H.bus_order, x)),
            flows=dict(zip(H.line_order, f.tolist())),
            feasible=bool((np.abs(f) <= H.limits + FLOW_TOL).all()))
        return self.state
