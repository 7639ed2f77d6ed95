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

    seen_ids, seen_pairs = set(), set()
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
    oriented = [(lid, u, v, lim) if parent.get(v) == u else (lid, v, u, lim)
                for lid, u, v, lim in lines]
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
    network's cached PTDF (the root and buses not given inject 0; a bus the
    network lacks raises UnknownBus)."""
    H = ptdf(network)
    for b in injections.keys() - H.bus_index.keys() - {network.root}:
        raise UnknownBus(f"unknown bus {b}")
    x = np.array([injections.get(b, 0.0) for b in H.bus_order])
    return dict(zip(H.line_order, H.flows(x).tolist()))


@dataclass
class PtdfMatrix:
    """0/1 path-indicator matrix H, lines x non-root buses: H[l, i] = 1 iff
    line l is on the root path of bus i. f = H @ x maps net injections to
    line flows. H is held as its 1-entries (path_rows, path_cols), ordered
    by bus and then by line, so f adds in the order of a CSR mat-vec. Beside
    H it holds the line limits (`limited`: the finite ones) and each line's
    ends as bus positions (`positions`: the root's is 0)."""

    path_rows: np.ndarray   # line index of each entry
    path_cols: np.ndarray   # bus index of each entry, ascending
    line_order: list        # line index -> line_id
    bus_order: list         # bus index -> bus id (non-root buses)
    limits: np.ndarray      # line index -> flow limit, kW
    line_from: np.ndarray   # line index -> its parent bus's position
    line_to: np.ndarray     # line index -> its child bus's position

    def __post_init__(self):
        self.bus_index = {b: i for i, b in enumerate(self.bus_order)}
        self.limited = np.isfinite(self.limits)
        # For `dispatch_lp`'s zones: the lines by depth, then index; each
        # entry's line's place in that order, from 1; each bus's first entry.
        depth = np.bincount(self.path_cols, minlength=len(self.bus_order))
        self.by_depth = np.argsort(depth[self.line_to - 1], kind="stable")
        self.path_rank = (np.argsort(self.by_depth) + 1)[self.path_rows]
        self.path_start = np.cumsum(depth) - depth

    def positions(self, buses):
        """Each bus's position in the network's bus list: 0 for the root."""
        return np.fromiter(map(self.bus_index.get, buses, repeat(-1)),
                           np.intp, len(buses)) + 1

    def flows(self, x):
        """H @ x: per-line flow of the bus injections x."""
        return np.bincount(self.path_rows, weights=x[self.path_cols],
                           minlength=len(self.line_order))


def ptdf(network):
    """Path-indicator PTDF of a radial network, with its line limits, built
    once per network in O(sum of bus depths) and cached on it: a network's
    lines must not change after its first `ptdf`."""
    if network._ptdf is not None:
        return network._ptdf
    non_root = network.non_root_buses()
    line_order = [lid for lid, _, _, _ in network.lines]
    row_into = {v: i for i, (_, _, v, _) in enumerate(network.lines)}
    position = {b: i for i, b in enumerate([network.root, *non_root])}
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
        line_order, non_root, np.array([lim for *_, lim in network.lines], float),
        *np.array([[position[u], position[v]] for _, u, v, _ in network.lines],
                  np.intp).reshape(-1, 2).T)
    return network._ptdf


@dataclass
class GridState:
    """A grid step's result. Steps on unchanged actions share the
    `injections` and `flows` dicts: treat them as read-only."""

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
        self._actions = None    # the last successful step's, as a tuple
        return self.step({})

    def step(self, grid_actions):
        """Apply per-agent (bus, kW) actions, recompute flows and feasibility.

        Actions at the same bus superpose, added in action order. Infeasible
        states are recorded, not rejected: market trades can overload lines.
        Actions equal, in order, to the last successful step's, each kW of
        the same type, give its state again at the next `t`, sharing its
        dicts: a kW is only added to +0.0, which cannot tell them apart.
        """
        actions = tuple([(a, bus, kw, type(kw))
                         for a, (bus, kw) in grid_actions.items()])
        s = self.state
        if actions == self._actions:
            self.state = GridState(s.t + 1, s.injections, s.flows, s.feasible)
            return self.state
        H = ptdf(self.network)
        x = [0.0] * len(H.bus_order)
        for agent_id, bus, kw, _ in actions:
            i = H.bus_index.get(bus)
            if i is not None:
                x[i] += kw
            elif bus != self.network.root:  # the root's is the feeder's flow
                raise UnknownBus(f"agent {agent_id}: unknown bus {bus}")
        f = H.flows(np.array(x))
        self.state = GridState(
            t=-1 if s is None else s.t + 1,
            injections=dict(zip(H.bus_order, x)),
            flows=dict(zip(H.line_order, f.tolist())),
            feasible=bool((np.abs(f) <= H.limits + FLOW_TOL).all()))
        self._actions = actions
        return self.state
