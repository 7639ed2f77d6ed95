"""Output checks. Each returns the names of the checks that failed.

The checks recompute what they can without the program's own machinery:
line flows and DLMP congestion terms are walked up the tree with
`Network.parent`, and surplus uses the closed-form integral of an affine
curve. Reference values were recorded by `record_refs.py`.
"""

import hashlib

FLOW_TOL = 1e-7          # |flow| may exceed its limit by this much
BUDGET_TOL = 1e-6        # consumer payments minus producer revenue
SURPLUS_TOL = 1e-9       # a consumer's surplus may dip this far below 0
REL_TOL = 1e-9           # relative tolerance against recorded references
DLMP_TOL = 1e-8          # DLMP against lambda + root-path congestion


def _close(value, ref, rel=REL_TOL):
    return abs(value - ref) <= rel * max(1.0, abs(ref))


def _integral(curve, q):
    """Integral from 0 to q of the extended affine curve: flat at the q_min
    endpoint price below q_min, linear from there to q_max."""
    p0 = curve.p_min if curve.side == "supply" else curve.p_max
    p1 = curve.p_max if curve.side == "supply" else curve.p_min
    if q <= curve.q_min:
        return p0 * q
    slope = (p1 - p0) / (curve.q_max - curve.q_min)
    x = q - curve.q_min
    return p0 * curve.q_min + p0 * x + 0.5 * slope * x * x


def _line_into(net):
    return {v: lid for lid, _, v, _ in net.lines}


def _root_path(net, bus, line_into):
    """Line ids from `bus` up to the root."""
    path = []
    while bus != net.root:
        path.append(line_into[bus])
        bus = net.parent[bus]
    return path


def check_clear(dispatch, market_input, ref):
    """Budget balance, line limits, flows, consumer surplus, at least one
    binding line and total surplus against the reference."""
    net = market_input.network
    failed = []
    pay = sum(dispatch.prices.get(a, 0.0) * dispatch.quantities[a]
              for a, _, _ in market_input.bids)
    rev = sum(dispatch.prices.get(a, 0.0) * dispatch.quantities[a]
              for a, _, _ in market_input.offers)
    if abs(pay - rev) > BUDGET_TOL:
        failed.append("clear.budget_balance")

    for a, _, curve in market_input.bids:
        q = dispatch.quantities[a]
        if q > 0 and _integral(curve, q) - dispatch.prices.get(a, 0.0) * q < -SURPLUS_TOL:
            failed.append("clear.consumer_surplus")
            break

    line_into = _line_into(net)
    flows = {lid: 0.0 for lid, _, _, _ in net.lines}
    for agents, sign in ((market_input.bids, 1.0), (market_input.offers, -1.0)):
        for a, bus, _ in agents:
            q = dispatch.quantities[a]
            if q:
                for lid in _root_path(net, bus, line_into):
                    flows[lid] += sign * q
    limits = net.line_limits()
    if any(abs(flows[lid] - dispatch.line_flows[lid]) > 1e-6 for lid in flows):
        failed.append("clear.flows")
    if any(abs(f) > limits[lid] + FLOW_TOL for lid, f in flows.items()):
        failed.append("clear.line_limits")
    if not any(abs(f) >= limits[lid] - FLOW_TOL for lid, f in flows.items()):
        failed.append("clear.no_binding_line")
    if ref is not None and not _close(dispatch.total_surplus, ref["total_surplus"]):
        failed.append("clear.total_surplus")
    return failed


def check_dlmp(result, scopf_input, ref):
    """DLMP = lambda + root-path sum of (mu+ - mu-), at least one binding
    line and the objective against the reference."""
    net = scopf_input.network
    failed = []
    line_into = _line_into(net)
    for bus in net.buses:
        cong = sum(result.mu_plus[lid] - result.mu_minus[lid]
                   for lid in _root_path(net, bus, line_into))
        if abs(result.dlmp[bus] - (result.lam + cong)) > DLMP_TOL:
            failed.append("dlmp.decomposition")
            break
    limits = scopf_input.limits()
    if not any(abs(f) >= limits[lid] - FLOW_TOL for lid, f in result.flows.items()):
        failed.append("dlmp.no_binding_line")
    if ref is not None and not _close(result.objective, ref["objective"]):
        failed.append("dlmp.objective")
    return failed


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_episode(rc, digest, ref):
    """Exit code 0 and episode.jsonl byte-identical to the reference."""
    failed = []
    if rc != 0:
        failed.append("episode.exit_code")
    if ref is not None and digest != ref["episode_sha256"]:
        failed.append("episode.sha256")
    return failed
