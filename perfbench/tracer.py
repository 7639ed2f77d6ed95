"""Span recorder for the traced run, and the per-layer metrics built from it.

The tracer replaces program functions at the names their callers bind (for
example `gridmarket.env.clear`, which `ClearingMarket.step` calls) with a
wrapper that records one span per call: name, start, end and the span open
when it began. Spans stay in memory and are written out once, at the end of
the traced child. A layer's self time is its span's duration minus the
durations of its direct child spans.
"""

import hashlib
import importlib
import json
import time
from collections import Counter

import numpy as np

# (owner, attribute, span name). The owner is a module, or a class given as
# module.Class; a target the program no longer has is skipped and counted in
# trace.unwrapped.
TARGETS = [
    ("gridmarket.clearing", "ptdf", "network.ptdf"),
    ("gridmarket.dlmp", "ptdf", "network.ptdf"),
    ("gridmarket.network.Grid", "step", "network.grid_step"),
    ("gridmarket.env", "clear", "clearing.clear"),
    ("gridmarket.clearing", "line_flows", "clearing.line_flows"),
    ("gridmarket.clearing", "settle_prices", "clearing.settle_prices"),
    ("gridmarket.clearing", "solve_lp", "optim.solve_lp"),
    ("gridmarket.dlmp", "solve_lp", "optim.solve_lp"),
    ("gridmarket.dlmp", "build_scopf", "dlmp.build_scopf"),
    ("gridmarket.env", "solve_dlmp", "dlmp.solve_dlmp"),
    ("gridmarket.agents", "ucb_select", "agents.ucb_select"),
    ("gridmarket.agents", "ucb_update", "agents.ucb_update"),
    ("gridmarket.p2p", "match", "p2p.match"),
    ("gridmarket.env", "negotiate", "p2p.negotiate"),
    ("gridmarket.env.EpisodeLog", "add", "env.log_add"),
    ("gridmarket.env.Environment", "run_episode", "env.run_episode"),
]
# The HiGHS call: the name `solve_lp` binds, and scipy's own attribute for a
# caller that imports it at call time.
LINPROG_OWNERS = ["gridmarket.optim", "scipy.optimize"]

# Per-layer time, as a share (%) of the work unit's traced wall time:
# metric -> (span name, inclusive or self time).
SHARES = {
    "network.ptdf_pct": ("network.ptdf", "incl"),
    "network.grid_step_pct": ("network.grid_step", "incl"),
    "clearing.clear_pct": ("clearing.clear", "incl"),
    "clearing.self_pct": ("clearing.clear", "self"),
    "clearing.settle_pct": ("clearing.settle_prices", "incl"),
    "optim.solve_lp_pct": ("optim.solve_lp", "incl"),
    "optim.highs_pct": ("optim.linprog", "incl"),
    "optim.self_pct": ("optim.solve_lp", "self"),
    "dlmp.build_scopf_pct": ("dlmp.build_scopf", "self"),
    "dlmp.extract_pct": ("dlmp.solve_dlmp", "self"),
    "agents.ucb_select_pct": ("agents.ucb_select", "incl"),
    "agents.ucb_update_pct": ("agents.ucb_update", "incl"),
    "p2p.match_pct": ("p2p.match", "incl"),
    "p2p.negotiate_pct": ("p2p.negotiate", "incl"),
    "env.run_episode_pct": ("env.run_episode", "incl"),
    "env.self_pct": ("env.run_episode", "self"),
    "env.log_add_pct": ("env.log_add", "incl"),
}
# Calls per work unit: metric -> span name.
CALLS = {
    "network.ptdf.calls": "network.ptdf",
    "clearing.clear.calls": "clearing.clear",
    "optim.solve_lp.calls": "optim.solve_lp",
    "agents.ucb_select.calls": "agents.ucb_select",
    "p2p.negotiate.calls": "p2p.negotiate",
    "env.log_add.calls": "env.log_add",
}
# Counters per work unit, kept by the linprog wrapper and the workload.
COUNTERS = ["optim.highs_nit", "optim.lp_rows", "optim.lp_cols", "optim.lp_nnz",
            "optim.lp_dense_mb", "optim.unique_ratio", "env.log_bytes"]
# Counts that must repeat exactly across traced runs of the same inputs.
EXACT = list(CALLS) + COUNTERS


def resolve(owner):
    """Import `owner` (a module, or module.Class); None if it is gone."""
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """In-memory span store with a per-work-unit counter set."""

    def __init__(self):
        self.names, self.name_id = [], {}
        self.start, self.end, self.parent, self.sid, self.unit = [], [], [], [], []
        self.stack = [-1]
        self.counters = []      # one Counter per work unit
        self.lp_seen = []       # one set of LP fingerprints per work unit
        self.unwrapped = []

    def begin(self, name):
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.sid.append(nid)
        self.parent.append(self.stack[-1])
        self.unit.append(len(self.counters) - 1)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i):
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def begin_unit(self):
        self.counters.append(Counter())
        self.lp_seen.append(set())
        return self.begin("unit")

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(i)
        return traced

    def install(self):
        """Wrap every target the program has."""
        for owner, attr, name in TARGETS:
            obj = resolve(owner)
            fn = getattr(obj, attr, None) if obj is not None else None
            if fn is None:
                self.unwrapped.append(f"{owner}.{attr}")
                continue
            setattr(obj, attr, self.wrap(fn, name))
        wrapped = False
        for owner in LINPROG_OWNERS:
            obj = resolve(owner)
            fn = getattr(obj, "linprog", None) if obj is not None else None
            if fn is not None:
                setattr(obj, "linprog", self._linprog(fn))
                wrapped = True
        if not wrapped:
            self.unwrapped.append("linprog")

    def _linprog(self, fn):
        def traced(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                   bounds=(0, None), **kwargs):
            i = self.begin("trace.lp_stats")
            self._lp_stats(c, A_ub, b_ub, A_eq, b_eq, bounds)
            self.finish(i)
            i = self.begin("optim.linprog")
            try:
                res = fn(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                         bounds=bounds, **kwargs)
            finally:
                self.finish(i)
            self.counters[-1]["optim.highs_nit"] += int(getattr(res, "nit", 0) or 0)
            return res
        return traced

    def _lp_stats(self, c, A_ub, b_ub, A_eq, b_eq, bounds):
        cnt = self.counters[-1]
        c = np.ascontiguousarray(np.asarray(c, dtype=float))
        h = hashlib.blake2b(digest_size=16)
        h.update(c)
        cnt["optim.lp_cols"] += c.size
        for A, b in ((A_ub, b_ub), (A_eq, b_eq)):
            if A is None:
                h.update(b"-")
                continue
            if hasattr(A, "tocsr"):           # scipy.sparse
                csr = A.tocsr()
                cnt["optim.lp_rows"] += csr.shape[0]
                cnt["optim.lp_nnz"] += int(csr.count_nonzero())
                h.update(repr(csr.shape).encode())
                for part in (csr.data, csr.indices, csr.indptr):
                    h.update(np.ascontiguousarray(part))
            else:
                A = np.ascontiguousarray(np.asarray(A, dtype=float))
                cnt["optim.lp_rows"] += A.shape[0]
                cnt["optim.lp_nnz"] += int(np.count_nonzero(A))
                cnt["optim.lp_dense_bytes"] += A.nbytes
                h.update(repr(A.shape).encode())
                h.update(A)
            h.update(np.ascontiguousarray(np.asarray(b, dtype=float)))
        try:
            h.update(np.ascontiguousarray(np.asarray(bounds, dtype=float)))
        except (TypeError, ValueError):
            h.update(repr(bounds).encode())
        cnt["optim.linprog_calls"] += 1
        self.lp_seen[-1].add(h.digest())

    def unit_metrics(self, u):
        """Per-layer metrics of work unit `u`."""
        start = np.asarray(self.start, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.int64) - start
        parent = np.asarray(self.parent)
        sid = np.asarray(self.sid)
        mask = np.asarray(self.unit) == u
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = mask & (parent >= 0)
        np.add.at(child, parent[has_parent], dur[has_parent])
        selft = dur - child

        def total(name, kind):
            nid = self.name_id.get(name)
            if nid is None:
                return 0, 0
            m = mask & (sid == nid)
            return int(m.sum()), int((dur if kind == "incl" else selft)[m].sum())

        _, wall = total("unit", "incl")
        out = {"wall_s": wall / 1e9}
        for metric, (name, kind) in SHARES.items():
            out[metric] = 100.0 * total(name, kind)[1] / wall
        for metric, name in CALLS.items():
            out[metric] = total(name, "incl")[0]
        cnt = self.counters[u]
        for key in ("optim.highs_nit", "optim.lp_rows", "optim.lp_cols",
                    "optim.lp_nnz", "env.log_bytes"):
            out[key] = int(cnt[key])
        out["optim.lp_dense_mb"] = cnt["optim.lp_dense_bytes"] / 1e6
        calls = cnt["optim.linprog_calls"]
        out["optim.unique_ratio"] = len(self.lp_seen[u]) / calls if calls else 0.0
        return out

    def dump(self, path):
        """Write every span to `path` (.npz, names as JSON)."""
        np.savez_compressed(
            path, start_ns=np.asarray(self.start, dtype=np.int64),
            end_ns=np.asarray(self.end, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            name=np.asarray(self.sid, dtype=np.int32),
            unit=np.asarray(self.unit, dtype=np.int32),
            names=np.asarray(json.dumps(self.names)))
