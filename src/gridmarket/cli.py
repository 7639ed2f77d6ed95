"""Command-line entry point.

Subcommands: validate, run, clear, dlmp, sweep. Exit codes: 0 success,
1 runtime error, 2 configuration error.
"""

import argparse
import csv
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

from . import agents as ag
from .clearing import ClearingError, MarketInput, clear as clear_market, parse_bids
from .dlmp import DlmpError, InfeasibleBaseline, ScopfInput, parse_offers, solve_dlmp
from .env import ClearingMarket, DlmpMarket, Environment, P2pMarket
from .network import CaseFileError, Grid, NetworkError, load_case
from .p2p import P2pConfig

EXIT_OK, EXIT_RUNTIME, EXIT_CONFIG = 0, 1, 2


class ConfigError(Exception):
    pass


def read_config(path):
    """key=value config format, `#` comments; values stay strings."""
    cfg = {}
    try:
        with open(path, encoding="utf-8") as f:
            for ln, raw in enumerate(f, start=1):
                stripped = raw.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{ln}: expected key=value")
                key, val = stripped.split("=", 1)
                cfg[key.strip()] = val.strip()
    except OSError as e:
        raise ConfigError(str(e)) from None
    return cfg


def atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_validate(args):
    try:
        net = load_case(args.case)
    except (CaseFileError, NetworkError) as e:
        print(f"invalid case: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    limits = [lim for _, _, _, lim in net.lines]
    print(f"{net.n_buses} buses, {net.n_lines} lines, radial: yes")
    if limits:
        print(f"limits kW: min {min(limits):g}, max {max(limits):g}")
    return EXIT_OK


def _build_environment(cfg):
    for key in ("case", "mechanism"):
        if key not in cfg:
            raise ConfigError(f"missing config key {key!r}")
    base_dir = cfg.get("_base_dir", ".")

    def path_of(key):
        p = cfg[key]
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    try:
        network = load_case(path_of("case"))
    except (CaseFileError, NetworkError) as e:
        raise ConfigError(f"case: {e}") from None
    grid = Grid(network)
    seed = int(cfg.get("seed", 0))
    mechanism = cfg["mechanism"]

    agents = []
    if "roster" in cfg:
        with open(path_of("roster"), encoding="utf-8") as f:
            agents = ag.parse_roster(
                f.read(), base_dir=os.path.dirname(path_of("roster")))

    if mechanism == "clearing":
        market = ClearingMarket(network, segments=int(cfg.get("segments", 100)))
    elif mechanism == "p2p":
        market = P2pMarket(P2pConfig(
            c_service=float(cfg.get("c_service", 0.5)),
            c_lose=float(cfg.get("c_lose", 1.0)),
            ub=float(cfg.get("ub", 10.0)),
            T=int(cfg.get("T", 1)),
            trade_quantity=float(cfg.get("trade_quantity", 3.0)),
            retail_price=float(cfg.get("retail_price", 12.0)),
        ))
    elif mechanism == "dlmp":
        if "offers" not in cfg:
            raise ConfigError("dlmp mechanism needs an `offers` file")
        with open(path_of("offers"), encoding="utf-8") as f:
            gens, drs = parse_offers(f.read())
        market = DlmpMarket(ScopfInput(
            lmp_source=float(cfg.get("lmp_source", 5.0)),
            gen_offers=gens, dr_offers=drs, network=network))
    else:
        raise ConfigError(f"unknown mechanism {mechanism!r}")

    env = Environment(grid, market, agents, seed=seed)
    grid_steps = int(cfg.get("grid_steps", 1))
    market_steps = cfg.get("market_steps")
    market_steps = int(market_steps) if market_steps is not None else None
    return env, grid_steps, market_steps


def run_from_config(cfg, out_dir):
    env, grid_steps, market_steps = _build_environment(cfg)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "episode.jsonl")
    env.reset(log_path=log_path)
    env.run_episode(grid_steps, market_steps)
    rows = env.summary_rows()
    lines = ["t_grid,feasible,max_abs_flow"]
    for r in rows:
        lines.append(f"{r['t_grid']},{int(r['feasible'])},{r['max_abs_flow']:.9g}")
    atomic_write(os.path.join(out_dir, "summary.csv"), "\n".join(lines) + "\n")
    return env


def cmd_run(args):
    try:
        cfg = read_config(args.config) if args.config else {}
        for item in args.set or []:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            k, v = item.split("=", 1)
            cfg[k.strip()] = v.strip()
        if args.config:
            cfg.setdefault("_base_dir", os.path.dirname(os.path.abspath(args.config)))
        if args.seed is not None:
            cfg["seed"] = str(args.seed)
        out_dir = args.out or cfg.get("out_dir", "out")
        _check_run_config(cfg)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        run_from_config(cfg, out_dir)
    except Exception as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"episode written to {out_dir}")
    return EXIT_OK


def _check_run_config(cfg):
    # raise ConfigError early for missing/ill-typed keys (exit code 2)
    if "case" not in cfg or "mechanism" not in cfg:
        raise ConfigError("config needs `case` and `mechanism`")
    if cfg["mechanism"] not in ("clearing", "p2p", "dlmp"):
        raise ConfigError(f"unknown mechanism {cfg['mechanism']!r}")
    if cfg["mechanism"] == "dlmp" and "offers" not in cfg:
        raise ConfigError("dlmp mechanism needs an `offers` file")
    for key in ("grid_steps", "market_steps", "seed", "segments", "T"):
        if key in cfg:
            int(cfg[key])
    if int(cfg.get("grid_steps", 1)) < 1:
        raise ConfigError("grid_steps must be >= 1")


def cmd_clear(args):
    try:
        net = load_case(args.case)
        with open(args.bids, encoding="utf-8") as f:
            bids, offers = parse_bids(f.read())
        dispatch = clear_market(
            MarketInput(bids=bids, offers=offers, network=net),
            segments=args.segments)
    except (CaseFileError, NetworkError, ClearingError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    print("agent,bus,side,q_kw,price_c_per_kwh")
    for rec in dispatch.to_records():
        if rec.get("summary"):
            print(f"# total_surplus={rec['total_surplus']:.9g} "
                  f"traded={rec['traded']} binding={rec['binding_lines']}")
        else:
            print(f"{rec['agent']},{rec['bus']},{rec['side']},"
                  f"{rec['q_kw']:.9g},{rec['price_c_per_kwh']:.9g}")
    if args.out:
        atomic_write(args.out, dispatch.to_jsonl() + "\n")
    return EXIT_OK


def cmd_dlmp(args):
    try:
        net = load_case(args.case)
        with open(args.offers, encoding="utf-8") as f:
            gens, drs = parse_offers(f.read())
        result = solve_dlmp(ScopfInput(lmp_source=args.lmp_source,
                                       gen_offers=gens, dr_offers=drs,
                                       network=net))
    except InfeasibleBaseline as e:
        print(f"infeasible baseline: {e}; binding lines: {e.binding_lines}",
              file=sys.stderr)
        return EXIT_RUNTIME
    except (CaseFileError, NetworkError, DlmpError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    lines = ["bus,dlmp,P_g,P_d"]
    for bus in net.buses:
        p_g, p_d = result.dispatch[bus]
        lines.append(f"{bus},{result.dlmp[bus]:.9g},{p_g:.9g},{p_d:.9g}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        atomic_write(args.out, text + "\n")
    return EXIT_OK


def _sweep_one(payload):
    cfg, out_dir, seed = payload
    cfg = dict(cfg)
    cfg["seed"] = str(seed)
    run_from_config(cfg, os.path.join(out_dir, f"seed_{seed}"))
    return seed


def cmd_sweep(args):
    try:
        cfg = read_config(args.config)
        cfg.setdefault("_base_dir", os.path.dirname(os.path.abspath(args.config)))
        lo, hi = (int(x) for x in args.seeds.split("..", 1))
        if hi < lo:
            raise ConfigError("seed range is empty")
        _check_run_config(cfg)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or cfg.get("out_dir", "sweep")
    seeds = list(range(lo, hi + 1))
    try:
        jobs = min(args.jobs, len(seeds))
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                list(pool.map(_sweep_one, [(cfg, out_dir, s) for s in seeds]))
        else:
            for s in seeds:
                _sweep_one((cfg, out_dir, s))
    except Exception as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"{len(seeds)} episodes written under {out_dir}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="gridmarket",
        description="Distribution market simulation on radial networks.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a case file")
    v.add_argument("case")
    v.set_defaults(func=cmd_validate)

    r = sub.add_parser("run", help="run an episode from a config file")
    r.add_argument("--config", help="key=value config file")
    r.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config value (repeatable)")
    r.add_argument("--seed", type=int)
    r.add_argument("--out", help="output directory (default from config)")
    r.set_defaults(func=cmd_run)

    c = sub.add_parser("clear", help="single-shot market clearing")
    c.add_argument("--case", required=True)
    c.add_argument("--bids", required=True)
    c.add_argument("--segments", type=int, default=100)
    c.add_argument("--out", help="write dispatch JSONL here")
    c.set_defaults(func=cmd_clear)

    d = sub.add_parser("dlmp", help="single-shot SCOPF / DLMP solve")
    d.add_argument("--case", required=True)
    d.add_argument("--offers", required=True)
    d.add_argument("--lmp-source", type=float, default=5.0)
    d.add_argument("--out", help="write the DLMP CSV here")
    d.set_defaults(func=cmd_dlmp)

    s = sub.add_parser("sweep", help="seed sweep of independent episodes")
    s.add_argument("--config", required=True)
    s.add_argument("--seeds", required=True, metavar="A..B")
    s.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    s.add_argument("--out")
    s.set_defaults(func=cmd_sweep)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
