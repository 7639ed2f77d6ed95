"""Command-line entry point.

Subcommands: validate, run, clear, dlmp, sweep. Exit codes: 0 success,
1 runtime error, 2 configuration error.
"""

import argparse
import math
import os
import re
import sys
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields, replace

from . import agents as ag
from .clearing import ClearingError, MarketInput, clear as clear_market, parse_bids
from .dlmp import DlmpError, InfeasibleBaseline, ScopfInput, parse_offers, solve_dlmp
from .env import ClearingMarket, DlmpMarket, EnvError, Environment, P2pMarket
from .network import (CaseFileError, Grid, NetworkError, UnknownBus,
                      content_lines, load_case)
from .optim import NumericalFailure
from .p2p import P2pConfig

EXIT_OK, EXIT_RUNTIME, EXIT_CONFIG = 0, 1, 2
# a named input file that cannot be opened, decoded or parsed
FILE_ERRORS = (OSError, UnicodeDecodeError, CaseFileError, NetworkError)


class ConfigError(Exception):
    pass


def _key_value(text, where):
    key, sep, val = text.partition("=")
    if not sep:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    return key.strip(), val.strip()


def read_config(path):
    """key=value config format, `#` comments; values stay strings."""
    cfg = {}
    try:
        with open(path, encoding="utf-8") as f:
            for ln, stripped in content_lines(f):
                key, val = _key_value(stripped, f"{path}:{ln}")
                cfg[key] = val
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from None
    return cfg


def atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
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
    except FILE_ERRORS as e:
        print(f"invalid case: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    limits = [lim for _, _, _, lim in net.lines]
    print(f"{net.n_buses} buses, {net.n_lines} lines, radial: yes")
    if limits:
        print(f"limits kW: min {min(limits):g}, max {max(limits):g}")
    return EXIT_OK


@dataclass(frozen=True)
class RunConfig:
    """One episode's configuration: a typed, range-checked field per config
    key, with the P2P parameters grouped as a `P2pConfig`. Paths are already
    resolved against the base directory given to `parse`."""

    case: str
    mechanism: str
    roster: str = None
    offers: str = None
    grid_steps: int = 1
    market_steps: int = 1        # per grid step; for P2P the paper's T
    seed: int = 0
    segments: int = 100
    out_dir: str = None          # None: the subcommand's default
    lmp_source: float = 5.0
    p2p: P2pConfig = field(default_factory=P2pConfig)


# every RunConfig field but `p2p` is a config key, as is every P2pConfig
# field; the field's annotated type converts the key's text
P2P_KEYS = {f.name: f.type for f in fields(P2pConfig)}
KEYS = {**{f.name: f.type for f in fields(RunConfig) if f.name != "p2p"},
        **P2P_KEYS}
LOWEST = {"grid_steps": 1, "market_steps": 1, "seed": 0, "segments": 1,
          "lmp_source": 0}
MECHANISMS = ("clearing", "p2p", "dlmp")


def parse(cfg, base_dir="."):
    """Turn a key=value mapping into a `RunConfig`, resolving relative paths
    against `base_dir`. Raises ConfigError for an unknown or missing key, a
    value of the wrong type or one out of range."""
    values = {}
    for key, text in cfg.items():
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            value = KEYS[key](text)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError("must be finite")
            if key in LOWEST and value < LOWEST[key]:
                raise ValueError(f"must be >= {LOWEST[key]}")
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{key}={text!r}: {e}") from None
        values[key] = value
    if "case" not in values:
        raise ConfigError("missing config key 'case'")
    if values.get("mechanism") not in MECHANISMS:
        raise ConfigError(f"mechanism must be one of {', '.join(MECHANISMS)}; "
                          f"got {values.get('mechanism')!r}")
    if values["mechanism"] == "dlmp" and "offers" not in values:
        raise ConfigError("dlmp mechanism needs an `offers` file")
    for key in ("case", "roster", "offers"):
        if key in values:
            values[key] = os.path.join(base_dir, values[key])
    try:
        p2p = P2pConfig(**{k: values.pop(k) for k in P2P_KEYS if k in values})
    except ValueError as e:
        raise ConfigError(f"P2P parameters: {e}") from None
    return RunConfig(p2p=p2p, **values)


@contextmanager
def _config_file(key):
    # a file the config names that cannot be read or parsed, or that puts
    # an agent or offer at a bus the case lacks, is a config error
    try:
        yield
    except FILE_ERRORS + (ag.AgentError, DlmpError, EnvError) as e:
        raise ConfigError(f"{key}: {e}") from None


def _read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def build_environment(rc):
    """Load the case, roster and offers `rc` names and assemble the episode's
    `Environment`; ConfigError when one of them fails to load."""
    with _config_file("case"):
        network = load_case(rc.case)
    agents = []
    if rc.roster is not None:
        with _config_file("roster"):
            agents = ag.parse_roster(_read(rc.roster),
                                     base_dir=os.path.dirname(rc.roster))
            for a in agents:
                if a.bus not in network.buses:
                    raise UnknownBus(f"agent {a.id}: unknown bus {a.bus}")
    if rc.mechanism == "clearing":
        market = ClearingMarket(network, segments=rc.segments)
    elif rc.mechanism == "p2p":
        market = P2pMarket(rc.p2p)
    else:
        with _config_file("offers"):
            gens, drs = parse_offers(_read(rc.offers))
            market = DlmpMarket(ScopfInput(lmp_source=rc.lmp_source,
                                           gen_offers=gens, dr_offers=drs,
                                           network=network))
    with _config_file("roster"):
        return Environment(Grid(network), market, agents, seed=rc.seed)


def write_episode(env, rc, out_dir):
    """Run `rc`'s episode on a built environment; write its logs to out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    summary = os.path.join(out_dir, "summary.csv")
    with suppress(FileNotFoundError):
        os.remove(summary)      # a failed episode leaves no summary
    env.reset(log_path=os.path.join(out_dir, "episode.jsonl"))
    env.run_episode(rc.grid_steps, rc.market_steps)
    rows = env.summary_rows()
    lines = ["t_grid,feasible,max_abs_flow"]
    for r in rows:
        lines.append(f"{r['t_grid']},{int(r['feasible'])},{r['max_abs_flow']:.9g}")
    atomic_write(summary, "\n".join(lines) + "\n")
    return env


def _load(path, overrides):
    """Read the config file at `path` (if any), apply `key=value` overrides,
    parse it and build its environment: (RunConfig, Environment)."""
    cfg = read_config(path) if path else {}
    cfg.update(_key_value(item, "--set") for item in overrides)
    rc = parse(cfg, os.path.dirname(os.path.abspath(path)) if path else ".")
    return rc, build_environment(rc)


def cmd_run(args):
    seed = [] if args.seed is None else [f"seed={args.seed}"]
    rc, env = _load(args.config, (args.set or []) + seed)
    out_dir = args.out or rc.out_dir or "out"
    try:
        write_episode(env, rc, out_dir)
    except Exception as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"episode written to {out_dir}")
    return EXIT_OK


def cmd_clear(args):
    try:
        net = load_case(args.case)
        bids, offers = parse_bids(_read(args.bids))
        dispatch = clear_market(
            MarketInput(bids=bids, offers=offers, network=net),
            segments=args.segments)
    except FILE_ERRORS + (ClearingError, NumericalFailure) as e:
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
        gens, drs = parse_offers(_read(args.offers))
        result = solve_dlmp(ScopfInput(lmp_source=args.lmp_source,
                                       gen_offers=gens, dr_offers=drs,
                                       network=net))
    except InfeasibleBaseline as e:
        print(f"infeasible baseline: {e}; binding lines: {e.binding_lines}",
              file=sys.stderr)
        return EXIT_RUNTIME
    except FILE_ERRORS + (DlmpError, NumericalFailure) as e:
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
    rc, out_dir = payload
    write_episode(build_environment(rc), rc,
                  os.path.join(out_dir, f"seed_{rc.seed}"))
    return rc.seed


def cmd_sweep(args):
    from concurrent.futures import ProcessPoolExecutor

    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1; got {args.jobs}")
    m = re.fullmatch(r"(\d+)\.\.(\d+)", args.seeds)
    if m is None or int(m[2]) < int(m[1]):
        raise ConfigError(f"--seeds expects A..B, integers with 0 <= A <= B; "
                          f"got {args.seeds!r}")
    seeds = range(int(m[1]), int(m[2]) + 1)
    rc, _ = _load(args.config, [f"seed={seeds[0]}"])
    out_dir = args.out or rc.out_dir or "sweep"
    payloads = [(replace(rc, seed=s), out_dir) for s in seeds]
    try:
        jobs = min(args.jobs, len(seeds))
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                list(pool.map(_sweep_one, payloads))
        else:
            for payload in payloads:
                _sweep_one(payload)
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
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
