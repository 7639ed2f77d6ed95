"""Bit-identity golden for the market layers.

One seeded 300-bus feeder is cleared at 20 segments and its SCOPF solved;
a sha256 over float.hex of every quantity, price, line flow, DLMP, line
price and objective must equal the digest below. It was recorded before
`clear`, `dispatch_lp` and `build_scopf` computed their blocks, bus sums and
results as whole arrays, and a change that only makes them faster must
leave it as it is. The feeder puts several agents and offers at one bus, in
no bus order, DR blocks that overdraw their baseline, curves with and
without a q_min gap, flat curves and lines without a limit. The
benchmark's 1000-bus feeder (pool instance 0, written by
`perfbench/feeder.py`), cleared at 20 segments and its SCOPF solved, must
equal `FEEDER_GOLDEN` by the same digest; it was recorded before the line
layout was cached beside the PTDF and the LPs were gathered in fewer
passes, as were the digests of what `gridmarket clear` and `gridmarket dlmp`
print on it, in `golden_feeder_cli.sha256`.

The episode logs `gridmarket run` writes for the three demo configs must
also equal the digests in `golden_episodes.sha256`. The first three runs
were recorded before the episode loop reused log records and bandit
indices; `p2p_seed3`, a longer seeded P2P round, before each market result's
log text was encoded once.

What `gridmarket clear` and `gridmarket dlmp` print on case34 must equal the
digests in `golden_cli.sha256`: at those segment counts tied blocks leave
the clear's vertex to HiGHS, so a change to the model or the solver must
not move them unnoticed.
"""

import hashlib
import importlib.util
import os

import numpy as np
import pytest

from gridmarket.clearing import MarketInput, clear, parse_bids
from gridmarket.cli import EXIT_OK, main
from gridmarket.curves import Curve, DEMAND, SUPPLY
from gridmarket.dlmp import (
    DrOffer, GenOffer, ScopfInput, parse_offers, solve_dlmp,
)
from gridmarket.network import build_network, load_case
from helpers import random_radial_network

GOLDEN = "7c3fdbf931a8d505d96d66977fe39e215e3fb696518caa8cb72cecad737a5980"
FEEDER_GOLDEN = (
    "f0b081c20a16266019df2a875b7b12f3e8694fc579c5b654b8c57503b97550d2")

HERE = os.path.dirname(__file__)
EPISODE_DIGESTS = os.path.join(HERE, "golden_episodes.sha256")
CLI_DIGESTS = os.path.join(HERE, "golden_cli.sha256")
FEEDER_CLI_DIGESTS = os.path.join(HERE, "golden_feeder_cli.sha256")


def feeder():
    rng = np.random.default_rng(2024)
    n = 300
    net = random_radial_network(rng, n, limit_lo=20.0, limit_hi=200.0)
    net = build_network(net.buses, [
        (lid, u, v, float("inf") if rng.random() < 0.2 else lim)
        for lid, u, v, lim in net.lines])

    def curve(side, lo, hi):
        p_min = float(rng.uniform(lo, hi))
        p_max = p_min if rng.random() < 0.1 else p_min + float(rng.uniform(0, 8))
        q_min = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.5, 3.0))
        return Curve(side, p_max, p_min, q_min + float(rng.uniform(2, 20)),
                     q_min)

    buses = rng.integers(1, n, size=260).tolist()
    bids = [(f"c{k}", b, curve(DEMAND, 6, 25)) for k, b in enumerate(buses)]
    offers = [("feeder", 0, Curve(SUPPLY, 5.0, 5.0, 1e4, 0.0))] + [
        (f"g{k}", b, curve(SUPPLY, 4, 12))
        for k, b in enumerate(rng.integers(1, n, size=40).tolist())]
    market = MarketInput(bids=bids, offers=offers, network=net)

    gens = []
    for b in rng.integers(0, n, size=40).tolist():
        p_min = 0.0 if rng.random() < 0.7 else float(rng.uniform(0, 2))
        q = float(rng.uniform(5, 30))
        p1 = float(rng.uniform(3, 10))
        gens.append(GenOffer(bus=b, p_min=p_min, p_max=p_min + q,
                             blocks=[(q / 2, p1), (q / 2, p1 + 2.0)]))
    drs = []
    for b in buses[:200]:
        base = float(rng.uniform(0.2, 3.0))
        k = int(rng.integers(0, 4))          # 0: a fixed load
        cut = base * float(rng.uniform(0.3, 0.6))
        drs.append(DrOffer(bus=b, baseline=base,
                           blocks=[(cut, 8.0 + j) for j in range(k)]))
    scopf = ScopfInput(lmp_source=5.0, gen_offers=gens, dr_offers=drs,
                       network=net)
    return market, scopf


def digest(dispatch, result):
    h = hashlib.sha256()

    def put(name, values):
        for key, v in values.items():
            h.update(f"{name} {key!r} {float(v).hex()}\n".encode())

    put("q", dispatch.quantities)
    put("price", dispatch.prices)
    put("flow", dispatch.line_flows)
    put("surplus", {"": dispatch.total_surplus})
    put("p_g", {b: g for b, (g, _) in result.dispatch.items()})
    put("p_d", {b: d for b, (_, d) in result.dispatch.items()})
    put("dlmp", result.dlmp)
    put("mu_plus", result.mu_plus)
    put("mu_minus", result.mu_minus)
    put("dlmp_flow", result.flows)
    put("scalars", {"lam": result.lam, "p_source": result.p_source,
                    "objective": result.objective})
    return h.hexdigest()


def test_clear_and_dlmp_on_a_seeded_feeder_are_bit_identical():
    market, scopf = feeder()
    dispatch, result = clear(market, segments=20), solve_dlmp(scopf)
    # the feeder exercises what it claims to
    assert dispatch.binding_lines and dispatch.traded
    assert any(v > 0 for v in result.mu_plus.values())
    assert digest(dispatch, result) == GOLDEN


def write_bench_feeder(out_dir):
    """The benchmark's 1000-bus feeder, pool instance 0, written into
    `out_dir` by `perfbench/feeder.py`. Returns its files' paths and its
    SCOPF source price."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_feeder", os.path.join(HERE, "..", "perfbench", "feeder.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.write(0, str(out_dir))[0], gen.LMP_SOURCE


def test_clear_and_dlmp_on_the_benchmark_feeder_are_bit_identical(tmp_path):
    market, scopf = bench_feeder_inputs(tmp_path)
    dispatch, result = clear(market, segments=20), solve_dlmp(scopf)
    assert dispatch.binding_lines and dispatch.traded
    assert any(v > 0 for v in result.mu_plus.values())
    assert digest(dispatch, result) == FEEDER_GOLDEN


def case34_inputs():
    net = load_case(os.path.join(HERE, "..", "cases", "case34.txt"))
    with open(os.path.join(HERE, "..", "cases", "bids34.txt"),
              encoding="utf-8") as f:
        bids, offers = parse_bids(f.read())
    with open(os.path.join(HERE, "..", "cases", "offers34.txt"),
              encoding="utf-8") as f:
        gens, drs = parse_offers(f.read())
    return (MarketInput(bids=bids, offers=offers, network=net),
            ScopfInput(lmp_source=4.3, gen_offers=gens, dr_offers=drs,
                       network=net))


def bench_feeder_inputs(out_dir):
    paths, lmp_source = write_bench_feeder(out_dir)
    net = load_case(paths["case"])
    with open(paths["bids"], encoding="utf-8") as f:
        bids, offers = parse_bids(f.read())
    with open(paths["offers"], encoding="utf-8") as f:
        gens, drs = parse_offers(f.read())
    return (MarketInput(bids=bids, offers=offers, network=net),
            ScopfInput(lmp_source=lmp_source, gen_offers=gens, dr_offers=drs,
                       network=net))


def no_offers_inputs():
    # one bid and no offer to clear against; a SCOPF with no offer at all
    net = build_network([0, 1], [("a", 0, 1, 5.0)])
    return (MarketInput(bids=[("c1", 1, Curve(DEMAND, 9.0, 6.0, 4.0, 0.0))],
                        offers=[], network=net),
            ScopfInput(lmp_source=5.0, gen_offers=[], dr_offers=[],
                       network=net))


@pytest.mark.parametrize("inputs", ["case34", "bench_feeder", "no_offers"])
def test_every_result_value_is_a_python_float(inputs, tmp_path):
    """Each number in a Dispatch and a DlmpResult is a float, not an
    np.float64 or an int: their dicts are built from lists."""
    market, scopf = {"case34": case34_inputs, "no_offers": no_offers_inputs,
                     "bench_feeder": lambda: bench_feeder_inputs(tmp_path),
                     }[inputs]()
    dispatch, result = clear(market, segments=20), solve_dlmp(scopf)
    values = [dispatch.total_surplus, result.p_source, result.lam,
              result.objective]
    for d in (dispatch.quantities, dispatch.prices, dispatch.line_flows,
              result.mu_plus, result.mu_minus, result.dlmp, result.flows):
        values += d.values()
    for p_g, p_d in result.dispatch.values():
        values += [p_g, p_d]
    assert len(values) > 4
    assert {type(v) for v in values} == {float}


def episode_runs():
    """(out, config, overrides) of each `# run` line of the digests file,
    and the digests as {relative path: sha256}."""
    runs, digests = [], {}
    with open(EPISODE_DIGESTS, encoding="utf-8") as f:
        for line in f:
            if line.startswith("# run "):
                out, config, *overrides = line.split()[2:]
                runs.append((out, config, overrides))
            elif not line.startswith("#"):
                digest, path = line.split()
                digests[path] = digest
    return runs, digests


def test_demo_episode_logs_equal_their_recorded_digests(tmp_path, capsys):
    runs, digests = episode_runs()
    assert [out for out, _, _ in runs] == ["clearing", "p2p", "dlmp",
                                           "p2p_seed3"]
    got = {}
    for out, config, overrides in runs:
        argv = ["run", "--config", os.path.join(HERE, "..", "cases", config),
                "--out", str(tmp_path / out)]
        for kv in overrides:
            argv += ["--set", kv]
        assert main(argv) == EXIT_OK
        for name in ("episode.jsonl", "summary.csv"):
            data = (tmp_path / out / name).read_bytes()
            got[f"{out}/{name}"] = hashlib.sha256(data).hexdigest()
    assert got == digests


def printed_digests(path, capsys):
    """Run each `# stdout <out> <argv>...` line of the digests file at
    `path` through `main`, from the current directory. Returns the
    commands, the sha256 of each one's stdout and the recorded digests, the
    last two as {out: sha256}."""
    commands, digests = [], {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("# stdout "):
                out, *argv = line.split()[2:]
                commands.append((out, argv))
            elif not line.startswith("#"):
                digest, out = line.split()
                digests[out] = digest
    got = {}
    for out, argv in commands:
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        got[out] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    return commands, got, digests


def test_case34_clear_and_dlmp_print_their_recorded_digests(monkeypatch,
                                                            capsys):
    monkeypatch.chdir(os.path.join(HERE, "..", "cases"))
    commands, got, digests = printed_digests(CLI_DIGESTS, capsys)
    assert [argv[0] for _, argv in commands] == 4 * ["clear"] + ["dlmp"]
    assert got == digests


def test_benchmark_feeder_clear_and_dlmp_print_their_recorded_digests(
        tmp_path, monkeypatch, capsys):
    write_bench_feeder(tmp_path)
    monkeypatch.chdir(tmp_path)
    commands, got, digests = printed_digests(FEEDER_CLI_DIGESTS, capsys)
    assert [argv[0] for _, argv in commands] == ["clear", "dlmp"]
    assert got == digests
