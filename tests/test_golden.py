"""Bit-identity golden for the market layers.

One seeded 300-bus feeder is cleared at 20 segments and its SCOPF solved;
a sha256 over float.hex of every quantity, price, line flow, DLMP, line
price and objective must equal the digest below, and a change that only
makes them faster must leave it as it is. The feeder puts several agents
and offers at one bus, in no bus order, DR blocks that overdraw their
baseline, curves with and without a q_min gap, flat curves and lines
without a limit. The benchmark's 1000-bus feeder (pool instance 0, written
by `perfbench/feeder.py`), cleared at 20 segments and its SCOPF solved, must
equal `FEEDER_GOLDEN` by the same digest. Both were re-recorded when the
dispatch LP went from one row per line side (the PTDF form) to one row per
zone, and again when the recursion replaced HiGHS in solving it, each time
after `test_zone_lp.py` had found the new form equal within 1e-9 on both
feeders (the recursion left every DLMP and line price as it was and moved
the other values by rounding). The PTDF form, kept in the tests as
`helpers.ptdf_dispatch_lp` and solved by HiGHS (`helpers.solve_lp`), must
still give the digests recorded before it, `PTDF_GOLDEN` and
`PTDF_FEEDER_GOLDEN`. What `gridmarket clear` and `gridmarket dlmp` print on
the benchmark feeder, in `golden_feeder_cli.sha256`, did not move.

The episode logs `gridmarket run` writes for the three demo configs must
also equal the digests in `golden_episodes.sha256`. The first three runs
were recorded before the episode loop reused log records and bandit
indices; `p2p_seed3`, a longer seeded P2P round, before each market result's
log text was encoded once.

What `gridmarket clear` and `gridmarket dlmp` print on case34 must equal the
digests in `golden_cli.sha256`: at those segment counts blocks tie, so the
clear's dispatch follows the solver's tie rule and a change to the model or
the solver must not move them unnoticed. The clears at 2, 20 and 100
segments moved with the zone form, and those at 2, 7 and 20 with the
recursion's input-order tie rule, and were re-recorded; `test_zone_lp.py`
checks case34's welfare, prices and flows against the PTDF twin.
"""

import hashlib
import os

import pytest

from gridmarket.clearing import MarketInput, clear
from gridmarket.cli import EXIT_OK, main
from gridmarket.curves import Curve, DEMAND
from gridmarket.dlmp import ScopfInput, solve_dlmp
from gridmarket.network import build_network
from helpers import (
    bench_feeder_inputs, case34_inputs, feeder, use_ptdf_twin,
    write_bench_feeder,
)

GOLDEN = "dbbdadc8966cd4a1d674159b77c4cd9e968986119bd10e3fd48c2ca889e4e7f3"
FEEDER_GOLDEN = (
    "667c1175c767dda720893586f62ec7e1fe7bdb53743c174570c8f3c8d0e8cf55")
PTDF_GOLDEN = (
    "7c3fdbf931a8d505d96d66977fe39e215e3fb696518caa8cb72cecad737a5980")
PTDF_FEEDER_GOLDEN = (
    "f0b081c20a16266019df2a875b7b12f3e8694fc579c5b654b8c57503b97550d2")

HERE = os.path.dirname(__file__)
EPISODE_DIGESTS = os.path.join(HERE, "golden_episodes.sha256")
CLI_DIGESTS = os.path.join(HERE, "golden_cli.sha256")
FEEDER_CLI_DIGESTS = os.path.join(HERE, "golden_feeder_cli.sha256")


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


def test_clear_and_dlmp_on_the_benchmark_feeder_are_bit_identical(tmp_path):
    market, scopf = bench_feeder_inputs(tmp_path)
    dispatch, result = clear(market, segments=20), solve_dlmp(scopf)
    assert dispatch.binding_lines and dispatch.traded
    assert any(v > 0 for v in result.mu_plus.values())
    assert digest(dispatch, result) == FEEDER_GOLDEN


def test_the_ptdf_twin_gives_the_digests_recorded_before_it(monkeypatch,
                                                           tmp_path):
    use_ptdf_twin(monkeypatch)
    for inputs, golden in ((feeder(), PTDF_GOLDEN),
                           (bench_feeder_inputs(tmp_path), PTDF_FEEDER_GOLDEN)):
        market, scopf = inputs
        assert digest(clear(market, segments=20),
                      solve_dlmp(scopf)) == golden


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
