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
log text was encoded once; `dlmp_rounds`, a DLMP run over three grid steps,
before a repeated market step reused its log line.

What `gridmarket clear` and `gridmarket dlmp` print on case34 must equal the
digests in `golden_cli.sha256`: at those segment counts blocks tie, so the
clear's dispatch follows the solver's tie rule and a change to the model or
the solver must not move them unnoticed. The clears at 2, 20 and 100
segments moved with the zone form, and those at 2, 7 and 20 with the
recursion's input-order tie rule, and were re-recorded; `test_zone_lp.py`
checks case34's welfare, prices and flows against the PTDF twin.

`clear` and `solve_dlmp` build their results' dicts on first read: on case34
and the benchmark feeder, the `repr` of both results must equal the digests
in `REPR_GOLDEN`, recorded while each call built every dict, and the
package's own readers (the clearing and DLMP markets, `gridmarket clear` and
`gridmarket dlmp`) must build only the dicts they read.
"""

import hashlib
import os

import pytest

from gridmarket import cli
from gridmarket.clearing import Dispatch, MarketInput, clear
from gridmarket.cli import EXIT_OK, build_environment, main, parse, read_config
from gridmarket.curves import Curve, DEMAND
from gridmarket.dlmp import DlmpResult, ScopfInput, solve_dlmp
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

# sha256 of repr(Dispatch) and repr(DlmpResult), a line each, of `clear` at
# 20 segments and `solve_dlmp`, recorded while both built every dict in the
# call: each dict's keys in order, and each value's type and exact digits.
REPR_GOLDEN = {
    "case34":
        "8a8f594f2872c8e4b70e27d9e95b0f23e2e14ed7d8d6f1e611c1f1a68a77e35f",
    "bench_feeder":
        "ef76bb0cbf86a9a5589acecf49a45a07e130bf525f4c424f1fe62e9802280166",
}
RESULT_DICTS = {
    Dispatch: ["quantities", "values", "prices", "sides", "buses",
               "line_flows"],
    DlmpResult: ["dispatch", "mu_plus", "mu_minus", "dlmp", "flows"],
}

HERE = os.path.dirname(__file__)
CASES = os.path.join(HERE, "..", "cases")
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


def built(result):
    """The dict attributes of a Dispatch or DlmpResult read so far."""
    return [n for n in RESULT_DICTS[type(result)] if n in vars(result)]


@pytest.mark.parametrize("inputs", ["case34", "bench_feeder"])
def test_result_dicts_are_built_once_on_first_read(inputs, tmp_path):
    """`clear` and `solve_dlmp` build no dict; the first read of one builds
    it and later reads return that very dict, equal, key order included, to
    the one the call built before (`REPR_GOLDEN`)."""
    market, scopf = {"case34": case34_inputs,
                     "bench_feeder": lambda: bench_feeder_inputs(tmp_path),
                     }[inputs]()
    dispatch, result = clear(market, segments=20), solve_dlmp(scopf)
    for r in (dispatch, result):
        assert built(r) == []
        for name in RESULT_DICTS[type(r)]:
            d = getattr(r, name)
            assert type(d) is dict and getattr(r, name) is d
        assert built(r) == RESULT_DICTS[type(r)]
    text = f"{dispatch!r}\n{result!r}"
    assert hashlib.sha256(text.encode()).hexdigest() == REPR_GOLDEN[inputs]


def test_the_package_builds_only_the_result_dicts_it_reads(tmp_path,
                                                          monkeypatch):
    """A clearing episode reads every Dispatch dict but `line_flows`, and
    `gridmarket clear` neither that nor `values`; a DLMP episode and
    `gridmarket dlmp` read a DlmpResult's `dispatch` and `dlmp` alone."""
    reads = {Dispatch: ["quantities", "values", "prices", "sides", "buses"],
             DlmpResult: ["dispatch", "dlmp"]}
    for name in ("demo_clearing.cfg", "demo_dlmp.cfg"):
        rc = parse(read_config(os.path.join(CASES, name)), base_dir=CASES)
        env = build_environment(rc).reset(log_path=str(tmp_path / name))
        env.run_episode(rc.grid_steps, rc.market_steps)
        result = getattr(env.market, {"clearing": "dispatch",
                                      "dlmp": "result"}[rc.mechanism])
        assert built(result) == reads[type(result)]

    results = []

    def keep(solve):
        def spy(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]
        return spy

    monkeypatch.setattr(cli, "clear_market", keep(cli.clear_market))
    monkeypatch.setattr(cli, "solve_dlmp", keep(cli.solve_dlmp))
    case = os.path.join(CASES, "case34.txt")
    assert main(["clear", "--case", case, "--bids",
                 os.path.join(CASES, "bids34.txt")]) == EXIT_OK
    assert main(["dlmp", "--case", case, "--offers",
                 os.path.join(CASES, "offers34.txt")]) == EXIT_OK
    assert [built(r) for r in results] == [
        ["quantities", "prices", "sides", "buses"], reads[DlmpResult]]


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
                                           "p2p_seed3", "dlmp_rounds"]
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
