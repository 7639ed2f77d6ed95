import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from gridmarket.cli import (
    EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, KEYS, ConfigError, RunConfig, main,
    parse, read_config,
)

CASES = os.path.join(os.path.dirname(__file__), "..", "cases")


def case(name):
    return os.path.join(CASES, name)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_read_config(tmp_path):
    p = write(tmp_path, "a.cfg", "# demo\ncase = net.txt\nseed=3\n\n")
    cfg = read_config(p)
    assert cfg == {"case": "net.txt", "seed": "3"}


def test_read_config_rejects_garbage(tmp_path):
    from gridmarket.cli import ConfigError
    p = write(tmp_path, "b.cfg", "no equals sign here\n")
    with pytest.raises(ConfigError):
        read_config(p)


def test_validate_ok(capsys):
    assert main(["validate", case("case34.txt")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "34 buses, 33 lines" in out
    assert "radial: yes" in out


# Runs one command in a fresh interpreter and prints, as its last stdout line,
# the scipy modules loaded by `import gridmarket.cli` and after the command.
IMPORT_PROBE = """\
import json, sys
import gridmarket.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
at_import = scipy_modules()
rc = gridmarket.cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "at_import": at_import, "after": scipy_modules()}))
"""


def probe_imports(tmp_path, *argv, prelude="", rc=EXIT_OK):
    """The IMPORT_PROBE report of one command, after `prelude`, with the
    command's stderr under "stderr"."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", prelude + IMPORT_PROBE, *argv], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["rc"] == rc, proc.stderr
    return dict(report, stderr=proc.stderr)

CLEAR34 = ("clear", "--case", case("case34.txt"), "--bids", case("bids34.txt"))
DLMP34 = ("dlmp", "--case", case("case34.txt"), "--offers",
          case("offers34.txt"), "--lmp-source", "4.3")


def test_commands_import_only_what_they_run(tmp_path):
    # validate solves nothing and needs no scipy at all
    report = probe_imports(tmp_path, "validate", case("case34.txt"))
    assert report["at_import"] == [] and report["after"] == []
    # a P2P episode computes flows (numpy only) but never builds an LP
    report = probe_imports(tmp_path, "run", "--config", case("demo_p2p.cfg"),
                           "--set", "grid_steps=2", "--set", "market_steps=5",
                           "--out", str(tmp_path / "p2p"))
    assert report["at_import"] == [] and report["after"] == []
    # nor do the commands that solve LPs: clear and dlmp on case34 and a
    # clearing episode solve them in numpy, with no scipy module loaded
    for argv in (CLEAR34, DLMP34, ("run", "--config", case("demo_clearing.cfg"),
                                   "--out", str(tmp_path / "clearing"))):
        report = probe_imports(tmp_path, *argv)
        assert report["at_import"] == [] and report["after"] == []


def test_validate_rejects_cycle(tmp_path, capsys):
    p = write(tmp_path, "cyc.txt",
              "bus 0\nbus 1\nbus 2\n"
              "line a 0 1 10\nline b 1 2 10\nline c 2 0 10\n")
    assert main(["validate", p]) == EXIT_RUNTIME
    assert "invalid case" in capsys.readouterr().err


def test_validate_rejects_disconnected(tmp_path, capsys):
    p = write(tmp_path, "disc.txt", "bus 0\nbus 1\nbus 2\nline a 0 1 10\n")
    assert main(["validate", p]) == EXIT_RUNTIME


def test_clear_subcommand(capsys):
    rc = main(["clear", "--case", case("case3.txt"),
               "--bids", case("bids_demo.txt")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("agent,bus,side,q_kw,price_c_per_kwh")
    assert "total_surplus=" in out


def test_clear_writes_jsonl(tmp_path, capsys):
    out_file = str(tmp_path / "dispatch.jsonl")
    rc = main(["clear", "--case", case("case3.txt"),
               "--bids", case("bids_demo.txt"), "--out", out_file])
    assert rc == EXIT_OK
    lines = open(out_file).read().splitlines()
    assert lines
    for line in lines:
        json.loads(line)


def test_clear_bad_bids_file(tmp_path, capsys):
    p = write(tmp_path, "bad.txt", "bid only three fields\n")
    rc = main(["clear", "--case", case("case3.txt"), "--bids", p])
    assert rc == EXIT_RUNTIME
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("bids,segments,message", [
    ("bid a 1 S 1 5 10 0\n", "100", "error: line 1: p_max 1.0 < p_min 5.0"),
    ("bid a 1 D 3 1 10 0\nbid b 2 D 3 1 4 4\n", "100",
     "error: line 2: q_max 4.0 <= q_min 4.0"),
    ("bid a 1 S 3 1 10 0\nbid b 2 D 3 1 10 0\n", "0",
     "error: segments must be >= 1, got 0"),
    ("# no bids\n", "100", "error: no bids or offers to clear"),
], ids=["inverted-prices", "empty-range", "zero-segments", "no-bids"])
def test_clear_bad_bids_input_prints_error_line(tmp_path, capsys, bids,
                                                segments, message):
    p = write(tmp_path, "bids.txt", bids)
    rc = main(["clear", "--case", case("case3.txt"), "--bids", p,
               "--segments", segments])
    assert rc == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""


def test_dlmp_subcommand(capsys):
    rc = main(["dlmp", "--case", case("case34.txt"),
               "--offers", case("offers34.txt"), "--lmp-source", "4.3"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "bus,dlmp,P_g,P_d"
    rows = {ln.split(",")[0]: ln.split(",") for ln in out.splitlines()[1:]}
    assert len(rows) == 34
    # the pocket behind the 25 kW line prices above the feeder
    assert float(rows["19"][1]) > float(rows["0"][1])


def test_dlmp_infeasible_baseline(tmp_path, capsys):
    net = write(tmp_path, "net.txt",
                "bus 0\nbus 1\nline a 0 1 3\n")
    offers = write(tmp_path, "off.txt", "dr 1 10\n")
    rc = main(["dlmp", "--case", net, "--offers", offers])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "infeasible baseline" in err
    assert "a" in err


def test_run_missing_keys_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "r.cfg", "mechanism=clearing\n")
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_unknown_mechanism(tmp_path, capsys):
    cfg = write(tmp_path, "r.cfg",
                f"case={case('case3.txt')}\nmechanism=auction\n")
    assert main(["run", "--config", cfg]) == EXIT_CONFIG


def test_run_bad_int_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "r.cfg",
                f"case={case('case3.txt')}\nmechanism=clearing\n"
                "grid_steps=soon\n")
    assert main(["run", "--config", cfg]) == EXIT_CONFIG


def test_run_clearing_end_to_end(tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["run", "--config", case("demo_clearing.cfg"), "--out", out])
    assert rc == EXIT_OK
    log = open(os.path.join(out, "episode.jsonl")).read().splitlines()
    assert log
    for line in log:
        json.loads(line)
    summary = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert summary[0] == "t_grid,feasible,max_abs_flow"
    assert len(summary) > 1


def test_written_outputs_follow_the_umask(tmp_path, capsys):
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        assert main(["run", "--config", case("demo_p2p.cfg"),
                     "--out", str(out), "--set", "grid_steps=1"]) == EXIT_OK
        assert main(["clear", "--case", case("case3.txt"),
                     "--bids", case("bids_demo.txt"),
                     "--out", str(tmp_path / "dispatch.jsonl")]) == EXIT_OK
        assert main(["dlmp", "--case", case("case34.txt"),
                     "--offers", case("offers34.txt"), "--lmp-source", "4.3",
                     "--out", str(tmp_path / "dlmp.csv")]) == EXIT_OK
    finally:
        os.umask(old)

    def mode(path):
        return stat.S_IMODE(os.stat(path).st_mode)
    assert mode(out / "summary.csv") == mode(out / "episode.jsonl") == 0o644
    assert mode(tmp_path / "dispatch.jsonl") == 0o644
    assert mode(tmp_path / "dlmp.csv") == 0o644


def test_run_set_override(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    main(["run", "--config", case("demo_p2p.cfg"), "--out", out1,
          "--set", "grid_steps=2"])
    main(["run", "--config", case("demo_p2p.cfg"), "--out", out2,
          "--set", "grid_steps=3"])
    n1 = len(open(os.path.join(out1, "episode.jsonl")).read().splitlines())
    n2 = len(open(os.path.join(out2, "episode.jsonl")).read().splitlines())
    assert n2 > n1


def test_run_seed_reproducible(tmp_path):
    outs = []
    for sub in ("x", "y"):
        out = str(tmp_path / sub)
        rc = main(["run", "--config", case("demo_p2p.cfg"), "--out", out,
                   "--seed", "5", "--set", "grid_steps=4"])
        assert rc == EXIT_OK
        outs.append(open(os.path.join(out, "episode.jsonl")).read())
    assert outs[0] == outs[1]


def strict_json(line):
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(line, parse_constant=reject)


@pytest.mark.parametrize("overrides, where, kept", [
    (["retail_price=1e308", "trade_quantity=10"],
     "clear record at t_grid 0, field 'deficiency'", 5),
    (["trade_quantity=1e308"], "clear record at t_grid 0, field 'deficiency'",
     5),
    (["trade_quantity=1e308", "retail_price=1e-300"],
     "grid_step record at t_grid 0, field 'flows'", 6),
    # r_c = ub - b_p - c_service, in the first negotiation entry
    (["ub=1e308", "roster={tmp}/roster.txt"],
     "market_step record at t_grid 0, t_market 0, pair (p1, c1), "
     "field 'r_c'", 0),
], ids=["deficiency-charge", "quantity-charge", "flows", "negotiation"])
def test_run_whose_log_would_overflow_is_one_runtime_error(
        tmp_path, capsys, overrides, where, kept):
    # each value is finite; their products overflow to inf in the log
    write(tmp_path, "roster.txt", "agent p1 14 producer ucb -1e308\n"
                                  "agent c1 6 consumer ucb 1e308\n")
    out = tmp_path / "out"
    sets = [arg for kv in ["grid_steps=1"] + overrides
            for arg in ("--set", kv.format(tmp=tmp_path))]
    rc = main(["run", "--config", case("demo_p2p.cfg"), "--out", str(out)]
              + sets)
    assert rc == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err.startswith(f"runtime error: {where}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    # the records before the one that overflowed, each strict JSON
    lines = (out / "episode.jsonl").read_text().splitlines()
    assert len(lines) == kept and all(strict_json(line) for line in lines)
    assert not (out / "summary.csv").exists()


def test_failed_run_leaves_no_summary_of_an_earlier_run(tmp_path, capsys):
    out = tmp_path / "out"
    run = ["run", "--config", case("demo_p2p.cfg"), "--out", str(out)]
    assert main(run + ["--set", "grid_steps=2"]) == EXIT_OK
    assert (out / "summary.csv").exists()
    rc = main(run + ["--set", "grid_steps=1", "--set", "trade_quantity=1e308"])
    assert rc == EXIT_RUNTIME
    phases = [json.loads(line)["phase"]
              for line in (out / "episode.jsonl").read_text().splitlines()]
    assert phases == ["market_step"] * 5      # the failed run's lines only
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_refuses_fewer_than_one_job(tmp_path, capsys, jobs):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", case("demo_p2p.cfg"), "--out", str(out),
               "--seeds", "0..1", "--jobs", jobs])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config error: --jobs must be >= 1; got {jobs}\n"
    assert captured.out == "" and not out.exists()


def test_sweep_serial(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    rc = main(["sweep", "--config", case("demo_p2p.cfg"), "--out", out,
               "--seeds", "0..2", "--jobs", "1"])
    assert rc == EXIT_OK
    for s in (0, 1, 2):
        assert os.path.exists(os.path.join(out, f"seed_{s}", "episode.jsonl"))


def test_sweep_bad_range(tmp_path, capsys):
    rc = main(["sweep", "--config", case("demo_p2p.cfg"),
               "--seeds", "5..2", "--jobs", "1"])
    assert rc == EXIT_CONFIG


def test_sweep_clamps_jobs_to_seed_count(tmp_path, monkeypatch):
    # A stand-in pool records its size and maps in-process: no workers start.
    # cmd_sweep imports the pool at call time, from concurrent.futures.
    import concurrent.futures
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    out = str(tmp_path / "sweep")
    rc = main(["sweep", "--config", case("demo_p2p.cfg"), "--out", out,
               "--seeds", "0..1", "--jobs", "8"])
    assert rc == EXIT_OK and sizes == [2]
    rc = main(["sweep", "--config", case("demo_p2p.cfg"), "--out", out,
               "--seeds", "4..4", "--jobs", "8"])
    assert rc == EXIT_OK and sizes == [2]      # one seed runs serially
    for s in (0, 1, 4):
        assert os.path.exists(os.path.join(out, f"seed_{s}", "episode.jsonl"))


@pytest.mark.parametrize("seeds", ["0", "a..b", "5..2"])
def test_sweep_seed_range_names_its_form(tmp_path, capsys, seeds):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", case("demo_p2p.cfg"), "--out", str(out),
               "--seeds", seeds, "--jobs", "1"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "A..B" in err
    assert not out.exists()


BAD_FILES = {
    "bad_case.txt": b"bus 0\nbus 1\nline a 0 1\n",
    "bad_roster.txt": b"agent a1 1\n",
    "dup_roster.txt": b"agent a1 1 producer ucb 4\nagent a1 2 consumer ucb 5\n",
    "binary.txt": b"bus \xff\xfe\n",
    "far_offers.txt": b"gen 999 0 10 10,3\ndr 5 20\n",
    "far_roster.txt": b"agent a1 999 producer ucb 4\n",
    "inverted_roster.txt": b"agent g8 8 producer supply 5 9 40\n",
    "banana_roster.txt": b"agent x1 6 banana ucb 4 6\n",
    "prosumer_roster.txt": b"agent x1 6 prosumer ucb 4 6\n",
    "consumer_supply_roster.txt": b"agent g1 14 consumer flat_supply 3 10\n",
}


@pytest.mark.parametrize("config,setting", [
    ("demo_p2p.cfg", "c_service=abc"),
    ("demo_p2p.cfg", "T=0"),
    ("demo_p2p.cfg", "trade_quantity=-1"),
    ("demo_p2p.cfg", "ub=0"),
    ("demo_p2p.cfg", "market_steps=0"),
    ("demo_p2p.cfg", "market_steps=-1"),
    ("demo_p2p.cfg", "seed=-1"),
    ("demo_p2p.cfg", "case=nope.txt"),
    ("demo_p2p.cfg", "roster=nope.txt"),
    ("demo_p2p.cfg", "grid_step=3"),
    ("demo_p2p.cfg", "case={tmp}/bad_case.txt"),
    ("demo_p2p.cfg", "roster={tmp}/bad_roster.txt"),
    ("demo_p2p.cfg", "roster={tmp}/dup_roster.txt"),
    ("demo_p2p.cfg", "case={tmp}/binary.txt"),
    ("demo_clearing.cfg", "segments=0"),
    ("demo_clearing.cfg", "segments=-2"),
    ("demo_dlmp.cfg", "lmp_source=x"),
    ("demo_dlmp.cfg", "lmp_source=-1"),
    ("demo_dlmp.cfg", "offers={tmp}/far_offers.txt"),
    ("demo_p2p.cfg", "roster={tmp}/far_roster.txt"),
    ("demo_clearing.cfg", "roster={tmp}/inverted_roster.txt"),
    ("demo_p2p.cfg", "roster={tmp}/banana_roster.txt"),
    ("demo_p2p.cfg", "roster={tmp}/prosumer_roster.txt"),
    ("demo_clearing.cfg", "roster={tmp}/consumer_supply_roster.txt"),
])
def test_run_bad_config_exits_2_before_any_output(tmp_path, capsys, config,
                                                  setting):
    for name, data in BAD_FILES.items():
        (tmp_path / name).write_bytes(data)
    out = tmp_path / "out"
    rc = main(["run", "--config", case(config), "--out", str(out),
               "--set", setting.format(tmp=tmp_path)])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (out / "episode.jsonl").exists()
    assert not (out / "summary.csv").exists()


def test_dlmp_offer_at_unknown_bus_is_an_error(tmp_path, capsys):
    offers = write(tmp_path, "far_offers.txt", "gen 999 0 10 10,3\ndr 5 20\n")
    rc = main(["dlmp", "--case", case("case34.txt"), "--offers", offers])
    assert rc == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "999" in captured.err
    assert captured.out == ""


def test_dlmp_negative_source_price_is_an_error(capsys):
    rc = main(["dlmp", "--case", case("case34.txt"),
               "--offers", case("offers34.txt"), "--lmp-source", "-1"])
    assert rc == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "lmp_source" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command,name,text,message", [
    ("clear", "bids", "bid s 0 S 4 4 100 0\nbid c 1 D 5 1 inf 0\n",
     "error: line 2: prices and quantities must be finite"),
    ("clear", "bids", "bid s 0 S 4 4 100 0\nbid c 1 D inf 1 4 0\n",
     "error: line 2: prices and quantities must be finite"),
    ("clear", "bids", "bid c 1 D 1e308 -1e308 1 0\n",
     "error: line 1: price range over quantity range overflows"),
    ("dlmp", "offers", "gen 1 0 10 10,inf\n",
     "error: line 1: gen at bus 1: block quantities and prices must be finite"),
    ("dlmp", "offers", "gen 1 0 inf 10,3\n",
     "error: line 1: gen at bus 1: need 0 <= P_min <= P_max < inf"),
    ("dlmp", "offers", "dr 1 inf 5,3\n",
     "error: line 1: dr at bus 1: baseline must be finite and >= 0"),
], ids=["bid-q_max", "bid-p_max", "bid-slope", "gen-block-price", "gen-p_max",
        "dr-baseline"])
def test_non_finite_input_prints_one_error_line(tmp_path, capsys, command,
                                                name, text, message):
    path = write(tmp_path, name, text)
    out = tmp_path / "out"
    rc = main([command, "--case", case("case34.txt"), f"--{name}", path,
               "--out", str(out)])
    assert rc == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert not out.exists()


def test_dlmp_infinite_source_price_prints_one_error_line(capsys):
    rc = main(["dlmp", "--case", case("case34.txt"),
               "--offers", case("offers34.txt"), "--lmp-source", "inf"])
    assert rc == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err == ("error: lmp_source must be finite and >= 0, "
                            "got inf\n") and captured.out == ""


TOO_LARGE = ("is 1e+20 or more in magnitude: too large beside kW-scale "
             "blocks\n")


def test_a_model_highs_cannot_take_prints_one_error_line(tmp_path, capsys):
    # a cost of 1e20 or more is refused: a 1 kW load priced at 1e308 at the
    # source (HiGHS, which solved the LP before, read it as infinite)
    rc = main(["dlmp", "--case", write(tmp_path, "net.txt",
                                       "bus 0\nbus 1\nline a 0 1 inf\n"),
               "--offers", write(tmp_path, "off.txt", "dr 0 1.0\n"),
               "--lmp-source", "1e308"])
    assert rc == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err == ("error: variable 0: cost 1e+308 "
                            + TOO_LARGE)
    assert captured.out == ""


def test_a_row_side_highs_reads_as_infinite_prints_one_error_line(tmp_path,
                                                                  capsys):
    # a fixed 1e25 kW load: the balance row's sides are -1e25, 1e20 or more
    # in magnitude
    out = tmp_path / "out"
    rc = main(["dlmp", "--case", write(tmp_path, "net.txt",
                                       "bus 0\nbus 1\nline a 0 1 inf\n"),
               "--offers", write(tmp_path, "off.txt", "dr 1 1e25\n"),
               "--out", str(out)])
    assert rc == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err == ("error: row 0: row_hi -1e+25 "
                            + TOO_LARGE)
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("offers,rc,out", [
    # two 1e308 kW loads at one bus: their sum, the bus's load, overflows
    ("dr 1 1e308\ndr 1 1e308\n", EXIT_RUNTIME, ""),
    # blocks whose running total overflows: -inf left, so none is kept; no
    # net import, so lambda is the unpaid export's price, 0
    ("dr 1 0 1e308,1 1e308,2\n", EXIT_OK, "bus,dlmp,P_g,P_d\n0,0,0,0\n1,0,0,0\n"),
    # line a's side against the 8e307 kW flow overflows: no limit that way
    ("gen 1 8e307 8e307\ndr 0 8e307\n", EXIT_OK,
     "bus,dlmp,P_g,P_d\n0,0,0,8e+307\n1,0,8e+307,0\n"),
], ids=["baselines", "blocks", "row-side"])
def test_offers_whose_sums_overflow_raise_no_warning(tmp_path, capsys, offers,
                                                     rc, out):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["dlmp", "--case", write(tmp_path, "net.txt",
                                             "bus 0\nbus 1\nline a 0 1 1e308\n"),
                     "--offers", write(tmp_path, "off.txt", offers),
                     "--lmp-source", "5"]) == rc
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == ("" if rc == EXIT_OK else "error: gen P_min and dr "
                            "baselines sum beyond the float range\n")


def test_costs_of_1e18_and_more_below_1e20_clear(tmp_path, capsys):
    # costs below the refused 1e20 clear exactly (HiGHS, which solved the
    # LP before, ended them in a status that was neither optimal nor
    # infeasible)
    rc = main(["clear", "--case", write(tmp_path, "net.txt",
                                        "bus 0\nbus 1\nline a 0 1 inf\n"),
               "--bids", write(tmp_path, "bids.txt",
                               "bid s 0 S 1e18 1e18 10 0\n"
                               "bid c 1 D 21e18 21e18 10 0\n")])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:] == [
        "c,1,demand,10,1e+18", "s,0,supply,10,1e+18",
        "# total_surplus=2e+20 traded=True binding=[]"]


@pytest.mark.parametrize("kw,segments,block", [
    ("1e25", "100", "1e+23"), ("1e21", "10", "1e+20"),
], ids=["1e25-kW", "1e21-kW-at-10-segments"])
def test_a_quantity_highs_reads_as_infinite_prints_one_error_line(
        tmp_path, capsys, kw, segments, block):
    # a block of 1e20 kW or more is refused (HiGHS, which solved the LP
    # before, read its cap as infinite and called the market unbounded)
    out = tmp_path / "out"
    rc = main(["clear", "--case", write(tmp_path, "net.txt",
                                        "bus 0\nbus 1\nline a 0 1 inf\n"),
               "--bids", write(tmp_path, "bids.txt",
                               f"bid s 0 S 1 1 {kw} 0\nbid c 1 D 5 5 {kw} 0\n"),
               "--segments", segments, "--out", str(out)])
    assert rc == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err == (f"error: variable 0: bound hi {block} "
                            + TOO_LARGE)
    assert captured.out == "" and not out.exists()


def test_the_same_market_in_blocks_below_1e20_kw_clears(tmp_path, capsys):
    rc = main(["clear", "--case", write(tmp_path, "net.txt",
                                        "bus 0\nbus 1\nline a 0 1 inf\n"),
               "--bids", write(tmp_path, "bids.txt",
                               "bid s 0 S 1 1 1e21 0\nbid c 1 D 5 5 1e21 0\n"),
               "--segments", "100"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:3] == [
        "c,1,demand,1e+21,1", "s,0,supply,1e+21,1"]


def test_a_1e25_line_limit_clears_as_no_limit(tmp_path, capsys):
    bids = write(tmp_path, "bids.txt", "bid s 0 S 3 1 10 0\nbid c 1 D 5 2 8 0\n")
    outs = []
    for limit in ("1e25", "inf"):
        rc = main(["clear", "--case", write(tmp_path, "net.txt",
                                            f"bus 0\nbus 1\nline a 0 1 {limit}\n"),
                   "--bids", bids])
        assert rc == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].endswith(" traded=True binding=[]\n")


def test_a_reachable_line_limit_highs_reads_as_infinite_prints_one_error_line(
        tmp_path, capsys):
    # 1e21 kW on each side can load line a's 5e20 kW limit, which becomes
    # the bounds of a's flow, 1e20 or more in magnitude (HiGHS, which solved
    # the LP before, read them as no bounds)
    out = tmp_path / "out"
    rc = main(["clear", "--case", write(tmp_path, "net.txt",
                                        "bus 0\nbus 1\nline a 0 1 5e20\n"),
               "--bids", write(tmp_path, "bids.txt",
                               "bid s 0 S 1 1 1e21 0\nbid c 1 D 5 5 1e21 0\n"),
               "--segments", "100", "--out", str(out)])
    assert rc == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err == ("error: line a (limit 5e+20 kW): flow bound -5e+20 "
                            + TOO_LARGE)
    assert captured.out == "" and not out.exists()


def test_the_bound_is_highs_own_infinity():
    # the dispatch refuses from HiGHS' infinity on, as when HiGHS solved it
    from scipy.optimize._highspy._core import _Highs

    from gridmarket.optim import TOO_LARGE
    from helpers import HIGHS_INF

    highs = _Highs()
    for option in ("infinite_cost", "infinite_bound"):
        assert highs.getOptionValue(option)[1] == HIGHS_INF == 1e20
    assert TOO_LARGE == HIGHS_INF


@pytest.mark.parametrize("roster,profile,message", [
    ("agent cx 5 consumer elastic 5 1 inf", "",
     "line 2: prices and quantities must be finite"),
    ("agent sx 5 consumer scripted:profile.csv", "kw\n1\ninf\n",
     "line 2: {tmp}/profile.csv: `kw` must be finite"),
    ("agent u1 5 producer ucb nan 5", "", "line 2: arm prices must be finite"),
], ids=["elastic-q_max", "scripted-kw", "ucb-arm"])
def test_run_non_finite_roster_exits_2_before_any_output(tmp_path, capsys,
                                                         roster, profile,
                                                         message):
    (tmp_path / "profile.csv").write_text(profile)
    path = write(tmp_path, "roster.txt",
                 f"agent feeder 0 producer flat_supply 4.3 500\n{roster}\n")
    out = tmp_path / "out"
    rc = main(["run", "--config", case("demo_clearing.cfg"), "--set",
               f"roster={path}", "--out", str(out)])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == (f"config error: roster: "
                            f"{message.format(tmp=tmp_path)}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv,line", [
    (["validate", "{tmp}/nope.txt"], "invalid case: "),
    (["validate", "{tmp}/binary.txt"], "invalid case: "),
    (["clear", "--case", case("case34.txt"), "--bids", "{tmp}/binary.txt"],
     "error: "),
    (["dlmp", "--case", "{tmp}/binary.txt", "--offers", case("offers34.txt")],
     "error: "),
], ids=["validate-missing", "validate-non-utf8", "clear-bids-non-utf8",
        "dlmp-case-non-utf8"])
def test_unreadable_input_file_prints_error_line(tmp_path, capsys, argv, line):
    (tmp_path / "binary.txt").write_bytes(BAD_FILES["binary.txt"])
    rc = main([a.format(tmp=tmp_path) for a in argv])
    assert rc == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith(line)


EVERY_KEY = {
    "case": "net.txt", "mechanism": "dlmp", "roster": "r.txt",
    "offers": "o.txt", "grid_steps": "2", "market_steps": "3",
    "seed": "4", "segments": "5", "out_dir": "out", "lmp_source": "4.3",
    "c_service": "0.5", "c_lose": "1", "ub": "10",
    "trade_quantity": "3", "retail_price": "12",
}


def test_the_retired_key_T_is_an_unknown_config_key(tmp_path, capsys):
    # for P2P, market_steps is the paper's T
    out = tmp_path / "out"
    rc = main(["run", "--config", case("demo_p2p.cfg"), "--set", "T=5",
               "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unknown config key 'T'\n"
    assert not out.exists()


def test_readme_config_keys_are_the_parsed_keys():
    with open(os.path.join(CASES, "..", "README.md"), encoding="utf-8") as f:
        readme = f.read()
    sentence = re.search(r"Keys: (.*?)\.\s", readme, re.S).group(1)
    assert set(re.findall(r"`([^`]+)`", sentence)) == set(KEYS)
    assert set(EVERY_KEY) == set(KEYS)
    rc = parse(EVERY_KEY, base_dir="base")
    assert rc.case == os.path.join("base", "net.txt")
    assert (rc.grid_steps, rc.market_steps, rc.seed, rc.segments) == (2, 3, 4, 5)
    assert rc.p2p.ub == 10.0 and rc.lmp_source == 4.3


CONFIG_VALUES = st.one_of(
    st.text(max_size=6),
    st.integers(-2, 3).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(str),
    st.sampled_from(["clearing", "p2p", "dlmp", " 7 ", "1e400", "0x10"]),
)


@settings(max_examples=400, deadline=None)
@given(st.sets(st.sampled_from(sorted(KEYS)), max_size=3),
       st.dictionaries(st.sampled_from(sorted(KEYS)), CONFIG_VALUES,
                       max_size=3))
def test_parse_returns_valid_config_or_config_error(dropped, changed):
    # a valid config with a few keys dropped and a few values replaced
    cfg = {k: v for k, v in EVERY_KEY.items() if k not in dropped}
    cfg.update(changed)
    try:
        rc = parse(cfg, base_dir="base")
    except ConfigError:
        return
    assert isinstance(rc, RunConfig)
    assert rc.mechanism in ("clearing", "p2p", "dlmp")
    assert rc.mechanism != "dlmp" or rc.offers is not None
    assert rc.grid_steps >= 1 and rc.segments >= 1 and rc.seed >= 0
    assert rc.market_steps >= 1
    p2p = rc.p2p
    assert p2p.c_lose >= 0 and p2p.trade_quantity > 0
    assert p2p.ub > p2p.c_service >= 0
    for value in (rc.lmp_source, p2p.c_service, p2p.c_lose, p2p.ub,
                  p2p.trade_quantity, p2p.retail_price):
        assert isinstance(value, float) and math.isfinite(value)
    for value in (rc.grid_steps, rc.market_steps, rc.seed, rc.segments):
        assert type(value) is int
