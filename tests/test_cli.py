import json
import math
import os
import re

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
    import gridmarket.cli as cli
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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
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
    ("demo_dlmp.cfg", "offers={tmp}/far_offers.txt"),
    ("demo_p2p.cfg", "roster={tmp}/far_roster.txt"),
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
    "T": "2", "c_service": "0.5", "c_lose": "1", "ub": "10",
    "trade_quantity": "3", "retail_price": "12",
}


def test_readme_config_keys_are_the_parsed_keys():
    with open(os.path.join(CASES, "..", "README.md"), encoding="utf-8") as f:
        readme = f.read()
    sentence = re.search(r"Keys: (.*?)\.\s", readme, re.S).group(1)
    assert set(re.findall(r"`([^`]+)`", sentence)) == set(KEYS)
    assert set(EVERY_KEY) == set(KEYS)
    rc = parse(EVERY_KEY, base_dir="base")
    assert rc.case == os.path.join("base", "net.txt")
    assert (rc.grid_steps, rc.market_steps, rc.seed, rc.segments) == (2, 3, 4, 5)
    assert rc.p2p.T == 2 and rc.p2p.ub == 10.0 and rc.lmp_source == 4.3


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
    assert rc.market_steps is None or rc.market_steps >= 1
    p2p = rc.p2p
    assert p2p.T >= 1 and p2p.c_lose >= 0 and p2p.trade_quantity > 0
    assert p2p.ub > p2p.c_service >= 0
    for value in (rc.lmp_source, p2p.c_service, p2p.c_lose, p2p.ub,
                  p2p.trade_quantity, p2p.retail_price):
        assert isinstance(value, float) and math.isfinite(value)
    for value in (rc.grid_steps, rc.seed, rc.segments, p2p.T):
        assert type(value) is int
