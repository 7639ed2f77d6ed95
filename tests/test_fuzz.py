"""Fuzzed input files: every parser either returns or raises one of the
input errors the CLI reports as a file or config error, whatever the text,
and every command keeps the CLI contract on generated files."""

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import example, given, settings, strategies as st

from gridmarket.agents import parse_roster
from gridmarket.cli import KEYS, ConfigError, main, parse
from gridmarket.clearing import parse_bids
from gridmarket.dlmp import parse_offers
from gridmarket.network import (CaseFileError, NetworkError, build_network,
                                parse_case)

INPUT_ERRORS = (CaseFileError, NetworkError, ConfigError)

NUM = st.one_of(st.integers(-2, 12).map(str),
                st.sampled_from(["nan", "inf", "-inf", "1e308", "0.5", "x"]),
                st.floats().map(repr))
BUS = st.one_of(st.integers(0, 5).map(str),
                st.sampled_from(["²", "--5", "٣", "-1", "b", "0x1"]))
BLOCK = st.one_of(st.builds("{},{}".format, NUM, NUM),
                  st.sampled_from(["1,2,3", ",", "5", "a,b"]))
NAME = st.sampled_from(["a", "b", "g8", "l1"])
# each directive's well-formed token kinds; lines are drawn from these and
# then cut short or given a token of arbitrary text
TEMPLATES = {
    "bus": [BUS],
    "line": [NAME, BUS, BUS, NUM],
    "bid": [NAME, BUS, st.sampled_from(["S", "D", "X"]), NUM, NUM, NUM, NUM],
    "agent": [NAME, BUS, st.sampled_from(["producer", "consumer", "prosumer"]),
              st.sampled_from(["inelastic", "elastic", "flat_supply", "supply",
                               "ucb", "scripted:nope.csv", "other"]),
              NUM, NUM, NUM, NUM],
    "gen": [BUS, NUM, NUM, BLOCK, BLOCK],
    "dr": [BUS, NUM, BLOCK, BLOCK],
}
JUNK = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
               max_size=6)


@st.composite
def file_text(draw, directives):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        d = draw(st.sampled_from(directives + ["#", "load"]))
        toks = [d] + [draw(kind) for kind in TEMPLATES.get(d, [])]
        if draw(st.booleans()):
            toks = toks[:draw(st.integers(1, len(toks)))]
        if draw(st.booleans()):
            toks[draw(st.integers(0, len(toks) - 1))] = draw(JUNK)
        lines.append(" ".join(toks))
    return "\n".join(lines)


def only_input_errors(fn, *args):
    try:
        fn(*args)
    except INPUT_ERRORS:
        pass


def load_case_text(text):
    build_network(*parse_case(text))


@settings(max_examples=200, deadline=None)
@given(file_text(["bus", "line"]))
@example("bus ²\nbus --5\n")
def test_fuzzed_case_text_raises_only_input_errors(text):
    only_input_errors(load_case_text, text)


@settings(max_examples=200, deadline=None)
@given(file_text(["bid"]))
@example("bid a 1 S 1 5 10 0\n")
def test_fuzzed_bids_text_raises_only_input_errors(text):
    only_input_errors(parse_bids, text)


@settings(max_examples=200, deadline=None)
@given(file_text(["gen", "dr"]))
@example("gen 1 5 2 10,3\n")
@example("gen 1 0 10 5,8 5,6\n")
def test_fuzzed_offers_text_raises_only_input_errors(text):
    only_input_errors(parse_offers, text)


@settings(max_examples=200, deadline=None)
@given(file_text(["agent"]))
@example("agent g8 8 producer supply 5 9 40\n")
@example("agent u1 1 producer ucb\n")
@example("agent s1 1 consumer scripted:nope.csv\n")
def test_fuzzed_roster_text_raises_only_input_errors(text):
    with tempfile.TemporaryDirectory() as empty:
        only_input_errors(parse_roster, text, empty)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(KEYS) + ["", "bogus"]),
                       st.one_of(NUM, JUNK, st.sampled_from(
                           ["clearing", "p2p", "dlmp", "net.txt"])),
                       max_size=8))
def test_fuzzed_config_raises_only_input_errors(cfg):
    only_input_errors(parse, cfg)


# The commands run on generated files: mostly well formed, with ordinary
# numbers, then spoilt now and then by one token swapped for a non-finite,
# extreme or negative number; a few files are the free-form text above.
SPECIAL = st.sampled_from(["inf", "-inf", "nan", "1e308", "1e-320", "-1", "0"])
VALUE = st.one_of(st.floats(0.0, 60.0).map(repr), SPECIAL)


def num(draw, lo=0.0, hi=60.0):
    return draw(st.floats(lo, hi))


def spoilt(draw, lines, sep=" "):
    """The lines (token lists) as text, one token after a line's first
    swapped for a SPECIAL value in one draw of three."""
    lines = [[str(t) for t in line] for line in lines]
    if lines and draw(st.integers(0, 2)) == 0:
        line = draw(st.sampled_from(lines))
        if len(line) > 1:
            line[draw(st.integers(1, len(line) - 1))] = draw(SPECIAL)
    return "\n".join(sep.join(line) for line in lines)


def free_form(draw, directives):
    return draw(st.integers(0, 9)) == 0 and draw(file_text(directives))


@st.composite
def case_text(draw):
    # a random tree on buses 0..4, where the other files put their agents
    return free_form(draw, ["bus", "line"]) or "\n".join(
        [f"bus {b}" for b in range(5)] + [spoilt(draw, [
            ["line", f"l{b}", draw(st.integers(0, b - 1)), b,
             draw(st.sampled_from(["inf", repr(num(draw, 1.0))]))]
            for b in range(1, 5)])])


@st.composite
def bids_text(draw):
    lines = [["bid", "feeder", 0, "S", 5.0, 5.0, 100.0, 0]]
    for i in range(draw(st.integers(1, 4))):
        p_min = num(draw)
        q_min = num(draw, 0.0, 5.0)
        lines.append(["bid", f"a{i}", draw(st.integers(0, 4)),
                      draw(st.sampled_from("SD")), p_min + num(draw), p_min,
                      q_min + num(draw, 0.1, 30.0), q_min])
    return free_form(draw, ["bid"]) or spoilt(draw, lines)


@st.composite
def offers_text(draw):
    def blocks(total):
        price = num(draw)
        return [f"{total + num(draw, 0.0, 5.0)},{price}",
                f"{num(draw, 0.1, 5.0)},{price + num(draw)}"]

    lines = []
    for _ in range(draw(st.integers(0, 2))):
        p_min, width = num(draw, 0.0, 5.0), num(draw, 0.0, 20.0)
        lines.append(["gen", draw(st.integers(0, 4)), p_min, p_min + width,
                      *blocks(width)])
    for _ in range(draw(st.integers(0, 3))):
        lines.append(["dr", draw(st.integers(0, 4)), num(draw, 0.0, 20.0),
                      *blocks(0.0)[:draw(st.integers(0, 2))]])
    return free_form(draw, ["gen", "dr"]) or spoilt(draw, lines)


@st.composite
def roster_text(draw):
    def curve():
        p_min, q_min = num(draw), num(draw, 0.0, 5.0)
        return [p_min + num(draw), p_min, q_min + num(draw, 0.1, 30.0), q_min]

    strategies = {
        "inelastic": lambda: [num(draw, 0.1, 30.0)],
        "elastic": curve, "supply": curve,
        "flat_supply": lambda: [num(draw), num(draw, 1.0, 100.0)],
        "ucb": lambda: [num(draw, 0.0, 10.0), num(draw, 0.0, 10.0)],
        "scripted:profile.csv": list,
    }
    lines = [["agent", "feeder", 0, "producer", "flat_supply", 5.0, 100.0]]
    for i in range(draw(st.integers(1, 4))):
        strategy = draw(st.sampled_from(sorted(strategies)))
        # a curve strategy takes the role of its side; the free-form files
        # draw any role for any strategy
        role = {"inelastic": "consumer", "elastic": "consumer",
                "supply": "producer", "flat_supply": "producer"}.get(
            strategy) or draw(st.sampled_from(["producer", "consumer"]))
        lines.append(["agent", f"a{i}", draw(st.integers(0, 4)), role,
                      strategy, *strategies[strategy]()])
    return free_form(draw, ["agent"]) or spoilt(draw, lines)


@st.composite
def config_text(draw):
    cfg = [["case", "case.txt"], ["roster", "roster.txt"],
           ["offers", "offers.txt"],
           ["mechanism", draw(st.sampled_from(["clearing", "p2p", "dlmp"]))],
           ["grid_steps", draw(st.integers(1, 2))],
           ["market_steps", draw(st.integers(1, 3))],
           ["segments", draw(st.integers(1, 4))],
           ["lmp_source", num(draw, 0.0, 10.0)],
           ["trade_quantity", num(draw, 0.1, 10.0)]]
    return spoilt(draw, cfg, sep=" = ")


def keeps_the_contract(argv, out):
    """Run the CLI on `argv`: it exits 0, 1 or 2 without a traceback or a
    warning, prints exactly one error line when it fails, and leaves no
    output at `out` on exit 2."""
    err = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        rc = main(argv)
    assert not caught, [str(w.message) for w in caught]
    assert rc in (0, 1, 2)
    assert len(err.getvalue().splitlines()) == (rc != 0), err.getvalue()
    if rc == 2:
        assert not os.path.exists(out)


def in_files(texts, argv):
    """Write `texts` (file name -> text) to a fresh directory and run the
    contract check on `argv` there, with `out` there as its output path."""
    with tempfile.TemporaryDirectory() as d:
        for name, text in texts.items():
            with open(os.path.join(d, name), "w", encoding="utf-8") as f:
                f.write(text + "\n")
        keeps_the_contract([a.format(d=d) for a in argv],
                           os.path.join(d, "out"))


@settings(max_examples=100, deadline=None)
@given(case_text())
def test_fuzzed_validate_keeps_the_cli_contract(case):
    in_files({"case.txt": case}, ["validate", "{d}/case.txt"])


@settings(max_examples=100, deadline=None)
@given(case_text(), bids_text(), st.integers(1, 4))
@example("bus 0\nbus 1\nline a 0 1 10", "bid c 1 D 5 1 inf 0", 2)
@example("bus 0\nbus 1\nline a 0 1 inf",
         "bid s 0 S 1 1 1e25 0\nbid c 1 D 5 5 1e25 0", 4)
def test_fuzzed_clear_keeps_the_cli_contract(case, bids, segments):
    in_files({"case.txt": case, "bids.txt": bids},
             ["clear", "--case", "{d}/case.txt", "--bids", "{d}/bids.txt",
              "--segments", str(segments), "--out", "{d}/out"])


@settings(max_examples=100, deadline=None)
@given(case_text(), offers_text(), VALUE)
@example("bus 0\nbus 1\nline a 0 1 10", "gen 1 0 10 10,inf", "5")
@example("bus 0\nbus 1\nline a 0 1 10", "dr 1 inf 5,3", "5")
@example("bus 0\nbus 1\nbus 2\nbus 3\nbus 4\nline l1 0 1 inf\n"
         "line l2 0 2 1e308\nline l3 0 3 inf\nline l4 0 4 inf",
         "dr 2 1e308", "0.0")
def test_fuzzed_dlmp_keeps_the_cli_contract(case, offers, lmp_source):
    in_files({"case.txt": case, "offers.txt": offers},
             ["dlmp", "--case", "{d}/case.txt", "--offers", "{d}/offers.txt",
              f"--lmp-source={lmp_source}", "--out", "{d}/out"])


@settings(max_examples=200, deadline=None)
@given(config_text(), case_text(), roster_text(), offers_text(), VALUE)
@example("case = case.txt\nroster = roster.txt\nmechanism = clearing",
         "bus 0\nbus 1\nline a 0 1 10",
         "agent f 0 producer flat_supply 4 100\n"
         "agent cx 1 consumer elastic 5 1 inf", "", "1")
def test_fuzzed_run_keeps_the_cli_contract(config, case, roster, offers, kw):
    in_files({"run.cfg": config, "case.txt": case, "roster.txt": roster,
              "offers.txt": offers, "profile.csv": f"kw\n{kw}"},
             ["run", "--config", "{d}/run.cfg", "--out", "{d}/out"])
