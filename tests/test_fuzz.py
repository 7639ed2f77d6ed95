"""Fuzzed input files: every parser either returns or raises one of the
input errors the CLI reports as a file or config error, whatever the text."""

import tempfile

from hypothesis import example, given, settings, strategies as st

from gridmarket.agents import parse_roster
from gridmarket.cli import KEYS, ConfigError, parse
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
