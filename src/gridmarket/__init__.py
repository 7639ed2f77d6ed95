"""Distribution-level electricity market simulation on radial networks."""

from .curves import Curve, DEMAND, SUPPLY
from .network import Grid, Network, build_network, line_flows, load_case, ptdf
from .clearing import Dispatch, MarketInput, clear, settle_prices
from .p2p import MatchRound, NegotiationOutcome, P2pConfig, match, negotiate
from .dlmp import DlmpResult, DrOffer, GenOffer, ScopfInput, solve_dlmp
from .agents import BanditState, UcbNegotiator, ucb_index
from .env import ClearingMarket, DlmpMarket, Environment, P2pMarket

__version__ = "0.1.0"
