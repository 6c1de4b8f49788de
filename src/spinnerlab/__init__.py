"""Exact models of a fair spinner over a computable infinitesimal field.

The package provides one exact-arithmetic kernel (rational functions in a
formal infinitesimal) and four probability models built on it: the
interval-length minimal model, the hyperfinite counting grid, cylinder
events on the Cantor set, and coin-flip/lottery events over an unlimited
number of trials.  A query language and verification suites tie them
together; see the README for the command-line surface.
"""

from .cantor import CantorEvent, cantor_probability
from .errors import DomainError, GeneratorMismatchError, ParseError, \
    QueryTypeError
from .field import Classification, Generator, Kind, NonArchValue, Ordering, \
    Poly, Sign, classify, parse_value, standard_part
from .intervals import IntervalSet, dyadic_tail_family, lebesgue_length, \
    parse_set, sigma_additivity_probe
from .lottery import CoinEvent, RegularityWitness, \
    archimedean_regularity_witness, coinflip_probability, \
    lottery_ticket_probability
from .query import EvalResult, Query, evaluate, parse_query
from .report import PropertyReport
from .spinner import CountForm, FiniteGrid, GridModel, StabilizerResult, \
    SuiteConfig, finite_grid_stabilizer, grid_count, grid_probability, \
    run_property_suite

__version__ = "0.1.0"

__all__ = [
    "CantorEvent", "Classification", "CoinEvent", "CountForm", "DomainError",
    "EvalResult", "FiniteGrid", "Generator", "GeneratorMismatchError",
    "GridModel", "IntervalSet", "Kind", "NonArchValue", "Ordering",
    "ParseError", "Poly", "PropertyReport", "Query", "QueryTypeError",
    "RegularityWitness", "Sign", "StabilizerResult", "SuiteConfig",
    "archimedean_regularity_witness", "cantor_probability", "classify",
    "coinflip_probability", "dyadic_tail_family", "evaluate",
    "finite_grid_stabilizer", "grid_count", "grid_probability",
    "lebesgue_length", "lottery_ticket_probability", "parse_query",
    "parse_set", "parse_value", "run_property_suite",
    "sigma_additivity_probe", "standard_part",
]
