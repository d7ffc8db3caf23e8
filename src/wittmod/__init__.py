"""Exact computation in the super Witt algebra and its Whittaker modules.

Everything is over the rationals: coefficients are fractions.Fraction,
comparisons are exact, and no check carries a tolerance.
"""

__version__ = "0.1.0"

from .superpoly import SuperPoly
from .witt import (WittElement, ExtendedWittElement, witt_basis,
                   extended_basis, witt_bracket, extended_bracket,
                   witt_act, bracket_oracle)
from .words import OperatorWord, weyl_normal_order, weyl_equal, \
    difference_word
from .dressed import (DressedWittElement, dressed_bracket,
                      commutant_element, commutant_of_witt)
from .glmn import (Rep, natural_rep, trivial_rep, tensor_rep,
                   direct_sum_rep, custom_rep, verify_rep)
from .tensor_modules import (ModuleSpec, TensorElement, TensorSpan,
                             TransitionSingular, act_witt, act_mono,
                             act_word, whittaker_space,
                             generalized_whittaker_space, descent,
                             pbw_basis_rewrite, weight_reduce)
from .expressions import (ExpressionError, ParseError, parse_expr,
                          print_expr, as_superpoly, as_witt, as_dressed,
                          as_word, as_tensor)
# the verifier before the config: it is the largest module, and compiling
# it before the config loads dataclasses keeps the import's peak memory low
from .verifier import CheckParams, CheckReport, REGISTRY, run_check
from .config import ConfigError, RunConfig, load_config, resolve_rep, \
    parse_twist
from .reporting import build_report, emit_report, render_report, \
    report_schema

__all__ = [
    "__version__",
    "SuperPoly",
    "WittElement", "ExtendedWittElement", "witt_basis", "extended_basis",
    "witt_bracket", "extended_bracket", "witt_act", "bracket_oracle",
    "OperatorWord", "weyl_normal_order", "weyl_equal", "difference_word",
    "DressedWittElement", "dressed_bracket", "commutant_element",
    "commutant_of_witt",
    "Rep", "natural_rep", "trivial_rep", "tensor_rep", "direct_sum_rep",
    "custom_rep", "verify_rep",
    "ModuleSpec", "TensorElement", "TensorSpan", "TransitionSingular",
    "act_witt", "act_mono", "act_word", "whittaker_space",
    "generalized_whittaker_space", "descent", "pbw_basis_rewrite",
    "weight_reduce",
    "ExpressionError", "ParseError", "parse_expr", "print_expr",
    "as_superpoly", "as_witt", "as_dressed", "as_word", "as_tensor",
    "ConfigError", "RunConfig", "load_config", "resolve_rep", "parse_twist",
    "CheckParams", "CheckReport", "REGISTRY", "run_check",
    "build_report", "emit_report", "render_report", "report_schema",
]
