"""Exact computation in the super Witt algebra and its Whittaker modules.

Everything is over the rationals: coefficients are fractions.Fraction,
comparisons are exact, and no check carries a tolerance.

Importing the package loads no layer.  Each name below is served from its
submodule on first access (PEP 562), so `import wittmod.cli` compiles only
what the command line needs before any command runs: neither
wittmod.config nor argparse.  A Witt bracket then loads config for its
shape rule, but not glmn, and `wh` validates its parameters without
the verifier.  No module of the package loads dataclasses.
"""

__version__ = "0.1.0"

# submodule -> the names re-exported from it, in __all__ order
_LAYERS = {
    "superpoly": ["SuperPoly"],
    "witt": ["WittElement", "ExtendedWittElement", "witt_basis",
             "extended_basis", "witt_bracket", "extended_bracket",
             "witt_act", "bracket_oracle"],
    "words": ["OperatorWord", "weyl_normal_order", "weyl_equal",
              "difference_word"],
    "dressed": ["DressedWittElement", "dressed_bracket", "commutant_element",
                "commutant_of_witt"],
    "glmn": ["Rep", "natural_rep", "trivial_rep", "tensor_rep",
             "direct_sum_rep", "custom_rep", "verify_rep"],
    "tensor_modules": ["ModuleSpec", "TensorElement", "TensorSpan",
                       "TransitionSingular", "act_witt", "act_mono",
                       "act_word", "whittaker_space",
                       "generalized_whittaker_space", "descent",
                       "pbw_basis_rewrite", "weight_reduce"],
    "expressions": ["ExpressionError", "ParseError", "parse_expr",
                    "print_expr", "as_superpoly", "as_witt", "as_dressed",
                    "as_word", "as_tensor"],
    "config": ["ConfigError", "RunConfig", "load_config", "resolve_rep",
               "parse_twist", "CheckParams"],
    "verifier": ["CheckReport", "REGISTRY", "run_check"],
    "reporting": ["build_report", "emit_report", "render_report",
                  "report_schema"],
}
_EXPORTS = {name: layer for layer, names in _LAYERS.items()
            for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    from importlib import import_module
    value = getattr(import_module("." + _EXPORTS[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
