"""Command line interface.

Exit codes: 0 all good, 1 a verifier check failed, 2 usage or
configuration error.  Any other exception is an internal bug and
propagates.
"""

from __future__ import annotations

import functools
import os
import sys

# only the layers of a Witt bracket load with the module (the converters
# load their own element types on first call); every other layer is
# imported by the command that uses it, and config and argparse wait for
# the first command.  A Witt bracket adds config alone, for the shape
# rule, and wh validates its parameters without the verifier (see the
# package docstring)
from .expressions import (ExpressionError, as_dressed, as_tensor, as_witt,
                          as_word, parse_expr, print_expr)
from .witt import witt_bracket


def _infer_mn(parsed_lists):
    """Smallest (m, n) shape containing every index that appears."""
    m, n = 1, 0
    for terms in parsed_lists:
        for _, segs, _ in terms:
            for seg in segs:
                for atom in seg:
                    if atom[0] in ("t", "dt"):
                        m = max(m, atom[1])
                    else:
                        n = max(n, atom[1])
    return m, n


def _shape(args, parsed_lists):
    from .config import CheckParams
    m, n = _infer_mn(parsed_lists)
    if args.m is not None:
        m = args.m
    if args.n is not None:
        n = args.n
    CheckParams.check_shape(m, n)
    return m, n


def _module_spec(args, m, n, nonsingular_for=None) -> ModuleSpec:
    from .config import ConfigError, parse_twist, resolve_rep
    from .tensor_modules import ModuleSpec
    spec = ModuleSpec(m, n, parse_twist(args.a, m),
                      resolve_rep(args.rep, m, n))
    if nonsingular_for and not spec.nonsingular:
        raise ConfigError("%s needs a nonsingular twist vector"
                          % nonsingular_for)
    return spec


def _add_shape_flags(sub):
    sub.add_argument("--m", type=int, default=None,
                     help="number of even variables (default: inferred)")
    sub.add_argument("--n", type=int, default=None,
                     help="number of odd variables (default: inferred)")


def _add_module_flags(sub):
    _add_shape_flags(sub)
    sub.add_argument("--a", default=None,
                     help="twist vector, comma separated rationals")
    sub.add_argument("--rep", default="natural",
                     help="rep descriptor: natural | trivial[:d] | "
                          "tensor(r,s) | sum(r,s) | file:PATH")


def _cmd_bracket(args) -> int:
    t1, t2 = parse_expr(args.e1), parse_expr(args.e2)
    m, n = _shape(args, [t1, t2])
    # a term with a dressing segment ('a . derivation') selects the dressed
    # route; anything else must parse as a plain derivation
    if any(len(segs) > 1 for _, segs, _ in t1 + t2):
        from .dressed import dressed_bracket
        u, v = as_dressed(t1, m, n), as_dressed(t2, m, n)
        out = dressed_bracket(u, v, mode=args.mode)
    else:
        u, v = as_witt(t1, m, n), as_witt(t2, m, n)
        out = witt_bracket(u, v, mode=args.mode)
    print(print_expr(out))
    return 0


def _cmd_act(args) -> int:
    from .tensor_modules import act_word
    top, telem = parse_expr(args.op), parse_expr(args.elem)
    m, n = _shape(args, [top, telem])
    spec = _module_spec(args, m, n)
    w = as_word(top, m, n)
    x = as_tensor(telem, m, n, spec.dim)
    print(print_expr(act_word(spec, w, x)))
    return 0


def _cmd_wh(args) -> int:
    from .config import load_config, resolve_rep
    from .tensor_modules import (ModuleSpec, generalized_whittaker_space,
                                 whittaker_space)
    cfg = load_config(args.spec)
    merged = cfg.params_for("whittaker_dimension", _cli_dict(args))
    m, n = merged["m"], merged["n"]
    spec = ModuleSpec(m, n, merged["a"], resolve_rep(merged["rep"], m, n))
    if merged["height"]:
        basis = generalized_whittaker_space(spec, merged["D"],
                                            merged["height"])
    else:
        basis = whittaker_space(spec, merged["D"])
    for vec in basis:
        print(print_expr(vec))
    return 0


def _cmd_descent(args) -> int:
    from .tensor_modules import descent
    telem = parse_expr(args.elem)
    m, n = _shape(args, [telem])
    spec = _module_spec(args, m, n, nonsingular_for="descent")
    x = as_tensor(telem, m, n, spec.dim)
    print(print_expr(descent(spec, x)))
    return 0


def _cmd_weighting(args) -> int:
    from .config import parse_twist
    from .tensor_modules import weight_reduce
    telem = parse_expr(args.elem)
    m, n = _shape(args, [telem])
    spec = _module_spec(args, m, n, nonsingular_for="product basis")
    x = as_tensor(telem, m, n, spec.dim)
    weight = parse_twist(args.r, m, "weight --r", required=True)
    print(print_expr(weight_reduce(spec, x, weight)))
    return 0


def _cli_dict(args) -> dict:
    from .config import CheckParams, ConfigError
    out = {}
    for key in CheckParams.keys():
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
    env_seed = os.environ.get("WITTMOD_SEED")
    if "seed" not in out and env_seed:
        try:
            out["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError("WITTMOD_SEED must be an integer, got %r"
                              % env_seed)
    return out


def _run_checks(args):
    """Run the checks that args select: (reports, config, CLI values).
    Every selected check's parameters are resolved before any check
    runs."""
    from .verifier import REGISTRY, run_check
    from .config import load_config
    cfg = load_config(args.config)
    ids = _selected_checks(args.check, cfg, REGISTRY)
    cli = _cli_dict(args)
    params = [cfg.params_for(cid, cli) for cid in ids]
    return [run_check(cid, p) for cid, p in zip(ids, params)], cfg, cli


def _selected_checks(selector, cfg, registry):
    from .config import ConfigError
    if selector == "all":
        ids = cfg.checks if cfg.checks is not None else list(registry)
        bad = [c for c in ids if c not in registry]
        if bad:
            raise ConfigError("unknown check ids in config: %s"
                              % ", ".join(bad))
        return ids
    if selector not in registry:
        raise ConfigError("unknown check id %r (known: %s)"
                          % (selector, ", ".join(registry)))
    return [selector]


def _cmd_verify(args) -> int:
    reports, _, _ = _run_checks(args)
    for r in reports:
        print("%-26s %-5s cases=%-8d %dms"
              % (r.id, r.status, r.cases, r.elapsed_ms))
        if r.counterexample:
            print("  counterexample: %s" % (r.counterexample,))
    return _exit_code(reports)


def _cmd_report(args) -> int:
    from .reporting import emit_report
    reports, cfg, cli = _run_checks(args)
    seed = cli.get("seed", cfg.base.get("seed", 0))
    emit_report(reports, args.out, seed=int(seed), stable=args.stable)
    return _exit_code(reports)


def _exit_code(reports) -> int:
    """2 if some check could not run (an error status), else 1 on any
    fail, else 0."""
    statuses = {r.status for r in reports}
    if "error" in statuses:
        return 2
    return 1 if "fail" in statuses else 0


def _add_check_flags(sub):
    _add_module_flags(sub)
    for flag in ("D", "deg", "rmax", "trials", "seed", "height"):
        sub.add_argument("--%s" % flag, type=int, default=None)
    sub.add_argument("--mode", default=None,
                     help="corrected | verbatim | mutated | tau_flipped | "
                          "untwisted | coset (check dependent)")
    sub.add_argument("--expect-reducible", dest="expect_reducible",
                     action="store_const", const=True, default=None)
    sub.add_argument("--config", default=None, help="INI config file")


def build_parser() -> argparse.ArgumentParser:
    import argparse
    ap = argparse.ArgumentParser(
        prog="wittmod",
        description="Exact super Witt algebra and Whittaker module tool")
    sp = ap.add_subparsers(dest="command", required=True)

    b = sp.add_parser("bracket", help="bracket of two derivation elements")
    b.add_argument("e1")
    b.add_argument("e2")
    b.add_argument("--mode", default="corrected",
                   choices=["corrected", "verbatim"])
    _add_shape_flags(b)
    b.set_defaults(fn=_cmd_bracket)

    a = sp.add_parser("act", help="apply an operator word to a module "
                                  "element")
    a.add_argument("op")
    a.add_argument("elem")
    _add_module_flags(a)
    a.set_defaults(fn=_cmd_act)

    w = sp.add_parser("wh", help="Whittaker vector basis on the degree "
                                 "window")
    w.add_argument("--spec", default=None, help="INI config file")
    _add_module_flags(w)
    w.add_argument("--D", type=int, default=None)
    w.add_argument("--height", type=int, default=None)
    w.set_defaults(fn=_cmd_wh)

    d = sp.add_parser("descent", help="project onto the Whittaker space")
    d.add_argument("elem")
    _add_module_flags(d)
    d.set_defaults(fn=_cmd_descent)

    g = sp.add_parser("weighting", help="reduce modulo the weight ideal")
    g.add_argument("elem")
    g.add_argument("--r", required=True,
                   help="weight, comma separated rationals")
    _add_module_flags(g)
    g.set_defaults(fn=_cmd_weighting)

    v = sp.add_parser("verify", help="run verifier checks")
    v.add_argument("check", help="check id or 'all'")
    _add_check_flags(v)
    v.set_defaults(fn=_cmd_verify)

    r = sp.add_parser("report", help="run checks and write a JSON report")
    r.add_argument("--check", default="all", help="check id or 'all'")
    r.add_argument("--out", required=True, help="output path or '-'")
    r.add_argument("--stable", action="store_true",
                   help="pin timestamp and timings for byte-stable output")
    _add_check_flags(r)
    r.set_defaults(fn=_cmd_report)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and kept for the process: it
    holds no per-request state (prog is fixed, and errors go to the
    sys.stderr of the moment)."""
    return build_parser()


def run_command(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.fn(args)
    except ValueError as e:
        from .config import ConfigError
        if not isinstance(e, (ExpressionError, ConfigError)):
            raise
        print("error: %s" % e, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
