"""Command line interface.

Exit codes: 0 all good, 1 a verifier check failed, 2 usage or
configuration error.  Any other exception is an internal bug and
propagates.
"""

from __future__ import annotations

import functools
import sys

# only the layers of a Witt bracket load with the module (the converters
# load their own element types on first call); every other layer is
# imported by the command that uses it, and config and argparse wait for
# the first command, which builds the argparse parser of that command
# alone.  A Witt bracket adds config alone, for the shape rule, and wh
# validates its parameters without the verifier (see the package
# docstring)
from .expressions import (MAX_ECHO, ExpressionError, as_dressed, as_tensor,
                          as_witt, as_word, parse_expr, print_expr, quoted)
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


def _shape(args, *texts):
    """m, n and the parsed texts; --m/--n pass the shape rule first."""
    from .config import CheckParams
    m, n = CheckParams.check_shape(args.m, args.n)
    parsed = [parse_expr(text) for text in texts]
    inferred = _infer_mn(parsed)
    m, n = CheckParams.check_shape(inferred[0] if m is None else m,
                                   inferred[1] if n is None else n)
    return (m, n, *parsed)


def _module_spec(args, m, n, nonsingular_for=None) -> ModuleSpec:
    from .config import _FIELDS, ConfigError, parse_twist, resolve_rep
    from .tensor_modules import ModuleSpec
    rep = _FIELDS["rep"][1] if args.rep is None else args.rep
    spec = ModuleSpec(m, n, parse_twist(args.a, m), resolve_rep(rep, m, n))
    if nonsingular_for and not spec.nonsingular:
        raise ConfigError("%s needs a nonsingular twist vector"
                          % nonsingular_for)
    return spec


# the run-parameter flags are named here and read by config, which types,
# defaults, bounds and echoes them as it does an INI value
def _add_shape_flags(sub):
    for flag, parity in (("--m", "even"), ("--n", "odd")):
        sub.add_argument(flag, help="number of %s variables (default: "
                                    "inferred)" % parity)


def _add_module_flags(sub):
    _add_shape_flags(sub)
    sub.add_argument("--a", help="twist vector, comma separated rationals")
    sub.add_argument("--rep", help="rep descriptor: natural | trivial[:d] | "
                                   "tensor(r,s) | sum(r,s) | file:PATH")


def _cmd_bracket(args) -> int:
    from .config import _FIELDS
    m, n, t1, t2 = _shape(args, args.e1, args.e2)
    mode = args.mode or _FIELDS["mode"][1]
    # a term with a dressing segment ('a . derivation') selects the dressed
    # route; anything else must parse as a plain derivation
    if any(len(segs) > 1 for _, segs, _ in t1 + t2):
        from .dressed import dressed_bracket
        u, v = as_dressed(t1, m, n), as_dressed(t2, m, n)
        out = dressed_bracket(u, v, mode=mode)
    else:
        u, v = as_witt(t1, m, n), as_witt(t2, m, n)
        out = witt_bracket(u, v, mode=mode)
    print(print_expr(out))
    return 0


def _cmd_act(args) -> int:
    from .tensor_modules import act_word
    m, n, top, telem = _shape(args, args.op, args.elem)
    spec = _module_spec(args, m, n)
    w = as_word(top, m, n)
    x = as_tensor(telem, m, n, spec.dim)
    print(print_expr(act_word(spec, w, x)))
    return 0


def _cmd_wh(args) -> int:
    from .config import plan_run, resolve_rep
    from .tensor_modules import (ModuleSpec, generalized_whittaker_space,
                                 whittaker_space)
    _, (merged,), _ = plan_run(args.spec, "whittaker_dimension", vars(args))
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
    m, n, telem = _shape(args, args.elem)
    spec = _module_spec(args, m, n, nonsingular_for="descent")
    x = as_tensor(telem, m, n, spec.dim)
    print(print_expr(descent(spec, x)))
    return 0


def _cmd_weighting(args) -> int:
    from .config import parse_twist
    from .tensor_modules import weight_reduce
    m, n, telem = _shape(args, args.elem)
    spec = _module_spec(args, m, n, nonsingular_for="weighting")
    x = as_tensor(telem, m, n, spec.dim)
    weight = parse_twist(args.r, m, "weight --r", required=True)
    print(print_expr(weight_reduce(spec, x, weight)))
    return 0


def _run_checks(args):
    """Run the checks that args select: (reports, the run's seed).  The
    run is planned before the verifier loads."""
    from .config import plan_run
    ids, params, seed = plan_run(args.config, args.check, vars(args))
    from .verifier import run_check
    return [run_check(cid, p) for cid, p in zip(ids, params)], seed


def _cmd_verify(args) -> int:
    reports, _ = _run_checks(args)
    for r in reports:
        print("%-26s %-5s cases=%-8d %dms"
              % (r.id, r.status, r.cases, r.elapsed_ms))
        if r.counterexample:
            print("  counterexample: %s" % (r.counterexample,))
    return _exit_code(reports)


def _cmd_report(args) -> int:
    from .reporting import _timestamp, check_out_path, emit_report
    _timestamp(args.stable)  # a bad SOURCE_DATE_EPOCH fails before a check
    if args.out != "-":
        check_out_path(args.out)
    reports, seed = _run_checks(args)
    emit_report(reports, args.out, seed=seed, stable=args.stable)
    return _exit_code(reports)


def _exit_code(reports) -> int:
    """2 if some check could not run (an error status), else 1 on any
    fail, else 0."""
    statuses = {r.status for r in reports}
    if "error" in statuses:
        return 2
    return 1 if "fail" in statuses else 0


def _answer(cmd, args) -> int:
    """cmd(args), whichever parser read args: a parse or configuration
    error is one error line and exit 2, any other exception a bug."""
    try:
        return cmd(args)
    except ValueError as e:  # config loads only for an error
        from .config import ConfigError
        if not isinstance(e, (ExpressionError, ConfigError)):
            raise
        print("error: %s" % e, file=sys.stderr)
        return 2


def _add_check_flags(sub):
    _add_module_flags(sub)
    for flag in ("D", "deg", "rmax", "trials", "seed", "height"):
        sub.add_argument("--" + flag)
    sub.add_argument("--mode", help="corrected | verbatim | mutated | "
                     "tau_flipped | untwisted | coset (check dependent)")
    sub.add_argument("--expect-reducible", dest="expect_reducible",
                     action="store_const", const=True)
    sub.add_argument("--config", default=None, help="INI config file")


def _bracket_args(sub):
    sub.add_argument("e1")
    sub.add_argument("e2")
    sub.add_argument("--mode", choices=["corrected", "verbatim"])
    _add_shape_flags(sub)
    sub.set_defaults(fn=functools.partial(_answer, _cmd_bracket))


def _act_args(sub):
    sub.add_argument("op")
    sub.add_argument("elem")
    _add_module_flags(sub)
    sub.set_defaults(fn=functools.partial(_answer, _cmd_act))


def _wh_args(sub):
    sub.add_argument("--spec", default=None, help="INI config file")
    _add_module_flags(sub)
    sub.add_argument("--D")
    sub.add_argument("--height")
    sub.set_defaults(fn=functools.partial(_answer, _cmd_wh))


def _descent_args(sub):
    sub.add_argument("elem")
    _add_module_flags(sub)
    sub.set_defaults(fn=functools.partial(_answer, _cmd_descent))


def _weighting_args(sub):
    sub.add_argument("elem")
    sub.add_argument("--r", required=True,
                     help="weight, comma separated rationals")
    _add_module_flags(sub)
    sub.set_defaults(fn=functools.partial(_answer, _cmd_weighting))


def _verify_args(sub):
    sub.add_argument("check", help="check id or 'all'")
    _add_check_flags(sub)
    sub.set_defaults(fn=functools.partial(_answer, _cmd_verify))


def _report_args(sub):
    sub.add_argument("--check", default="all", help="check id or 'all'")
    sub.add_argument("--out", required=True, help="output path or '-'")
    sub.add_argument("--stable", action="store_true",
                     help="pin timestamp and timings for byte-stable output")
    _add_check_flags(sub)
    sub.set_defaults(fn=functools.partial(_answer, _cmd_report))


# command -> (help, the function that adds its arguments), in help order
_COMMANDS = {
    "bracket": ("bracket of two derivation elements", _bracket_args),
    "act": ("apply an operator word to a module element", _act_args),
    "wh": ("Whittaker vector basis on the degree window", _wh_args),
    "descent": ("project onto the Whittaker space", _descent_args),
    "weighting": ("reduce modulo the weight ideal", _weighting_args),
    "verify": ("run verifier checks", _verify_args),
    "report": ("run checks and write a JSON report", _report_args),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The whole argparse tree, or with a command the parser of that
    command alone.  Either way each command's parser comes from the same
    add_subparsers().add_parser() call, so its prog ('wittmod bracket')
    and usage lines are those of the tree."""
    import argparse
    import re

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            # argparse echoes a user token bare or in quotes: one past
            # MAX_ECHO is cut by quoted's rule, as in every error line
            super().error(re.sub(
                r"'([^']{%d,})'|\S{%d,}" % (MAX_ECHO + 1, MAX_ECHO + 1),
                lambda t: quoted(t[1], "'{}'".format) if t[1]
                else quoted(t[0], str), message))

    ap = Parser(
        prog="wittmod",
        description="Exact super Witt algebra and Whittaker module tool")
    sp = ap.add_subparsers(dest="command", required=True)
    for name in [command] if command else _COMMANDS:
        help_, add_args = _COMMANDS[name]
        add_args(sp.add_parser(name, help=help_))
    return sp.choices[command] if command else ap


@functools.cache
def _parser(command=None) -> argparse.ArgumentParser:
    """The parser of one command, or with none the whole tree, built on
    first use and kept for the process: a parser holds no per-request
    state (prog is fixed, and errors go to the sys.stderr of the
    moment)."""
    return build_parser(command)


def run_command(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        # what the tree does, without classifying every argument of a
        # command a second time: that command's parser reads the rest,
        # and the tree reports what is left, each token cut alone (one may
        # hold spaces)
        if argv and argv[0] in _COMMANDS:
            args, extras = _parser(argv[0]).parse_known_args(argv[1:])
        else:
            args, extras = _parser().parse_known_args(argv)
        if extras:
            _parser().error("unrecognized arguments: %s"
                            % " ".join(quoted(x, str) for x in extras))
    except SystemExit as e:
        return 2 if e.code else 0
    return args.fn(args)


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
