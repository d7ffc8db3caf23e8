"""Command line interface.

Exit codes: 0 all good, 1 a verifier check failed, 2 usage or
configuration error.  Any other exception is an internal bug and
propagates.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace

# only the layers of a Witt bracket load with the module (the converters
# load their own element types on first call); every other layer is
# imported by the command that uses it.  config waits for the first
# command, and argparse, with the whole tree, for a request that _scan
# refuses.  A Witt bracket adds config alone, for the shape rule, and wh
# validates its parameters without the verifier (see the package docstring)
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


def _answer(args) -> int:
    """Run the command that args.command names, whichever reader made args:
    a parse or configuration error is one error line and exit 2, any
    other exception a bug."""
    try:
        return _COMMANDS[args.command][1](args)
    except ValueError as e:  # config loads only for an error
        from .config import ConfigError
        if not isinstance(e, (ExpressionError, ConfigError)):
            raise
        print("error: %s" % e, file=sys.stderr)
        return 2


# the run-parameter flags are named here and read by config, which types,
# defaults, bounds and echoes them as it does an INI value
_SHAPE_FLAGS = tuple(
    ("--" + flag, {"help": "number of %s variables (default: inferred)"
                           % parity})
    for flag, parity in (("m", "even"), ("n", "odd")))
_MODULE_FLAGS = _SHAPE_FLAGS + (
    ("--a", {"help": "twist vector, comma separated rationals"}),
    ("--rep", {"help": "rep descriptor: natural | trivial[:d] | "
                       "tensor(r,s) | sum(r,s) | file:PATH"}),
)
_CHECK_FLAGS = _MODULE_FLAGS + tuple(
    ("--" + flag, {}) for flag in ("D", "deg", "rmax", "trials", "seed",
                                   "height")) + (
    ("--mode", {"help": "corrected | verbatim | mutated | tau_flipped | "
                        "untwisted | coset (check dependent)"}),
    ("--expect-reducible", {"action": "store_const", "const": True}),
    ("--config", {"help": "INI config file"}),
)

# the one declaration of the commands and their arguments, read by
# build_parser and by _scan: command -> (help, the function it runs, its
# arguments in the order help lists them).  An argument is a name and the
# keywords of its add_argument call; a name that starts with '--' is a
# flag, whose dest is its name with '-' as '_' after the leading '--'.  A
# flag takes one value unless its action is store_true or store_const
_COMMANDS = {
    "bracket": ("bracket of two derivation elements", _cmd_bracket, (
        ("e1", {}), ("e2", {}),
        ("--mode", {"choices": ["corrected", "verbatim"]}),
    ) + _SHAPE_FLAGS),
    "act": ("apply an operator word to a module element", _cmd_act, (
        ("op", {}), ("elem", {}),
    ) + _MODULE_FLAGS),
    "wh": ("Whittaker vector basis on the degree window", _cmd_wh, (
        ("--spec", {"help": "INI config file"}),
    ) + _MODULE_FLAGS + (("--D", {}), ("--height", {}))),
    "descent": ("project onto the Whittaker space", _cmd_descent, (
        ("elem", {}),
    ) + _MODULE_FLAGS),
    "weighting": ("reduce modulo the weight ideal", _cmd_weighting, (
        ("elem", {}),
        ("--r", {"required": True,
                 "help": "weight, comma separated rationals"}),
    ) + _MODULE_FLAGS),
    "verify": ("run verifier checks", _cmd_verify, (
        ("check", {"help": "check id or 'all'"}),
    ) + _CHECK_FLAGS),
    "report": ("run checks and write a JSON report", _cmd_report, (
        ("--check", {"default": "all", "help": "check id or 'all'"}),
        ("--out", {"required": True, "help": "output path or '-'"}),
        ("--stable", {"action": "store_true", "default": False,
                      "help": "pin timestamp and timings for byte-stable "
                              "output"}),
    ) + _CHECK_FLAGS),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree: a subparser for each command of the table."""
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
    for name, (help_, _, arguments) in _COMMANDS.items():
        sub = sp.add_parser(name, help=help_)
        for arg, keywords in arguments:
            sub.add_argument(arg, **keywords)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The tree, built on first use and kept for the process: it holds no
    per-request state (prog is fixed, errors go to the current sys.stderr)."""
    return build_parser()


@functools.cache
def _layout(command):
    """(positional names, flag -> (dest, add_argument keywords), the
    required flags, the namespace of no flags) of a command's table
    entry, as the tree reads them."""
    arguments = _COMMANDS[command][2]
    names = [arg for arg, _ in arguments if not arg.startswith("-")]
    flags = {arg: (arg[2:].replace("-", "_"), kw) for arg, kw in arguments
             if arg.startswith("-")}
    required = [arg for arg, (_, kw) in flags.items() if kw.get("required")]
    empty = dict.fromkeys(names)
    empty.update((dest, kw.get("default")) for dest, kw in flags.values())
    return names, flags, required, empty


def _scan(argv):
    """The namespace that the tree returns for argv, read straight
    from the table when argv is spelt canonically: exact flags, each at
    most once, as '--flag value' (a value that does not start with '-')
    or '--flag=value'; at most one '--', not last, everything after it
    positional; exactly the command's positionals; every required flag;
    a value with choices inside them.  Any other argv is None, for
    argparse to read."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    names, flags, required, empty = _layout(argv[0])
    args, seen, positionals = dict(empty, command=argv[0]), set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            rest = list(tokens)
            if not rest or "--" in rest:
                return None
            positionals += rest
            break
        if not token.startswith("-"):
            positionals.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag not in flags or flag in seen:
            return None
        seen.add(flag)
        dest, kw = flags[flag]
        if "action" in kw:  # store_true or store_const: no value
            if eq:
                return None
            value = kw.get("const", True)
        elif not eq:
            value = next(tokens, "-")  # a missing value reads as a flag
            if value.startswith("-"):
                return None
        if value not in kw.get("choices", (value,)):
            return None
        args[dest] = value
    if len(positionals) != len(names) or not seen.issuperset(required):
        return None
    args.update(zip(names, positionals))
    return SimpleNamespace(**args)


def run_command(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _scan(argv)
    if args is None:
        try:
            # what the tree leaves is cut token by token: one may hold spaces
            args, extras = _parser().parse_known_args(argv)
            if extras:
                _parser().error("unrecognized arguments: %s"
                                % " ".join(quoted(x, str) for x in extras))
        except SystemExit as e:
            return 2 if e.code else 0
    return _answer(args)


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
