"""Run configuration: the run-parameter schema (CheckParams), INI files,
twist vectors, rep descriptors, and what a run selects (plan_run).

A config file has a [run] section plus optional [check:<id>] sections:

    [run]
    m = 2
    n = 1
    a = 1, -1/2
    rep = tensor(natural, trivial)
    D = 3
    seed = 0
    checks = jacobi, bracket_oracle

    [check:jacobi]
    deg = 2

Rep descriptors: natural | trivial | trivial:<dim> | tensor(d1, d2)
| sum(d1, d2) | file:<path>.  The file format is a header line
"dim p1 .. pd" (parities of the chosen basis) followed by one line per
matrix unit, "E i j : d*d rationals row-major".

The module is cheap to import, since a Witt bracket loads it for the shape
rule alone: the schema is one table read by a plain class (no
dataclasses), the check ids and their modes are declared here (the
verifier is not loaded to validate them), and glmn loads when a rep is
built.
"""

from __future__ import annotations

import os
from fractions import Fraction
from operator import add, mul

from .expressions import MAX_ECHO, MAX_PATH, max_digits, quoted
from .superpoly import exact


class ConfigError(ValueError):
    pass


def parse_rational(text):
    """A rational literal under superpoly.exact's rule, bounded before
    Fraction expands an exponent: its longest part's digits plus the
    exponent may not pass max_digits.  Once stripped it is plain ASCII with
    no "_" and no blank, the grammar Fraction reads on every Python."""
    body = text.strip()
    mantissa, _, exponent = body.lower().partition("e")
    try:
        bad = [ch for ch in body
               if ch == "_" or ch.isspace() or not ch.isascii()]
        if bad:
            raise ValueError("%r is not part of a rational" % bad[0])
        size = max(sum(map(str.isdigit, part)) for part in mantissa.split("/"))
        if size + (abs(int(exponent)) if exponent else 0) > max_digits():
            raise ValueError("more than %d digits" % max_digits())
        return exact(Fraction(body))
    except (ValueError, ZeroDivisionError) as e:
        reason = str(e) if len(text) <= MAX_ECHO else quoted(str(e), str)
        raise ConfigError("bad rational %s: %s" % (quoted(text), reason))


def parse_twist(value, m, name="twist vector", required=False) -> tuple:
    """A twist vector from text ("1, -1/2") or a sequence of rationals;
    None or an empty value is the default, all ones, unless the vector is
    required, when it must have its m entries.  name is what an error
    calls the vector."""
    if not value and not required:
        return (1,) * m
    parts = value.replace(",", " ").split() if isinstance(value, str) \
        else value
    if len(parts) != m:
        raise ConfigError("%s needs %d entries, got %d"
                          % (name, m, len(parts)))
    # exact refuses a float; a bool is refused as the text it prints as
    return tuple(parse_rational(str(p)) if isinstance(p, (str, bool))
                 else exact(p) for p in parts)


# ---------------------------------------------------------------------------
# rep descriptors

def _split_args(body):
    """Split 'a, b' at the top level (parentheses nest)."""
    depth = 0
    cut = None
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
            if depth >= MAX_REP_NESTING:
                raise ConfigError("rep descriptors nest at most %d "
                                  "combinators deep" % MAX_REP_NESTING)
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            if cut is not None:
                raise ConfigError("rep combinators take exactly two "
                                  "arguments: %s" % quoted(body))
            cut = i
    if cut is None:
        raise ConfigError("rep combinators take exactly two arguments: %s"
                          % quoted(body))
    return body[:cut].strip(), body[cut + 1:].strip()


# the largest rep dimension: the module's action rows grow with it, the
# tensor square of natural at the largest shape (8, 8) has 256, and no
# test, acceptance criterion or benchmark request goes above 9
MAX_REP_DIM = 256
# the deepest nesting of rep combinators: each level is one recursion
# (1,500 overflowed the stack), and no test or request nests above 2
MAX_REP_NESTING = 64


def _check_rep_dim(dim):
    if dim > MAX_REP_DIM:
        raise ConfigError("rep dimension must be <= %d, got %d"
                          % (MAX_REP_DIM, dim))


def resolve_rep(descriptor, m, n) -> Rep:
    """The rep a descriptor names.  Its dimension is read off the
    descriptor before any rep is built (a file's rep, once its header is
    within the ceiling), and one above MAX_REP_DIM, or combinators nested
    past MAX_REP_NESTING, is a ConfigError."""
    dim, build = _plan_rep(descriptor, m, n)
    _check_rep_dim(dim)
    return build()


def _plan_rep(descriptor, m, n):
    """(dim, build): the dimension of the rep a descriptor names and a
    function that builds it."""
    from . import glmn
    d = descriptor.strip()
    if d == "natural":
        return m + n, lambda: glmn.natural_rep(m, n)
    if d == "trivial":
        return 1, lambda: glmn.trivial_rep(m, n)
    if d.startswith("trivial:"):
        try:
            k = int(d.split(":", 1)[1])
        except ValueError:
            raise ConfigError("bad trivial dimension in %s" % quoted(d))
        if k < 1:
            raise ConfigError("trivial dimension must be >= 1")
        return k, lambda: glmn.trivial_rep(m, n, k)
    for name, combine, size in (("tensor", glmn.tensor_rep, mul),
                                ("sum", glmn.direct_sum_rep, add)):
        if d.startswith(name + "(") and d.endswith(")"):
            left, right = _split_args(d[len(name) + 1:-1])
            (dl, bl), (dr, br) = _plan_rep(left, m, n), _plan_rep(right, m, n)
            return size(dl, dr), lambda: combine(bl(), br())
    if d.startswith("file:"):
        rep = load_rep_file(d[5:].strip(), m, n)
        return rep.dim, lambda: rep
    raise ConfigError("unknown rep descriptor %s" % quoted(descriptor))


def _read_text(path, what):
    """The text of the UTF-8 file at path, whatever the locale; a file
    that cannot be read or is not UTF-8 is a ConfigError naming it as
    what."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        reason = e.strerror
    except UnicodeDecodeError as e:
        reason = "not UTF-8 text at byte %d" % e.start
    raise ConfigError("cannot read %s %s: %s"
                      % (what, quoted(path, str, MAX_PATH), reason))


def load_rep_file(path, m, n) -> Rep:
    lines = [ln.strip() for ln in _read_text(path, "rep file").split("\n")]
    shown = quoted(path, str, MAX_PATH)  # the path as every message echoes it
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("dim"):
        raise ConfigError("rep file %s: first line must be 'dim p1 .. pd'"
                          % shown)
    bits = lines[0].split()[1:]
    if not bits:
        raise ConfigError("rep file %s: no basis parities" % shown)
    try:
        parities = tuple(int(b) for b in bits)
    except ValueError:
        raise ConfigError("rep file %s: parities must be 0/1" % shown)
    if any(p not in (0, 1) for p in parities):
        raise ConfigError("rep file %s: parities must be 0/1" % shown)
    dim = len(parities)
    _check_rep_dim(dim)
    mats = {}
    for ln in lines[1:]:
        head, _, tail = ln.partition(":")
        parts = head.split()
        if len(parts) != 3 or parts[0] != "E":
            raise ConfigError("rep file %s: bad matrix line %s"
                              % (shown, quoted(ln)))
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError("rep file %s: bad unit indices in %s"
                              % (shown, quoted(ln)))
        if not (1 <= i <= m + n and 1 <= j <= m + n):
            raise ConfigError("rep file %s: unit E %s %s out of range"
                              % (shown, quoted(i, str), quoted(j, str)))
        entries = [parse_rational(p) for p in tail.split()]
        if len(entries) != dim * dim:
            raise ConfigError("rep file %s: E %d %d needs %d entries, got %d"
                              % (shown, i, j, dim * dim, len(entries)))
        mats[(i, j)] = {divmod(k, dim): f for k, f in enumerate(entries)}
    missing = [(i, j) for i in range(1, m + n + 1)
               for j in range(1, m + n + 1) if (i, j) not in mats]
    if missing:
        raise ConfigError("rep file %s: missing matrix for E %d %d"
                          % (shown, missing[0][0], missing[0][1]))
    from .glmn import custom_rep
    try:
        return custom_rep(m, n, dim, parities, mats)
    except ValueError as e:
        raise ConfigError("rep file %s: %s" % (shown, e))


# ---------------------------------------------------------------------------
# the run-parameter schema

# the checks in `verify all` order, each with the modes it implements
# besides "corrected"; the verifier pairs each id with its function
CHECKS = {
    "jacobi": ("mutated",),
    "bracket_oracle": ("verbatim",),
    "weyl_relations": (),
    "module_axioms": ("mutated",),
    "commutant_homomorphism": ("tau_flipped",),
    "commutant_weyl_commute": (),
    "gl_realization": (),
    "whittaker_dimension": (),
    "descent_roundtrip": (),
    "weight_multiplicity": (),
    "difference_recurrence": (),
    "difference_annihilation": ("untwisted", "coset"),
    "simplicity_probe": (),
}

_UNBOUNDED = {}
# the largest window degree D and derivation degree deg: a window grows
# like D^m and a basis like deg^m, and no test, acceptance criterion or
# benchmark request goes above D = 6 (criterion 7 solves D + 1 = 5) or
# deg = 3.  A height at or above D gives the whole window, so D's ceiling
# bounds the height too (no request goes above height 1).
_WINDOW = {"min": 0, "max": 8}
_DEGREE = {"min": 0, "max": 4}
# the largest m and n: a bracket's cost grows with the shape (linearly in
# m for a Witt bracket, far faster for the checks), and no test, acceptance
# criterion or benchmark request goes above 3
_SHAPE = {"min": 0, "max": 8}
# the most trials and the largest difference order: a sampled check costs
# linearly in its trials, difference_annihilation tries every order up to
# rmax, and no test, acceptance criterion or benchmark request goes above
# trials = 500 (criterion 3) or rmax = 8 (the default)
_TRIALS = {"min": 0, "max": 1000}
_ORDER = {"min": 0, "max": 16}

# the check id, then the run parameters in order: name -> (type, default,
# bound); the check id has no default
_FIELDS = {
    "check": (str, None, _UNBOUNDED),
    "m": (int, 1, _SHAPE),
    "n": (int, 1, _SHAPE),
    "a": (tuple, (), _UNBOUNDED),
    "rep": (str, "natural", _UNBOUNDED),
    "D": (int, 3, _WINDOW),
    "deg": (int, 2, _DEGREE),
    "rmax": (int, 8, _ORDER),
    "trials": (int, 50, _TRIALS),
    "seed": (int, 0, _UNBOUNDED),
    "mode": (str, "corrected", _UNBOUNDED),
    "expect_reducible": (bool, False, _UNBOUNDED),
    "height": (int, 0, _WINDOW),
}
_TYPE_NAMES = {int: "an integer", bool: "a boolean", str: "a string",
               tuple: "a twist vector"}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _coerce(name, value, label=None):
    """value as the type of field name.  Text (an INI value) is parsed;
    any other value must have the type already.  The twist vector is left
    as given: it is parsed once m is known.  An error calls the value
    label, by default 'key <name>'."""
    kind = _FIELDS[name][0]
    if isinstance(value, str) and kind is not tuple:
        text = value.strip()
        if kind is int:
            try:
                value = int(text)
            except ValueError:
                pass
        else:
            value = _BOOLEANS.get(text.lower(), value) if kind is bool \
                else text
    if type(value) is kind or kind is tuple and (
            value is None or isinstance(value, (str, list))):
        return value
    raise ConfigError("%s must be %s, got %s"
                      % (label or "key " + name, _TYPE_NAMES[kind],
                         quoted(value)))


def _check_bound(name, value):
    bound = _FIELDS[name][2]
    if "min" in bound and value < bound["min"]:
        raise ConfigError("%s must be >= %d, got %s"
                          % (name, bound["min"], quoted(value, str)))
    if "max" in bound and value > bound["max"]:
        raise ConfigError("%s must be <= %d, got %s"
                          % (name, bound["max"], quoted(value, str)))
    return value


class CheckParams:
    """The run parameters of one check, as read from _FIELDS: the one
    place that names each of them and gives its default, its type (int,
    bool, str, or the twist vector a) and its bound.  Construction
    validates, so every bad parameter is a ConfigError raised before any
    work."""

    __slots__ = tuple(_FIELDS)

    def __init__(self, check, **values):
        unknown = [key for key in values if key not in _FIELDS]
        if unknown:
            raise TypeError("CheckParams.__init__() got an unexpected "
                            "keyword argument %r" % unknown[0])
        self.check = _coerce("check", check)
        if check not in CHECKS:
            raise ConfigError("unknown check id %s (known: %s)"
                              % (quoted(check), ", ".join(CHECKS)))
        for name in self.keys():
            value = _coerce(name, values.get(name, _FIELDS[name][1]))
            setattr(self, name, _check_bound(name, value))
        self.check_shape(self.m, self.n)
        self.a = parse_twist(self.a, self.m)
        modes = ("corrected",) + CHECKS[self.check]
        if self.mode not in modes:
            raise ConfigError("check %s has no mode %s (modes: %s)"
                              % (self.check, quoted(self.mode),
                                 ", ".join(modes)))

    @staticmethod
    def check_shape(m, n):
        """The shape rule, also the calculator's: m and n (ints or a flag's
        text; None if not known yet) within their bounds, not both 0.
        Returns them typed, None as given."""
        shape = tuple(v if v is None else _check_bound(k, _coerce(k, v))
                      for k, v in (("m", m), ("n", n)))
        if shape == (0, 0):
            raise ConfigError("empty shape: m and n are both 0")
        return shape

    @staticmethod
    def keys():
        """The parameter names, in order: every field but the check id."""
        return list(_FIELDS)[1:]

    @classmethod
    def from_dict(cls, check, values):
        unknown = [key for key in values if key not in cls.keys()]
        if unknown:
            raise ConfigError("unknown key %s" % quoted(unknown[0]))
        return cls(check, **values)

    def as_dict(self):
        """The fields in order with the twist as strings: a report's
        params."""
        out = {name: getattr(self, name) for name in _FIELDS}
        out["a"] = [str(x) for x in self.a]
        return out


# ---------------------------------------------------------------------------
# INI loading and the run plan

def _read_config(path) -> tuple:
    """(base, overrides, checks) of the INI file at path: the [run]
    values, the [check:<id>] values by id, and the ids that [run] checks
    names (None for all of them)."""
    import configparser
    # values are read as written: a '%' is no interpolation
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive: D is not d
    text = _read_text(path, "config")
    try:
        parser.read_string(text, path)
    except configparser.Error as e:
        raise ConfigError("bad config %s: %s" % (quoted(path, str, MAX_PATH),
                                                 _ini_fault(e, text)))
    params = CheckParams.keys()
    base, overrides, checks = {}, {}, None
    for section in parser.sections():
        if section == "run":
            values = base
        elif section.startswith("check:"):
            if section[6:] not in CHECKS:
                raise ConfigError("unknown check id %s in [%s]"
                                  % (quoted(section[6:]),
                                     quoted(section, str)))
            values = overrides[section[6:]] = {}
        else:
            raise ConfigError("unknown section [%s]" % quoted(section, str))
        for key, raw in parser.items(section):
            if section == "run" and key == "checks":
                checks = [c.strip() for c in raw.split(",") if c.strip()]
                if not checks:  # a pass must mean something was checked
                    raise ConfigError("no check ids in [run] checks")
                bad = [c for c in checks if c not in CHECKS]
                if bad and checks != ["all"]:
                    raise ConfigError("unknown check ids in config: %s"
                                      % quoted(", ".join(bad), str))
                if len(set(checks)) < len(checks):  # a report lists each once
                    twice = next(c for c in checks if checks.count(c) > 1)
                    raise ConfigError("check id %s named twice in [run] "
                                      "checks" % quoted(twice))
            elif key in params:
                values[key] = _coerce(key, raw)
            else:
                raise ConfigError("unknown key %s in [%s]"
                                  % (quoted(key), quoted(section, str)))
    return base, overrides, None if checks == ["all"] else checks


def plan_run(path, selector, flags) -> tuple:
    """(check ids, the parameters of each, the seed) of the run that a
    config file (or None), a selector (a check id, or 'all': [run] checks
    or every check) and flags (parameter -> text or None) select.  A value
    comes from the first of its flag, WITTMOD_SEED (the seed alone),
    [check:<id>], [run] and the default; the run's seed skips [check:].
    Each distinct rep is planned (a file's rep is loaded), not built.
    Every fault is a ConfigError raised before any check runs."""
    cli = {key: _coerce(key, flags[key]) for key in CheckParams.keys()
           if flags.get(key) is not None}
    env_seed = os.environ.get("WITTMOD_SEED", "")
    if "seed" not in cli and env_seed.strip():  # blank reads as unset
        cli["seed"] = _coerce("seed", env_seed, "WITTMOD_SEED")
    base, overrides, checks = ({}, {}, None) if path is None \
        else _read_config(path)
    ids = [selector] if selector != "all" else checks or list(CHECKS)
    params = []
    for cid in ids:
        p = CheckParams.from_dict(cid, {**base, **overrides.get(cid, {}),
                                        **cli})
        params.append({key: getattr(p, key) for key in p.keys()})
    for rep, m, n in dict.fromkeys((p["rep"], p["m"], p["n"])
                                   for p in params):
        _check_rep_dim(_plan_rep(rep, m, n)[0])
    return ids, params, {**base, **cli}.get("seed", _FIELDS["seed"][1])


def _ini_fault(e, text):
    """configparser's error e, which names a line of text, as 'line N:
    <reason> <the line>'."""
    import configparser
    if isinstance(e, configparser.MissingSectionHeaderError):
        reason = "no [section] above"
    elif isinstance(e, configparser.ParsingError):
        reason = "no '=' or ':' in"
    elif isinstance(e, configparser.DuplicateSectionError):
        reason = "repeated section"
    else:  # DuplicateOptionError, the last error that reading raises
        reason = "repeated key"
    lineno = getattr(e, "lineno", None) or e.errors[0][0]
    return "line %d: %s %s" % (lineno, reason,
                               quoted(text.split("\n")[lineno - 1].strip()))
