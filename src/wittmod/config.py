"""Run configuration: the run-parameter schema (CheckParams), INI files,
twist vectors, rep descriptors.

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
"""

from dataclasses import dataclass, field, fields
from fractions import Fraction

from .glmn import (Rep, custom_rep, direct_sum_rep, natural_rep, tensor_rep,
                   trivial_rep)


class ConfigError(ValueError):
    pass


def parse_rational(text) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError("bad rational %r: %s" % (text, e))


def parse_twist(value, m, name="twist vector") -> tuple:
    """A twist vector from text ("1, -1/2") or a sequence of rationals;
    None or an empty value is the default, all ones.  name is what an
    error calls the vector."""
    if not value:
        return (Fraction(1),) * m
    parts = value.replace(",", " ").split() if isinstance(value, str) \
        else value
    if len(parts) != m:
        raise ConfigError("%s needs %d entries, got %d"
                          % (name, m, len(parts)))
    return tuple(parse_rational(str(p)) for p in parts)


# ---------------------------------------------------------------------------
# rep descriptors

def _split_args(body):
    """Split 'a, b' at the top level (parentheses nest)."""
    depth = 0
    cut = None
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            if cut is not None:
                raise ConfigError("rep combinators take exactly two "
                                  "arguments: %r" % body)
            cut = i
    if cut is None:
        raise ConfigError("rep combinators take exactly two arguments: %r"
                          % body)
    return body[:cut].strip(), body[cut + 1:].strip()


def resolve_rep(descriptor, m, n) -> Rep:
    d = descriptor.strip()
    if d == "natural":
        return natural_rep(m, n)
    if d == "trivial":
        return trivial_rep(m, n)
    if d.startswith("trivial:"):
        try:
            k = int(d.split(":", 1)[1])
        except ValueError:
            raise ConfigError("bad trivial dimension in %r" % d)
        if k < 1:
            raise ConfigError("trivial dimension must be >= 1")
        return trivial_rep(m, n, k)
    for name, combine in (("tensor", tensor_rep), ("sum", direct_sum_rep)):
        if d.startswith(name + "(") and d.endswith(")"):
            left, right = _split_args(d[len(name) + 1:-1])
            return combine(resolve_rep(left, m, n), resolve_rep(right, m, n))
    if d.startswith("file:"):
        return load_rep_file(d[5:].strip(), m, n)
    raise ConfigError("unknown rep descriptor %r" % descriptor)


def load_rep_file(path, m, n) -> Rep:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as e:
        raise ConfigError("cannot read rep file %s: %s" % (path, e))
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("dim"):
        raise ConfigError("rep file %s: first line must be 'dim p1 .. pd'"
                          % path)
    bits = lines[0].split()[1:]
    if not bits:
        raise ConfigError("rep file %s: no basis parities" % path)
    try:
        parities = tuple(int(b) for b in bits)
    except ValueError:
        raise ConfigError("rep file %s: parities must be 0/1" % path)
    if any(p not in (0, 1) for p in parities):
        raise ConfigError("rep file %s: parities must be 0/1" % path)
    dim = len(parities)
    mats = {}
    for ln in lines[1:]:
        head, _, tail = ln.partition(":")
        parts = head.split()
        if len(parts) != 3 or parts[0] != "E":
            raise ConfigError("rep file %s: bad matrix line %r" % (path, ln))
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError("rep file %s: bad unit indices in %r"
                              % (path, ln))
        if not (1 <= i <= m + n and 1 <= j <= m + n):
            raise ConfigError("rep file %s: unit E %d %d out of range"
                              % (path, i, j))
        entries = [parse_rational(p) for p in tail.split()]
        if len(entries) != dim * dim:
            raise ConfigError("rep file %s: E %d %d needs %d entries, got %d"
                              % (path, i, j, dim * dim, len(entries)))
        mats[(i, j)] = {divmod(k, dim): f for k, f in enumerate(entries)}
    missing = [(i, j) for i in range(1, m + n + 1)
               for j in range(1, m + n + 1) if (i, j) not in mats]
    if missing:
        raise ConfigError("rep file %s: missing matrix for E %d %d"
                          % (path, missing[0][0], missing[0][1]))
    try:
        return custom_rep(m, n, dim, parities, mats)
    except ValueError as e:
        raise ConfigError("rep file %s: %s" % (path, e))


# ---------------------------------------------------------------------------
# the run-parameter schema

_BOUNDED = {"min": 0}
# the largest m and n: a bracket's cost grows with the shape (linearly in
# m for a Witt bracket, far faster for the checks), and no test, acceptance
# criterion or benchmark request goes above 3
_SHAPE = {"min": 0, "max": 8}
_TYPE_NAMES = {int: "an integer", bool: "a boolean", str: "a string",
               tuple: "a twist vector"}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _coerce(f, value):
    """value as the type of field f.  Text (an INI value) is parsed; any
    other value must have the type already.  The twist vector is left as
    given: it is parsed once m is known."""
    kind = f.type
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
    raise ConfigError("key %s must be %s, got %r"
                      % (f.name, _TYPE_NAMES[kind], value))


def _check_bound(f, value):
    if "min" in f.metadata and value < f.metadata["min"]:
        raise ConfigError("%s must be >= %d, got %d"
                          % (f.name, f.metadata["min"], value))
    if "max" in f.metadata and value > f.metadata["max"]:
        raise ConfigError("%s must be <= %d, got %d"
                          % (f.name, f.metadata["max"], value))


@dataclass
class CheckParams:
    """The run parameters of one check: the one place that names each of
    them and gives its default, its type (int, bool, str, or the twist
    vector a) and its bound.  Construction validates, so every bad
    parameter is a ConfigError raised before any work."""

    check: str
    m: int = field(default=1, metadata=_SHAPE)
    n: int = field(default=1, metadata=_SHAPE)
    a: tuple = ()
    rep: str = "natural"
    D: int = field(default=3, metadata=_BOUNDED)
    deg: int = field(default=2, metadata=_BOUNDED)
    rmax: int = field(default=8, metadata=_BOUNDED)
    trials: int = field(default=50, metadata=_BOUNDED)
    seed: int = 0
    mode: str = "corrected"
    expect_reducible: bool = False
    height: int = field(default=0, metadata=_BOUNDED)

    def __post_init__(self):
        for f in fields(self):
            value = _coerce(f, getattr(self, f.name))
            _check_bound(f, value)
            setattr(self, f.name, value)
        self.check_shape(self.m, self.n)
        self.a = parse_twist(self.a, self.m)
        from .verifier import REGISTRY  # the verifier imports this module
        if self.check not in REGISTRY:
            raise ConfigError("unknown check id %r (known: %s)"
                              % (self.check, ", ".join(sorted(REGISTRY))))
        modes = ("corrected",) + REGISTRY[self.check].modes
        if self.mode not in modes:
            raise ConfigError("check %s has no mode %r (modes: %s)"
                              % (self.check, self.mode, ", ".join(modes)))

    @classmethod
    def check_shape(cls, m, n):
        """The shape rule, shared with the calculator commands: m and n
        within their bounds, and not both 0."""
        schema = cls.__dataclass_fields__
        _check_bound(schema["m"], m)
        _check_bound(schema["n"], n)
        if m == n == 0:
            raise ConfigError("empty shape: m and n are both 0")

    @classmethod
    def keys(cls):
        """The parameter names, in order: every field but the check id."""
        return [f.name for f in fields(cls) if f.name != "check"]

    @classmethod
    def from_dict(cls, check, values):
        unknown = [key for key in values if key not in cls.keys()]
        if unknown:
            raise ConfigError("unknown key %r" % unknown[0])
        return cls(check, **values)

    def as_dict(self):
        """The fields in order with the twist as strings: a report's
        params."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["a"] = [str(x) for x in self.a]
        return out


# ---------------------------------------------------------------------------
# INI loading

class RunConfig:
    """Merged run settings plus per-check overrides."""

    __slots__ = ("base", "overrides", "checks")

    def __init__(self, base=None, overrides=None, checks=None):
        self.base = dict(base or {})
        self.overrides = {k: dict(v) for k, v in (overrides or {}).items()}
        self.checks = list(checks) if checks is not None else None

    def params_for(self, check_id, cli=None) -> dict:
        """Validated settings for one check: defaults < [run] < [check:]
        < CLI."""
        merged = dict(self.base)
        merged.update(self.overrides.get(check_id, {}))
        if cli:
            merged.update({k: v for k, v in cli.items() if v is not None})
        params = CheckParams.from_dict(check_id, merged)
        return {key: getattr(params, key) for key in params.keys()}


def load_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig()
    import configparser
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive: D is not d
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as e:
        raise ConfigError("cannot read config %s: %s" % (path, e))
    except configparser.Error as e:
        raise ConfigError("bad config %s: %s" % (path, e))
    schema = {f.name: f for f in fields(CheckParams) if f.name != "check"}
    base, overrides, checks = {}, {}, None
    for section in parser.sections():
        if section == "run":
            values = base
        elif section.startswith("check:"):
            from .verifier import REGISTRY  # the verifier imports this module
            if section[6:] not in REGISTRY:
                raise ConfigError("unknown check id %r in [%s]"
                                  % (section[6:], section))
            values = overrides[section[6:]] = {}
        else:
            raise ConfigError("unknown section [%s]" % section)
        for key, raw in parser.items(section):
            if section == "run" and key == "checks":
                checks = [c.strip() for c in raw.split(",") if c.strip()]
            elif key in schema:
                values[key] = _coerce(schema[key], raw)
            else:
                raise ConfigError("unknown key %r in [%s]" % (key, section))
    return RunConfig(base, overrides, None if checks == ["all"] else checks)
