"""Run configuration: INI files, twist vectors, rep descriptors.

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

from __future__ import annotations

import configparser
from fractions import Fraction

from .glmn import (Rep, custom_rep, direct_sum_rep, natural_rep, tensor_rep,
                   trivial_rep)


class ConfigError(ValueError):
    pass


_INT_KEYS = ("m", "n", "D", "deg", "rmax", "trials", "seed", "height")
_NONNEGATIVE_KEYS = ("m", "n", "D", "deg", "rmax", "trials")
_DEFAULTS = {"m": 1, "n": 1, "D": 3, "deg": 2, "rmax": 8, "trials": 50,
             "seed": 0, "height": 0, "rep": "natural", "mode": "corrected",
             "expect_reducible": False}


def parse_rational(text) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError("bad rational %r: %s" % (text, e))


def parse_twist(text, m) -> tuple:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != m:
        raise ConfigError("twist vector needs %d entries, got %d"
                          % (m, len(parts)))
    return tuple(parse_rational(p) for p in parts)


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
        mats[(i, j)] = tuple(tuple(entries[r * dim + c] for c in range(dim))
                             for r in range(dim))
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
# INI loading

class RunConfig:
    """Merged run settings plus per-check overrides."""

    __slots__ = ("base", "overrides", "checks")

    def __init__(self, base=None, overrides=None, checks=None):
        self.base = dict(base or {})
        self.overrides = {k: dict(v) for k, v in (overrides or {}).items()}
        self.checks = list(checks) if checks is not None else None

    def params_for(self, check_id, cli=None):
        """Resolve settings for one check: defaults < [run] < [check:] < CLI."""
        merged = dict(_DEFAULTS)
        merged.update(self.base)
        merged.update(self.overrides.get(check_id, {}))
        if cli:
            merged.update({k: v for k, v in cli.items() if v is not None})
        for key in _NONNEGATIVE_KEYS:
            if merged[key] < 0:
                raise ConfigError("%s must be >= 0, got %d"
                                  % (key, merged[key]))
        if merged["m"] == merged["n"] == 0:
            raise ConfigError("empty shape: m and n are both 0")
        if "a" not in merged or merged["a"] is None:
            merged["a"] = (Fraction(1),) * merged["m"]
        elif isinstance(merged["a"], str):
            merged["a"] = parse_twist(merged["a"], merged["m"])
        elif len(merged["a"]) != merged["m"]:
            raise ConfigError("twist vector needs %d entries, got %d"
                              % (merged["m"], len(merged["a"])))
        return merged


def _coerce(key, raw):
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError("key %s must be an integer, got %r" % (key, raw))
    if key == "expect_reducible":
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError("key expect_reducible must be a boolean, got %r"
                          % raw)
    return raw.strip()


def load_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig()
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as e:
        raise ConfigError("cannot read config %s: %s" % (path, e))
    except configparser.Error as e:
        raise ConfigError("bad config %s: %s" % (path, e))
    base = {}
    checks = None
    if parser.has_section("run"):
        for key, raw in parser.items("run"):
            if key == "checks":
                checks = [c.strip() for c in raw.split(",") if c.strip()]
                if checks == ["all"]:
                    checks = None
            elif key == "a":
                base["a"] = raw
            elif key in _INT_KEYS or key in ("rep", "mode",
                                             "expect_reducible"):
                base[key] = _coerce(key, raw)
            else:
                raise ConfigError("unknown [run] key %r" % key)
    overrides = {}
    for section in parser.sections():
        if section == "run":
            continue
        if not section.startswith("check:"):
            raise ConfigError("unknown section [%s]" % section)
        cid = section[6:]
        overrides[cid] = {}
        for key, raw in parser.items(section):
            if key == "a":
                overrides[cid]["a"] = raw
            elif key in _INT_KEYS or key in ("rep", "mode",
                                             "expect_reducible"):
                overrides[cid][key] = _coerce(key, raw)
            else:
                raise ConfigError("unknown key %r in [%s]" % (key, section))
    return RunConfig(base, overrides, checks)
