"""In-memory call tracing for the wittmod benchmark.

Wrappers are installed from here, around the public functions of each
wittmod layer; nothing under ``src/`` changes.  A name bound by
``from .x import f`` lives on in every module that imported it, so a probe
patches every ``wittmod`` namespace that holds the original object, not
only the defining one.

Two kinds of probe:

* a *span* probe records one span per call (id, parent, start, end, and
  the probe it belongs to) in flat arrays; self time is computed from the
  spans after the run: a span's duration minus the durations of its direct
  children;
* a *count* probe only counts calls.  It is used for the monomial-level
  primitives, which run millions of times per pass, where one span per
  call would cost more memory and time than the work it measures.

Span ids are array indices, so a span's id is its position in the arrays.
The benchmark opens one root span per request (``request``), so all spans
of one request share that root.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute path, metric name, kind)
PROBES = [
    ("superpoly", "mono_mul", "superpoly.mono_mul", "count"),
    ("superpoly", "merge_sign_masks", "superpoly.merge_sign_masks", "count"),
    ("superpoly", "popcount", "superpoly.popcount", "count"),
    ("superpoly", "SuperPoly.__mul__", "superpoly.SuperPoly.mul", "span"),
    ("witt", "_bracket_basis", "witt.bracket_basis", "count"),
    ("witt", "witt_bracket", "witt.witt_bracket", "span"),
    ("witt", "bracket_oracle", "witt.bracket_oracle", "span"),
    ("dressed", "dressed_bracket", "dressed.dressed_bracket", "span"),
    ("dressed", "commutant_element", "dressed.commutant_element", "span"),
    ("words", "weyl_normal_order", "words.weyl_normal_order", "span"),
    ("words", "difference_word", "words.difference_word", "span"),
    ("tensor_modules", "act_term", "tensor_modules.act_term", "span"),
    ("tensor_modules", "act_word", "tensor_modules.act_word", "span"),
    ("tensor_modules", "whittaker_space", "tensor_modules.whittaker_space",
     "span"),
    ("tensor_modules", "pbw_basis_rewrite",
     "tensor_modules.pbw_basis_rewrite", "span"),
    ("tensor_modules", "descent", "tensor_modules.descent", "span"),
    ("tensor_modules", "TensorSpan.insert", "tensor_modules.TensorSpan.insert",
     "span"),
    ("linalg", "rref", "linalg.rref", "span"),
    ("linalg", "invert", "linalg.invert", "span"),
    ("expressions", "parse_expr", "expressions.parse_expr", "span"),
    ("expressions", "print_expr", "expressions.print_expr", "span"),
    ("cli", "build_parser", "cli.build_parser", "span"),
]

REQUEST = "request"


def _rref_work(rows):
    """(rows, cols, nonzeros) of a dense matrix given to linalg.rref."""
    nc = len(rows[0]) if rows else 0
    return len(rows), nc, sum(1 for r in rows for x in r if x)


class Tracer:
    """Span store plus the patch bookkeeping needed to undo it."""

    def __init__(self):
        self.names = [REQUEST] + [name for _, _, name, _ in PROBES]
        self.counts = [0] * len(self.names)
        self.parent = array("q")
        self.probe = array("H")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.rref_work = [0, 0, 0]
        self._undo = []

    # -- recording -------------------------------------------------------

    def _open(self, idx):
        sid = len(self.start)
        self.parent.append(self.stack[-1])
        self.probe.append(idx)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def request(self, fn, *args, **kwargs):
        """Run fn as one request: a root span that its layers nest in."""
        sid = self._open(0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def _span_wrapper(self, fn, idx):
        parent, probe, start, end = (self.parent, self.probe, self.start,
                                     self.end)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            probe.append(idx)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
        return wrapper

    def _count_wrapper(self, fn, idx):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[idx] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rref_wrapper(self, fn):
        work = self.rref_work

        @functools.wraps(fn)
        def wrapper(rows):
            r, c, nz = _rref_work(rows)
            work[0] += r
            work[1] += c
            work[2] += nz
            return fn(rows)
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap every probe in every loaded wittmod namespace.  Install and
        uninstall may alternate; the spans and counts accumulate."""
        for idx, (module, path, name, kind) in enumerate(PROBES, 1):
            mod = sys.modules["wittmod." + module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(orig, idx, kind, name))
                continue
            orig = getattr(mod, path)
            wrapped = self._wrap(orig, idx, kind, name)
            for mname, other in list(sys.modules.items()):
                if other is None or not (mname == "wittmod"
                                         or mname.startswith("wittmod.")):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        self._set(other, attr, wrapped)

    def _wrap(self, fn, idx, kind, name):
        if kind == "count":
            return self._count_wrapper(fn, idx)
        wrapped = self._span_wrapper(fn, idx)
        if name == "linalg.rref":
            # work counts sit outside the span, so rref's self time holds
            # only the elimination
            wrapped = self._rref_wrapper(wrapped)
        return wrapped

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis --------------------------------------------------------

    def layer_times(self):
        """{probe name: (calls, inclusive seconds, self seconds)}."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        calls = list(self.counts)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        probe = self.probe
        for sid in range(n):
            k = probe[sid]
            d = end[sid] - start[sid]
            calls[k] += 1
            total[k] += d
            own[k] += d - child[sid]
        return {name: (calls[k], total[k], own[k])
                for k, name in enumerate(self.names)}

    def request_shares(self, probe_names):
        """Per root span: the share of its duration spent as self time of
        the named probes or of the root itself (the caller's own code)."""
        wanted = {k for k, name in enumerate(self.names)
                  if name in probe_names}
        n = len(self.start)
        start, end, parent, probe = (self.start, self.end, self.parent,
                                     self.probe)
        child = array("d", bytes(8 * n))
        root = array("q", bytes(8 * n))
        for sid in range(n):
            p = parent[sid]
            root[sid] = sid if p < 0 else root[p]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        inside = {}
        for sid in range(n):
            if probe[sid] == 0 or probe[sid] in wanted:
                r = root[sid]
                inside[r] = inside.get(r, 0.0) + (end[sid] - start[sid]
                                                  - child[sid])
        return [inside.get(sid, 0.0) / (end[sid] - start[sid])
                for sid in range(n) if parent[sid] < 0]
