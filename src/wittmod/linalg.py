"""Exact linear algebra over Q.

All elimination goes through one engine, `Echelon`: a sparse, incremental,
fully reduced row echelon form.  A row is a dict {column key: coefficient}
and columns are ordered by a key function (plain ints for the dense
matrices of `rref`, `tensor_key_sort` for module elements).  Division is
exact, so there are no tolerances and no floats anywhere.  The reduced row
echelon form of a matrix is unique, so no result depends on the order in
which rows are inserted.

Coefficients follow superpoly.exact's rule, an int when integral and a
Fraction otherwise, in every stored row and in `rref`'s output: a new row
is stored as it is when its pivot coefficient is 1 and otherwise each
entry is put through superpoly.divide, so integral rows stay in ints.

Spans and ranks (`TensorSpan`, the weight quotient) insert their rows as
dicts.  The weight quotient keys each row's pivot to its t_i-raised key,
of coefficient a_i, so its rows stay integral at an integral twist.  The
Whittaker spaces and weight cosets build no `Echelon`: they are closed
forms (see tensor_modules).
No code in the package calls the dense `rref` and `invert` (lists of
lists, rows first): they remain only for the benchmark's layer probes,
which name them, and as dense test references.
"""

from __future__ import annotations

from .superpoly import divide, exact


def _sub_scaled(target, f, row):
    """target -= f * row in place, dropping the keys that vanish."""
    for k, c in row.items():
        c = target.get(k, 0) - f * c
        if c:
            target[k] = c if type(c) is int else exact(c)
        else:
            del target[k]


class Echelon:
    """Fully reduced echelon rows over Q, grown one row at a time.

    Every stored row has coefficient 1 at its pivot, which is its least key,
    and no other stored row has a nonzero at that pivot.  Each entry is an
    int when integral and a Fraction otherwise.
    """

    __slots__ = ("rows", "key")

    def __init__(self, key=None):
        self.rows = {}  # pivot key -> row
        self.key = key

    def reduce(self, row) -> dict:
        """A new row: row minus the combination of stored rows that clears
        every pivot key from it (zero iff row lies in the span)."""
        rows = self.rows
        out = {k: exact(c) for k, c in row.items() if c}
        # stored rows hold no pivot but their own, so one pass suffices
        for p in [k for k in out if k in rows]:
            _sub_scaled(out, out[p], rows[p])
        return out

    def insert(self, row) -> bool:
        """Add row to the span; True if the rank grew."""
        row = self.reduce(row)
        if not row:
            return False
        p = min(row, key=self.key)
        c = row[p]
        if c != 1:
            row = {k: divide(v, c) for k, v in row.items()}
        for other in [r for r in self.rows.values() if p in r]:
            _sub_scaled(other, other[p], row)
        self.rows[p] = row
        return True


def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns): the
    pivot rows in column order, then zero rows up to len(rows)."""
    nc = len(rows[0]) if rows else 0
    ech = Echelon()
    for r in rows:
        ech.insert(dict(enumerate(r)))
    pivots = sorted(ech.rows)
    out = []
    for p in pivots:
        dense = [0] * nc
        for k, c in ech.rows[p].items():
            dense[k] = c
        out.append(dense)
    out += [[0] * nc for _ in range(len(rows) - len(pivots))]
    return out, pivots


def invert(rows):
    """Inverse of a square matrix, or None if singular."""
    n = len(rows)
    aug = [list(rows[i]) + [int(j == i) for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [r[n:] for r in red]
