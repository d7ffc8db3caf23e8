"""Exact linear algebra over Q.

All elimination goes through one engine, `Echelon`: a sparse, incremental,
fully reduced row echelon form.  A row is a dict {column key: coefficient}
and columns are ordered by a key function (plain ints for the dense
matrices of `rref`, `tensor_key_sort` for module elements).  Division is
exact, so there are no tolerances and no floats anywhere.  The reduced row
echelon form of a matrix is unique, so no result depends on the order in
which rows are inserted.

Dense matrices are lists of lists, rows first; `rref` and `invert` take
and return those.  Sparse solves insert their equations as dicts and read
the kernel off with `Echelon.kernel`.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _sub_scaled(target, f, row):
    """target -= f * row in place, dropping the keys that vanish."""
    for k, c in row.items():
        c = target.get(k, ZERO) - f * c
        if c:
            target[k] = c
        else:
            del target[k]


class Echelon:
    """Fully reduced echelon rows over Q, grown one row at a time.

    Every stored row has coefficient 1 at its pivot, which is its least key,
    and no other stored row has a nonzero at that pivot.
    """

    __slots__ = ("rows", "key")

    def __init__(self, key=None):
        self.rows = {}  # pivot key -> row
        self.key = key

    def reduce(self, row) -> dict:
        """A new row: row minus the combination of stored rows that clears
        every pivot key from it (zero iff row lies in the span)."""
        rows = self.rows
        out = {k: c for k, c in row.items() if c}
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
        inv = ONE / row[p]
        row = {k: c * inv for k, c in row.items()}
        for other in self.rows.values():
            f = other.get(p)
            if f:
                _sub_scaled(other, f, row)
        self.rows[p] = row
        return True

    def kernel(self, columns) -> list:
        """Basis of the vectors over columns that every stored row
        annihilates: one per free column, in the order given, with 1 at
        that column and -row[col] at each pivot.  Stored rows must only
        use keys among columns."""
        off_pivot = {}
        for p, row in self.rows.items():
            for k, c in row.items():
                if k != p:
                    off_pivot.setdefault(k, {})[p] = -c
        return [{col: ONE, **off_pivot.get(col, {})}
                for col in columns if col not in self.rows]


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
        dense = [ZERO] * nc
        for k, c in ech.rows[p].items():
            dense[k] = c
        out.append(dense)
    out += [[ZERO] * nc for _ in range(len(rows) - len(pivots))]
    return out, pivots


def invert(rows):
    """Inverse of a square matrix, or None if singular."""
    n = len(rows)
    aug = [list(rows[i]) + [ONE if j == i else ZERO for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [r[n:] for r in red]

