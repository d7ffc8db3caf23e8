"""Block-graded matrices and finite-dimensional representations.

The Lie superalgebra here is all (m+n) x (m+n) matrices over Q, graded by
blocks: rows/columns 1..m are even, m+1..m+n odd.  E(i,j) is the usual
elementary matrix; its parity is the XOR of its row and column blocks.

A Rep carries explicit action matrices for every E(i,j) against a chosen
homogeneous basis of the module.  A matrix is sparse, like every other
linear object here: a dict {(row, col): nonzero coefficient} with 0-based
indices, each entry an int when integral and a Fraction otherwise.
verify_rep replays every commutation relation through mat_mul and
mat_add; custom reps are rejected unless they survive that sweep.
"""

from __future__ import annotations

from .superpoly import accumulate, exact


def mat_mul(a, b):
    """The product ab of two sparse matrices."""
    b_rows = {}
    for (k, j), g in b.items():
        b_rows.setdefault(k, []).append((j, g))
    out = {}
    for (i, k), f in a.items():
        for j, g in b_rows.get(k, ()):
            accumulate(out, (i, j), f * g)
    return out


def mat_add(a, b, scale=1):
    """a + scale * b for sparse matrices."""
    out = dict(a)
    for key, g in b.items():
        accumulate(out, key, scale * g)
    return out


def supercommutator(a, b, pa, pb):
    """[a, b] = ab - (-1)^{pa pb} ba for matrices of parities pa and pb."""
    return mat_add(mat_mul(a, b), mat_mul(b, a), 1 if pa * pb & 1 else -1)


def _units(m, n):
    """The index pairs (i, j) of every E(i,j), row-major."""
    return [(i, j) for i in range(1, m + n + 1) for j in range(1, m + n + 1)]


def basis_parity(m, i, j):
    """Parity of E(i,j) (1-based indices)."""
    return ((i > m) + (j > m)) & 1


class Rep:
    """Explicit matrices for every E(i,j) on a parity-graded basis:
    mats[(i, j)] is a dict {(row, col): nonzero coefficient}, 0-based,
    each entry put through superpoly.exact: an int when integral."""

    __slots__ = ("m", "n", "dim", "parities", "mats")

    def __init__(self, m, n, dim, parities, mats):
        if len(parities) != dim:
            raise ValueError("parity list length != dim")
        if any(p not in (0, 1) for p in parities):
            raise ValueError("parities must be 0/1")
        if set(mats) != set(_units(m, n)):
            raise ValueError("action matrices must cover every E(i,j)")
        self.m = m
        self.n = n
        self.dim = dim
        self.parities = tuple(parities)
        for k, v in mats.items():
            for r, c in v:
                if not (0 <= r < dim and 0 <= c < dim):
                    raise ValueError("entry (%d, %d) of E%r out of range "
                                     "for dim %d" % (r, c, k, dim))
        # entries in row-major order, so readers meet rows ascending
        self.mats = {k: {rc: exact(x) for rc, x in sorted(v.items()) if x}
                     for k, v in mats.items()}

    def has_weight_basis(self):
        """All Cartan matrices E(i,i) diagonal on this basis."""
        return all(r == c for i in range(1, self.m + self.n + 1)
                   for r, c in self.mats[(i, i)])

    def __eq__(self, other):
        return (isinstance(other, Rep) and (self.m, self.n, self.dim,
                self.parities, self.mats) == (other.m, other.n, other.dim,
                other.parities, other.mats))

    def __repr__(self):
        return "Rep(m=%d,n=%d,dim=%d)" % (self.m, self.n, self.dim)


class RepCheck:
    """Outcome of verify_rep: ok flag plus the violated relations."""

    __slots__ = ("ok", "failures")

    def __init__(self, ok, failures):
        self.ok = ok
        self.failures = failures

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "RepCheck(ok=%r, failures=%d)" % (self.ok, len(self.failures))


def verify_rep(rep: Rep) -> RepCheck:
    """Replay [E(i,j), E(k,l)] = d_jk E(i,l) - (-1)^{|..||..|} d_li E(k,j)
    on the action matrices, and check each matrix respects the basis
    parity."""
    failures = []
    pairs = _units(rep.m, rep.n)
    for (i, j) in pairs:
        p1 = basis_parity(rep.m, i, j)
        for r, c in rep.mats[(i, j)]:
            if (rep.parities[r] ^ rep.parities[c]) != p1:
                failures.append(("parity", (i, j), (r, c)))
    for (i, j) in pairs:
        p1 = basis_parity(rep.m, i, j)
        a = rep.mats[(i, j)]
        for (k, l) in pairs:
            p2 = basis_parity(rep.m, k, l)
            lhs = supercommutator(a, rep.mats[(k, l)], p1, p2)
            rhs = rep.mats[(i, l)] if j == k else {}
            if l == i:
                rhs = mat_add(rhs, rep.mats[(k, j)],
                              1 if p1 * p2 & 1 else -1)
            if lhs != rhs:
                failures.append(("bracket", (i, j), (k, l)))
    return RepCheck(not failures, failures)


# ---------------------------------------------------------------------------
# constructors

def natural_rep(m, n) -> Rep:
    return Rep(m, n, m + n, [0] * m + [1] * n,
               {(i, j): {(i - 1, j - 1): 1} for i, j in _units(m, n)})


def trivial_rep(m, n, dim=1) -> Rep:
    return Rep(m, n, dim, [0] * dim, {ij: {} for ij in _units(m, n)})


def tensor_rep(r1: Rep, r2: Rep) -> Rep:
    """Graded tensor product: x(u (x) v) = xu (x) v + (-1)^{|x||u|} u (x) xv,
    with u (x) v at index u * r2.dim + v."""
    if (r1.m, r1.n) != (r2.m, r2.n):
        raise ValueError("block shape mismatch")
    d2 = r2.dim
    parities = [p ^ q for p in r1.parities for q in r2.parities]
    mats = {}
    for i, j in _units(r1.m, r1.n):
        pi = basis_parity(r1.m, i, j)
        mat = mats[(i, j)] = {}
        for (p, p2), f in r1.mats[(i, j)].items():
            for q in range(d2):
                accumulate(mat, (p * d2 + q, p2 * d2 + q), f)
        for (q, q2), f in r2.mats[(i, j)].items():
            for p2, pu in enumerate(r1.parities):
                accumulate(mat, (p2 * d2 + q, p2 * d2 + q2),
                           -f if pi & pu else f)
    return Rep(r1.m, r1.n, r1.dim * d2, parities, mats)


def direct_sum_rep(r1: Rep, r2: Rep) -> Rep:
    if (r1.m, r1.n) != (r2.m, r2.n):
        raise ValueError("block shape mismatch")
    off = r1.dim
    mats = {ij: {**a, **{(r + off, c + off): f
                         for (r, c), f in r2.mats[ij].items()}}
            for ij, a in r1.mats.items()}
    return Rep(r1.m, r1.n, off + r2.dim, r1.parities + r2.parities, mats)


def custom_rep(m, n, dim, parities, mats) -> Rep:
    """Build and validate a user-supplied representation; raises with the
    list of violated relations when the matrices do not close."""
    rep = Rep(m, n, dim, parities, mats)
    check = verify_rep(rep)
    if not check.ok:
        raise ValueError("matrices do not define a representation: %r"
                         % (check.failures[:5],))
    return rep
