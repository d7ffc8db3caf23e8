"""Block-graded matrices and finite-dimensional representations.

The Lie superalgebra here is all (m+n) x (m+n) matrices over Q, graded by
blocks: rows/columns 1..m are even, m+1..m+n odd.  E(i,j) is the usual
elementary matrix; its parity is the XOR of its row and column blocks.

A Rep carries explicit action matrices for every E(i,j) against a chosen
homogeneous basis of the module.  verify_rep replays every commutation
relation through plain matrix arithmetic; custom reps are rejected unless
they survive that sweep.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import mat_mul

ZERO = Fraction(0)
ONE = Fraction(1)


def zero_matrix(d):
    return tuple(tuple(ZERO for _ in range(d)) for _ in range(d))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

def mat_scale(a, f):
    return tuple(tuple(f * x for x in r) for r in a)


def supercommutator(a, b, pa, pb):
    """[a, b] = ab - (-1)^{pa pb} ba for matrices of parities pa and pb."""
    sign = -ONE if pa * pb & 1 else ONE
    return mat_sub(mat_mul(a, b), mat_scale(mat_mul(b, a), sign))


def basis_parity(m, i, j):
    """Parity of E(i,j) (1-based indices)."""
    return ((i > m) + (j > m)) & 1


class Rep:
    """Explicit matrices for every E(i,j) on a parity-graded basis."""

    __slots__ = ("m", "n", "dim", "parities", "mats")

    def __init__(self, m, n, dim, parities, mats):
        if len(parities) != dim:
            raise ValueError("parity list length != dim")
        if any(p not in (0, 1) for p in parities):
            raise ValueError("parities must be 0/1")
        d = m + n
        need = {(i, j) for i in range(1, d + 1) for j in range(1, d + 1)}
        if set(mats) != need:
            raise ValueError("action matrices must cover every E(i,j)")
        self.m = m
        self.n = n
        self.dim = dim
        self.parities = tuple(parities)
        self.mats = {k: tuple(tuple(Fraction(x) for x in r) for r in v)
                     for k, v in mats.items()}
        for k, v in self.mats.items():
            if len(v) != dim or any(len(r) != dim for r in v):
                raise ValueError("matrix for E%r is not %dx%d" % (k, dim, dim))

    def has_weight_basis(self):
        """All Cartan matrices E(i,i) diagonal on this basis."""
        d = self.m + self.n
        for i in range(1, d + 1):
            mat = self.mats[(i, i)]
            for r in range(self.dim):
                for c in range(self.dim):
                    if r != c and mat[r][c]:
                        return False
        return True

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
    d = rep.m + rep.n
    failures = []
    pairs = [(i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
    for (i, j) in pairs:
        p1 = basis_parity(rep.m, i, j)
        mat = rep.mats[(i, j)]
        for r in range(rep.dim):
            for c in range(rep.dim):
                if mat[r][c] and (rep.parities[r] ^ rep.parities[c]) != p1:
                    failures.append(("parity", (i, j), (r, c)))
    dim = rep.dim
    zero = zero_matrix(dim)
    for (i, j) in pairs:
        p1 = basis_parity(rep.m, i, j)
        a = rep.mats[(i, j)]
        for (k, l) in pairs:
            p2 = basis_parity(rep.m, k, l)
            b = rep.mats[(k, l)]
            sign = -ONE if p1 * p2 & 1 else ONE
            lhs = supercommutator(a, b, p1, p2)
            rhs = zero
            if j == k:
                rhs = mat_add(rhs, rep.mats[(i, l)])
            if l == i:
                rhs = mat_sub(rhs, mat_scale(rep.mats[(k, j)], sign))
            if lhs != rhs:
                failures.append(("bracket", (i, j), (k, l)))
    return RepCheck(not failures, failures)


# ---------------------------------------------------------------------------
# constructors

def natural_rep(m, n) -> Rep:
    d = m + n
    parities = [0] * m + [1] * n
    mats = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            mats[(i, j)] = [[ONE if (r, c) == (i - 1, j - 1) else ZERO
                             for c in range(d)] for r in range(d)]
    return Rep(m, n, d, parities, mats)


def trivial_rep(m, n, dim=1) -> Rep:
    d = m + n
    z = [[ZERO] * dim for _ in range(dim)]
    mats = {(i, j): z for i in range(1, d + 1) for j in range(1, d + 1)}
    return Rep(m, n, dim, [0] * dim, mats)


def tensor_rep(r1: Rep, r2: Rep) -> Rep:
    """Graded tensor product: x(u (x) v) = xu (x) v + (-1)^{|x||u|} u (x) xv."""
    if (r1.m, r1.n) != (r2.m, r2.n):
        raise ValueError("block shape mismatch")
    d = r1.m + r1.n
    d1, d2 = r1.dim, r2.dim
    dim = d1 * d2
    parities = [(r1.parities[p] + r2.parities[q]) & 1
                for p in range(d1) for q in range(d2)]
    mats = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            pi = basis_parity(r1.m, i, j)
            a = r1.mats[(i, j)]
            b = r2.mats[(i, j)]
            mat = [[ZERO] * dim for _ in range(dim)]
            for p2 in range(d1):       # source left factor
                for q2 in range(d2):   # source right factor
                    col = p2 * d2 + q2
                    for p in range(d1):
                        if a[p][p2]:
                            mat[p * d2 + q2][col] += a[p][p2]
                    sign = -ONE if pi * r1.parities[p2] & 1 else ONE
                    for q in range(d2):
                        if b[q][q2]:
                            mat[p2 * d2 + q][col] += sign * b[q][q2]
            mats[(i, j)] = mat
    return Rep(r1.m, r1.n, dim, parities, mats)


def direct_sum_rep(r1: Rep, r2: Rep) -> Rep:
    if (r1.m, r1.n) != (r2.m, r2.n):
        raise ValueError("block shape mismatch")
    d = r1.m + r1.n
    dim = r1.dim + r2.dim
    parities = list(r1.parities) + list(r2.parities)
    mats = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            a = r1.mats[(i, j)]
            b = r2.mats[(i, j)]
            mat = [[ZERO] * dim for _ in range(dim)]
            for r in range(r1.dim):
                for c in range(r1.dim):
                    mat[r][c] = a[r][c]
            for r in range(r2.dim):
                for c in range(r2.dim):
                    mat[r1.dim + r][r1.dim + c] = b[r][c]
            mats[(i, j)] = mat
    return Rep(r1.m, r1.n, dim, parities, mats)


def custom_rep(m, n, dim, parities, mats) -> Rep:
    """Build and validate a user-supplied representation; raises with the
    list of violated relations when the matrices do not close."""
    rep = Rep(m, n, dim, parities, mats)
    check = verify_rep(rep)
    if not check.ok:
        raise ValueError("matrices do not define a representation: %r"
                         % (check.failures[:5],))
    return rep
