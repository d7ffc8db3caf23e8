"""Supercommutative polynomial algebra Q[t_1..t_m] (x) Lambda(xi_1..xi_n).

Elements are kept as sparse dicts mapping a monomial key to a nonzero
Fraction.  A monomial key is a pair (alpha, imask): alpha is a length-m
tuple of nonnegative integer t-exponents and imask is a bitmask over the
odd generators (bit j-1 set means xi_j is present).  The bitmask encodes
the ascending product xi_{j1} xi_{j2} ... (j1 < j2 < ...); every sign in
the algebra is produced by merge_sign below, never by ad hoc counting.

All arithmetic is exact over Q.  No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

Mono = tuple  # (alpha: tuple[int, ...], imask: int)

ZERO = Fraction(0)
ONE = Fraction(1)


def popcount(mask: int) -> int:
    return mask.bit_count()


def mask_of(indices) -> int:
    """Bitmask for a set of 1-based odd indices."""
    mask = 0
    for j in indices:
        if j < 1:
            raise ValueError("odd indices are 1-based")
        bit = 1 << (j - 1)
        if mask & bit:
            raise ValueError("repeated odd index %d" % j)
        mask |= bit
    return mask


def mask_indices(mask: int):
    """Ascending 1-based indices present in the mask."""
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def merge_sign_masks(a: int, b: int):
    """Koszul sign for xi_a * xi_b given as masks.

    Returns (sign, union) with sign 0 when the sets overlap, otherwise
    (-1)^{#{(i,j) in a x b : i > j}}: each generator of b walks left past
    the larger generators of a.
    """
    if a & b:
        return 0, 0
    inversions = 0
    rest = b
    j = 0
    while rest:
        if rest & 1:
            inversions += popcount(a >> (j + 1))
        rest >>= 1
        j += 1
    return (-1 if inversions & 1 else 1), a | b


def merge_sign(I, J):
    """Public sequence form: merge_sign((2,), (1,)) == (-1, (1, 2))."""
    sign, union = merge_sign_masks(mask_of(I), mask_of(J))
    return sign, mask_indices(union)


def xi_position(mask: int, j: int) -> int:
    """Number of generators in the mask strictly below xi_j (0-based slot)."""
    return popcount(mask & ((1 << (j - 1)) - 1))


# monomial-level helpers; these carry all the sign conventions used by the
# rest of the package.

def mono_mul(p: Mono, q: Mono):
    """(p * q) as (mono, sign) or None when the odd parts collide."""
    sign, union = merge_sign_masks(p[1], q[1])
    if sign == 0:
        return None
    alpha = tuple(x + y for x, y in zip(p[0], q[0]))
    return (alpha, union), sign


def mono_partial_t(p: Mono, i: int):
    """d/dt_i of a monomial: (mono, integer factor) or None."""
    k = p[0][i - 1]
    if k == 0:
        return None
    alpha = list(p[0])
    alpha[i - 1] = k - 1
    return (tuple(alpha), p[1]), k


def mono_partial_xi(p: Mono, j: int):
    """d/dxi_j of a monomial: (mono, sign) or None.

    The sign is (-1)^pos where pos counts the generators xi_j has to pass
    to reach the front of the ascending product.
    """
    bit = 1 << (j - 1)
    if not p[1] & bit:
        return None
    sign = -1 if xi_position(p[1], j) & 1 else 1
    return (p[0], p[1] & ~bit), sign


def mono_parity(p: Mono) -> int:
    return popcount(p[1]) & 1


def mono_tdeg(p: Mono) -> int:
    return sum(p[0])


def mono_sort_key(p: Mono):
    # deglex on the even part, then by odd-part mask
    return (mono_tdeg(p), p[0], popcount(p[1]), p[1])


def accumulate(acc: dict, key, c) -> None:
    """Add c to acc[key], dropping the key when the sum vanishes."""
    c0 = acc.get(key, ZERO) + c
    if c0:
        acc[key] = c0
    else:
        acc.pop(key, None)


class LinComb:
    """Sparse exact linear combination: dict basis key -> nonzero Fraction.

    The shared core of every element type.  Subclasses fix what a key
    means and add their own validating constructors; a Z/2-graded type
    sets key_parity to a function giving the parity of one key.
    Instances are treated as immutable; all operations build new ones.
    """

    __slots__ = ("m", "n", "terms")

    def __init__(self, m: int, n: int, terms=None):
        if not (isinstance(m, int) and isinstance(n, int)):
            raise TypeError("shape must be two ints, got (%r, %r)" % (m, n))
        self.m = m
        self.n = n
        self.terms = {}
        if terms:
            for key, c in terms.items() if isinstance(terms, dict) else terms:
                accumulate(self.terms, key, c)

    def _like(self, terms):
        """Same type and shape around an already reduced terms dict."""
        out = object.__new__(self.__class__)
        out.m = self.m
        out.n = self.n
        out.terms = terms
        return out

    def _check(self, other):
        if self.m != other.m or self.n != other.n:
            raise ValueError("shape mismatch: (%d,%d) vs (%d,%d)"
                             % (self.m, self.n, other.m, other.n))

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        # accumulate() inlined: a call per term here costs measurable time
        for key, c in other.terms.items():
            c0 = terms.get(key, ZERO) + c
            if c0:
                terms[key] = c0
            else:
                del terms[key]
        return self._like(terms)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            return self._like({})
        return self._like({k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, self.__class__) and self.m == other.m
                and self.n == other.n and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return "%s(%r)" % (self.__class__.__name__, self.terms)

    def parity(self):
        """0 (even), 1 (odd) or None for mixed elements; zero is even."""
        if not self.terms:
            return 0
        key_parity = self.key_parity
        seen = {key_parity(key) for key in self.terms}
        return seen.pop() if len(seen) == 1 else None

    def homogeneous_parts(self):
        """Split into (even, odd)."""
        ev, od = {}, {}
        key_parity = self.key_parity
        for key, c in self.terms.items():
            (od if key_parity(key) else ev)[key] = c
        return self._like(ev), self._like(od)


class SuperPoly(LinComb):
    """Element of Q[t] (x) Lambda(xi), exact and sparse."""

    __slots__ = ()

    key_parity = staticmethod(mono_parity)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m, n):
        return cls(m, n)

    @classmethod
    def monomial(cls, m, n, alpha, odd=(), coeff=ONE):
        alpha = tuple(alpha)
        if len(alpha) != m or any(a < 0 for a in alpha):
            raise ValueError("bad exponent tuple %r for m=%d" % (alpha, m))
        mask = odd if isinstance(odd, int) else mask_of(odd)
        if mask >> n:
            raise ValueError("odd index out of range for n=%d" % n)
        p = cls(m, n)
        if coeff:
            p.terms[(alpha, mask)] = Fraction(coeff)
        return p

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SuperPoly.monomial(self.m, self.n, (0,) * self.m, (), other)
        return LinComb.__add__(self, other)

    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LinComb.__mul__(self, other)
        self._check(other)
        acc = {}
        # accumulate() inlined, as in LinComb.__add__
        for p, cp in self.terms.items():
            for q, cq in other.terms.items():
                hit = mono_mul(p, q)
                if hit is None:
                    continue
                mono, sign = hit
                c0 = acc.get(mono, ZERO) + sign * cp * cq
                if c0:
                    acc[mono] = c0
                else:
                    del acc[mono]
        return self._like(acc)

    # -- calculus ----------------------------------------------------------

    def partial_t(self, i: int) -> "SuperPoly":
        if not 1 <= i <= self.m:
            raise ValueError("t index %d out of range" % i)
        out = SuperPoly(self.m, self.n)
        for mono, c in self.terms.items():
            hit = mono_partial_t(mono, i)
            if hit:
                out.terms[hit[0]] = c * hit[1]
        return out

    def partial_xi(self, j: int) -> "SuperPoly":
        if not 1 <= j <= self.n:
            raise ValueError("xi index %d out of range" % j)
        out = SuperPoly(self.m, self.n)
        for mono, c in self.terms.items():
            hit = mono_partial_xi(mono, j)
            if hit:
                out.terms[hit[0]] = c * hit[1]
        return out

    # -- grading -----------------------------------------------------------

    def tdegree(self):
        """Max total t-degree, or -1 for the zero element."""
        return max((mono_tdeg(mono) for mono in self.terms), default=-1)


def enumerate_alphas(m: int, max_deg: int):
    """All exponent tuples with total degree <= max_deg, deglex order."""
    out = []
    for d in range(max_deg + 1):
        out.extend(_alphas_of_degree(m, d))
    return out


def _alphas_of_degree(m, d):
    if m == 0:
        return [()] if d == 0 else []
    # stars and bars, lexicographic within fixed total degree
    out = []
    for cuts in combinations(range(d + m - 1), m - 1):
        prev = -1
        alpha = []
        for c in cuts:
            alpha.append(c - prev - 1)
            prev = c
        alpha.append(d + m - 2 - prev)
        out.append(tuple(alpha))
    out.sort(reverse=True)
    return out


def enumerate_monomials(m: int, n: int, max_tdeg: int):
    """All monomial keys with t-degree <= max_tdeg (every odd subset)."""
    return [(alpha, mask)
            for alpha in enumerate_alphas(m, max_tdeg)
            for mask in range(1 << n)]
