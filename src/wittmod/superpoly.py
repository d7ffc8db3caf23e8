"""Supercommutative polynomial algebra Q[t_1..t_m] (x) Lambda(xi_1..xi_n).

Elements are kept as sparse dicts mapping a monomial key to a nonzero
coefficient.  A monomial key is a pair (alpha, imask): alpha is a length-m
tuple of nonnegative integer t-exponents and imask is a bitmask over the
odd generators (bit j-1 set means xi_j is present).  The bitmask encodes
the ascending product xi_{j1} xi_{j2} ... (j1 < j2 < ...).  A product's
sign is merge_sign_masks' below; mono_partial_xi, _bracket_basis,
_dressed_bracket_basis and _nf_append count bits for theirs.

All arithmetic is exact over Q.  No floats anywhere: a coefficient is an
int when it is integral and a Fraction only otherwise (exact), and every
true division goes through divide.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

Mono = tuple  # (alpha: tuple[int, ...], imask: int)


def exact(value):
    """A value under the one coefficient rule: an int when it is integral,
    else a Fraction.  A float raises TypeError: its binary expansion is
    almost never the number meant (0.1 is not 1/10)."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        if isinstance(value, float):
            raise TypeError("exact values only, got the float %r" % (value,))
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def divide(a, b):
    """a / b under exact's rule: the one division in the package, so an
    int / int never makes a float.  ZeroDivisionError when b is 0."""
    if type(a) is int and type(b) is int:
        return Fraction(a, b) if a % b else a // b
    return exact(Fraction(a) / b)


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


def check_mono(m, n, mono):
    """ValueError unless mono = (alpha, imask) is a monomial at shape
    (m, n): m exponents, each an int (not a bool) and none negative, and
    an int odd mask within n bits."""
    alpha, mask = mono
    if len(alpha) != m or any(type(a) is not int or a < 0 for a in alpha):
        raise ValueError("bad exponent tuple %r for m=%d" % (alpha, m))
    if type(mask) is not int:
        raise ValueError("odd mask %r is not an int" % (mask,))
    if mask >> n:
        raise ValueError("odd index out of range for n=%d" % n)


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
    """Add c to acc[key] under exact's rule, dropping the key when the
    sum vanishes."""
    c0 = acc.get(key, 0) + c
    if c0:
        acc[key] = exact(c0)
    else:
        acc.pop(key, None)


class LinComb:
    """Sparse exact linear combination: dict basis key -> nonzero
    coefficient, an int when integral and a Fraction otherwise (exact).
    Every loop that sums or scales coefficients puts a non-int result
    through exact, as a Fraction product or sum can be integral.

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

    @classmethod
    def zero(cls, m, n):
        return cls(m, n)

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

    def _bilinear(self, other, kernel):
        """The bilinear extension of kernel(key1, key2), a list of (key,
        int) for one pair of basis keys."""
        self._check(other)
        right = other.terms.items()
        acc = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in right:
                c12 = c1 * c2
                for key, c in kernel(k1, k2):
                    c0 = acc.get(key, 0) + c12 * c
                    if c0:
                        acc[key] = c0 if type(c0) is int else exact(c0)
                    else:
                        del acc[key]
        return self._like(acc)

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        # accumulate() inlined: a call per term here costs measurable time
        for key, c in other.terms.items():
            c0 = terms.get(key, 0) + c
            if c0:
                terms[key] = c0 if type(c0) is int else exact(c0)
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
        return self._like({k: exact(c * scalar)
                           for k, c in self.terms.items()})

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


class SuperPoly(LinComb):
    """Element of Q[t] (x) Lambda(xi), exact and sparse."""

    __slots__ = ()

    key_parity = staticmethod(mono_parity)

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, m, n, alpha, odd=(), coeff=1):
        mono = (tuple(alpha), odd if isinstance(odd, int) else mask_of(odd))
        check_mono(m, n, mono)
        p = cls(m, n)
        if coeff:
            p.terms[mono] = exact(coeff)
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
                c0 = acc.get(mono, 0) + sign * cp * cq
                if c0:
                    acc[mono] = c0 if type(c0) is int else exact(c0)
                else:
                    del acc[mono]
        return self._like(acc)

    # -- calculus ----------------------------------------------------------

    def partial_t(self, i: int) -> "SuperPoly":
        return self._partial(mono_partial_t, i, self.m, "t")

    def partial_xi(self, j: int) -> "SuperPoly":
        return self._partial(mono_partial_xi, j, self.n, "xi")

    def _partial(self, mono_partial, i, top, name):
        if not 1 <= i <= top:
            raise ValueError("%s index %d out of range" % (name, i))
        out = SuperPoly(self.m, self.n)
        for mono, c in self.terms.items():
            hit = mono_partial(mono, i)
            if hit:
                out.terms[hit[0]] = exact(c * hit[1])
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
