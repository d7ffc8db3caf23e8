"""Expression grammar for the CLI: parsing and canonical printing.

Tokens: t<k>, x<k> (odd variables), dt<k>, dx<k> (derivation slots),
^ power, * product, + and -, rational literals p/q, odd-set sugar
x{1,3} = x1*x3 (indices strictly ascending), tensor marker @ e<j>,
and '.' separating operator segments.

Segment rules give each surface form one meaning:
  - a segment with no derivation slot is a run of multiplications;
  - a segment of multiplications ending in one slot is a single
    derivation term (t1*x1*dt2);
  - any other segment is read as a left-to-right atom sequence;
  - 'a-part . derivation-term' is a dressed term.
The canonical printers emit one fixed spelling per object, so
parse(print(obj)) reproduces obj exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .dressed import DressedWittElement, dressed_sort_key
from .superpoly import (SuperPoly, accumulate, mask_indices, mono_mul,
                        mono_sort_key)
from .tensor_modules import TensorElement, tensor_key_sort
from .witt import (TSLOT, XSLOT, ExtendedWittElement, WittElement,
                   term_sort_key)
from .words import OperatorWord, make_watom


# the most atoms as_word expands all words of one expression into
MAX_WORD_ATOMS = 10000


class ExpressionError(ValueError):
    """An expression that does not fit its use: an index out of range for
    the shape, or a form the target type does not take."""


class ParseError(ExpressionError):
    def __init__(self, message, line, col, expected=None):
        self.line = line
        self.col = col
        self.expected = tuple(expected) if expected else ()
        tail = " (expected %s)" % ", ".join(self.expected) if expected else ""
        super().__init__("line %d col %d: %s%s" % (line, col, message, tail))


_PUNCT = {"{": "LBRACE", "}": "RBRACE", ",": "COMMA", "^": "CARET",
          "*": "STAR", "+": "PLUS", "-": "MINUS", "/": "SLASH",
          "@": "AT", ".": "DOT"}


def tokenize(text):
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in _PUNCT:
            toks.append((_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("NUM", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            name = text[i:j]
            k = j
            while k < len(text) and text[k].isdigit():
                k += 1
            idx = int(text[j:k]) if k > j else None
            if name not in ("t", "x", "dt", "dx", "e"):
                raise ParseError("unknown name %r" % (text[i:k],), line, col,
                                 ("t<k>", "x<k>", "dt<k>", "dx<k>", "e<j>"))
            toks.append(("NAME", (name, idx), line, col))
            col += k - i
            i = k
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    toks.append(("END", None, line, col))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, expected=None):
        kind, _, line, col = self.peek()
        raise ParseError(message, line, col, expected)

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            self.fail("got %s" % tok[0], (kind,))
        return self.next()

    # expr := ['-'] term (('+'|'-') term)*
    def parse(self):
        terms = []
        sign = 1
        if self.peek()[0] == "MINUS":
            self.next()
            sign = -1
        elif self.peek()[0] == "PLUS":
            self.next()
        terms.append(self.term(sign))
        while self.peek()[0] in ("PLUS", "MINUS"):
            sign = 1 if self.next()[0] == "PLUS" else -1
            terms.append(self.term(sign))
        self.expect("END")
        return terms

    # term := rat ['*' segments] ['@' e<j>] | segments ['@' e<j>]
    def term(self, sign):
        coeff = Fraction(sign)
        segments = []
        tok = self.peek()
        if tok[0] == "NUM":
            coeff *= self.rational()
            if self.peek()[0] == "STAR":
                self.next()
                segments = self.segments()
        elif tok[0] == "NAME":
            segments = self.segments()
        else:
            self.fail("got %s" % tok[0], ("number", "name"))
        eidx = None
        if self.peek()[0] == "AT":
            self.next()
            tok = self.expect("NAME")
            name, idx = tok[1]
            if name != "e" or idx is None:
                raise ParseError("tensor marker needs e<j>", tok[2], tok[3],
                                 ("e<j>",))
            eidx = idx
        return (coeff, tuple(tuple(s) for s in segments), eidx)

    def rational(self):
        tok = self.expect("NUM")
        num = tok[1]
        if self.peek()[0] == "SLASH":
            self.next()
            den = self.expect("NUM")[1]
            if den == 0:
                raise ParseError("zero denominator", tok[2], tok[3])
            return Fraction(num, den)
        return Fraction(num)

    # segments := factors ('.' factors)*
    def segments(self):
        segs = [self.factors()]
        while self.peek()[0] == "DOT":
            self.next()
            segs.append(self.factors())
        return segs

    # factors := factor ('*' factor)*
    def factors(self):
        atoms = list(self.factor())
        while self.peek()[0] == "STAR":
            self.next()
            atoms.extend(self.factor())
        return atoms

    # factor := t<k>['^' NUM] | x<k> | x{i,j,...} | dt<k> | dx<k>
    def factor(self):
        tok = self.expect("NAME")
        name, idx = tok[1]
        if name == "e":
            raise ParseError("e<j> only follows @", tok[2], tok[3])
        if name == "x" and idx is None:
            self.expect("LBRACE")
            idxs = [self.expect("NUM")[1]]
            while self.peek()[0] == "COMMA":
                self.next()
                idxs.append(self.expect("NUM")[1])
            self.expect("RBRACE")
            for u, v in zip(idxs, idxs[1:]):
                if v <= u:
                    raise ParseError("odd index set must be strictly "
                                     "ascending", tok[2], tok[3])
            return [("x", k) for k in idxs]
        if idx is None or idx < 1:
            raise ParseError("missing variable index", tok[2], tok[3])
        if name == "t":
            power = 1
            if self.peek()[0] == "CARET":
                self.next()
                power = self.expect("NUM")[1]
            return [("t", idx, power)]
        if self.peek()[0] == "CARET":
            self.fail("exponent only allowed on t variables")
        if name == "x":
            return [("x", idx)]
        return [(name, idx)]  # dt | dx


def parse_expr(text):
    """Neutral parse: list of (coeff, segments, tensor index)."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# segment interpretation

def _seg_mono(seg, m, n, where="monomial"):
    """Interpret a segment as a monomial; returns ((alpha, imask), sign)."""
    mono = ((0,) * m, 0)
    sign = 1
    for atom in seg:
        if atom[0] == "t":
            _, k, power = atom
            if not 1 <= k <= m:
                raise ExpressionError("t index %d out of range in %s" % (k, where))
            step = (tuple(power if q == k - 1 else 0 for q in range(m)), 0)
        elif atom[0] == "x":
            k = atom[1]
            if not 1 <= k <= n:
                raise ExpressionError("x index %d out of range in %s" % (k, where))
            step = ((0,) * m, 1 << (k - 1))
        else:
            raise ExpressionError("derivation slot not allowed in %s" % where)
        hit = mono_mul(mono, step)
        if hit is None:
            return None
        mono = hit[0]
        sign *= hit[1]
    return mono, sign


def _seg_witt(seg, m, n):
    """Segment = multiplications ending in one slot -> ((mono, slot), sign)."""
    if not seg or seg[-1][0] not in ("dt", "dx"):
        raise ExpressionError("derivation term must end in dt<k> or dx<k>")
    for atom in seg[:-1]:
        if atom[0] in ("dt", "dx"):
            raise ExpressionError("only the final factor of a derivation term "
                             "may be a slot")
    kind, idx = seg[-1]
    if kind == "dt":
        if not 1 <= idx <= m:
            raise ExpressionError("dt index %d out of range" % idx)
        slot = (TSLOT, idx)
    else:
        if not 1 <= idx <= n:
            raise ExpressionError("dx index %d out of range" % idx)
        slot = (XSLOT, idx)
    hit = _seg_mono(seg[:-1], m, n, "derivation term")
    if hit is None:
        return None
    return (hit[0], slot), hit[1]


def _seg_atoms(seg, m, n, room):
    """Segment as a left-to-right sequence of at most room operator atoms."""
    ds = [a for a in seg if a[0] in ("dt", "dx")]
    if len(ds) == 1 and seg[-1][0] in ("dt", "dx") and len(seg) > 1:
        # multiplications ending in a slot: one derivation atom
        hit = _seg_witt(seg, m, n)
        if hit is None:
            return None
        (mono, slot), sign = hit
        return [make_watom(mono[0], mono[1], slot)], sign
    if sum(a[2] if a[0] == "t" else 1 for a in seg) > room:
        raise ExpressionError("operator expression expands to more than "
                              "%d atoms" % MAX_WORD_ATOMS)
    atoms = []
    for atom in seg:
        if atom[0] == "t":
            _, k, power = atom
            if not 1 <= k <= m:
                raise ExpressionError("t index %d out of range" % k)
            atoms.extend([("mt", k)] * power)
        elif atom[0] == "x":
            k = atom[1]
            if not 1 <= k <= n:
                raise ExpressionError("x index %d out of range" % k)
            atoms.append(("mx", k))
        elif atom[0] == "dt":
            if not 1 <= atom[1] <= m:
                raise ExpressionError("dt index %d out of range" % atom[1])
            atoms.append(("dt", atom[1]))
        else:
            if not 1 <= atom[1] <= n:
                raise ExpressionError("dx index %d out of range" % atom[1])
            atoms.append(("dx", atom[1]))
    return atoms, 1


# ---------------------------------------------------------------------------
# converters

def as_superpoly(terms, m, n) -> SuperPoly:
    out = SuperPoly.zero(m, n)
    for coeff, segs, eidx in terms:
        if eidx is not None:
            raise ExpressionError("tensor marker not allowed in a plain "
                             "polynomial")
        if len(segs) > 1:
            raise ExpressionError("'.' not allowed in a plain polynomial")
        seg = segs[0] if segs else ()
        hit = _seg_mono(seg, m, n)
        if hit is None:
            continue
        out = out + SuperPoly.monomial(m, n, hit[0][0], hit[0][1],
                                       coeff * hit[1])
    return out


def as_witt(terms, m, n) -> WittElement:
    out = WittElement.zero(m, n)
    for coeff, segs, eidx in terms:
        if eidx is not None:
            raise ExpressionError("tensor marker not allowed in a derivation")
        if not segs and not coeff:
            continue
        if len(segs) != 1:
            raise ExpressionError("a derivation term is a single segment")
        hit = _seg_witt(segs[0], m, n)
        if hit is None:
            continue
        (mono, slot), sign = hit
        out = out + WittElement.term(m, n, mono[0], mono[1], slot,
                                     coeff * sign)
    return out


def as_extended(terms, m, n) -> ExtendedWittElement:
    """A segment ending in a slot is a derivation term; any other segment
    (or a bare number) is a monomial of the function part."""
    acc = {}
    for coeff, segs, eidx in terms:
        if eidx is not None:
            raise ExpressionError("tensor marker not allowed in an extension "
                             "element")
        if len(segs) > 1:
            raise ExpressionError("an extension term is a single segment")
        seg = segs[0] if segs else ()
        if seg and seg[-1][0] in ("dt", "dx"):
            hit = _seg_witt(seg, m, n)
        else:
            hit = _seg_mono(seg, m, n)
            if hit:
                hit = (hit[0], None), hit[1]
        if hit:
            accumulate(acc, hit[0], coeff * hit[1])
    return ExtendedWittElement(m, n, acc)


def as_dressed(terms, m, n) -> DressedWittElement:
    out = DressedWittElement(m, n)
    for coeff, segs, eidx in terms:
        if eidx is not None:
            raise ExpressionError("tensor marker not allowed in a dressed term")
        if not segs and not coeff:
            continue
        if len(segs) == 1:
            amono, asign = ((0,) * m, 0), 1
            wseg = segs[0]
        elif len(segs) == 2:
            hit = _seg_mono(segs[0], m, n, "dressing")
            if hit is None:
                continue
            amono, asign = hit
            wseg = segs[1]
        else:
            raise ExpressionError("a dressed term has at most two segments")
        wit = _seg_witt(wseg, m, n)
        if wit is None:
            continue
        (mono, slot), wsign = wit
        out = out + DressedWittElement.term(m, n, amono, mono, slot,
                                            coeff * asign * wsign)
    return out


def as_word(terms, m, n) -> OperatorWord:
    out = OperatorWord(m, n)
    room = MAX_WORD_ATOMS
    for coeff, segs, eidx in terms:
        if eidx is not None:
            raise ExpressionError("tensor marker not allowed in an operator word")
        word = []
        sign = 1
        dead = False
        for seg in segs:
            hit = _seg_atoms(seg, m, n, room - len(word))
            if hit is None:
                dead = True
                break
            atoms, s = hit
            word.extend(atoms)
            sign *= s
        room -= len(word)
        if dead:
            continue
        out = out + OperatorWord.from_word(m, n, tuple(word), coeff * sign)
    return out


def as_tensor(terms, m, n, dim) -> TensorElement:
    out = None
    for coeff, segs, eidx in terms:
        if eidx is None:
            if not segs and not coeff:
                continue
            raise ExpressionError("tensor element needs '@ e<j>' on every term")
        if not 1 <= eidx <= dim:
            raise ExpressionError("vector index e%d out of range (dim %d)"
                             % (eidx, dim))
        if len(segs) > 1:
            raise ExpressionError("'.' not allowed in a tensor coefficient")
        seg = segs[0] if segs else ()
        hit = _seg_mono(seg, m, n, "tensor coefficient")
        piece = TensorElement(m, n, dim)
        if hit is not None and coeff:
            piece = TensorElement(m, n, dim, {(hit[0], eidx - 1): coeff * hit[1]})
        out = piece if out is None else out + piece
    if out is None:
        out = TensorElement(m, n, dim)
    return out


# ---------------------------------------------------------------------------
# canonical printers

def _fmt_mono(mono):
    alpha, imask = mono
    bits = []
    for i, a in enumerate(alpha):
        if a == 1:
            bits.append("t%d" % (i + 1))
        elif a > 1:
            bits.append("t%d^%d" % (i + 1, a))
    bits.extend("x%d" % j for j in mask_indices(imask))
    return "*".join(bits)


def _fmt_term(coeff, body):
    """Render |coeff| * body; sign handled by the caller."""
    c = abs(coeff)
    if not body:
        return str(c)
    if c == 1:
        return body
    return "%s*%s" % (c, body)


def _join(parts):
    """parts: list of (coeff, body) in print order."""
    if not parts:
        return "0"
    out = []
    for k, (coeff, body) in enumerate(parts):
        if k == 0:
            out.append(("-" if coeff < 0 else "") + _fmt_term(coeff, body))
        else:
            out.append((" - " if coeff < 0 else " + ") + _fmt_term(coeff, body))
    return "".join(out)


def print_superpoly(p: SuperPoly) -> str:
    items = sorted(p.terms.items(), key=lambda kv: mono_sort_key(kv[0]))
    return _join([(c, _fmt_mono(mono)) for mono, c in items])


def _fmt_slot(slot):
    kind, idx = slot
    return ("dt%d" if kind == TSLOT else "dx%d") % idx


def _fmt_witt_term(key):
    mono, slot = key
    body = _fmt_mono(mono)
    return (body + "*" if body else "") + _fmt_slot(slot)


def print_witt(w: WittElement) -> str:
    items = sorted(w.terms.items(), key=lambda kv: term_sort_key(kv[0]))
    return _join([(c, _fmt_witt_term(key)) for key, c in items])


def _ext_sort_key(key):
    """Derivation terms first, then the function part."""
    mono, slot = key
    return (0,) + term_sort_key(key) if slot else (1,) + mono_sort_key(mono)


def print_extended(e: ExtendedWittElement) -> str:
    items = sorted(e.terms.items(), key=lambda kv: _ext_sort_key(kv[0]))
    return _join([(c, _fmt_witt_term(key) if key[1] else _fmt_mono(key[0]))
                  for key, c in items])


def print_dressed(d: DressedWittElement) -> str:
    items = sorted(d.terms.items(), key=lambda kv: dressed_sort_key(kv[0]))
    parts = []
    for (amono, wkey), c in items:
        abody = _fmt_mono(amono)
        wbody = _fmt_witt_term(wkey)
        parts.append((c, ("%s . %s" % (abody, wbody)) if abody else wbody))
    return _join(parts)


def _atom_str(atom):
    kind = atom[0]
    if kind == "mt":
        return "t%d" % atom[1]
    if kind == "mx":
        return "x%d" % atom[1]
    if kind in ("dt", "dx"):
        return "%s%d" % (kind, atom[1])
    # 'w' atom: its derivation-term spelling
    return _fmt_witt_term(((atom[1], atom[2]), (atom[3], atom[4])))


def atom_sort_key(atom):
    kind = atom[0]
    order = {"mt": 0, "mx": 1, "dt": 2, "dx": 3, "w": 4}
    if kind == "w":
        return (4, mono_sort_key((atom[1], atom[2])), atom[3], atom[4])
    return (order[kind], atom[1])


def word_sort_key(word):
    return (len(word), tuple(atom_sort_key(a) for a in word))


def print_word(w: OperatorWord) -> str:
    items = sorted(w.terms.items(), key=lambda kv: word_sort_key(kv[0]))
    parts = []
    for word, c in items:
        body = " . ".join(_atom_str(a) for a in word)
        parts.append((c, body))
    return _join(parts)


def print_tensor(x: TensorElement) -> str:
    items = sorted(x.terms.items(), key=lambda kv: tensor_key_sort(kv[0]))
    out = []
    for k, ((mono, l), c) in enumerate(items):
        body = _fmt_mono(mono)
        piece = _fmt_term(c, body) if body else str(abs(c))
        piece += " @ e%d" % (l + 1)
        if k == 0:
            out.append(("-" if c < 0 else "") + piece)
        else:
            out.append((" - " if c < 0 else " + ") + piece)
    return "".join(out) if out else "0"


def print_expr(obj) -> str:
    if isinstance(obj, SuperPoly):
        return print_superpoly(obj)
    if isinstance(obj, WittElement):
        return print_witt(obj)
    if isinstance(obj, DressedWittElement):
        return print_dressed(obj)
    if isinstance(obj, ExtendedWittElement):
        return print_extended(obj)
    if isinstance(obj, OperatorWord):
        return print_word(obj)
    if isinstance(obj, TensorElement):
        return print_tensor(obj)
    if isinstance(obj, (int, Fraction)):
        return str(obj)
    raise TypeError("no printer for %r" % type(obj).__name__)
