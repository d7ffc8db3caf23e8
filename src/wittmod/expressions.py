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

# the dressed, word and tensor layers load on first use (as_dressed,
# as_word, as_tensor, _seg_atoms, print_expr), so a Witt bracket reply
# loads none of them
from .superpoly import (SuperPoly, accumulate, mask_indices, mono_mul,
                        mono_sort_key)
from .witt import (TSLOT, XSLOT, ExtendedWittElement, WittElement,
                   term_sort_key)


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

def _check_index(atom, m, n, where=""):
    """The one range check of a t, x, dt or dx index.  Every atom is checked
    before any product is taken, so a term that vanishes is checked too."""
    kind, k = atom[0], atom[1]
    if not 1 <= k <= (m if kind in ("t", "dt") else n):
        raise ExpressionError("%s index %d out of range%s" % (kind, k, where))


def _seg_mono(seg, m, n, where="monomial"):
    """Interpret a segment as a monomial; returns ((alpha, imask), sign)."""
    for atom in seg:
        if atom[0] in ("dt", "dx"):
            raise ExpressionError("derivation slot not allowed in %s" % where)
        _check_index(atom, m, n, " in " + where)
    mono = ((0,) * m, 0)
    sign = 1
    for atom in seg:
        if atom[0] == "t":
            _, k, power = atom
            step = (tuple(power if q == k - 1 else 0 for q in range(m)), 0)
        else:
            step = ((0,) * m, 1 << (atom[1] - 1))
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
    if any(atom[0] in ("dt", "dx") for atom in seg[:-1]):
        raise ExpressionError("only the final factor of a derivation term "
                              "may be a slot")
    kind, idx = seg[-1]
    _check_index(seg[-1], m, n)
    hit = _seg_mono(seg[:-1], m, n, "derivation term")
    if hit is None:
        return None
    return (hit[0], (TSLOT if kind == "dt" else XSLOT, idx)), hit[1]


def _seg_atoms(seg, m, n, room):
    """Segment as a left-to-right sequence of at most room operator atoms."""
    ds = [a for a in seg if a[0] in ("dt", "dx")]
    # multiplications ending in a slot make one derivation atom
    derivation = len(ds) == 1 and seg[-1][0] in ("dt", "dx") and len(seg) > 1
    size = 1 if derivation else sum(a[2] if a[0] == "t" else 1 for a in seg)
    if size > room:
        raise ExpressionError("operator expression expands to more than "
                              "%d atoms" % MAX_WORD_ATOMS)
    if derivation:
        from .words import make_watom
        hit = _seg_witt(seg, m, n)
        if hit is None:
            return None
        (mono, slot), sign = hit
        return [make_watom(mono[0], mono[1], slot)], sign
    atoms = []
    for atom in seg:
        _check_index(atom, m, n)
        if atom[0] == "t":
            atoms.extend([("mt", atom[1])] * atom[2])
        else:
            atoms.append(("mx" if atom[0] == "x" else atom[0], atom[1]))
    return atoms, 1


def _one_seg(segs, message):
    """The single segment of a term, () for a bare number."""
    if len(segs) > 1:
        raise ExpressionError(message)
    return segs[0] if segs else ()


# ---------------------------------------------------------------------------
# converters: one loop over the parsed terms, one segment reader per type

def _convert(terms, out, noun, read):
    """Add coeff * sign for each term into out.terms, where read(segs,
    eidx) gives the term's (key, sign), or None when the term vanishes.
    noun names the type when a tensor marker is misplaced; the tensor
    reader, which needs the marker, passes None and checks it itself."""
    for coeff, segs, eidx in terms:
        if eidx is not None and noun:
            raise ExpressionError("tensor marker not allowed in " + noun)
        if not segs and not coeff and eidx is None:
            continue  # a bare 0
        hit = read(segs, eidx)
        if hit:
            accumulate(out.terms, hit[0], coeff * hit[1])
    return out


def as_superpoly(terms, m, n) -> SuperPoly:
    def read(segs, eidx):
        seg = _one_seg(segs, "'.' not allowed in a plain polynomial")
        return _seg_mono(seg, m, n)
    return _convert(terms, SuperPoly(m, n), "a plain polynomial", read)


def as_witt(terms, m, n) -> WittElement:
    def read(segs, eidx):
        if len(segs) != 1:
            raise ExpressionError("a derivation term is a single segment")
        return _seg_witt(segs[0], m, n)
    return _convert(terms, WittElement(m, n), "a derivation", read)


def as_extended(terms, m, n) -> ExtendedWittElement:
    """A segment ending in a slot is a derivation term; any other segment
    (or a bare number) is a monomial of the function part."""
    def read(segs, eidx):
        seg = _one_seg(segs, "an extension term is a single segment")
        if seg and seg[-1][0] in ("dt", "dx"):
            return _seg_witt(seg, m, n)
        hit = _seg_mono(seg, m, n)
        return hit and ((hit[0], None), hit[1])
    return _convert(terms, ExtendedWittElement(m, n), "an extension element",
                    read)


def as_dressed(terms, m, n) -> DressedWittElement:
    from .dressed import DressedWittElement

    def read(segs, eidx):
        if not 1 <= len(segs) <= 2:
            raise ExpressionError("a dressed term has at most two segments")
        # both segments are read, so both are range-checked
        dressing = _seg_mono(segs[0] if len(segs) == 2 else (), m, n,
                             "dressing")
        wit = _seg_witt(segs[-1], m, n)
        if dressing and wit:
            return (dressing[0], wit[0]), dressing[1] * wit[1]
    return _convert(terms, DressedWittElement(m, n), "a dressed term", read)


def as_word(terms, m, n) -> OperatorWord:
    from .words import OperatorWord
    room = MAX_WORD_ATOMS

    def read(segs, eidx):
        nonlocal room
        word, sign = [], 1
        for seg in segs:
            hit = _seg_atoms(seg, m, n, room - len(word))
            if hit is None:
                sign = 0  # the term vanishes; its later segments are checked
            else:
                word.extend(hit[0])
                sign *= hit[1]
        room -= len(word)
        return (tuple(word), sign) if sign else None
    return _convert(terms, OperatorWord(m, n), "an operator word", read)


def as_tensor(terms, m, n, dim) -> TensorElement:
    from .tensor_modules import TensorElement

    def read(segs, eidx):
        if eidx is None:
            raise ExpressionError("tensor element needs '@ e<j>' on every "
                                  "term")
        if not 1 <= eidx <= dim:
            raise ExpressionError("vector index e%d out of range (dim %d)"
                                  % (eidx, dim))
        seg = _one_seg(segs, "'.' not allowed in a tensor coefficient")
        hit = _seg_mono(seg, m, n, "tensor coefficient")
        return hit and ((hit[0], eidx - 1), hit[1])
    return _convert(terms, TensorElement(m, n, dim), None, read)


# ---------------------------------------------------------------------------
# canonical printing: one table of key orders and spellings, one loop

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


def _fmt_witt_term(key):
    mono, (kind, idx) = key
    body = _fmt_mono(mono)
    return "%s%s%d" % (body + "*" if body else "",
                       "dt" if kind == TSLOT else "dx", idx)


def _fmt_dressed(key):
    amono, wkey = key
    abody = _fmt_mono(amono)
    return (abody + " . " if abody else "") + _fmt_witt_term(wkey)


def _ext_sort_key(key):
    """Derivation terms first, then the function part."""
    mono, slot = key
    return (0,) + term_sort_key(key) if slot else (1,) + mono_sort_key(mono)


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


def _fmt_ext(key):
    return _fmt_witt_term(key) if key[1] else _fmt_mono(key[0])


def _fmt_word(word):
    return " . ".join(_atom_str(a) for a in word)


# element type -> (key order, key -> (body, suffix)); the element types of
# the layers that load on first use join on their first print
_PRINTERS = {
    SuperPoly: (mono_sort_key, lambda key: (_fmt_mono(key), "")),
    WittElement: (term_sort_key, lambda key: (_fmt_witt_term(key), "")),
    ExtendedWittElement: (_ext_sort_key, lambda key: (_fmt_ext(key), "")),
}


def _late_printer(name):
    """(element type, key order, spelling) of the type called name in a
    layer that loads on first use, or None for any other name."""
    if name == "DressedWittElement":
        from .dressed import DressedWittElement, dressed_sort_key
        return (DressedWittElement, dressed_sort_key,
                lambda key: (_fmt_dressed(key), ""))
    if name == "OperatorWord":
        from .words import OperatorWord
        return OperatorWord, word_sort_key, lambda key: (_fmt_word(key), "")
    if name == "TensorElement":
        from .tensor_modules import TensorElement, tensor_key_sort
        return (TensorElement, tensor_key_sort,
                lambda key: (_fmt_mono(key[0]), " @ e%d" % (key[1] + 1)))
    return None


def _join(obj, order, spell):
    """Each term in key order as its sign, |coeff| * body, then suffix."""
    out = []
    for key in sorted(obj.terms, key=order):
        c = obj.terms[key]
        body, suffix = spell(key)
        mag = abs(c)
        if not body:
            term = str(mag)
        elif mag == 1:
            term = body
        else:
            term = "%s*%s" % (mag, body)
        out.append((" - " if c < 0 else " + ") + term + suffix)
    if not out:
        return "0"
    text = "".join(out)
    # the leading sign is bare: "-x1 + t1", not " - x1 + t1"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def print_expr(obj) -> str:
    if isinstance(obj, (int, Fraction)):
        return str(obj)
    kind = type(obj)
    if kind not in _PRINTERS:
        late = _late_printer(kind.__name__)
        if late is None or late[0] is not kind:
            raise TypeError("no printer for %r" % kind.__name__)
        _PRINTERS[kind] = late[1:]
    return _join(obj, *_PRINTERS[kind])
