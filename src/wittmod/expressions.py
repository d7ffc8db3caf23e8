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

import sys
from fractions import Fraction

# the dressed, word and tensor layers load on first use (as_dressed,
# as_word, as_tensor, _seg_atoms, print_expr), so a Witt bracket reply
# loads none of them
from .superpoly import (SuperPoly, divide, exact, mask_indices,
                        merge_sign_masks, mono_sort_key)
from .witt import (TSLOT, XSLOT, ExtendedWittElement, WittElement,
                   term_sort_key)


# the most atoms as_word expands all words of one expression into
MAX_WORD_ATOMS = 10000
# the largest t-exponent of a monomial, summed over its factors (an
# operator word's t-powers count against MAX_WORD_ATOMS instead)
MAX_EXPONENT = 1000
# the most digits in one number or index: CPython's default limit on
# reading a decimal string as an int
MAX_DIGITS = 4300
MAX_ECHO = 64  # the longest user text an error message echoes whole
# the longest file path an error message echoes whole: PATH_MAX on Linux
# (os.pathconf('/', 'PC_PATH_MAX')), so no path that opens is cut
MAX_PATH = 4096


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
_DIGITS = "0123456789"
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_ALNUM = _LETTERS + _DIGITS


def quoted(value, form=repr, whole=MAX_ECHO) -> str:
    """form(value) as an error message echoes user text: whole up to
    `whole` characters (MAX_ECHO, or MAX_PATH for a file path), else its
    first MAX_ECHO // 2 characters plus its length."""
    text = value if isinstance(value, str) else str(value)
    if len(text) <= whole:
        return form(value)
    return "%s... (%d characters)" % (form(text[:MAX_ECHO // 2]), len(text))


def max_digits():
    """MAX_DIGITS, or the interpreter's int-string limit where lower."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none
    return min(MAX_DIGITS, limit) if limit else MAX_DIGITS


def tokenize(text):
    """(kind, value, line, col) tokens ending in END.  Only ASCII letters
    and digits are read, a digit run at most max_digits() long."""
    limit = max_digits()
    toks = []
    line, start = 1, 0  # the column of text[i] is i - start + 1
    i, end = 0, len(text)
    while i < end:
        ch = text[i]
        if ch in _PUNCT:
            toks.append((_PUNCT[ch], ch, line, i - start + 1))
            i += 1
        elif ch in " \t\r":
            i += 1
        elif ch == "\n":
            i += 1
            line, start = line + 1, i
        elif ch in _ALNUM:  # a number, or a name and its index
            j = i
            while j < end and text[j] in _LETTERS:
                j += 1
            k = j
            while k < end and text[k] in _DIGITS:
                k += 1
            if k - j > limit:
                raise ParseError("number longer than %d digits" % limit,
                                 line, j - start + 1)
            name = text[i:j]
            if j == i:
                toks.append(("NUM", int(text[j:k]), line, i - start + 1))
            elif name in ("t", "x", "dt", "dx", "e"):
                toks.append(("NAME", (name, int(text[j:k]) if k > j else None),
                             line, i - start + 1))
            else:
                raise ParseError("unknown name %s" % quoted(text[i:k]), line,
                                 i - start + 1,
                                 ("t<k>", "x<k>", "dt<k>", "dx<k>", "e<j>"))
            i = k
        else:
            raise ParseError("unexpected character %r" % ch, line,
                             i - start + 1)
    toks.append(("END", None, line, end - start + 1))
    return toks


def _got(tok, *expected):
    """The error for a token of another kind than expected."""
    return ParseError("got %s" % tok[0], tok[2], tok[3], expected)


def parse_expr(text):
    """Neutral parse: list of (coeff, segments, tensor index), the coeff an
    int unless a p/q literal is not integral.  The grammar:
        expr     := ['+'|'-'] term (('+'|'-') term)*
        term     := rat ['*' segments] ['@' e<j>] | segments ['@' e<j>]
        rat      := NUM ['/' NUM]
        segments := factors ('.' factors)*
        factors  := factor ('*' factor)*
        factor   := t<k>['^' NUM] | x<k> | x{i,j,...} | dt<k> | dx<k>"""
    toks = tokenize(text)
    terms = []
    i, sign = 0, 1
    if toks[0][0] in ("PLUS", "MINUS"):
        i, sign = 1, (1 if toks[0][0] == "PLUS" else -1)
    while True:
        tok = toks[i]
        coeff, segs = sign, []
        if tok[0] == "NUM":
            coeff *= tok[1]
            i += 1
            if toks[i][0] == "SLASH":
                den = toks[i + 1]
                if den[0] != "NUM":
                    raise _got(den, "NUM")
                if not den[1]:
                    raise ParseError("zero denominator", tok[2], tok[3])
                coeff = divide(coeff, den[1])
                i += 2
            more = toks[i][0] == "STAR"
            i += more
        elif tok[0] == "NAME":
            more = True
        else:
            raise _got(tok, "number", "name")
        seg = []
        while more:  # one factor
            tok = toks[i]
            if tok[0] != "NAME":
                raise _got(tok, "NAME")
            name, idx = tok[1]
            i += 1
            if name == "e":
                raise ParseError("e<j> only follows @", tok[2], tok[3])
            if name == "x" and idx is None:
                if toks[i][0] != "LBRACE":
                    raise _got(toks[i], "LBRACE")
                idxs = []
                while True:
                    if toks[i + 1][0] != "NUM":
                        raise _got(toks[i + 1], "NUM")
                    idxs.append(toks[i + 1][1])
                    i += 2
                    if toks[i][0] != "COMMA":
                        break
                if toks[i][0] != "RBRACE":
                    raise _got(toks[i], "RBRACE")
                i += 1
                for u, v in zip(idxs, idxs[1:]):
                    if v <= u:
                        raise ParseError("odd index set must be strictly "
                                         "ascending", tok[2], tok[3])
                seg.extend(("x", k) for k in idxs)
            elif idx is None or idx < 1:
                raise ParseError("missing variable index", tok[2], tok[3])
            elif name == "t":
                power = 1
                if toks[i][0] == "CARET":
                    if toks[i + 1][0] != "NUM":
                        raise _got(toks[i + 1], "NUM")
                    power = toks[i + 1][1]
                    i += 2
                seg.append(("t", idx, power))
            elif toks[i][0] == "CARET":
                raise ParseError("exponent only allowed on t variables",
                                 toks[i][2], toks[i][3])
            else:
                seg.append((name, idx))  # x | dt | dx
            kind = toks[i][0]
            if kind == "DOT":
                segs.append(tuple(seg))
                seg = []
            elif kind != "STAR":
                segs.append(tuple(seg))
                break
            i += 1
        eidx = None
        if toks[i][0] == "AT":
            tok = toks[i + 1]
            if tok[0] != "NAME":
                raise _got(tok, "NAME")
            name, eidx = tok[1]
            if name != "e" or eidx is None:
                raise ParseError("tensor marker needs e<j>", tok[2], tok[3],
                                 ("e<j>",))
            i += 2
        terms.append((coeff, tuple(segs), eidx))
        kind = toks[i][0]
        if kind == "END":
            return terms
        if kind not in ("PLUS", "MINUS"):
            raise _got(toks[i], "END")
        sign = 1 if kind == "PLUS" else -1
        i += 1


# ---------------------------------------------------------------------------
# segment interpretation

def _check_index(atom, m, n, where=""):
    """The one range check of a t, x, dt or dx index.  Every atom of a
    segment is checked, so a term that vanishes is checked too."""
    kind, k = atom[0], atom[1]
    if not 1 <= k <= (m if kind in ("t", "dt") else n):
        raise ExpressionError("%s index %s out of range%s"
                              % (kind, quoted(k, str), where))


def _seg_mono(seg, m, n, where="monomial"):
    """Interpret a segment as a monomial; returns ((alpha, imask), sign), or
    None when an odd variable repeats.  The exponent is summed in a list,
    each odd bit merged in with its Koszul sign."""
    alpha = [0] * m
    imask, sign = 0, 1
    for atom in seg:
        kind = atom[0]
        if kind in ("dt", "dx"):
            raise ExpressionError("derivation slot not allowed in %s" % where)
        _check_index(atom, m, n, " in " + where)
        if kind == "t":
            alpha[atom[1] - 1] += atom[2]
            if alpha[atom[1] - 1] > MAX_EXPONENT:
                raise ExpressionError("t exponent above %d in %s"
                                      % (MAX_EXPONENT, where))
        elif sign:
            step, imask = merge_sign_masks(imask, 1 << (atom[1] - 1))
            sign *= step
    return ((tuple(alpha), imask), sign) if sign else None


def _seg_witt(seg, m, n):
    """Segment = multiplications ending in one slot -> ((mono, slot), sign)."""
    if not seg or seg[-1][0] not in ("dt", "dx"):
        raise ExpressionError("derivation term must end in dt<k> or dx<k>")
    for atom in seg[:-1]:
        if atom[0] in ("dt", "dx"):
            raise ExpressionError("only the final factor of a derivation "
                                  "term may be a slot")
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
        return [make_watom(hit[0])], hit[1]
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
    acc = {}
    for coeff, segs, eidx in terms:
        if eidx is not None and noun:
            raise ExpressionError("tensor marker not allowed in " + noun)
        if not segs and not coeff and eidx is None:
            continue  # a bare 0
        hit = read(segs, eidx)
        if hit:  # a sign of -1 negates, as a Fraction product costs more
            key, c = hit[0], (coeff if hit[1] > 0 else -coeff)
            if key in acc:
                c += acc[key]
            if c:
                acc[key] = c if type(c) is int else exact(c)
            else:
                acc.pop(key, None)
    out.terms = acc
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
            raise ExpressionError("vector index e%s out of range (dim %d)"
                                  % (quoted(eidx, str), dim))
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
    return _fmt_witt_term(atom[1])  # a 'w' atom's derivation term


def atom_sort_key(atom):
    kind = atom[0]
    order = {"mt": 0, "mx": 1, "dt": 2, "dx": 3, "w": 4}
    if kind == "w":
        return (4,) + term_sort_key(atom[1])
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
    """The canonical spelling of obj.  An element with a coefficient of
    more digits than the interpreter's int-string limit raises
    ExpressionError."""
    if isinstance(obj, (int, Fraction)):
        return str(obj)
    kind = type(obj)
    if kind not in _PRINTERS:
        late = _late_printer(kind.__name__)
        if late is None or late[0] is not kind:
            raise TypeError("no printer for %r" % kind.__name__)
        _PRINTERS[kind] = late[1:]
    try:  # str() of an int raises ValueError only past that limit
        return _join(obj, *_PRINTERS[kind])
    except ValueError:
        raise ExpressionError(
            "a coefficient has more than %d digits, the interpreter's "
            "int-string limit" % sys.get_int_max_str_digits()) from None
