"""Expression grammar: canonical round-trips and precise errors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittmod.dressed import DressedWittElement
from wittmod.expressions import (ExpressionError, ParseError, as_dressed,
                                 as_superpoly, as_tensor, as_witt, as_word,
                                 parse_expr, print_expr, quoted)
from wittmod.superpoly import SuperPoly, enumerate_monomials
from wittmod.tensor_modules import TensorElement
from wittmod.witt import TSLOT, XSLOT, ExtendedWittElement, WittElement
from wittmod.words import OperatorWord, make_watom

from conftest import as_extended, canonical, rand_coeff

# (kind, source text, m, n, dim, canonical rendering)
GOLDEN = [
    ("superpoly", "3/2*t1^2*x{1,3}", 2, 3, None, "3/2*t1^2*x1*x3"),
    ("superpoly", "1 + t1 + x1*x2", 1, 2, None, "1 + x1*x2 + t1"),
    ("superpoly", "x2*x1", 1, 2, None, "-x1*x2"),
    ("superpoly", "t2^3*t1", 2, 0, None, "t1*t2^3"),
    ("superpoly", "0", 1, 1, None, "0"),
    ("witt", "3/2*t1^2*x{1,3}*dt2", 2, 3, None, "3/2*t1^2*x1*x3*dt2"),
    ("witt", "dt1 - t1*dt1", 1, 1, None, "dt1 - t1*dt1"),
    ("witt", "-dx1", 1, 1, None, "-dx1"),
    ("witt", "x1*dx1 + t1*dt1", 1, 1, None, "x1*dx1 + t1*dt1"),
    ("witt", "1/3*x{1,2}*dx2 - 2*t1^2*dt1", 1, 2, None,
     "1/3*x1*x2*dx2 - 2*t1^2*dt1"),
    ("witt", "0", 1, 1, None, "0"),
    ("dressed", "t1 . dt1", 1, 1, None, "t1 . dt1"),
    ("dressed", "t1^2*x1 . t1*dx1", 1, 1, None, "t1^2*x1 . t1*dx1"),
    ("dressed", "dt1 + x1 . dx1", 1, 1, None, "dt1 + x1 . dx1"),
    ("word", "dt1 . t1", 1, 1, None, "dt1 . t1"),
    ("word", "t1 . dt1 . x1 . dx1", 1, 1, None, "t1 . dt1 . x1 . dx1"),
    ("word", "1 + t1 . dt1", 1, 1, None, "1 + t1 . dt1"),
    ("word", "t1*x1*dt1 . dx1", 1, 1, None, "t1*x1*dt1 . dx1"),
    ("word", "-2*dx1 . dx2", 1, 2, None, "-2*dx1 . dx2"),
    ("tensor", "t1 @ e2 + x1 @ e1", 1, 1, 2, "x1 @ e1 + t1 @ e2"),
    ("tensor", "1 @ e1", 1, 1, 2, "1 @ e1"),
    ("tensor", "-1/3*t1^2*x1 @ e2", 1, 1, 2, "-1/3*t1^2*x1 @ e2"),
    ("tensor", "5*t1*t2 @ e3 - x1 @ e1", 2, 1, 3,
     "-x1 @ e1 + 5*t1*t2 @ e3"),
    ("tensor", "0", 1, 1, 2, "0"),
    ("extended", "-t1 + t1*dt1", 1, 1, None, "t1*dt1 - t1"),
    ("extended", "x1*t1 + 2 - dx1", 1, 1, None, "-dx1 + 2 + t1*x1"),
    ("extended", "x2*x1*dx1 + t1", 1, 2, None, "-x1*x2*dx1 + t1"),
    ("extended", "0", 1, 1, None, "0"),
]

_CONVERT = {"superpoly": as_superpoly, "witt": as_witt,
            "dressed": as_dressed, "word": as_word, "extended": as_extended}


def _to_object(kind, text, m, n, dim):
    terms = parse_expr(text)
    if kind == "tensor":
        return as_tensor(terms, m, n, dim)
    return _CONVERT[kind](terms, m, n)


@pytest.mark.parametrize("kind,text,m,n,dim,canonical", GOLDEN)
def test_golden_corpus(kind, text, m, n, dim, canonical):
    obj = _to_object(kind, text, m, n, dim)
    assert print_expr(obj) == canonical
    # parse(print(e)) = e
    assert _to_object(kind, canonical, m, n, dim) == obj
    # print is already a fixed point of print . parse
    assert print_expr(_to_object(kind, canonical, m, n, dim)) == canonical


ERRORS = [
    ("x{3,1}", "ascending"),
    ("t1^", "expected num"),
    ("q1", "unknown"),
    ("t1 @", "name"),
    ("1/0", "zero"),
    ("x1^2", "exponent"),
    ("t0", "index"),
    ("", "number, name"),
    ("t1**t1", "name"),
    ("t1 t2", "end"),
    ("t1 @ q2", "e<"),
]


@pytest.mark.parametrize("text,needle", ERRORS)
def test_parse_errors(text, needle):
    with pytest.raises(ParseError) as info:
        parse_expr(text)
    err = info.value
    assert needle.lower() in str(err).lower()
    assert err.line == 1
    assert err.col >= 1


def test_error_column_is_precise():
    with pytest.raises(ParseError) as info:
        parse_expr("t1 + q2")
    assert info.value.col == 6


def test_segment_type_mismatches():
    with pytest.raises(ValueError):
        as_superpoly(parse_expr("dt1"), 1, 1)
    with pytest.raises(ValueError):
        as_witt(parse_expr("t1"), 1, 1)
    with pytest.raises(ValueError):
        as_witt(parse_expr("t1 @ e1"), 1, 1)
    with pytest.raises(ValueError):
        as_tensor(parse_expr("t1"), 1, 1, 2)
    with pytest.raises(ValueError):
        as_tensor(parse_expr("t1 @ e5"), 1, 1, 2)
    with pytest.raises(ValueError):
        as_witt(parse_expr("dt2"), 1, 1)


@pytest.mark.parametrize("text,convert", [
    ("dt1", lambda t: as_superpoly(t, 1, 1)),
    ("t1 . t1 . dt1", lambda t: as_dressed(t, 1, 1)),
    ("t1 @ e1", lambda t: as_word(t, 1, 1)),
    ("t1 @ e5", lambda t: as_tensor(t, 1, 1, 2)),
    ("x2*dt1", lambda t: as_witt(t, 1, 1)),
], ids=["slot-in-poly", "three-segments", "marker-in-word",
        "vector-range", "x-range"])
def test_misfits_raise_expression_error(text, convert):
    # one input-error type, which the command line reports as exit 2
    assert issubclass(ParseError, ExpressionError)
    assert issubclass(ExpressionError, ValueError)
    with pytest.raises(ExpressionError):
        convert(parse_expr(text))


_BUDGET = "operator expression expands to more than 10000 atoms"

# every converter message, word for word, at m = n = 1 and dim 2
MESSAGES = [
    # a tensor marker where the type has none
    ("superpoly", "t1 @ e1",
     "tensor marker not allowed in a plain polynomial"),
    ("witt", "dt1 @ e1", "tensor marker not allowed in a derivation"),
    ("extended", "t1 @ e1",
     "tensor marker not allowed in an extension element"),
    ("dressed", "dt1 @ e1", "tensor marker not allowed in a dressed term"),
    ("word", "t1 @ e1", "tensor marker not allowed in an operator word"),
    ("word", "0 @ e1", "tensor marker not allowed in an operator word"),
    # segment counts
    ("superpoly", "t1 . t1", "'.' not allowed in a plain polynomial"),
    ("witt", "t1*dt1 . dt1", "a derivation term is a single segment"),
    ("witt", "3", "a derivation term is a single segment"),
    ("extended", "t1 . dt1", "an extension term is a single segment"),
    ("dressed", "t1 . t1 . dt1", "a dressed term has at most two segments"),
    ("dressed", "3", "a dressed term has at most two segments"),
    ("tensor", "t1 . t1 @ e1", "'.' not allowed in a tensor coefficient"),
    # the tensor marker of a tensor element
    ("tensor", "t1", "tensor element needs '@ e<j>' on every term"),
    ("tensor", "3", "tensor element needs '@ e<j>' on every term"),
    ("tensor", "t1 @ e9", "vector index e9 out of range (dim 2)"),
    ("tensor", "0 @ e9", "vector index e9 out of range (dim 2)"),
    ("tensor", "t1 @ e0", "vector index e0 out of range (dim 2)"),
    # each index kind out of range
    ("superpoly", "t9", "t index 9 out of range in monomial"),
    ("superpoly", "x9", "x index 9 out of range in monomial"),
    ("witt", "t9*dt1", "t index 9 out of range in derivation term"),
    ("witt", "x9*dt1", "x index 9 out of range in derivation term"),
    ("witt", "dt9", "dt index 9 out of range"),
    ("witt", "t1*dx9", "dx index 9 out of range"),
    ("extended", "t9", "t index 9 out of range in monomial"),
    ("extended", "x9*dx1", "x index 9 out of range in derivation term"),
    ("extended", "dx9", "dx index 9 out of range"),
    ("dressed", "t9 . dt1", "t index 9 out of range in dressing"),
    ("dressed", "x9 . dt1", "x index 9 out of range in dressing"),
    ("dressed", "t1 . t9*dt1", "t index 9 out of range in derivation term"),
    ("dressed", "t1 . dt9", "dt index 9 out of range"),
    ("word", "t9", "t index 9 out of range"),
    ("word", "x9", "x index 9 out of range"),
    ("word", "dt9", "dt index 9 out of range"),
    ("word", "dx9", "dx index 9 out of range"),
    ("word", "t9*dt1", "t index 9 out of range in derivation term"),
    ("word", "t1 . x1*dx9", "dx index 9 out of range"),
    ("tensor", "t9 @ e1", "t index 9 out of range in tensor coefficient"),
    ("tensor", "x9 @ e1", "x index 9 out of range in tensor coefficient"),
    # slots out of place
    ("superpoly", "dt1", "derivation slot not allowed in monomial"),
    ("witt", "t1", "derivation term must end in dt<k> or dx<k>"),
    ("witt", "dt1*dt1", "only the final factor of a derivation term may be "
     "a slot"),
    ("dressed", "dt1 . dt1", "derivation slot not allowed in dressing"),
    ("tensor", "dt1 @ e1", "derivation slot not allowed in tensor "
     "coefficient"),
    # the atom budget of one expression's words
    ("word", "t1^10001", _BUDGET),
    ("word", "t1^6000 + t1^6000", _BUDGET),
    ("word", "t1^9999 . t1*dt1 . t1", _BUDGET),
    # a derivation-term segment is one atom of the budget
    ("word", "t1^10000 . t1*dt1 . t1*dt1", _BUDGET),
    # the t-exponent of a monomial, which a word's own t-powers are not
    ("superpoly", "t1^1001", "t exponent above 1000 in monomial"),
    ("word", "t1^1001*dt1", "t exponent above 1000 in derivation term"),
]


# x1*x1 = 0, so each of these terms vanishes; its indices are still checked
VANISHING = [
    ("superpoly", "x1*x1*t9", "t index 9 out of range in monomial"),
    ("superpoly", "x1*x1*dt1", "derivation slot not allowed in monomial"),
    ("witt", "x1*x1*t9*dt1", "t index 9 out of range in derivation term"),
    ("extended", "x1*x1*x9", "x index 9 out of range in monomial"),
    ("extended", "x1*x1*t9*dt1", "t index 9 out of range in derivation term"),
    ("dressed", "x1*x1 . t9*dt1", "t index 9 out of range in derivation term"),
    ("dressed", "x1*x1*t9 . dt1", "t index 9 out of range in dressing"),
    ("word", "x1*x1*t9*dt1", "t index 9 out of range in derivation term"),
    ("word", "x1*x1*dt1 . t9", "t index 9 out of range"),
    ("word", "x1*x1*dt1 . t1^20000", _BUDGET),
    ("tensor", "x1*x1*t9 @ e1",
     "t index 9 out of range in tensor coefficient"),
]


@pytest.mark.parametrize("kind,text,message", MESSAGES + VANISHING)
def test_converter_messages(kind, text, message):
    with pytest.raises(ExpressionError) as info:
        _to_object(kind, text, 1, 1, 2)
    assert type(info.value) is ExpressionError
    assert str(info.value) == message


# pieces of the grammar, the non-ASCII digits and letters that str.isdigit
# and str.isalpha accept, and any printable character
_PIECES = st.one_of(
    st.sampled_from(["t1", "t2", "x1", "x2", "dt1", "dx2", "x{1,2}", "e1",
                     "^", "2", "3/2", "/", "*", ".", " @ e2", "+", "-", "{",
                     "}", ",", " ", "\n", "\u00b2", "\u0661", "\u00e9",
                     "9" * 4301]),
    st.characters(blacklist_categories=("Cc", "Cs")))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_PIECES, max_size=12).map("".join))
def test_fuzzed_text_raises_only_expression_errors(text):
    # and what parses holds its coefficients under the one rule, an int
    # when integral and a Fraction otherwise, as does every converter
    try:
        terms = parse_expr(text)
    except ExpressionError:
        return
    assert all(canonical(coeff) for coeff, _, _ in terms), terms
    for convert in (*_CONVERT.values(),
                    lambda t, m, n: as_tensor(t, m, n, 4)):
        try:
            out = convert(terms, 2, 2)
        except ExpressionError:
            continue
        assert all(canonical(c) and c for c in out.terms.values()), out.terms


# ---------------------------------------------------------------------------
# seeded round-trips over every object kind

_SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2)]


def _random_superpoly(rng, m, n):
    pool = enumerate_monomials(m, n, 3)
    out = SuperPoly.zero(m, n)
    for _ in range(rng.randint(0, 4)):
        mono = pool[rng.randrange(len(pool))]
        out = out + SuperPoly.monomial(m, n, mono[0], mono[1],
                                       rand_coeff(rng))
    return out


def _slots(m, n):
    return [(TSLOT, i) for i in range(1, m + 1)] \
        + [(XSLOT, j) for j in range(1, n + 1)]


def _random_witt(rng, m, n):
    pool = enumerate_monomials(m, n, 3)
    slots = _slots(m, n)
    out = WittElement.zero(m, n)
    for _ in range(rng.randint(0, 4)):
        mono = pool[rng.randrange(len(pool))]
        out = out + WittElement.term(m, n, mono[0], mono[1],
                                     rng.choice(slots), rand_coeff(rng))
    return out


def _random_dressed(rng, m, n):
    pool = enumerate_monomials(m, n, 2)
    slots = _slots(m, n)
    out = DressedWittElement(m, n)
    for _ in range(rng.randint(0, 3)):
        amono = pool[rng.randrange(len(pool))]
        wmono = pool[rng.randrange(len(pool))]
        out = out + DressedWittElement.term(m, n, amono, wmono,
                                            rng.choice(slots),
                                            rand_coeff(rng))
    return out


def _random_word(rng, m, n):
    atoms = [("mt", i) for i in range(1, m + 1)]
    atoms += [("mx", j) for j in range(1, n + 1)]
    atoms += [("dt", i) for i in range(1, m + 1)]
    atoms += [("dx", j) for j in range(1, n + 1)]
    pool = enumerate_monomials(m, n, 2)
    slots = _slots(m, n)
    out = OperatorWord(m, n)
    for _ in range(rng.randint(0, 3)):
        word = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.25:
                mono = pool[rng.randrange(len(pool))]
                word.append(make_watom((mono, rng.choice(slots))))
            else:
                word.append(rng.choice(atoms))
        out = out + OperatorWord.from_word(m, n, tuple(word),
                                           rand_coeff(rng))
    return out


def _random_tensor(rng, m, n, dim):
    pool = enumerate_monomials(m, n, 3)
    acc = {}
    for _ in range(rng.randint(0, 4)):
        mono = pool[rng.randrange(len(pool))]
        key = (mono, rng.randrange(dim))
        c = acc.get(key, Fraction(0)) + rand_coeff(rng)
        if c:
            acc[key] = c
        else:
            acc.pop(key, None)
    return TensorElement(m, n, dim, acc)


def roundtrip_once(rng) -> None:
    """One random object of a random kind through print -> parse."""
    m, n = rng.choice(_SHAPES)
    kind = rng.randrange(5)
    if kind == 0:
        obj = _random_superpoly(rng, m, n)
        back = as_superpoly(parse_expr(print_expr(obj)), m, n)
    elif kind == 1:
        obj = _random_witt(rng, m, n)
        back = as_witt(parse_expr(print_expr(obj)), m, n)
    elif kind == 2:
        obj = _random_dressed(rng, m, n)
        back = as_dressed(parse_expr(print_expr(obj)), m, n)
    elif kind == 3:
        obj = _random_word(rng, m, n)
        back = as_word(parse_expr(print_expr(obj)), m, n)
    else:
        dim = rng.randint(1, 3)
        obj = _random_tensor(rng, m, n, dim)
        back = as_tensor(parse_expr(print_expr(obj)), m, n, dim)
    assert back == obj, "round-trip changed %r" % (print_expr(obj),)


def run_seeded_roundtrips(count, seed=0):
    rng = random.Random(seed)
    for _ in range(count):
        roundtrip_once(rng)


def test_seeded_roundtrips_three_hundred():
    run_seeded_roundtrips(300, seed=17)


def _random_extended(rng, m, n):
    """Derivation terms and function-part terms, mixed in one element."""
    pool = enumerate_monomials(m, n, 3)
    slots = _slots(m, n) + [None]
    return ExtendedWittElement(m, n, [
        ((pool[rng.randrange(len(pool))], rng.choice(slots)),
         rand_coeff(rng)) for _ in range(rng.randint(0, 5))])


def test_seeded_extended_roundtrips():
    rng = random.Random(29)
    mixed = 0
    for _ in range(200):
        m, n = rng.choice(_SHAPES)
        obj = _random_extended(rng, m, n)
        text = print_expr(obj)
        assert as_extended(parse_expr(text), m, n) == obj, text
        mixed += len({slot is None for _, slot in obj.terms}) == 2
    assert mixed >= 50


def test_printer_only_for_its_own_types():
    # a late printer joins on the element type of its layer, not on a name
    class TensorElement(SuperPoly):
        pass

    for obj in (object(), TensorElement(1, 0), "t1"):
        with pytest.raises(TypeError, match="no printer for"):
            print_expr(obj)


def test_quoted_cuts_only_text_past_64_characters():
    assert quoted("a" * 64) == repr("a" * 64)
    assert quoted("a" * 65) == "'%s'... (65 characters)" % ("a" * 32)
    assert quoted("x\ny") == "'x\\ny'"  # as %r gives it
    assert quoted(10 ** 63, str) == str(10 ** 63)
    assert quoted(10 ** 64, str) == "1%s... (65 characters)" % ("0" * 31)
