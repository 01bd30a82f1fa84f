"""Properties of the term algebra shared by Laurent, PiElement,
TensorElement and SystemElement, and of its one text codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkcx.groups import ConjClass, GroupSpec, conj_class
from linkcx.homotopy import (PiElement, SystemElement, TensorElement,
                             parse_pi_element, parse_system_element,
                             parse_tensor_element)
from linkcx.laurent import Laurent

SPECS = [GroupSpec.free("u", "v"), GroupSpec.abelian(2)]


def parse_laurent(_spec, text):
    return Laurent.parse(text)


PARSE = {PiElement: parse_pi_element, TensorElement: parse_tensor_element,
         SystemElement: parse_system_element, Laurent: parse_laurent}


def classes(spec):
    if spec.kind == "free":
        words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=5)
    else:
        words = st.lists(st.integers(-3, 3), min_size=2, max_size=2)
    return words.map(lambda w: conj_class(spec, tuple(w)))


def laurents():
    return st.dictionaries(st.integers(-8, 8), st.integers(-4, 4),
                           max_size=4).map(Laurent)


@st.composite
def elements(draw, kind=None, spec=None):
    spec = spec or draw(st.sampled_from(SPECS))
    kind = kind or draw(st.sampled_from(list(PARSE)))
    cl = classes(spec)
    if kind is Laurent:
        return spec, draw(laurents())
    if kind is PiElement:
        terms = st.dictionaries(cl, st.integers(-5, 5), max_size=4)
    elif kind is TensorElement:
        terms = st.dictionaries(st.tuples(cl, cl), st.integers(-5, 5), max_size=4)
    else:
        keys = st.lists(cl, max_size=3).map(
            lambda cs: tuple(sorted(cs, key=ConjClass.sort_key)))
        terms = st.dictionaries(keys, laurents(), max_size=4)
    return spec, kind(draw(terms))


@settings(max_examples=150, deadline=None)
@given(elements())
def test_text_round_trips_byte_for_byte(spec_x):
    spec, x = spec_x
    text = x.to_text(spec)
    parsed = PARSE[type(x)](spec, text)
    assert parsed == x
    assert parsed.to_text(spec) == text


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_addition_is_an_abelian_group(data):
    spec, x = data.draw(elements())
    _spec, y = data.draw(elements(type(x), spec))
    assert (x + (-x)).is_zero()
    assert x + y == y + x
    assert x + type(x)() == x


@settings(max_examples=100, deadline=None)
@given(st.one_of(elements(PiElement), elements(TensorElement)))
def test_involution_is_an_involution(spec_x):
    _spec, x = spec_x
    assert x.involution().involution() == x


@settings(max_examples=100, deadline=None)
@given(elements())
def test_equal_elements_hash_equal(spec_x):
    spec, x = spec_x
    same = type(x)(dict(reversed(list(x.terms.items()))))
    parsed = PARSE[type(x)](spec, x.to_text(spec))
    assert same == x and parsed == x
    assert hash(same) == hash(x) == hash(parsed)


def test_kinds_never_compare_equal():
    assert PiElement() != TensorElement()
    assert TensorElement() != SystemElement()
    assert Laurent() != PiElement()


@pytest.mark.parametrize("parse, text", [
    (parse_pi_element, "3*[u"),
    (parse_pi_element, "x*[u]"),
    (parse_pi_element, "3*[u]x[v]"),
    (parse_pi_element, "3*[w]"),
    (parse_tensor_element, "3*[u]"),
    (parse_system_element, "1*A^0*{u}"),
    (parse_system_element, "(1*A^0)*{u"),
    (parse_pi_element, "3*[u] + 1*[u]"),
    (parse_pi_element, "+3*[u]"),
    (parse_system_element, "(1*A^0)*{u, v} + (2*A^1)*{v, u}"),
    (parse_laurent, "1*A^2 + 3*A^2"),
    (parse_laurent, "+1*A^2"),
    (parse_laurent, "1_0*A^2"),
    (parse_laurent, "1*A^x"),
    (parse_laurent, "A^2"),
    (parse_laurent, "1*A^2*A^1"),
])
def test_malformed_terms_are_value_errors(parse, text):
    with pytest.raises(ValueError, match="bad term"):
        parse(SPECS[0], text)
