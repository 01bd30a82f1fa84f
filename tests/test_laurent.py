import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkcx.laurent import Laurent

laurents = st.dictionaries(st.integers(-12, 12), st.integers(-5, 5), max_size=6).map(Laurent)


def test_basic_arithmetic():
    a = Laurent({2: 1, -2: 1})
    b = Laurent({0: 3})
    assert a + b == Laurent({2: 1, 0: 3, -2: 1})
    assert a - a == Laurent.zero()
    assert a * b == Laurent({2: 3, -2: 3})
    assert -a == Laurent({2: -1, -2: -1})
    assert 2 * a == a + a


def test_zero_coefficients_drop():
    assert Laurent({3: 0}) == Laurent.zero()
    assert not Laurent.zero()
    assert Laurent({1: 2}) + Laurent({1: -2}) == Laurent.zero()


def test_powers():
    loop = Laurent.loop_factor()
    assert loop ** 0 == Laurent.one()
    assert loop ** 2 == loop * loop
    assert Laurent.A(3) ** -2 == Laurent.A(-6)
    assert Laurent.minus_A3_power(-1) * Laurent.minus_A3_power(1) == Laurent.one()
    assert Laurent.minus_A3_power(2) == Laurent.A(6)
    assert Laurent.minus_A3_power(-3) == Laurent.monomial(-1, -9)
    with pytest.raises(ValueError):
        (loop ** 1) ** -1


def test_span_and_degrees():
    assert Laurent.zero().span() == 0
    assert Laurent.one().span() == 0
    f = Laurent({4: -1, -4: -1})
    assert f.span() == 8
    assert f.top_degree() == 4
    assert f.low_degree() == -4
    with pytest.raises(ValueError):
        Laurent.zero().top_degree()


def test_subs_A_inverse():
    f = Laurent({7: 1, 3: -1, -5: -1})
    g = f.subs_A_inverse()
    assert g == Laurent({-7: 1, -3: -1, 5: -1})
    assert g.subs_A_inverse() == f


def test_string_round_trip():
    f = Laurent({4: -1, -4: -1})
    assert str(f) == "-1*A^4 + -1*A^-4"
    assert Laurent.parse(str(f)) == f
    assert Laurent.parse("0") == Laurent.zero()
    assert str(Laurent.one()) == "1*A^0"
    for coeffs in [{}, {0: 1}, {5: 2, -3: -7, 0: 11}]:
        f = Laurent(coeffs)
        assert Laurent.parse(str(f)) == f
    with pytest.raises(ValueError):
        Laurent.parse("A^2")


# -- the ring laws ----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(laurents, laurents, laurents)
def test_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + Laurent.zero() == f and f * Laurent.one() == f
    assert f - f == Laurent.zero() and f * Laurent.zero() == Laurent.zero()


@settings(max_examples=200, deadline=None)
@given(laurents, laurents, st.integers(-3, 3))
def test_subs_A_inverse_is_a_ring_map(f, g, k):
    bar = Laurent.subs_A_inverse
    assert bar(f + g) == bar(f) + bar(g)
    assert bar(f * g) == bar(f) * bar(g)
    assert bar(k * f) == k * bar(f)
    assert bar(Laurent.one()) == Laurent.one()
    assert bar(bar(f)) == f


@settings(max_examples=200, deadline=None)
@given(laurents)
def test_text_round_trip(f):
    text = str(f)
    assert Laurent.parse(text) == f
    assert str(Laurent.parse(text)) == text
