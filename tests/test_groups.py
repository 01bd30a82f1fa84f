import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkcx.examples import example
from linkcx.groups import (GroupSpec, conj_class, inv, mul,
                           reduce_word, text_to_word, unoriented_class,
                           word_to_text)
from linkcx.homotopy import LK, Connection, co, homotopy_bracket

F2 = GroupSpec.free("u", "v")
Z2 = GroupSpec.abelian(2)

letters = st.sampled_from([1, -1, 2, -2])
words = st.lists(letters, max_size=8).map(tuple)
reduced_words = words.map(reduce_word)


def test_free_reduction():
    assert reduce_word([1, -1]) == ()
    assert reduce_word([1, 2, -2, -1]) == ()
    assert reduce_word([1, 2, -2, 1]) == (1, 1)
    assert mul(F2, (1,), (-1,)) == ()
    assert inv(F2, (1, 2)) == (-2, -1)
    assert inv(F2, F2.identity()) == ()


def test_conjugacy_canonical_form():
    # cyclic reduction: u v u^-1 is conjugate to v
    assert conj_class(F2, (1, 2, -1)) == conj_class(F2, (2,))
    # rotation invariance
    assert conj_class(F2, (1, 2)) == conj_class(F2, (2, 1))
    # generators sort before inverses
    assert conj_class(F2, (1, -2)).data == (1, -2)
    assert conj_class(F2, (-2, 1)).data == (1, -2)
    assert conj_class(F2, ()).is_identity()
    assert not conj_class(F2, (1,)).is_identity()


def test_class_inverse_and_unoriented():
    c = conj_class(F2, (1, 2))
    assert c.inverse() == conj_class(F2, (-2, -1))
    assert c.inverse().inverse() == c
    w = (1, 2)
    assert unoriented_class(F2, w) == unoriented_class(F2, inv(F2, w))


def test_abelian():
    assert mul(Z2, (1, 0), (0, 1)) == (1, 1)
    assert inv(Z2, (3, -2)) == (-3, 2)
    one = Z2.identity()
    assert inv(Z2, one) is one
    assert conj_class(Z2, (2, -1)).data == (2, -1)
    assert conj_class(Z2, (0, 0)).is_identity()


def test_text_round_trip():
    for w in [(), (1,), (1, 1, -2), (2, -1, -1)]:
        text = word_to_text(F2, w)
        assert text_to_word(F2, text) == w
    assert word_to_text(F2, ()) == "1"
    assert word_to_text(F2, (1, 1, -2)) == "u^2 v^-1"
    assert text_to_word(Z2, "g1^3 g2^-1") == (3, -1)
    assert word_to_text(Z2, (3, -1)) == "g1^3 g2^-1"
    with pytest.raises(ValueError):
        text_to_word(F2, "w")


def test_bad_group_specs():
    with pytest.raises(ValueError, match="negative group rank"):
        GroupSpec.abelian(-2)
    with pytest.raises(ValueError, match="generator names repeat"):
        GroupSpec.free("a", "a")
    assert GroupSpec.abelian(0).rank == 0


# -- the word layer -------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(reduced_words, reduced_words)
def test_free_product_of_reduced_words(a, b):
    # a reference that reduces every letter, as the brute force relies on
    assert mul(F2, a, b) == reduce_word(a + b)
    assert mul(F2, (), b) == b and mul(F2, a, ()) == a
    assert mul(F2, a, inv(F2, a)) == ()


@settings(max_examples=200, deadline=None)
@given(words, reduced_words, st.integers(0, 8))
def test_conj_class_is_invariant_under_rotation_and_conjugation(w, g, r):
    c = conj_class(F2, w)
    r %= max(len(w), 1)
    assert conj_class(F2, w[r:] + w[:r]) == c
    assert conj_class(F2, mul(F2, mul(F2, g, reduce_word(w)), inv(F2, g))) == c
    assert unoriented_class(F2, w) == unoriented_class(F2, inv(F2, w))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_unreduced_labels_give_the_same_invariants(data):
    # every label gets a cancelling pair somewhere; the results must not move
    knot, link = example("Kn", 1), example("Ln", 1)
    conn = knot.connection
    labels = {}
    for key, w in conn.labels.items():
        i = data.draw(st.integers(0, len(w)))
        x = data.draw(letters)
        labels[key] = w[:i] + (x, -x) + w[i:]
    rough = Connection(conn.group, labels)
    assert rough.labels == conn.labels
    assert co(knot.diagram, rough).to_text(F2) == co(knot.diagram, conn).to_text(F2)
    assert LK(link.diagram, rough).to_text(F2) == LK(link.diagram, conn).to_text(F2)
    for d in (knot.diagram, link.diagram):
        assert (homotopy_bracket(d, rough).to_text(F2)
                == homotopy_bracket(d, conn).to_text(F2))
