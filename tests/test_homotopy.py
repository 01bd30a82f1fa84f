import pytest

import linkcx as lx
from linkcx.diagram import PlanarCode, draw_local, mirror, orient_all, reverse_component
from linkcx.errors import DiagramError
from linkcx.examples import example
from linkcx.groups import GroupSpec, conj_class, text_to_word
from linkcx.homotopy import (LK, Connection, co, component_class,
                             homotopy_bracket, loop_class,
                             normalized_homotopy_bracket)
from linkcx.laurent import Laurent
from linkcx.twocomplex import build_disc

LOOP = Laurent.loop_factor()


def _cls(conn, text):
    return conj_class(conn.group, text_to_word(conn.group, text))


def test_component_classes():
    b = example("Ln", 1)
    assert component_class(b.diagram, b.connection, 0) == _cls(b.connection, "u")
    assert component_class(b.diagram, b.connection, 1) == _cls(b.connection, "v")
    k = example("Kn", 0)
    assert component_class(k.diagram, k.connection, 0) == _cls(k.connection, "u v")
    t = example("torus_link")
    assert component_class(t.diagram, t.connection, 0).data == (1, 0)
    assert component_class(t.diagram, t.connection, 1).data == (0, 1)


def test_loop_class_invariances():
    b = example("Ln", 1)
    conn = b.connection
    steps = [("v.b", ("F.e0", 1), ("F.e1", 1)), ("v.a", ("F.e1", 3), ("F.e0", 3))]
    cls = loop_class(conn, steps)
    assert cls == _cls(conn, "u")
    # cyclic rotation of the steps
    assert loop_class(conn, steps[1:] + steps[:1]) == cls
    # inserting a back-and-forth pair changes nothing
    padded = (steps[:1]
              + [("v.a", ("F.e0", 3), ("F.e2", 3)),
                 ("v.a", ("F.e2", 3), ("F.e0", 3))]
              + steps[1:])
    assert loop_class(conn, padded) == cls


def test_LK_values():
    t = example("torus_link")
    e = LK(t.diagram, t.connection)
    assert e.terms == {conj_class(t.connection.group, (1, 1)): 1}
    assert e.augmentation() == lx.lk(t.diagram) == 1
    for n in range(4):
        b = example("Ln", n)
        e = LK(b.diagram, b.connection)
        assert e.augmentation() == 2 * n
        if n:
            assert e.terms == {_cls(b.connection, "u v"): 2 * n}
    m = example("moebius_link")
    assert LK(m.diagram, m.connection).terms == {_cls(m.connection, "g^2"): 1}


def test_LK_dualities():
    for name in ("torus_link", "moebius_link", "annulus_link"):
        b = example(name)
        e = LK(b.diagram, b.connection)
        assert LK(mirror(b.diagram), b.connection) == -e
        both = reverse_component(reverse_component(b.diagram, 0), 1)
        assert LK(both, b.connection) == e.involution()


def test_co_of_Kn():
    for n in range(4):
        b = example("Kn", n)
        conn = b.connection
        u, v = _cls(conn, "u"), _cls(conn, "v")
        k = _cls(conn, "u v")
        one = conj_class(conn.group, ())
        expected = {(u, v): 2 * n + 1, (v, u): 2 * n + 1,
                    (k, one): -(2 * n + 1), (one, k): -(2 * n + 1)}
        assert co(b.diagram, conn).terms == expected


def test_co_distinguishes_the_Kn():
    values = [co(example("Kn", n).diagram, example("Kn", n).connection)
              for n in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert values[i] != values[j]


def test_co_of_local_knots_vanishes():
    for name in ("trefoil_left", "trefoil_right"):
        b = example(name)
        assert co(b.diagram, b.connection).is_zero()


def test_co_dualities():
    b = example("Kn", 1)
    e = co(b.diagram, b.connection)
    assert co(mirror(b.diagram), b.connection) == -e
    assert co(reverse_component(b.diagram, 0), b.connection) == e.involution()


def test_co_needs_a_knot():
    b = example("torus_link")
    with pytest.raises(DiagramError):
        co(b.diagram, b.connection)


def test_homotopy_bracket_local():
    # trivial holonomy: every state collapses onto the empty multiset
    b = example("trefoil_left")
    hb = homotopy_bracket(b.diagram, b.connection)
    assert list(hb.terms) == [()]
    assert hb.terms[()] == LOOP * lx.bracket(b.diagram)


def test_homotopy_bracket_specializes_to_bracket():
    for name, n in [("annulus_link", None), ("torus_link", None),
                    ("Kn", 0), ("Ln", 1), ("moebius_link", None)]:
        b = example(name, n)
        hb = homotopy_bracket(b.diagram, b.connection)
        assert hb.specialize(LOOP) == LOOP * lx.bracket(b.diagram)


def test_homotopy_bracket_constants():
    # a crossing-free curve of nontrivial class keeps its class as basis
    b = example("Ln", 0)
    hb = homotopy_bracket(b.diagram, b.connection)
    u, v = _cls(b.connection, "u"), _cls(b.connection, "v")
    assert hb.terms == {tuple(sorted([u, v], key=lambda c: c.sort_key())):
                        Laurent.one()}
    assert normalized_homotopy_bracket(b.diagram, b.connection) == hb


def test_homotopy_bracket_sees_more_than_bracket():
    # the annulus link and a local hopf link have equal brackets but
    # different homotopy brackets
    a = example("annulus_link")
    h = example("hopf_local")
    assert lx.bracket(a.diagram) == lx.bracket(h.diagram)
    ha = homotopy_bracket(a.diagram, a.connection)
    hh = homotopy_bracket(h.diagram, h.connection)
    assert set(ha.terms) != set(hh.terms)


def test_unoriented_classes_in_homotopy_bracket():
    # reversing a component must not change the homotopy bracket
    b = example("annulus_link")
    hb = homotopy_bracket(b.diagram, b.connection)
    r = reverse_component(b.diagram, 0)
    assert homotopy_bracket(r, b.connection) == hb


def test_connection_missing_label():
    b = example("torus_link")
    sparse = Connection(b.connection.group, {})
    with pytest.raises(DiagramError,
                       match=r"^connection has no label for edge 'v' at \('F', 1\)$"):
        LK(b.diagram, sparse)


def test_LK_reads_no_label_without_a_crossing_of_the_two_components():
    disc = build_disc()
    circles = orient_all(draw_local(disc, "F", PlanarCode((), 2)))
    assert LK(circles, Connection(GroupSpec.free(), {})).to_text() == "0"
    # Ln(0) has transits but no crossing: its labels are not read either
    b = example("Ln", 0)
    assert LK(b.diagram, Connection(b.connection.group, {})).to_text() == "0"


def test_element_serialization_round_trips():
    from linkcx.homotopy import (parse_pi_element, parse_system_element,
                                 parse_tensor_element)
    t = example("torus_link")
    e = LK(t.diagram, t.connection)
    assert parse_pi_element(t.connection.group, e.to_text(t.connection.group)) == e
    k = example("Kn", 1)
    c = co(k.diagram, k.connection)
    text = c.to_text(k.connection.group)
    assert parse_tensor_element(k.connection.group, text) == c
    assert c.to_text(k.connection.group) == text
    a = example("annulus_link")
    hb = homotopy_bracket(a.diagram, a.connection)
    text = hb.to_text(a.connection.group)
    parsed = parse_system_element(a.connection.group, text)
    assert parsed == hb
    assert parsed.to_text(a.connection.group) == text
    zero = parse_pi_element(t.connection.group, "0")
    assert zero.is_zero()


# Values recorded before the two brackets shared one state-sum engine.
# Every diagram has transits and nontrivial curve classes; the counts are
# smooth(d, S).count() for the states S in mask order, bit i standing for
# the i-th crossing in sorted order.
ENGINE_GOLDEN = {
    "Ln2": ("-1*A^6 + -1*A^-2 + 1*A^-6 + -1*A^-10",
            "(1*A^2 + -1*A^-2 + 1*A^-6 + -1*A^-10)*{u v^-1} + (1*A^4)*{u, v}",
            [4, 3, 3, 2, 3, 2, 2, 1, 3, 2, 2, 1, 2, 1, 1, 2]),
    "Kn2": ("-1*A^7 + -1*A^-1 + 1*A^-5 + -1*A^-9 + 1*A^-13",
            "(1*A^3 + -1*A^-1 + 1*A^-5 + -1*A^-9 + 1*A^-13)*{u v^-1}"
            " + (1*A^5)*{u, v}",
            [5, 4, 4, 3, 4, 3, 3, 2, 4, 3, 3, 2, 3, 2, 2, 1,
             4, 3, 3, 2, 3, 2, 2, 1, 3, 2, 2, 1, 2, 1, 1, 2]),
    "fuzzed_annulus": (
        "-1*A^4 + -1*A^-4",
        "(-1*A^2 + 1*A^-6)*{} + (1*A^2)*{g, g}",
        [4, 3, 3, 4, 3, 2, 2, 3, 5, 4, 4, 5, 4, 3, 3, 4,
         5, 4, 4, 5, 4, 3, 3, 4, 6, 5, 5, 6, 5, 4, 4, 5,
         3, 2, 2, 3, 2, 1, 1, 2, 4, 3, 3, 4, 3, 2, 2, 3,
         4, 3, 3, 4, 3, 2, 2, 3, 5, 4, 4, 5, 4, 3, 3, 4]),
}


def _engine_bundle(key):
    if key == "fuzzed_annulus":
        from linkcx.moves import fuzz
        a = example("annulus_link")
        d, _trace = fuzz(a.diagram, 20, seed=13, max_crossings=6, max_transits=12)
        return d, a.connection
    b = example(key[:2], int(key[2:]))
    return b.diagram, b.connection


@pytest.mark.parametrize("key", sorted(ENGINE_GOLDEN))
def test_state_sum_engine_golden_values(key):
    d, conn = _engine_bundle(key)
    want_bracket, want_hb, want_counts = ENGINE_GOLDEN[key]
    assert str(lx.bracket(d)) == want_bracket
    assert homotopy_bracket(d, conn).to_text(conn.group) == want_hb
    order = sorted(d.crossings)
    counts = [lx.smooth(d, [c for i, c in enumerate(order) if mask >> i & 1]).count()
              for mask in range(1 << len(order))]
    assert counts == want_counts
