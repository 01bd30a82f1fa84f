from fractions import Fraction

import pytest

import linkcx as lx
from linkcx.diagram import (Component, Crossing, CrossVisit, Diagram,
                            PlanarCode, Transit, TransitVisit,
                            braid_code, canonical_relabel, draw_local, mirror,
                            reorient_face, reverse_component, same_diagram,
                            split_components, trace_loop, validate_diagram)
from linkcx.errors import DiagramError
from linkcx.examples import example, theta3_cylinder, trefoil_code
from linkcx.twocomplex import build_disc, build_square_identification


def test_examples_validate():
    for name in ("torus_link", "moebius_link", "annulus_link",
                 "hopf_local", "trefoil_left", "trefoil_right", "unknot_local"):
        validate_diagram(example(name).diagram)
    for n in range(3):
        validate_diagram(example("Ln", n).diagram)
        validate_diagram(example("Kn", n).diagram)


def test_transit_on_boundary_edge_rejected():
    cx = build_square_identification("annulus")
    t = Transit("b", Fraction(1, 2), (("F", 0), ("F", 0)))
    d = Diagram(cx, {}, {"t1": t}, (Component((TransitVisit("t1", 0),), ("F",)),))
    with pytest.raises(DiagramError):
        validate_diagram(d)


def test_transit_needs_two_distinct_incidences():
    cx = build_square_identification("annulus")
    t = Transit("V", Fraction(1, 2), (("F", 1), ("F", 1)))
    d = Diagram(cx, {}, {"t1": t}, (Component((TransitVisit("t1", 0),), ("F",)),))
    with pytest.raises(DiagramError):
        validate_diagram(d)


def test_crossing_needs_two_visits():
    cx = build_disc()
    d = Diagram(cx, {"c1": Crossing("F", 0)}, {},
                (Component((CrossVisit("c1", 0),), ("F",)),))
    with pytest.raises(DiagramError):
        validate_diagram(d)


def test_planarity_rejects_interleaved_chords():
    # two closed loops through one crossing would have to meet again,
    # so the single-crossing two-component pattern is not drawable
    cx = build_disc()
    bad = Diagram(cx, {"c1": Crossing("F", 0)}, {}, (
        Component((CrossVisit("c1", 0),), ("F",)),
        Component((CrossVisit("c1", 1),), ("F",)),
    ))
    with pytest.raises(DiagramError):
        validate_diagram(bad)


def test_mirror_is_an_involution():
    for name in ("torus_link", "trefoil_left", "hopf_local"):
        d = example(name).diagram
        assert mirror(mirror(d)) == d
        m = mirror(d)
        assert all(m.crossings[c].dot == 1 - d.crossings[c].dot
                   for c in d.crossings)


def test_mirror_swaps_trefoils():
    left = example("trefoil_left").diagram
    right = example("trefoil_right").diagram
    assert lx.bracket(mirror(left)) == lx.bracket(right)
    assert lx.wri(mirror(left)) == lx.wri(right) == 3


def test_draw_local_counts():
    cx = build_disc()
    d = draw_local(cx, "F", trefoil_code("left"))
    assert len(d.crossings) == 3
    assert len(d.transits) == 0
    assert len(d.components) == 1
    empty = draw_local(cx, "F", PlanarCode(()))
    assert len(empty.components) == 0


def test_draw_local_into_adjacent_faces_matches():
    from linkcx.examples import hopf_code
    cx = theta3_cylinder()
    a = lx.orient_all(draw_local(cx, "F.e0", trefoil_code("left")))
    b = lx.orient_all(draw_local(cx, "F.e1", trefoil_code("left")))
    assert lx.wri(a) == lx.wri(b)
    assert lx.bracket(a) == lx.bracket(b)
    assert lx.normalized_bracket(a) == lx.normalized_bracket(b)
    ha = lx.orient_all(draw_local(cx, "F.e0", hopf_code()))
    hb = lx.orient_all(draw_local(cx, "F.e2", hopf_code()))
    assert lx.lk(ha) == lx.lk(hb) == 2


def test_split_components():
    knot = example("trefoil_left").diagram
    assert split_components(knot) == [[0]]
    hopf = example("hopf_local").diagram
    assert split_components(hopf) == [[0, 1]]
    assert lx.sc(hopf) == 1
    l0 = example("Ln", 0).diagram
    assert lx.sc(l0) == 2


def test_reverse_component():
    d = example("torus_link").diagram
    r = reverse_component(d, 0)
    assert reverse_component(r, 0) == d
    # reversing both components preserves lk
    both = reverse_component(reverse_component(d, 0), 1)
    assert lx.lk(both) == lx.lk(d)
    # reversing one component negates it
    assert lx.lk(r) == -lx.lk(d)


def test_trace_loop():
    d = example("Ln", 1).diagram
    assert trace_loop(d, 0) == ["tb1", "ta1"]
    assert trace_loop(d, 1) == ["tb2", "ta2"]


def test_reorient_face_preserves_everything():
    for name in ("torus_link", "moebius_link", "hopf_local"):
        d = example(name).diagram
        for f in d.complex.faces:
            r = reorient_face(d, f)
            validate_diagram(r)
            assert lx.wri(r) == lx.wri(d)
            assert lx.bracket(r) == lx.bracket(d)
            if len(d.components) == 2:
                assert lx.lk(r) == lx.lk(d)
            # reorienting twice restores the original encoding
            assert reorient_face(r, f) == d


def test_braid_closure_components():
    # sigma^2 closes to a two-component link, sigma^3 to a knot
    hopf = braid_code([1, 1], 2)
    assert len(hopf.crossings) == 2
    tre = braid_code([1, 1, 1], 2)
    cx = build_disc()
    assert len(draw_local(cx, "F", hopf).components) == 2
    assert len(draw_local(cx, "F", tre).components) == 1
    # an unused strand closes to a free circle
    idle = braid_code([1], 3)
    assert idle.circles == 1


def test_canonical_relabel_ignores_names_and_rotations():
    d = example("hopf_local").diagram
    # rename a crossing consistently
    ren = {"cT": "zz"}
    crossings = {ren.get(c, c): cr for c, cr in d.crossings.items()}

    def remap(ev):
        if isinstance(ev, CrossVisit):
            return CrossVisit(ren.get(ev.crossing, ev.crossing), ev.enter)
        return ev

    comps = tuple(Component(tuple(remap(e) for e in c.events), c.arc_faces,
                            c.directed) for c in d.components)
    d2 = Diagram(d.complex, crossings, d.transits, comps)
    assert same_diagram(d, d2)
    assert canonical_relabel(d) == canonical_relabel(d2)



def test_undeclared_event_names_rejected():
    from linkcx import files
    b = example("Ln", 2)
    text = files.serialize_diagram(b.diagram)
    assert "t(tb1,0)" in text
    with pytest.raises(DiagramError):
        files.parse_diagram(text.replace("t(tb1,0)", "t(tZZ,0)"), b.complex)
    cx = build_disc()
    d = Diagram(cx, {}, {}, (Component((CrossVisit("cZZ", 0), CrossVisit("cZZ", 1)),
                                       ("F", "F")),))
    with pytest.raises(DiagramError):
        validate_diagram(d)
