"""The event walk against plain walkers, and its faults on unvalidated diagrams.

Each reference below reads the event lists on its own, as the separate
walkers did before ``diagram.EventWalk`` took their place.  Every view of
the walk must equal its reference on every example, its mirror, and fuzzed
diagrams with up to 42 transits: the arcs, the port ends, the crossing
visits and visit pairs, the transit visits, each component's transit
steps, and the contraction's ``match``, ``steps``, ``fixed`` and
``transit_ports``.  LK, co and the component classes, which read prefix
words, must print as the loop classes of the transit steps cut at each
crossing.  A hand-built diagram that was never validated gets a
``DiagramError`` with validation's text from every reader of visit pairs.
"""

import importlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkcx import moves as mv
from linkcx.diagram import (Arc, CrossVisit, TransitVisit, arcs_of, crossing_visits,
                            event_walk, mirror, port_ends, reverse_component, sc,
                            transit_visits, visit_pairs)
from linkcx.errors import DiagramError
from linkcx.examples import example
from linkcx.groups import conj_class
from linkcx.homotopy import (LK, PiElement, TensorElement, co, component_class,
                             loop_class)
from linkcx.invariants import crossing_sign, lk, wri

import corpus

br = importlib.import_module("linkcx.bracket")


# -- the references -------------------------------------------------------------

def ref_arcs(d):
    out = []
    for ci, comp in enumerate(d.components):
        k = len(comp.events)
        if k == 0:
            out.append(Arc(ci, 0, None, None, comp.arc_faces[0]))
            continue
        ends = [(("x", ev.crossing, ev.enter), ("x", ev.crossing, (ev.enter + 2) % 4))
                if isinstance(ev, CrossVisit) else
                (("t", ev.transit, ev.enter), ("t", ev.transit, 1 - ev.enter))
                for ev in comp.events]
        out += [Arc(ci, ai, ends[ai][1], ends[ai + 1 - k][0], comp.arc_faces[ai])
                for ai in range(k)]
    return out


def ref_port_ends(d):
    out = {}
    for arc in ref_arcs(d):
        if arc.src is None:
            continue
        for end, slot in ((0, arc.src), (1, arc.dst)):
            if slot[0] == "x":
                out[(slot[1], slot[2])] = (arc, end)
    return out


def ref_visits(d, kind, names):
    out = {name: [] for name in names}
    for ci, comp in enumerate(d.components):
        for ei, ev in enumerate(comp.events):
            if isinstance(ev, kind):
                out[ev.crossing if kind is CrossVisit else ev.transit].append((ci, ei))
    return out


def ref_transit_steps(d, ci, start=0, stop=None):
    events = d.components[ci].events
    k = len(events)
    count = k if stop is None else (stop - start) % k
    out = []
    for off in range(start, start + count):
        ev = events[off % k]
        if isinstance(ev, TransitVisit):
            tr = d.transits[ev.transit]
            out.append((tr.edge, tr.sides[ev.enter], tr.sides[1 - ev.enter]))
    return out


def ref_contraction(d):
    """(match, steps, fixed, transit_ports) read off the event lists."""
    order = sorted(d.crossings)
    index = {c: i for i, c in enumerate(order)}
    match = [0] * (4 * len(order))
    steps = [()] * len(match)
    fixed = []
    transit_ports = [0] * len(order)
    for ci, comp in enumerate(d.components):
        events = comp.events
        visits = [k for k, ev in enumerate(events) if isinstance(ev, CrossVisit)]
        if not visits:
            fixed.append([len(steps)])
            steps.append(tuple(ref_transit_steps(d, ci)))
            continue
        for v, w in zip(visits, visits[1:] + visits[:1]):
            path = []
            for ev in events[v + 1:w] if v < w else events[v + 1:] + events[:w]:
                tr = d.transits[ev.transit]
                path.append((tr.edge, tr.sides[ev.enter], tr.sides[1 - ev.enter]))
            here, there = events[v], events[w]
            a = 4 * index[here.crossing] + (here.enter + 2) % 4
            b = 4 * index[there.crossing] + there.enter
            match[a], match[b] = b, a
            if path:
                transit_ports[a >> 2] += 1
                transit_ports[b >> 2] += 1
            steps[a] = tuple(path)
            steps[b] = tuple([(e, out, into) for e, into, out in reversed(path)])
    return match, steps, fixed, transit_ports


# -- the views against the references -----------------------------------------------

def assert_views_match(d):
    assert arcs_of(d) == ref_arcs(d)
    assert port_ends(d) == ref_port_ends(d)
    visits = ref_visits(d, CrossVisit, d.crossings)
    assert crossing_visits(d) == visits
    assert visit_pairs(d) == visits and all(len(v) == 2 for v in visits.values())
    assert transit_visits(d) == ref_visits(d, TransitVisit, d.transits)
    assert event_walk(d).steps == [ref_transit_steps(d, ci)
                                   for ci in range(len(d.components))]
    con = br._Contraction(d)
    assert (con.match, con.steps, con.fixed, con.transit_ports) == ref_contraction(d)


def test_examples_and_mirrors():
    for name, n in corpus.SERIES:
        d = example(name, n).diagram
        assert_views_match(replace(d))
        assert_views_match(replace(mirror(d)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(corpus.starts()), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_fuzzed_diagrams(start, seed, many_transits):
    steps, caps = ((60, dict(max_crossings=8, max_transits=40)) if many_transits
                   else (25, dict(max_crossings=7, max_transits=12)))
    d, _trace = mv.fuzz(start[1].diagram, steps, seed=seed, **caps)
    assert_views_match(replace(d))


def test_fuzzed_diagrams_with_38_to_42_transits():
    counts = set()
    for base in corpus.SMALL:
        for seed in range(2):
            d, _trace = mv.fuzz(example(*base).diagram, 60, seed=seed, max_crossings=8,
                                max_transits=40)
            counts.add(len(d.transits))
            assert_views_match(replace(d))
    assert {38, 40, 42} <= counts


# -- LK, co and component classes against the loops cut at each crossing ------------

def _add(acc, key, n):
    acc[key] = acc.get(key, 0) + n


def ref_LK(d, conn):
    """Once round each component from just after the crossing, concatenated."""
    acc = {}
    for c, (v1, v2) in ref_visits(d, CrossVisit, d.crossings).items():
        if v1[0] != v2[0]:
            steps = (ref_transit_steps(d, v1[0], v1[1] + 1)
                     + ref_transit_steps(d, v2[0], v2[1] + 1))
            _add(acc, loop_class(conn, steps), crossing_sign(d, c))
    return PiElement(acc)


def ref_co(d, conn):
    """The two lobes at each crossing, from the transit steps between its visits."""
    g = conn.group
    knot, one = loop_class(conn, ref_transit_steps(d, 0)), conj_class(g, g.identity())
    acc = {}
    for c, ((_, i), (_, j)) in ref_visits(d, CrossVisit, d.crossings).items():
        sign = crossing_sign(d, c)
        k1 = loop_class(conn, ref_transit_steps(d, 0, i + 1, j))
        k2 = loop_class(conn, ref_transit_steps(d, 0, j + 1, i))
        for key, n in (((k1, k2), sign), ((k2, k1), sign),
                       ((knot, one), -sign), ((one, knot), -sign)):
            _add(acc, key, n)
    return TensorElement(acc)


def assert_classes_match(d, conn):
    g = conn.group
    for ci in range(len(d.components)):
        ref = loop_class(conn, ref_transit_steps(d, ci))
        assert (PiElement({component_class(d, conn, ci): 1}).to_text(g)
                == PiElement({ref: 1}).to_text(g)), ci
    if len(d.components) == 2:
        assert LK(d, conn).to_text(g) == ref_LK(d, conn).to_text(g)
    if len(d.components) == 1:
        assert co(d, conn).to_text(g) == ref_co(d, conn).to_text(g)


def _variants(d):
    """d, its mirror, and each with one component reversed."""
    out = [d, mirror(d)]
    return out + [reverse_component(e, ci) for e in out for ci in range(len(d.components))]


def test_classes_of_the_examples_mirrors_and_reversals():
    for name, n in corpus.SMALL:
        b = example(name, n)
        for d in _variants(b.diagram):
            assert_classes_match(d, b.connection)


def test_classes_of_fuzzed_diagrams():
    for base in corpus.SMALL:
        b = example(*base)
        for seed in range(5):
            d, _trace = mv.fuzz(b.diagram, 40, seed=seed, max_crossings=8, max_transits=24)
            for v in _variants(d):
                assert_classes_match(v, b.connection)


# -- faults of unvalidated diagrams -----------------------------------------------

def _with_events(d, ci, events):
    comps = list(d.components)
    comps[ci] = replace(comps[ci], events=tuple(events))
    return replace(d, components=tuple(comps))


def _readers(bundle):
    return (wri, lk, sc, lambda d: LK(d, bundle.connection), br.bracket)


def test_an_undeclared_crossing_is_a_diagram_error():
    b = example("Ln", 1)
    events = list(b.diagram.components[0].events)
    events[0] = CrossVisit("nope", events[0].enter)
    d = _with_events(b.diagram, 0, events)
    for reader in _readers(b):
        with pytest.raises(DiagramError, match=r"^component 0: unknown crossing 'nope'$"):
            reader(d)


def test_a_crossing_visited_three_times_is_a_diagram_error():
    b = example("Ln", 1)
    events = list(b.diagram.components[0].events)
    assert [ev.crossing for ev in events[:2]] == ["c1", "c2"]
    events[1] = CrossVisit("c1", events[1].enter)
    d = _with_events(b.diagram, 0, events)
    for reader in _readers(b):
        with pytest.raises(DiagramError, match=r"^crossing 'c1' visited 3 times, expected 2$"):
            reader(d)


def test_an_undeclared_transit_is_a_diagram_error():
    # component_class read the transit's entry, a KeyError, before the walk's fault
    b = example("Ln", 1)
    events = list(b.diagram.components[0].events)
    i = next(i for i, ev in enumerate(events) if isinstance(ev, TransitVisit))
    events[i] = TransitVisit("nope", events[i].enter)
    d = _with_events(b.diagram, 0, events)
    for reader in _readers(b) + (lambda d: component_class(d, b.connection, 0),):
        with pytest.raises(DiagramError, match=r"^component 0: unknown transit 'nope'$"):
            reader(d)
