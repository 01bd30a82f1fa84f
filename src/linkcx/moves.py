"""The local move calculus on dotted diagrams.

Nine basic moves and their inverses, as local rewrites:

  M1p / M1m    insert a kink whose crossing has sign +1 / -1
  M1pi / M1mi  delete such a kink
  M2 / M2i     slide one strand over another / remove a cancelling bigon
  M3 / M3i     triangle slide (self-inverse rewrite, two kind names)
  M4 / M4i     push an arc across an edge and back / retract the tongue
  M5p / M5m    carry a crossing across an edge, both dot variants;
               each kind covers the push and the retract direction
  M6 / M6i     exchange two adjacent transits meeting three branches
  M7           reroute an arc around a vertex along its link (self-inverse)

Sites are plain data and serialize as JSON fingerprints, one move per
trace line.  ``find_sites`` returns every candidate whose application
yields a valid diagram; ``apply`` performs the rewrite and validates.
The fuzzer draws kinds and candidate sites from a seeded generator, so
identical (diagram, steps, seed) always reproduce the same trace.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .diagram import (Arc, Component, Crossing, CrossVisit, Diagram, FaceMap,
                      Transit, TransitVisit, arcs_of, crossing_visits,
                      edge_transit_order, validate_diagram)
from .errors import DiagramError, MoveError
from .invariants import _sign_from_visits, _visit_pairs
from .twocomplex import Incidence, PointClass, TwoComplex, edge_class, vertex_link

__all__ = ["MoveKind", "MoveSite", "find_sites", "apply", "fuzz",
           "serialize_trace", "parse_trace"]


class MoveKind(str, Enum):
    M1P = "M1p"
    M1M = "M1m"
    M1P_INV = "M1pi"
    M1M_INV = "M1mi"
    M2 = "M2"
    M2_INV = "M2i"
    M3 = "M3"
    M3_INV = "M3i"
    M4 = "M4"
    M4_INV = "M4i"
    M5P = "M5p"
    M5M = "M5m"
    M6 = "M6"
    M6_INV = "M6i"
    M7 = "M7"


@dataclass(frozen=True)
class MoveSite:
    kind: MoveKind
    data: tuple                     # sorted (key, value) pairs, JSON-compatible

    @classmethod
    def make(cls, kind: MoveKind, **data) -> "MoveSite":
        return cls(kind, tuple(sorted(data.items())))

    def get(self, key):
        for k, v in self.data:
            if k == key:
                return v
        raise MoveError(f"site for {self.kind.value} is missing {key!r}")

    def fingerprint(self) -> str:
        return json.dumps(dict(self.data), sort_keys=True)

    @classmethod
    def from_fingerprint(cls, kind: MoveKind, text: str) -> "MoveSite":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a site is a JSON object")
        return cls(kind, tuple(sorted((k, _dejson(v)) for k, v in data.items())))


def _dejson(v):
    if isinstance(v, list):
        return tuple(_dejson(x) for x in v)
    return v


def _inc(v) -> Incidence:
    return (v[0], int(v[1]))


# -- fresh ids and positions ----------------------------------------------

def _fresh(existing, prefix: str, count: int = 1) -> List[str]:
    out = []
    i = 1
    taken = set(existing)
    while len(out) < count:
        name = f"{prefix}{i}"
        if name not in taken:
            taken.add(name)
            out.append(name)
        i += 1
    return out


def _positions_in_gap(d: Diagram, edge: str, slot: int, count: int) -> List[Fraction]:
    order = edge_transit_order(d, edge)
    if not 0 <= slot <= len(order):
        raise MoveError(f"slot {slot} out of range for edge {edge!r}")
    lo = d.transits[order[slot - 1]].pos if slot > 0 else Fraction(0)
    hi = d.transits[order[slot]].pos if slot < len(order) else Fraction(1)
    step = (hi - lo) / (count + 1)
    return [lo + step * (i + 1) for i in range(count)]


# -- component surgery -----------------------------------------------------

def _replace_arc(comp: Component, ai: int, new_events: Sequence,
                 new_faces: Sequence[str]) -> Component:
    """Split arc ai, inserting events; new_faces lists all resulting arcs."""
    if len(new_faces) != len(new_events) + 1:
        raise MoveError("arc replacement needs len(events) + 1 faces")
    k = len(comp.events)
    if k == 0:
        if new_faces[0] != new_faces[-1]:
            raise MoveError("splitting a circle needs matching end faces")
        return Component(tuple(new_events), tuple(new_faces[1:]), comp.directed)
    events = comp.events[:ai + 1] + tuple(new_events) + comp.events[ai + 1:]
    faces = comp.arc_faces[:ai] + tuple(new_faces) + comp.arc_faces[ai + 1:]
    return Component(events, faces, comp.directed)


def _remove_events(comp: Component, idxs: Iterable[int]) -> Component:
    """Drop events, merging the arcs around each; faces must agree."""
    idxs = set(idxs)
    k = len(comp.events)
    if not idxs:
        return comp
    survivors = [i for i in range(k) if i not in idxs]
    if not survivors:
        face = comp.arc_faces[0]
        if any(f != face for f in comp.arc_faces):
            raise MoveError("cannot merge arcs lying in different faces")
        return Component((), (face,), comp.directed)
    events = tuple(comp.events[i] for i in survivors)
    faces = []
    for pos, i in enumerate(survivors):
        j = survivors[(pos + 1) % len(survivors)]
        merged = {comp.arc_faces[t % k] for t in range(i, i + ((j - i) % k or k))}
        if len(merged) != 1:
            raise MoveError("cannot merge arcs lying in different faces")
        faces.append(merged.pop())
    return Component(events, tuple(faces), comp.directed)


def _replace_event_block(comp: Component, start: int, length: int,
                         new_events: Sequence, inner_faces: Sequence[str]) -> Component:
    """Replace `length` consecutive events by new ones; flanking arcs stay."""
    k = len(comp.events)
    if length < 1 or length > k:
        raise MoveError("bad block length")
    if len(inner_faces) != max(len(new_events) - 1, 0):
        raise MoveError("block replacement needs len(events) - 1 inner faces")
    if not new_events:
        return _remove_events(comp, [(start + i) % k for i in range(length)])
    if start + length <= k:
        events = (comp.events[:start] + tuple(new_events)
                  + comp.events[start + length:])
        faces = (comp.arc_faces[:start] + tuple(inner_faces)
                 + (comp.arc_faces[start + length - 1],)
                 + comp.arc_faces[start + length:])
        return Component(events, faces, comp.directed)
    # wrapped block: rotate so it becomes contiguous, accept the new listing
    rot = (start + length) % k
    rotated = Component(comp.events[rot:] + comp.events[:rot],
                        comp.arc_faces[rot:] + comp.arc_faces[:rot],
                        comp.directed)
    return _replace_event_block(rotated, (start - rot) % k, length,
                                new_events, inner_faces)


def _with_component(d: Diagram, ci: int, comp: Component) -> Diagram:
    comps = list(d.components)
    comps[ci] = comp
    return replace(d, components=tuple(comps))


# -- kink moves (M1) --------------------------------------------------------

def _m1_dot(kind: MoveKind, bend: int) -> int:
    positive = kind in (MoveKind.M1P, MoveKind.M1P_INV)
    return (0 if bend == 1 else 1) if positive else (1 if bend == 1 else 0)


def _candidates_m1(d: Diagram, kind: MoveKind):
    for ci, comp in enumerate(d.components):
        n_arcs = max(len(comp.events), 1)
        for ai in range(n_arcs):
            for bend in (1, 3):
                yield MoveSite.make(kind, comp=ci, arc=ai, bend=bend)


def _apply_m1_insert(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    ci, ai, bend = site.get("comp"), site.get("arc"), site.get("bend")
    if bend not in (1, 3):
        raise MoveError("kink bend must be 1 or 3")
    comp = d.components[ci]
    face = comp.arc_faces[ai]
    (name,) = _fresh(d.crossings, "c")
    crossings = dict(d.crossings)
    crossings[name] = Crossing(face, _m1_dot(kind, bend))
    events = [CrossVisit(name, 0), CrossVisit(name, bend)]
    comp2 = _replace_arc(comp, ai, events, [face] * 3)
    return replace(_with_component(d, ci, comp2), crossings=crossings)


def _candidates_m1_inv(d: Diagram, kind: MoveKind):
    want = 1 if kind is MoveKind.M1P_INV else -1
    pairs = _visit_pairs(d)
    for ci, comp in enumerate(d.components):
        k = len(comp.events)
        for i in range(k):
            a, b = comp.events[i], comp.events[(i + 1) % k]
            if (isinstance(a, CrossVisit) and isinstance(b, CrossVisit)
                    and a.crossing == b.crossing):
                if _sign_from_visits(d, a.crossing, *pairs[a.crossing]) == want:
                    yield MoveSite.make(kind, comp=ci, event=i)


def _apply_m1_delete(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    ci, i = site.get("comp"), site.get("event")
    comp = d.components[ci]
    k = len(comp.events)
    a, b = comp.events[i], comp.events[(i + 1) % k]
    if not (isinstance(a, CrossVisit) and isinstance(b, CrossVisit)
            and a.crossing == b.crossing):
        raise MoveError("stale kink site")
    sign = _sign_from_visits(d, a.crossing, *_visit_pairs(d)[a.crossing])
    if sign != (1 if kind is MoveKind.M1P_INV else -1):
        raise MoveError("kink sign does not match the move kind")
    crossings = dict(d.crossings)
    del crossings[a.crossing]
    comp2 = _remove_events(comp, [i, (i + 1) % k])
    return replace(_with_component(d, ci, comp2), crossings=crossings)


# -- slide moves (M2) --------------------------------------------------------

def _candidates_m2(d: Diagram, kind: MoveKind):
    arcs = arcs_of(d)
    by_face: Dict[str, List[Arc]] = {}
    for arc in arcs:
        by_face.setdefault(arc.face, []).append(arc)
    for group in by_face.values():
        for a in group:
            for b in group:
                same = (a.comp, a.index) == (b.comp, b.index)
                for over in ("a", "b"):
                    for anti in (False, True):
                        if same and not anti:
                            continue
                        yield MoveSite.make(kind, comp_a=a.comp, arc_a=a.index,
                                            comp_b=b.comp, arc_b=b.index,
                                            over=over, anti=anti)


def _apply_m2_insert(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    ca, aa = site.get("comp_a"), site.get("arc_a")
    cb, ab = site.get("comp_b"), site.get("arc_b")
    over, anti = site.get("over"), site.get("anti")
    face = d.components[ca].arc_faces[aa]
    if face != d.components[cb].arc_faces[ab]:
        raise MoveError("strands must share a face")
    x1, x2 = _fresh(d.crossings, "c", 2)
    dot = 1 if over == "a" else 0
    crossings = dict(d.crossings)
    crossings[x1] = Crossing(face, dot)
    crossings[x2] = Crossing(face, dot)
    ev_a = [CrossVisit(x1, 1), CrossVisit(x2, 3)]
    ev_b = ([CrossVisit(x1, 2), CrossVisit(x2, 2)] if not anti
            else [CrossVisit(x2, 0), CrossVisit(x1, 0)])
    if (ca, aa) == (cb, ab):
        comp = _replace_arc(d.components[ca], aa, ev_a + ev_b, [face] * 5)
        return replace(_with_component(d, ca, comp), crossings=crossings)
    if ca == cb:
        first, second = ((aa, ev_a), (ab, ev_b))
        if aa < ab:
            first, second = second, first
        comp = _replace_arc(d.components[ca], first[0], first[1], [face] * 3)
        comp = _replace_arc(comp, second[0], second[1], [face] * 3)
        return replace(_with_component(d, ca, comp), crossings=crossings)
    d2 = _with_component(d, ca, _replace_arc(d.components[ca], aa, ev_a, [face] * 3))
    d2 = _with_component(d2, cb, _replace_arc(d2.components[cb], ab, ev_b, [face] * 3))
    return replace(d2, crossings=crossings)


def _candidates_m2_inv(d: Diagram, kind: MoveKind):
    arcs = arcs_of(d)
    between: Dict[frozenset, List[Arc]] = {}
    for arc in arcs:
        if arc.src is None or arc.src[0] != "x" or arc.dst[0] != "x":
            continue
        if arc.src[1] == arc.dst[1]:
            continue
        between.setdefault(frozenset((arc.src[1], arc.dst[1])), []).append(arc)
    for pair, group in sorted(between.items(), key=lambda kv: sorted(kv[0])):
        if len(group) < 2:
            continue
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if _bigon_ok(d, a, b):
                    yield MoveSite.make(kind,
                                        arc_a=(a.comp, a.index),
                                        arc_b=(b.comp, b.index))


def _arc_port_at(arc: Arc, crossing: str) -> int:
    for slot in (arc.src, arc.dst):
        if slot[0] == "x" and slot[1] == crossing:
            return slot[2]
    raise MoveError("arc does not touch the crossing")


def _bigon_ok(d: Diagram, a: Arc, b: Arc) -> bool:
    """True when the two arcs bound a bigon of the cancelling kind.

    The pair is removable exactly when one strand runs over the other at
    both crossings and the bigon sector carries the dots at exactly one
    end; a clasp fails one of the two conditions.
    """
    x1, x2 = a.src[1], a.dst[1]
    pa1, pb1 = _arc_port_at(a, x1), _arc_port_at(b, x1)
    pa2, pb2 = _arc_port_at(a, x2), _arc_port_at(b, x2)
    if (pa1 - pb1) % 2 == 0 or (pa2 - pb2) % 2 == 0:
        return False
    over_a_x1 = pa1 % 2 == d.crossings[x1].dot % 2
    over_a_x2 = pa2 % 2 == d.crossings[x2].dot % 2
    if over_a_x1 != over_a_x2:
        return False
    dotted1 = frozenset((pa1, pb1)) in _dotted_pairs(d.crossings[x1].dot)
    dotted2 = frozenset((pa2, pb2)) in _dotted_pairs(d.crossings[x2].dot)
    return dotted1 != dotted2


def _apply_m2_delete(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    key_a, key_b = _dejson(site.get("arc_a")), _dejson(site.get("arc_b"))
    arcs = {(a.comp, a.index): a for a in arcs_of(d)}
    try:
        a, b = arcs[tuple(key_a)], arcs[tuple(key_b)]
    except KeyError:
        raise MoveError("stale bigon site")
    if a.src is None or b.src is None or a.src[0] != "x" or b.src[0] != "x":
        raise MoveError("stale bigon site")
    if frozenset((a.src[1], a.dst[1])) != frozenset((b.src[1], b.dst[1])):
        raise MoveError("arcs do not join the same crossing pair")
    if not _bigon_ok(d, a, b):
        raise MoveError("arcs do not bound a cancelling bigon")
    x1, x2 = a.src[1], a.dst[1]
    crossings = dict(d.crossings)
    del crossings[x1], crossings[x2]
    removal: Dict[int, set] = {}
    for arc in (a, b):
        k = len(d.components[arc.comp].events)
        removal.setdefault(arc.comp, set()).update(
            {arc.index, (arc.index + 1) % k})
    d2 = d
    for ci, idxs in removal.items():
        d2 = _with_component(d2, ci, _remove_events(d.components[ci], idxs))
    return replace(d2, crossings=crossings)


# -- triangle move (M3) -------------------------------------------------------

def _triangles(d: Diagram):
    seen = set()
    for f in sorted(d.complex.faces):
        fm = FaceMap(d, f)
        if not fm.ok:
            continue
        for orbit in fm.orbits():
            if len(orbit) != 3:
                continue
            arcs = [fm.arc_of[i] for i in orbit]
            if any(a is None for a in arcs):
                continue
            nodes = [fm.darts[i][0] for i in orbit]
            if any(n[0] != "x" for n in nodes):
                continue
            if len(set(arcs)) != 3 or len({n[1] for n in nodes}) != 3:
                continue
            key = frozenset(arcs)
            if key in seen:
                continue
            seen.add(key)
            yield tuple(sorted(arcs))


def _strand_extremal(d: Diagram, arc_key) -> Optional[bool]:
    """True if the strand through the arc is over at both its crossings,
    False if under at both, None if mixed."""
    arcs = {(a.comp, a.index): a for a in arcs_of(d)}
    arc = arcs[arc_key]
    x1, x2 = arc.src[1], arc.dst[1]
    over1 = arc.src[2] % 2 == d.crossings[x1].dot % 2
    over2 = arc.dst[2] % 2 == d.crossings[x2].dot % 2
    if over1 and over2:
        return True
    if not over1 and not over2:
        return False
    return None


def _candidates_m3(d: Diagram, kind: MoveKind):
    for arcs in _triangles(d):
        for slide in range(3):
            if _strand_extremal(d, arcs[slide]) is not None:
                yield MoveSite.make(kind, arcs=arcs, slide=slide)


def _apply_m3(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    arc_keys = [tuple(a) for a in _dejson(site.get("arcs"))]
    slide = site.get("slide")
    arcs = {(a.comp, a.index): a for a in arcs_of(d)}
    try:
        tri = [arcs[k] for k in arc_keys]
    except KeyError:
        raise MoveError("stale triangle site")
    for arc in tri:
        if arc.src is None or arc.src[0] != "x" or arc.dst[0] != "x":
            raise MoveError("stale triangle site")
    crossings = {arc.src[1] for arc in tri} | {arc.dst[1] for arc in tri}
    if len(crossings) != 3:
        raise MoveError("arcs do not form a triangle")
    if _strand_extremal(d, arc_keys[slide]) is None:
        raise MoveError("the sliding strand must be over or under both others")
    # swap the two events flanking each triangle arc; ports and dots stay
    swaps: Dict[int, List[int]] = {}
    for arc in tri:
        swaps.setdefault(arc.comp, []).append(arc.index)
    d2 = d
    for ci, starts in swaps.items():
        comp = d.components[ci]
        events = list(comp.events)
        k = len(events)
        for i in starts:
            events[i], events[(i + 1) % k] = events[(i + 1) % k], events[i]
        d2 = _with_component(d2, ci, Component(tuple(events), comp.arc_faces,
                                               comp.directed))
    return d2


# -- tongue moves (M4) ---------------------------------------------------------

def _edge_sides(cx: TwoComplex, face: str) -> List[Tuple[str, Incidence]]:
    """(edge, incidence) for each non-boundary side of the face."""
    out = []
    for j, (e, _dir) in enumerate(cx.faces[face]):
        if edge_class(cx, e).kind is not PointClass.BOUNDARY:
            out.append((e, (face, j)))
    return out


def _candidates_m4(d: Diagram, kind: MoveKind):
    cx = d.complex
    for ci, comp in enumerate(d.components):
        n_arcs = max(len(comp.events), 1)
        for ai in range(n_arcs):
            face = comp.arc_faces[ai]
            for e, s1 in _edge_sides(cx, face):
                slots = len(edge_transit_order(d, e)) + 1
                for s2 in cx.incidences[e]:
                    if s2 == s1:
                        continue
                    for slot in range(slots):
                        yield MoveSite.make(kind, comp=ci, arc=ai, edge=e,
                                            s1=s1, s2=s2, slot=slot)


def _apply_m4_insert(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    ci, ai = site.get("comp"), site.get("arc")
    e = site.get("edge")
    s1, s2 = _inc(site.get("s1")), _inc(site.get("s2"))
    slot = site.get("slot")
    comp = d.components[ci]
    f1 = comp.arc_faces[ai]
    if s1 not in d.complex.incidences.get(e, ()) or s2 not in d.complex.incidences[e]:
        raise MoveError("bad edge incidences")
    if s1[0] != f1:
        raise MoveError("the arc does not run in the side's face")
    p1, p2 = _positions_in_gap(d, e, slot, 2)
    ta, tb = _fresh(d.transits, "t", 2)
    transits = dict(d.transits)
    transits[ta] = Transit(e, p1, (s1, s2))
    transits[tb] = Transit(e, p2, (s1, s2))
    comp2 = _replace_arc(comp, ai, [TransitVisit(ta, 0), TransitVisit(tb, 1)],
                         [f1, s2[0], f1])
    return replace(_with_component(d, ci, comp2), transits=transits)


def _candidates_m4_inv(d: Diagram, kind: MoveKind):
    for ci, comp in enumerate(d.components):
        k = len(comp.events)
        for i in range(k):
            a, b = comp.events[i], comp.events[(i + 1) % k]
            if not (isinstance(a, TransitVisit) and isinstance(b, TransitVisit)):
                continue
            t1, t2 = d.transits[a.transit], d.transits[b.transit]
            if t1.edge != t2.edge or a.transit == b.transit:
                continue
            if set(t1.sides) != set(t2.sides):
                continue
            if t1.sides[1 - a.enter] != t2.sides[b.enter]:
                continue
            order = edge_transit_order(d, t1.edge)
            if abs(order.index(a.transit) - order.index(b.transit)) != 1:
                continue
            yield MoveSite.make(kind, comp=ci, event=i)


def _apply_m4_delete(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    ci, i = site.get("comp"), site.get("event")
    comp = d.components[ci]
    k = len(comp.events)
    a, b = comp.events[i], comp.events[(i + 1) % k]
    if not (isinstance(a, TransitVisit) and isinstance(b, TransitVisit)):
        raise MoveError("stale tongue site")
    t1, t2 = d.transits[a.transit], d.transits[b.transit]
    if (t1.edge != t2.edge or set(t1.sides) != set(t2.sides)
            or t1.sides[1 - a.enter] != t2.sides[b.enter]):
        raise MoveError("events do not form a tongue")
    order = edge_transit_order(d, t1.edge)
    if abs(order.index(a.transit) - order.index(b.transit)) != 1:
        raise MoveError("tongue transits are not adjacent on the edge")
    transits = dict(d.transits)
    del transits[a.transit], transits[b.transit]
    comp2 = _remove_events(comp, [i, (i + 1) % k])
    return replace(_with_component(d, ci, comp2), transits=transits)


# -- crossing push (M5) ----------------------------------------------------------

def _dotted_pairs(dot: int) -> set:
    return {frozenset(((dot + 0) % 4, (dot + 1) % 4)),
            frozenset(((dot + 2) % 4, (dot + 3) % 4))}


def _dot_from_pairs(order: Sequence[int], pairs: set) -> int:
    """Recover the dot flag for a new ccw port order from old port-id pairs."""
    for dot in (0, 1):
        cand = {frozenset((order[dot % 4], order[(dot + 1) % 4])),
                frozenset((order[(dot + 2) % 4], order[(dot + 3) % 4]))}
        if cand == pairs:
            return dot
    raise MoveError("dots do not transport along the move")


def _m5_kind_of(dot: int, fan_rot: int) -> MoveKind:
    middle = frozenset(((fan_rot + 1) % 4, (fan_rot + 2) % 4))
    return MoveKind.M5P if middle in _dotted_pairs(dot) else MoveKind.M5M


def _candidates_m5(d: Diagram, kind: MoveKind):
    cx = d.complex
    for c in sorted(d.crossings):
        cr = d.crossings[c]
        for e, s1 in _edge_sides(cx, cr.face):
            slots = len(edge_transit_order(d, e)) + 1
            for s2 in cx.incidences[e]:
                if s2 == s1:
                    continue
                for rot in range(4):
                    if _m5_kind_of(cr.dot, rot) is not kind:
                        continue
                    for slot in range(slots):
                        yield MoveSite.make(kind, crossing=c, mode="push",
                                            s1=s1, s2=s2, slot=slot, rot=rot)
    yield from _candidates_m5_retract(d, kind)


def _candidates_m5_retract(d: Diagram, kind: MoveKind):
    arcs = {(a.comp, a.index): a for a in arcs_of(d)}
    port_arc: Dict[tuple, Arc] = {}
    for arc in arcs.values():
        if arc.src is None:
            continue
        for slot in (arc.src, arc.dst):
            if slot[0] == "x":
                port_arc[(slot[1], slot[2])] = arc
    for c in sorted(d.crossings):
        info = _retract_info(d, c, port_arc)
        if info is None:
            continue
        fan_rot = info["fan_rot"]
        if _m5_kind_of(d.crossings[c].dot, fan_rot) is kind:
            yield MoveSite.make(kind, crossing=c, mode="retract")


def _retract_info(d: Diagram, c: str, port_arc) -> Optional[dict]:
    """Check that all four strands of c immediately transit one edge."""
    cr = d.crossings[c]
    transit_of = {}
    for p in range(4):
        arc = port_arc.get((c, p))
        if arc is None:
            return None
        other = arc.dst if arc.src == ("x", c, p) else arc.src
        if other is None or other[0] != "t":
            return None
        transit_of[p] = (other[1], other[2])
    tids = [transit_of[p][0] for p in range(4)]
    if len(set(tids)) != 4:
        return None
    trs = [d.transits[t] for t in tids]
    if len({tr.edge for tr in trs}) != 1:
        return None
    edge = trs[0].edge
    near = {transit_of[p][0]: d.transits[transit_of[p][0]].sides[transit_of[p][1]]
            for p in range(4)}
    far = {t: d.transits[t].sides[1 - k] for t, k in
           ((transit_of[p][0], transit_of[p][1]) for p in range(4))}
    if len(set(near.values())) != 1 or len(set(far.values())) != 1:
        return None
    s2 = next(iter(near.values()))
    s1 = next(iter(far.values()))
    if s2[0] != cr.face:
        return None
    order = edge_transit_order(d, edge)
    ranks = sorted(order.index(t) for t in tids)
    if ranks != list(range(ranks[0], ranks[0] + 4)):
        return None
    # an attached fan meets its side in walk order
    by_rank = sorted(range(4), key=lambda p: d.transits[transit_of[p][0]].pos)
    word = d.complex.faces[cr.face]
    dir2 = word[s2[1]][1]
    fan = by_rank if dir2 > 0 else by_rank[::-1]
    if (fan[1] - fan[0]) % 4 != 1 or (fan[2] - fan[1]) % 4 != 1:
        return None
    return {"edge": edge, "s1": s1, "s2": s2, "transit_of": transit_of,
            "fan_rot": fan[0], "fan": fan}


def _relocated_crossing(d: Diagram, c: str, port_positions: Dict[int, Fraction],
                        target: Incidence) -> Tuple[Dict[int, int], int]:
    """New ccw port order after carrying c across an edge.

    ``port_positions`` maps old ports to their edge positions; the new
    counterclockwise order is the walk order of the target side.
    Returns (old port -> new port, new dot flag).
    """
    word = d.complex.faces[target[0]]
    direction = word[target[1]][1]
    by_pos = sorted(port_positions, key=lambda p: port_positions[p])
    ccw = by_pos if direction > 0 else by_pos[::-1]
    new_of = {old: new for new, old in enumerate(ccw)}
    dot = _dot_from_pairs(ccw, _dotted_pairs(d.crossings[c].dot))
    return new_of, dot


def _apply_m5(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    if site.get("mode") == "push":
        return _apply_m5_push(d, kind, site)
    return _apply_m5_retract(d, kind, site)


def _apply_m5_push(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    c = site.get("crossing")
    s1, s2 = _inc(site.get("s1")), _inc(site.get("s2"))
    slot, rot = site.get("slot"), site.get("rot")
    cr = d.crossings[c]
    if _m5_kind_of(cr.dot, rot) is not kind:
        raise MoveError("dot variant does not match the move kind")
    word = d.complex.faces[cr.face]
    if s1[0] != cr.face:
        raise MoveError("push side must bound the crossing's face")
    e = word[s1[1]][0]
    if s2 not in d.complex.incidences[e] or s2 == s1:
        raise MoveError("bad target incidence")
    dir1 = word[s1[1]][1]
    positions = _positions_in_gap(d, e, slot, 4)
    # the fan ports meet the side opposite to its walk order
    fan = [(rot + i) % 4 for i in range(4)]
    ordered = fan[::-1] if dir1 > 0 else fan
    port_pos = {p: positions[i] for i, p in enumerate(ordered)}
    names = _fresh(d.transits, "t", 4)
    transit_of = {p: names[i] for i, p in enumerate(sorted(port_pos))}
    transits = dict(d.transits)
    for p, t in transit_of.items():
        transits[t] = Transit(e, port_pos[p], (s1, s2))
    new_of, dot = _relocated_crossing(d, c, port_pos, s2)
    crossings = dict(d.crossings)
    crossings[c] = Crossing(s2[0], dot)
    d2 = replace(d, crossings=crossings, transits=transits)
    visits = sorted(crossing_visits(d)[c], key=lambda v: v[1], reverse=True)
    for ci, ei in visits:
        comp = d2.components[ci]
        ev = comp.events[ei]
        block = [TransitVisit(transit_of[ev.enter], 0),
                 CrossVisit(c, new_of[ev.enter]),
                 TransitVisit(transit_of[(ev.enter + 2) % 4], 1)]
        comp2 = _replace_event_block(comp, ei, 1, block, [s2[0], s2[0]])
        d2 = _with_component(d2, ci, comp2)
    return d2


def _apply_m5_retract(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    c = site.get("crossing")
    arcs = {(a.comp, a.index): a for a in arcs_of(d)}
    port_arc: Dict[tuple, Arc] = {}
    for arc in arcs.values():
        if arc.src is None:
            continue
        for slot in (arc.src, arc.dst):
            if slot[0] == "x":
                port_arc[(slot[1], slot[2])] = arc
    info = _retract_info(d, c, port_arc)
    if info is None:
        raise MoveError("crossing is not retractable across an edge")
    if _m5_kind_of(d.crossings[c].dot, info["fan_rot"]) is not kind:
        raise MoveError("dot variant does not match the move kind")
    transit_of = info["transit_of"]
    s1, s2 = info["s1"], info["s2"]
    dir1 = d.complex.faces[s1[0]][s1[1]][1]
    dir2 = d.complex.faces[s2[0]][s2[1]][1]
    if dir1 * dir2 < 0:
        # orientation-consistent gluing: the cyclic order carries over
        new_of = {p: p for p in range(4)}
        dot = d.crossings[c].dot
    else:
        # flip gluing: re-encode through the reflection
        new_of = {p: (4 - p) % 4 for p in range(4)}
        dot = 1 - d.crossings[c].dot
    crossings = dict(d.crossings)
    crossings[c] = Crossing(s1[0], dot)
    transits = dict(d.transits)
    for p in range(4):
        del transits[transit_of[p][0]]
    d2 = replace(d, crossings=crossings, transits=transits)
    visits = sorted(crossing_visits(d)[c], key=lambda v: v[1], reverse=True)
    for ci, ei in visits:
        comp = d2.components[ci]
        k = len(comp.events)
        ev = comp.events[ei]
        prev_ev, next_ev = comp.events[(ei - 1) % k], comp.events[(ei + 1) % k]
        if not (isinstance(prev_ev, TransitVisit) and isinstance(next_ev, TransitVisit)
                and prev_ev.transit == transit_of[ev.enter][0]
                and next_ev.transit == transit_of[(ev.enter + 2) % 4][0]):
            raise MoveError("strand does not pass straight through the edge")
        comp2 = _replace_event_block(comp, (ei - 1) % k, 3,
                                     [CrossVisit(c, new_of[ev.enter])], [])
        d2 = _with_component(d2, ci, comp2)
    return d2


# -- transit exchange (M6) -----------------------------------------------------

def _candidates_m6(d: Diagram, kind: MoveKind):
    for e in sorted({tr.edge for tr in d.transits.values()}):
        order = edge_transit_order(d, e)
        for i in range(len(order) - 1):
            t1, t2 = order[i], order[i + 1]
            branches = set(d.transits[t1].sides) | set(d.transits[t2].sides)
            if len(branches) >= 3:
                yield MoveSite.make(kind, edge=e, t1=t1, t2=t2)


def _apply_m6(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    t1, t2 = site.get("t1"), site.get("t2")
    tr1, tr2 = d.transits[t1], d.transits[t2]
    if tr1.edge != tr2.edge:
        raise MoveError("transits lie on different edges")
    order = edge_transit_order(d, tr1.edge)
    if abs(order.index(t1) - order.index(t2)) != 1:
        raise MoveError("transits are not adjacent on the edge")
    if len(set(tr1.sides) | set(tr2.sides)) < 3:
        raise MoveError("exchange needs three pairwise-distinct branches")
    transits = dict(d.transits)
    transits[t1] = replace(tr1, pos=tr2.pos)
    transits[t2] = replace(tr2, pos=tr1.pos)
    return replace(d, transits=transits)


# -- vertex move (M7) -----------------------------------------------------------

CycleStep = Tuple[Tuple[str, int], Tuple[str, int]]   # (edge-end node, corner)


def _link_cycles(cx: TwoComplex, v: str, max_len: int = 8) -> List[Tuple[CycleStep, ...]]:
    """Embedded cycles of the vertex link, canonical up to rotation/reflection."""
    graph = vertex_link(cx, v)
    links = [((a, b), (f, i)) for a, b, f, i in graph.links]
    out = {}

    def canon(cycle: Tuple[CycleStep, ...]):
        m = len(cycle)

        def rotations(seq):
            return [tuple(seq[i:] + seq[:i]) for i in range(len(seq))]

        rev = []
        for j in range(m):
            node = cycle[(j + 1) % m][0]
            corner = cycle[j][1]
            rev.append((node, corner))
        rev.reverse()
        cands = rotations(list(cycle)) + rotations(rev)
        return min(cands)

    def emit(cycle: List[CycleStep]):
        key = canon(tuple(cycle))
        out.setdefault(key, tuple(cycle))

    # loops in the link graph are one-step cycles
    for (a, b), corner in links:
        if a == b:
            emit([(a, corner)])

    def dfs(path_nodes: List[Tuple[str, int]], path_corners: List[Tuple[str, int]],
            used_corners: set):
        if len(path_nodes) > max_len:
            return
        cur = path_nodes[-1]
        for (a, b), corner in links:
            if corner in used_corners or a == b:
                continue
            if cur not in (a, b):
                continue
            nxt = b if cur == a else a
            if nxt == path_nodes[0] and len(path_nodes) >= 2:
                emit(list(zip(path_nodes, path_corners + [corner])))
            if nxt in path_nodes:
                continue
            dfs(path_nodes + [nxt], path_corners + [corner], used_corners | {corner})

    for node in graph.nodes:
        dfs([node], [], set())
    return [out[k] for k in sorted(out)]


def _corner_flank(cx: TwoComplex, corner: Tuple[str, int],
                  node: Tuple[str, int]) -> List[Incidence]:
    """Incidences of the corner's face along the given edge-end."""
    f, i = corner
    word = cx.faces[f]
    m = len(word)
    out = []
    e1, d1 = word[i]
    if (e1, 1 if d1 > 0 else 0) == node:
        out.append((f, i))
    e2, d2 = word[(i + 1) % m]
    if (e2, 0 if d2 > 0 else 1) == node:
        out.append((f, (i + 1) % m))
    return out


def _vertex_end_rank_ok(d: Diagram, transit: str, node: Tuple[str, int]) -> bool:
    """The transit is the closest one to the vertex end of its edge."""
    order = edge_transit_order(d, d.transits[transit].edge)
    return (order[0] == transit) if node[1] == 0 else (order[-1] == transit)


def _near_vertex_position(d: Diagram, edge: str, end: int,
                          taken: Dict[str, List[Fraction]]) -> Fraction:
    existing = [d.transits[t].pos for t in edge_transit_order(d, edge)]
    existing += taken.get(edge, [])
    if end == 0:
        lo = min(existing) if existing else Fraction(1)
        return lo / 2
    hi = max(existing) if existing else Fraction(0)
    return (hi + 1) / 2


def _cycle_path_transits(cx: TwoComplex, cycle: Tuple[CycleStep, ...],
                         entry: int, length: int, forward: bool):
    """Nodes and flanking corner pairs crossed by the complementary path.

    The replaced segment starts in the corner at ``entry`` and crosses
    ``length`` nodes going forward; the complement leaves the same corner
    the other way round.  Returns the crossed (node, corner_before,
    corner_after) triples of the complement, in travel order.
    """
    m = len(cycle)
    steps = []
    if forward:
        # complement runs backward from the entry corner
        pos = entry
        for _ in range(m - length):
            node = cycle[pos][0]
            before = cycle[pos][1]
            after = cycle[(pos - 1) % m][1]
            steps.append((node, before, after))
            pos = (pos - 1) % m
    else:
        pos = entry
        for _ in range(m - length):
            node = cycle[(pos + 1) % m][0]
            before = cycle[pos][1]
            after = cycle[(pos + 1) % m][1]
            steps.append((node, before, after))
            pos = (pos + 1) % m
    return steps


def _candidates_m7(d: Diagram, kind: MoveKind):
    cx = d.complex
    for v in cx.vertices:
        cycles = _link_cycles(cx, v)
        for cyc_idx, cycle in enumerate(cycles):
            m = len(cycle)
            corners = [c for _n, c in cycle]
            # empty runs: reroute an arc across the whole disc
            for ci, comp in enumerate(d.components):
                n_arcs = max(len(comp.events), 1)
                for ai in range(n_arcs):
                    face = comp.arc_faces[ai]
                    for entry, corner in enumerate(corners):
                        if corner[0] != face:
                            continue
                        for forward in (True, False):
                            yield MoveSite.make(kind, vertex=v, cycle=cycle,
                                                comp=ci, arc=ai, entry=entry,
                                                length=0, forward=forward)
            # transit runs following part or all of the cycle
            for ci, comp in enumerate(d.components):
                k = len(comp.events)
                for start in range(k):
                    for r in range(1, m + 1):
                        match = _match_m7_run(d, cycle, ci, start, r)
                        if match is None:
                            break
                        entry, forward = match
                        yield MoveSite.make(kind, vertex=v, cycle=cycle,
                                            comp=ci, arc=start, entry=entry,
                                            length=r, forward=forward)


def _match_m7_run(d: Diagram, cycle, ci: int, start: int, r: int):
    """Match r consecutive transit events against a path along the cycle."""
    comp = d.components[ci]
    k = len(comp.events)
    if k == 0 or r > len(cycle) or r > k:
        return None
    events = [comp.events[(start + i) % k] for i in range(r)]
    if not all(isinstance(ev, TransitVisit) for ev in events):
        return None
    m = len(cycle)
    cx = d.complex
    for entry in range(m):
        for forward in (True, False):
            ok = True
            for j, ev in enumerate(events):
                tr = d.transits[ev.transit]
                if forward:
                    node = cycle[(entry + 1 + j) % m][0]
                    before = cycle[(entry + j) % m][1]
                    after = cycle[(entry + 1 + j) % m][1]
                else:
                    node = cycle[(entry - j) % m][0]
                    before = cycle[(entry - j) % m][1]
                    after = cycle[(entry - 1 - j) % m][1]
                if tr.edge != node[0]:
                    ok = False
                    break
                inc_in, inc_out = tr.sides[ev.enter], tr.sides[1 - ev.enter]
                if inc_in not in _corner_flank(cx, before, node):
                    ok = False
                    break
                if inc_out not in _corner_flank(cx, after, node):
                    ok = False
                    break
                if not _vertex_end_rank_ok(d, ev.transit, node):
                    ok = False
                    break
            if ok:
                return entry, forward
    return None


def _apply_m7(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    v = site.get("vertex")
    cycle = tuple((tuple(n), tuple(c)) for n, c in _dejson(site.get("cycle")))
    cycle = tuple(((n[0], int(n[1])), (c[0], int(c[1]))) for n, c in cycle)
    ci, start = site.get("comp"), site.get("arc")
    entry, r = site.get("entry"), site.get("length")
    forward = site.get("forward") if r == 0 else None
    cx = d.complex
    comp = d.components[ci]
    m = len(cycle)
    if r == 0:
        face = comp.arc_faces[start]
        if cycle[entry][1][0] != face:
            raise MoveError("entry corner does not match the arc's face")
        steps = _cycle_path_transits(cx, cycle, entry, 0, not forward)
    else:
        match = _match_m7_run(d, cycle, ci, start, r)
        if match is None:
            raise MoveError("arc does not follow the cycle near the vertex")
        entry, fwd = match
        steps = _cycle_path_transits(cx, cycle, entry, r, fwd)
    transits = dict(d.transits)
    removed = []
    k = len(comp.events)
    for i in range(r):
        ev = comp.events[(start + i) % k]
        removed.append(ev.transit)
        del transits[ev.transit]
    d_removed = replace(d, transits=transits)
    taken: Dict[str, List[Fraction]] = {}
    new_events = []
    inner_faces = []
    names = _fresh(transits, "t", len(steps))
    for idx, (node, before, after) in enumerate(steps):
        edge, end = node
        flank_in = _corner_flank(cx, before, node)
        flank_out = _corner_flank(cx, after, node)
        if not flank_in or not flank_out:
            raise MoveError("cycle corners do not flank the crossed edge end")
        inc_in = flank_in[0]
        inc_out = flank_out[-1] if flank_out[-1] != inc_in else flank_out[0]
        if inc_in == inc_out:
            raise MoveError("transit would join an incidence to itself")
        pos = _near_vertex_position(d_removed, edge, end, taken)
        taken.setdefault(edge, []).append(pos)
        t = names[idx]
        transits[t] = Transit(edge, pos, (inc_in, inc_out))
        new_events.append(TransitVisit(t, 0))
        if idx + 1 < len(steps):
            inner_faces.append(after[0])
    d2 = replace(d, transits=transits)
    if r == 0:
        comp2 = _replace_arc(comp, start, new_events,
                             [comp.arc_faces[start]] + inner_faces
                             + [comp.arc_faces[start]])
    else:
        comp2 = _replace_event_block(comp, start, r, new_events, inner_faces)
    return _with_component(d2, ci, comp2)


# -- dispatch ---------------------------------------------------------------

# kind -> (candidates(d, kind), apply(d, kind, site))
_MOVES = {
    MoveKind.M1P: (_candidates_m1, _apply_m1_insert),
    MoveKind.M1M: (_candidates_m1, _apply_m1_insert),
    MoveKind.M1P_INV: (_candidates_m1_inv, _apply_m1_delete),
    MoveKind.M1M_INV: (_candidates_m1_inv, _apply_m1_delete),
    MoveKind.M2: (_candidates_m2, _apply_m2_insert),
    MoveKind.M2_INV: (_candidates_m2_inv, _apply_m2_delete),
    MoveKind.M3: (_candidates_m3, _apply_m3),
    MoveKind.M3_INV: (_candidates_m3, _apply_m3),
    MoveKind.M4: (_candidates_m4, _apply_m4_insert),
    MoveKind.M4_INV: (_candidates_m4_inv, _apply_m4_delete),
    MoveKind.M5P: (_candidates_m5, _apply_m5),
    MoveKind.M5M: (_candidates_m5, _apply_m5),
    MoveKind.M6: (_candidates_m6, _apply_m6),
    MoveKind.M6_INV: (_candidates_m6, _apply_m6),
    MoveKind.M7: (_candidates_m7, _apply_m7),
}


def _move(kind: MoveKind):
    """The normalised kind (a MoveKind or its value) and its registry entry."""
    try:
        kind = MoveKind(kind)
    except ValueError:
        raise MoveError(f"unknown move kind {kind!r}") from None
    return kind, _MOVES[kind]


def candidate_sites(d: Diagram, kind: MoveKind) -> List[MoveSite]:
    """Pattern-matched candidate sites, before the validity filter."""
    kind, (candidates, _apply) = _move(kind)
    return list(candidates(d, kind))


def apply(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    """Apply one move and validate the result."""
    kind, (_candidates, apply_kind) = _move(kind)
    if site.kind is not kind:
        raise MoveError(f"site is for {site.kind.value}, not {kind.value}")
    try:
        out = apply_kind(d, kind, site)
    except (KeyError, IndexError) as exc:
        raise MoveError(f"stale site for {kind.value}: {exc}") from exc
    try:
        return validate_diagram(out)
    except DiagramError as exc:
        raise MoveError(f"{kind.value} at this site does not yield a valid "
                        f"diagram: {exc}") from exc


def find_sites(d: Diagram, kind: MoveKind) -> List[MoveSite]:
    """Every candidate site whose application yields a valid diagram."""
    out = []
    for site in candidate_sites(d, kind):
        try:
            apply(d, kind, site)
        except MoveError:
            continue
        out.append(site)
    return out


# -- the fuzzer ---------------------------------------------------------------

_GROWING = {MoveKind.M1P, MoveKind.M1M, MoveKind.M2}
_TRANSIT_GROWING = {MoveKind.M4, MoveKind.M5P, MoveKind.M5M, MoveKind.M7}


def fuzz(d: Diagram, steps: int, seed: int,
         max_crossings: int = 8, max_transits: int = 16,
         on_step=None) -> Tuple[Diagram, List[Tuple[MoveKind, MoveSite]]]:
    """Apply `steps` random moves; deterministic for fixed (d, steps, seed).

    Soft resource caps steer the draw away from growing moves on large
    diagrams but never block progress: if nothing else applies, growth is
    allowed again.  ``on_step(i, kind, before, after)`` is called after
    every applied move.
    """
    rng = random.Random(seed)
    trace: List[Tuple[MoveKind, MoveSite]] = []
    cur = d
    for i in range(steps):
        kinds = list(MoveKind)
        if len(cur.crossings) >= max_crossings:
            preferred = [k for k in kinds if k not in _GROWING]
        else:
            preferred = kinds
        if len(cur.transits) >= max_transits:
            preferred = [k for k in preferred if k not in _TRANSIT_GROWING]
        applied = None
        for pool in (preferred, kinds):
            attempts = rng.sample(pool, len(pool))
            for kind in attempts:
                cands = candidate_sites(cur, kind)
                if not cands:
                    continue
                rng.shuffle(cands)
                for site in cands[:40]:
                    try:
                        nxt = apply(cur, kind, site)
                    except MoveError:
                        continue
                    applied = (kind, site, nxt)
                    break
                if applied:
                    break
            if applied:
                break
        if not applied:
            raise MoveError("no applicable move found")
        kind, site, nxt = applied
        trace.append((kind, site))
        if on_step is not None:
            on_step(i, kind, cur, nxt)
        cur = nxt
    return cur, trace


def serialize_trace(trace) -> str:
    lines = [f"{kind.value} {site.fingerprint()}" for kind, site in trace]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trace(text: str) -> List[Tuple[MoveKind, MoveSite]]:
    out = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        kind_text, _, payload = line.partition(" ")
        try:
            kind = MoveKind(kind_text)
        except ValueError:
            raise MoveError(f"trace line {ln}: unknown move kind {kind_text!r}")
        try:
            out.append((kind, MoveSite.from_fingerprint(kind, payload)))
        except ValueError as exc:
            raise MoveError(f"trace line {ln}: bad site {payload!r}: {exc}") from None
    return out


def replay(d: Diagram, trace) -> Diagram:
    for kind, site in trace:
        d = apply(d, kind, site)
    return d
