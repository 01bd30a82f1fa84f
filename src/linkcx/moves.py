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

A site is a dict of JSON values.  Its fingerprint, the JSON with sorted
keys, is its one canonical form and its text on a trace line, one move per
line; a parsed site is normalized once, on entry.  The kinds that match a
pattern (M1pi, M1mi, M4i, the M5 retracts, the M7 transit runs) test it in
one function that both their candidate list and ``apply`` call.  Each kind
has one row in the registry ``_MOVES``: its indexed candidate sequence,
which ``candidate_sites`` lists in full, its rewrite, which ``apply``
performs and validates, and the predicate that decides its candidates
exactly from the face walks (``_Regions``, kept in the record) of a valid
diagram.  ``iter_sites`` yields, and ``find_sites`` lists, the candidates
that the predicate admits, without applying one, and the fuzzer applies
only an admitted site; both raise DiagramError on an invalid diagram.
Every rewrite but M3's in-place swap returns through ``_rewrite``: a set
of splices of components, each in the old event indices, plus one delta of
crossings and transits.  The fuzzer draws kinds and candidate indices from
a seeded generator, so identical (diagram, steps, seed) always reproduce
the same trace, and builds only the sites it tries.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .diagram import (Arc, Component, Crossing, CrossVisit, Diagram, FaceMap,
                      Transit, TransitVisit, arcs_of, boundary_edges, complex_derived,
                      crossing_visits, derived, event_walk, face_maps, port_ends,
                      transit_orders, valid_face_maps, validate_diagram, visit_pairs)
from .errors import DiagramError, MoveError
from .invariants import _sign_from_visits
from .twocomplex import Incidence, TwoComplex, corner_vertex, vertex_link

__all__ = ["MoveKind", "MoveSite", "find_sites", "iter_sites", "apply", "fuzz",
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


@dataclass(frozen=True, eq=False)
class MoveSite:
    """A move kind and its site, a dict of JSON values with arrays as tuples.

    The fingerprint, the JSON with sorted keys, is the one canonical form,
    which equality and hashing compare; ``from_fingerprint`` normalizes
    trace JSON once, on entry, so a parsed site reads as ``make`` built it.
    """

    kind: MoveKind
    data: dict

    @classmethod
    def make(cls, kind: MoveKind, **data) -> "MoveSite":
        return cls(kind, data)

    def get(self, key):
        try:
            return self.data[key]
        except KeyError:
            raise MoveError(f"site for {self.kind.value} is missing {key!r}") from None

    def fingerprint(self) -> str:
        return json.dumps(self.data, sort_keys=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MoveSite):
            return NotImplemented
        return self.kind == other.kind and self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash((self.kind, self.fingerprint()))

    @classmethod
    def from_fingerprint(cls, kind: MoveKind, text: str) -> "MoveSite":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a site is a JSON object")
        return cls(kind, {k: _dejson(v) for k, v in data.items()})


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
    order = transit_orders(d).get(edge, ())
    if not 0 <= slot <= len(order):
        raise MoveError(f"slot {slot} out of range for edge {edge!r}")
    lo = d.transits[order[slot - 1]].pos if slot > 0 else Fraction(0)
    hi = d.transits[order[slot]].pos if slot < len(order) else Fraction(1)
    step = (hi - lo) / (count + 1)
    return [lo + step * (i + 1) for i in range(count)]


# -- rewrites ------------------------------------------------------------------

def _splice(comp: Component, edits) -> Component:
    """comp with every edit ``(a, n, events, inner)`` made, in its event indices.

    An edit takes the n events after arc a, counted cyclically.  New events
    go between arc a and arc a + n, with the ``inner`` faces between them,
    so n = 0 splits arc a; without new events, arcs a .. a + n merge into
    one, in the face of arc a, which must be that of arc a + n, and
    removing every event leaves a circle there.  The listing keeps its
    start unless an edit takes both its last event and its first: it then
    starts right after that edit.
    """
    events, faces = comp.events, comp.arc_faces
    k = len(events)
    if not k:
        # a circle: each edit in turn splits its one arc
        cuts = [(tuple(new), tuple(inner) + faces) for _a, _n, new, inner in edits if new]
        return Component(sum((e for e, _f in cuts), ()), sum((f for _e, f in cuts), ()) or faces,
                         comp.directed)
    # per edit, its first taken event, or where an insertion goes: after
    # event a, so one into the last arc goes last
    spans = [((a + 1) % k if n else a % k + 1, n, new, inner) for a, n, new, inner in edits]
    for s, n, _new, _inner in spans:
        if s + n > k:
            r = s + n - k
            events, faces = events[r:] + events[:r], faces[r:] + faces[:r]
            spans = [((s - r) % k if n else (s - r - 1) % k + 1, n, new, inner)
                     for s, n, new, inner in spans]
            break
    out_events, out_faces, at = (), (), 0
    for s, n, new, inner in sorted(spans, key=lambda span: span[:2]):
        out_events += events[at:s]
        out_faces += faces[at:s]
        if new:
            out_events += tuple(new)
            out_faces += tuple(inner) + (faces[s + n - 1],)
        elif faces[s - 1] != faces[s + n - 1]:
            raise MoveError("cannot merge arcs lying in different faces")
        at = s + n
    out_events += events[at:]
    out_faces += faces[at:]
    if not out_events:      # a circle, in the face of the arc before the edit
        return Component((), (faces[s - 1],), comp.directed)
    return Component(out_events, out_faces, comp.directed)


def _updated(old: dict, delta) -> dict:
    """old with delta's ``(name, value)`` pairs set in order; None deletes the name."""
    if not delta:
        return old
    new = dict(old)
    for name, value in delta:
        if value is None:
            del new[name]
        else:
            new[name] = value
    return new


def _rewrite(d: Diagram, edits, crossings=(), transits=()) -> Diagram:
    """d with the edits ``(component, a, n, events, inner)`` spliced in.

    Every edit is in d's event indices (see ``_splice``).  ``crossings`` and
    ``transits`` are ``(name, value)`` pairs: a value set on an existing name
    keeps its place in the dict, a new name goes last and None deletes it.
    """
    comps = list(d.components)
    for ci in dict.fromkeys(edit[0] for edit in edits):
        comps[ci] = _splice(comps[ci], [edit[1:] for edit in edits if edit[0] == ci])
    return replace(d, crossings=_updated(d.crossings, crossings),
                   transits=_updated(d.transits, transits), components=tuple(comps))


# -- candidate sequences -----------------------------------------------------

class _Rows:
    """A candidate sequence that builds a site only when it is read.

    The sequence is the concatenation of rows ``(length, site)``, where
    ``site(j)`` builds the row's j-th site; a list of sites is the row
    ``(len(sites), sites.__getitem__)``.  ``seq[i]`` finds the row of i by
    bisection over the row starts; iteration walks the rows in order.
    """

    def __init__(self, rows):
        self.rows = [row for row in rows if row[0]]
        self.starts = list(accumulate((n for n, _site in self.rows), initial=0))

    def __len__(self) -> int:
        return self.starts[-1]

    def __getitem__(self, i: int) -> MoveSite:
        if not 0 <= i < self.starts[-1]:
            raise IndexError(i)
        r = bisect.bisect_right(self.starts, i) - 1
        return self.rows[r][1](i - self.starts[r])

    def __iter__(self):
        for n, site in self.rows:
            for j in range(n):
                yield site(j)


# -- kink moves (M1) --------------------------------------------------------

def _m1_dot(kind: MoveKind, bend: int) -> int:
    positive = kind in (MoveKind.M1P, MoveKind.M1P_INV)
    return (0 if bend == 1 else 1) if positive else (1 if bend == 1 else 0)


def _candidates_m1(d: Diagram, kind: MoveKind) -> _Rows:
    """A row per component: each arc (a circle has one), bend 1 then 3."""

    def row(ci: int, comp: Component):
        return (2 * max(len(comp.events), 1),
                lambda j: MoveSite.make(kind, comp=ci, arc=j >> 1, bend=(1, 3)[j & 1]))

    return _Rows(row(ci, comp) for ci, comp in enumerate(d.components))


def _apply_m1_insert(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    ci, ai, bend = site.get("comp"), site.get("arc"), site.get("bend")
    if bend not in (1, 3):
        raise MoveError("kink bend must be 1 or 3")
    face = d.components[ci].arc_faces[ai]
    (name,) = _fresh(d.crossings, "c")
    return _rewrite(d, [(ci, ai, 0, (CrossVisit(name, 0), CrossVisit(name, bend)), (face,))],
                    crossings=[(name, Crossing(face, _m1_dot(kind, bend)))])


def _kink_fault(d: Diagram, kind: MoveKind, ci: int, i: int) -> Optional[str]:
    """Why events i and i + 1 of component ci are no kink of the kind, or None."""
    comp = d.components[ci]
    a, b = comp.events[i], comp.events[(i + 1) % len(comp.events)]
    if not (isinstance(a, CrossVisit) and isinstance(b, CrossVisit)
            and a.crossing == b.crossing):
        return "stale kink site"
    sign = _sign_from_visits(d, a.crossing, *visit_pairs(d)[a.crossing])
    if sign != (1 if kind is MoveKind.M1P_INV else -1):
        return "kink sign does not match the move kind"
    return None


def _candidates_m1_inv(d: Diagram, kind: MoveKind) -> List[MoveSite]:
    return [MoveSite.make(kind, comp=ci, event=i)
            for ci, comp in enumerate(d.components) for i in range(len(comp.events))
            if _kink_fault(d, kind, ci, i) is None]


def _apply_m1_delete(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    ci, i = site.get("comp"), site.get("event")
    fault = _kink_fault(d, kind, ci, i)
    if fault:
        raise MoveError(fault)
    return _rewrite(d, [(ci, i - 1, 2, (), ())],
                    crossings=[(d.components[ci].events[i].crossing, None)])


# -- slide moves (M2) --------------------------------------------------------

def _candidates_m2(d: Diagram, kind: MoveKind) -> _Rows:
    """A row per arc a, faces in the order of their first arc.

    The row runs over the arcs b of a's face, and per b over ``over`` a
    then b and ``anti`` False then True; with b = a only the two ``anti``
    sites are listed, so a face of m arcs gives rows of 4m - 2 sites.
    """
    def row(group: List[Arc], p: int):
        a = group[p]

        def site(j: int) -> MoveSite:
            # j counts the full 4-site grid of b, less the two non-anti
            # sites of b = a at grid places 4p and 4p + 2
            if j >= 4 * p + 2:
                j += 2
            elif j >= 4 * p:
                j = 2 * j - 4 * p + 1
            q, r = divmod(j, 4)
            b = group[q]
            return MoveSite.make(kind, comp_a=a.comp, arc_a=a.index,
                                 comp_b=b.comp, arc_b=b.index,
                                 over="ab"[r >> 1], anti=bool(r & 1))

        return 4 * len(group) - 2, site

    return _Rows(row(group, p) for group in _face_groups(d) for p in range(len(group)))


def _face_groups(d: Diagram) -> List[List[Arc]]:
    """The arcs of each face, faces in the order of their first arc."""
    by_face: Dict[str, List[Arc]] = {}
    for arc in arcs_of(d):
        by_face.setdefault(arc.face, []).append(arc)
    return list(by_face.values())


def _apply_m2_insert(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    ca, aa = site.get("comp_a"), site.get("arc_a")
    cb, ab = site.get("comp_b"), site.get("arc_b")
    over, anti = site.get("over"), site.get("anti")
    face = d.components[ca].arc_faces[aa]
    if face != d.components[cb].arc_faces[ab]:
        raise MoveError("strands must share a face")
    x1, x2 = _fresh(d.crossings, "c", 2)
    dot = 1 if over == "a" else 0
    ev_a = (CrossVisit(x1, 1), CrossVisit(x2, 3))
    ev_b = ((CrossVisit(x1, 2), CrossVisit(x2, 2)) if not anti
            else (CrossVisit(x2, 0), CrossVisit(x1, 0)))
    if (ca, aa) == (cb, ab):
        edits = [(ca, aa, 0, ev_a + ev_b, (face,) * 3)]
    else:
        edits = [(ca, aa, 0, ev_a, (face,)), (cb, ab, 0, ev_b, (face,))]
    return _rewrite(d, edits, crossings=[(x1, Crossing(face, dot)), (x2, Crossing(face, dot))])


def _candidates_m2_inv(d: Diagram, kind: MoveKind) -> List[MoveSite]:
    between: Dict[frozenset, List[Arc]] = {}
    for arc in arcs_of(d):
        if (arc.src is not None and arc.src[0] == arc.dst[0] == "x"
                and arc.src[1] != arc.dst[1]):
            between.setdefault(frozenset((arc.src[1], arc.dst[1])), []).append(arc)
    return [MoveSite.make(kind, arc_a=(a.comp, a.index), arc_b=(b.comp, b.index))
            for _pair, group in sorted(between.items(), key=lambda kv: sorted(kv[0]))
            for i, a in enumerate(group) for b in group[i + 1:] if _bigon_ok(d, a, b)]


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
    key_a, key_b = site.get("arc_a"), site.get("arc_b")
    arcs = event_walk(d).arc_at
    try:
        a, b = arcs[key_a], arcs[key_b]
    except KeyError:
        raise MoveError("stale bigon site")
    if a.src is None or b.src is None or a.src[0] != "x" or b.src[0] != "x":
        raise MoveError("stale bigon site")
    if frozenset((a.src[1], a.dst[1])) != frozenset((b.src[1], b.dst[1])):
        raise MoveError("arcs do not join the same crossing pair")
    if not _bigon_ok(d, a, b):
        raise MoveError("arcs do not bound a cancelling bigon")
    return _rewrite(d, [(arc.comp, arc.index - 1, 2, (), ()) for arc in (a, b)],
                    crossings=[(a.src[1], None), (a.dst[1], None)])


# -- triangle move (M3) -------------------------------------------------------

def _triangles(d: Diagram):
    seen = set()
    try:
        maps = dict(valid_face_maps(d))
    except DiagramError:
        maps = dict(face_maps(d))
    for f in sorted(maps):
        fm = maps[f]
        if not fm.ok:
            continue
        for orbit in fm.orbits:
            if len(orbit) != 3:
                continue
            if any(i >= fm.mark_base for i in orbit):
                continue         # a boundary mark's dart
            arcs = [fm.arc_of[i] for i in orbit]
            if len(set(arcs)) != 3 or len({i >> 2 for i in orbit}) != 3:
                continue
            key = frozenset(arcs)
            if key in seen:
                continue
            seen.add(key)
            yield tuple(sorted(arcs))


def _strand_extremal(d: Diagram, arc_key) -> Optional[bool]:
    """True if the strand through the arc is over at both its crossings,
    False if under at both, None if mixed."""
    arcs = event_walk(d).arc_at
    arc = arcs[arc_key]
    x1, x2 = arc.src[1], arc.dst[1]
    over1 = arc.src[2] % 2 == d.crossings[x1].dot % 2
    over2 = arc.dst[2] % 2 == d.crossings[x2].dot % 2
    return over1 if over1 == over2 else None


def _candidates_m3(d: Diagram, kind: MoveKind) -> List[MoveSite]:
    return [MoveSite.make(kind, arcs=arcs, slide=slide)
            for arcs in _triangles(d) for slide in range(3)
            if _strand_extremal(d, arcs[slide]) is not None]


def _apply_m3(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    arc_keys, slide = site.get("arcs"), site.get("slide")
    arcs = event_walk(d).arc_at
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
    # swap the two events flanking each triangle arc in place, which keeps
    # the listing start where a splice of a wrapping pair would move it;
    # ports and dots stay
    comps = list(d.components)
    for arc in tri:
        events = list(comps[arc.comp].events)
        i, j = arc.index, (arc.index + 1) % len(events)
        events[i], events[j] = events[j], events[i]
        comps[arc.comp] = replace(comps[arc.comp], events=tuple(events))
    return replace(d, components=tuple(comps))


# -- tongue moves (M4) ---------------------------------------------------------

def _ways_out(d: Diagram, face: str) -> List[Tuple[str, Incidence, Incidence, int]]:
    """(edge, s1, s2, slots) for each way out of the face across an edge.

    ``s1`` runs over the non-boundary sides of the face, ``s2`` over the
    other incidences of s1's edge; ``slots`` is the number of gaps between
    the transits on that edge.
    """
    cx = d.complex
    boundary = boundary_edges(cx)
    out = []
    for j, (e, _dir) in enumerate(cx.faces[face]):
        if e not in boundary:
            s1, slots = (face, j), len(transit_orders(d).get(e, ())) + 1
            out.extend((e, s1, s2, slots) for s2 in cx.incidences[e] if s2 != s1)
    return out


def _candidates_m4(d: Diagram, kind: MoveKind) -> _Rows:
    """A row per arc (a circle has one): each way out of its face, each slot."""
    ways: Dict[str, Tuple[int, list]] = {}

    def row(ci: int, ai: int, face: str):
        if face not in ways:
            out = _ways_out(d, face)
            ways[face] = (sum(way[3] for way in out), out)
        count, out = ways[face]

        def site(j: int) -> MoveSite:
            for e, s1, s2, slots in out:
                if j < slots:
                    return MoveSite.make(kind, comp=ci, arc=ai, edge=e,
                                         s1=s1, s2=s2, slot=j)
                j -= slots

        return count, site

    return _Rows(row(ci, ai, comp.arc_faces[ai]) for ci, comp in enumerate(d.components)
                 for ai in range(max(len(comp.events), 1)))


def _apply_m4_insert(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    ci, ai = site.get("comp"), site.get("arc")
    e = site.get("edge")
    s1, s2 = _inc(site.get("s1")), _inc(site.get("s2"))
    slot = site.get("slot")
    f1 = d.components[ci].arc_faces[ai]
    if s1 not in d.complex.incidences.get(e, ()) or s2 not in d.complex.incidences[e]:
        raise MoveError("bad edge incidences")
    if s1[0] != f1:
        raise MoveError("the arc does not run in the side's face")
    p1, p2 = _positions_in_gap(d, e, slot, 2)
    ta, tb = _fresh(d.transits, "t", 2)
    return _rewrite(d, [(ci, ai, 0, (TransitVisit(ta, 0), TransitVisit(tb, 1)), (s2[0],))],
                    transits=[(ta, Transit(e, p1, (s1, s2))), (tb, Transit(e, p2, (s1, s2)))])


def _tongue_fault(d: Diagram, ci: int, i: int) -> Optional[str]:
    """Why events i and i + 1 of component ci are no tongue, or None.

    A tongue is two transits of one edge, next along it, that the strand
    crosses out and straight back.
    """
    comp = d.components[ci]
    a, b = comp.events[i], comp.events[(i + 1) % len(comp.events)]
    if not (isinstance(a, TransitVisit) and isinstance(b, TransitVisit)):
        return "stale tongue site"
    t1, t2 = d.transits[a.transit], d.transits[b.transit]
    if (t1.edge != t2.edge or set(t1.sides) != set(t2.sides)
            or t1.sides[1 - a.enter] != t2.sides[b.enter]):
        return "events do not form a tongue"
    order = transit_orders(d)[t1.edge]
    if abs(order.index(a.transit) - order.index(b.transit)) != 1:
        return "tongue transits are not adjacent on the edge"
    return None


def _candidates_m4_inv(d: Diagram, kind: MoveKind) -> List[MoveSite]:
    return [MoveSite.make(kind, comp=ci, event=i)
            for ci, comp in enumerate(d.components) for i in range(len(comp.events))
            if _tongue_fault(d, ci, i) is None]


def _apply_m4_delete(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    ci, i = site.get("comp"), site.get("event")
    fault = _tongue_fault(d, ci, i)
    if fault:
        raise MoveError(fault)
    events = d.components[ci].events
    return _rewrite(d, [(ci, i - 1, 2, (), ())],
                    transits=[(events[i].transit, None),
                              (events[(i + 1) % len(events)].transit, None)])


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


def _candidates_m5(d: Diagram, kind: MoveKind) -> _Rows:
    """A push row per crossing, by name, then the list of retracts.

    A push row runs over the ways out of the crossing's face, and per way
    over the rotations whose dot variant is the kind, then the slots.
    """

    def row(c: str, cr: Crossing):
        rots = [rot for rot in range(4) if _m5_kind_of(cr.dot, rot) is kind]
        out = _ways_out(d, cr.face)

        def site(j: int) -> MoveSite:
            for _e, s1, s2, slots in out:
                if j < len(rots) * slots:
                    return MoveSite.make(kind, crossing=c, mode="push", s1=s1, s2=s2,
                                         slot=j % slots, rot=rots[j // slots])
                j -= len(rots) * slots

        return len(rots) * sum(way[3] for way in out), site

    retracts = _candidates_m5_retract(d, kind)
    return _Rows([row(c, d.crossings[c]) for c in sorted(d.crossings)]
                 + [(len(retracts), retracts.__getitem__)])


def _candidates_m5_retract(d: Diagram, kind: MoveKind) -> List[MoveSite]:
    port_end = port_ends(d)
    return [MoveSite.make(kind, crossing=c, mode="retract") for c in sorted(d.crossings)
            if (info := _retract_info(d, c, port_end)) is not None
            and _m5_kind_of(d.crossings[c].dot, info["fan_rot"]) is kind]


def _retract_info(d: Diagram, c: str, port_end) -> Optional[dict]:
    """Check that all four strands of c immediately transit one edge."""
    cr = d.crossings[c]
    transit_of = {}
    for p in range(4):
        if (c, p) not in port_end:
            return None
        arc, end = port_end[(c, p)]
        other = arc.src if end else arc.dst
        if other is None or other[0] != "t":
            return None
        transit_of[p] = (other[1], other[2])
    tids = [transit_of[p][0] for p in range(4)]
    if len(set(tids)) != 4:
        return None
    trs = [d.transits[t] for t in tids]
    if len({tr.edge for tr in trs}) != 1:
        return None
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
    order = transit_orders(d)[trs[0].edge]
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
    return {"s1": s1, "s2": s2, "transit_of": transit_of, "fan_rot": fan[0]}


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
    new_of, dot = _relocated_crossing(d, c, port_pos, s2)
    edits = []
    for ci, ei in crossing_visits(d)[c]:
        enter = d.components[ci].events[ei].enter
        edits.append((ci, ei - 1, 1, (TransitVisit(transit_of[enter], 0),
                                      CrossVisit(c, new_of[enter]),
                                      TransitVisit(transit_of[(enter + 2) % 4], 1)),
                      (s2[0], s2[0])))
    return _rewrite(d, edits, crossings=[(c, Crossing(s2[0], dot))],
                    transits=[(t, Transit(e, port_pos[p], (s1, s2)))
                              for p, t in transit_of.items()])


def _apply_m5_retract(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    c = site.get("crossing")
    info = _retract_info(d, c, port_ends(d))
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
    edits = []
    for ci, ei in crossing_visits(d)[c]:
        events = d.components[ci].events
        k = len(events)
        ev, prev_ev, next_ev = events[ei], events[(ei - 1) % k], events[(ei + 1) % k]
        if not (isinstance(prev_ev, TransitVisit) and isinstance(next_ev, TransitVisit)
                and prev_ev.transit == transit_of[ev.enter][0]
                and next_ev.transit == transit_of[(ev.enter + 2) % 4][0]):
            raise MoveError("strand does not pass straight through the edge")
        edits.append((ci, ei - 2, 3, (CrossVisit(c, new_of[ev.enter]),), ()))
    return _rewrite(d, edits, crossings=[(c, Crossing(s1[0], dot))],
                    transits=[(transit_of[p][0], None) for p in range(4)])


# -- transit exchange (M6) -----------------------------------------------------

def _candidates_m6(d: Diagram, kind: MoveKind) -> List[MoveSite]:
    orders = transit_orders(d)
    return [MoveSite.make(kind, edge=e, t1=t1, t2=t2)
            for e in sorted(orders) for t1, t2 in zip(orders[e], orders[e][1:])
            if len(set(d.transits[t1].sides) | set(d.transits[t2].sides)) >= 3]


def _apply_m6(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    t1, t2, e = site.get("t1"), site.get("t2"), site.get("edge")
    tr1, tr2 = d.transits[t1], d.transits[t2]
    if tr1.edge != tr2.edge:
        raise MoveError("transits lie on different edges")
    if tr1.edge != e:
        raise MoveError(f"stale site for {kind.value}: the transits lie on edge "
                        f"{tr1.edge!r}, not {e!r}")
    order = transit_orders(d)[tr1.edge]
    if abs(order.index(t1) - order.index(t2)) != 1:
        raise MoveError("transits are not adjacent on the edge")
    if len(set(tr1.sides) | set(tr2.sides)) < 3:
        raise MoveError("exchange needs three pairwise-distinct branches")
    return _rewrite(d, (), transits=[(t1, replace(tr1, pos=tr2.pos)),
                                     (t2, replace(tr2, pos=tr1.pos))])


# -- vertex move (M7) -----------------------------------------------------------

CycleStep = Tuple[Tuple[str, int], Tuple[str, int]]   # (edge-end node, corner)

_MAX_CYCLE = 8          # the longest link cycle searched, in nodes


def _link_cycles(cx: TwoComplex, v: str) -> List[Tuple[CycleStep, ...]]:
    """Embedded cycles of the vertex link, canonical up to rotation/reflection.

    A link where every node has degree 2 is disjoint circles, each found
    at any length.  Other links are searched for cycles of at most
    ``_MAX_CYCLE`` nodes: the search is exponential where the link branches.
    """
    graph = vertex_link(cx, v)
    links = [((a, b), (f, i)) for a, b, f, i in graph.links]
    degree = dict.fromkeys(graph.nodes, 0)
    for (a, b), _corner in links:
        degree[a] += 1
        degree[b] += 1
    cap = len(degree) if set(degree.values()) <= {2} else _MAX_CYCLE
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
        if len(path_nodes) > cap:
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


def _near_vertex_position(d: Diagram, edge: str, end: int, removed: set,
                          taken: Dict[str, List[Fraction]]) -> Fraction:
    existing = [d.transits[t].pos for t in transit_orders(d).get(edge, ())
                if t not in removed]
    existing += taken.get(edge, [])
    if end == 0:
        lo = min(existing) if existing else Fraction(1)
        return lo / 2
    hi = max(existing) if existing else Fraction(0)
    return (hi + 1) / 2


def _cycle_step(cycle: Tuple[CycleStep, ...], entry: int, j: int, forward: bool):
    """(node, corner before, corner after) of the j-th node on a path round the cycle.

    The path leaves the corner at ``entry`` forward or backward round the
    cycle; its nodes are the edge ends it crosses, in travel order.
    """
    m = len(cycle)
    if forward:
        i = (entry + 1 + j) % m
        return cycle[i][0], cycle[i - 1][1], cycle[i][1]
    i = (entry - j) % m
    return cycle[i][0], cycle[i][1], cycle[i - 1][1]


def _candidates_m7(d: Diagram, kind: MoveKind) -> _Rows:
    """Per vertex and link cycle: the empty runs, then the transit runs.

    An empty run reroutes an arc across the whole disc: a row per arc (a
    circle has one), over the cycle's entry corners in the arc's face,
    forward then backward.  The transit runs, which follow part or all of
    the cycle, are matched and listed.
    """
    cx = d.complex
    rows = []

    def row(v: str, cycle, ci: int, ai: int, entries: List[int]):
        return (2 * len(entries),
                lambda j: MoveSite.make(kind, vertex=v, cycle=cycle, comp=ci, arc=ai,
                                        entry=entries[j >> 1], length=0,
                                        forward=not j & 1))

    cycles = complex_derived(cx, "link_cycles",
                             lambda cx: {v: _link_cycles(cx, v) for v in cx.vertices})
    for v in cx.vertices:
        for cycle in cycles[v]:
            entries: Dict[str, List[int]] = {}
            for entry, (_node, corner) in enumerate(cycle):
                entries.setdefault(corner[0], []).append(entry)
            for ci, comp in enumerate(d.components):
                rows.extend(row(v, cycle, ci, ai, entries.get(comp.arc_faces[ai], []))
                            for ai in range(max(len(comp.events), 1)))
            runs = []
            for ci, comp in enumerate(d.components):
                for start in range(len(comp.events)):
                    for r in range(1, len(cycle) + 1):
                        match = _match_m7_run(d, cycle, ci, start, r)
                        if match is None:
                            break
                        entry, forward = match
                        runs.append(MoveSite.make(kind, vertex=v, cycle=cycle,
                                                  comp=ci, arc=start, entry=entry,
                                                  length=r, forward=forward))
            rows.append((len(runs), runs.__getitem__))
    return _Rows(rows)


def _match_m7_run(d: Diagram, cycle, ci: int, start: int, r: int):
    """Match r consecutive transit events against a path along the cycle."""
    comp = d.components[ci]
    k = len(comp.events)
    if k == 0 or r > len(cycle) or r > k:
        return None
    # per transit: its edge, the incidences it enters and leaves by, and
    # whether it is the transit nearest to end 0 and to end 1 of the edge
    walk = []
    for i in range(r):
        ev = comp.events[(start + i) % k]
        if not isinstance(ev, TransitVisit):
            return None
        tr = d.transits[ev.transit]
        order = transit_orders(d)[tr.edge]
        walk.append((tr.edge, tr.sides[ev.enter], tr.sides[1 - ev.enter],
                     (order[0] == ev.transit, order[-1] == ev.transit)))
    cx = d.complex
    for entry in range(len(cycle)):
        for forward in (True, False):
            for j, (edge, inc_in, inc_out, nearest) in enumerate(walk):
                node, before, after = _cycle_step(cycle, entry, j, forward)
                if (edge != node[0] or not nearest[node[1]]
                        or inc_in not in _corner_flank(cx, before, node)
                        or inc_out not in _corner_flank(cx, after, node)):
                    break
            else:
                return entry, forward
    return None


def _apply_m7(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    v, cycle = site.get("vertex"), site.get("cycle")
    ci, start = site.get("comp"), site.get("arc")
    entry, r = site.get("entry"), site.get("length")
    forward = site.get("forward") if r == 0 else None
    cx = d.complex
    if not (v in cx.vertices
            and all(cx.edges[e][end] == v for (e, end), _corner in cycle)
            and all(corner_vertex(cx, f, i) == v for _node, (f, i) in cycle)):
        raise MoveError(f"stale site for {kind.value}: the cycle does not run "
                        f"round vertex {v!r}")
    comp = d.components[ci]
    m = len(cycle)
    if r == 0:
        face = comp.arc_faces[start]
        if cycle[entry][1][0] != face:
            raise MoveError("entry corner does not match the arc's face")
        way = forward
    else:
        match = _match_m7_run(d, cycle, ci, start, r)
        if match is None:
            raise MoveError("arc does not follow the cycle near the vertex")
        entry, fwd = match
        way = not fwd
    # the new path crosses the m - r nodes of the cycle that the run does not
    steps = [_cycle_step(cycle, entry, j, way) for j in range(m - r)]
    k = len(comp.events)
    delta = [(comp.events[(start + i) % k].transit, None) for i in range(r)]
    removed = {t for t, _none in delta}
    taken: Dict[str, List[Fraction]] = {}
    new_events = []
    inner_faces = []
    # a removed transit's name is free again, and goes last
    names = _fresh(set(d.transits) - removed, "t", len(steps))
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
        pos = _near_vertex_position(d, edge, end, removed, taken)
        taken.setdefault(edge, []).append(pos)
        t = names[idx]
        delta.append((t, Transit(edge, pos, (inc_in, inc_out))))
        new_events.append(TransitVisit(t, 0))
        if idx + 1 < len(steps):
            inner_faces.append(after[0])
    # an empty run splits arc start; a run takes its r events from event start
    arc = start if r == 0 else start - 1
    return _rewrite(d, [(ci, arc, r, new_events, inner_faces)], transits=delta)


# -- face-walk regions -------------------------------------------------------

class _Regions:
    """Face-walk regions of a valid diagram, and the site predicates on them.

    A region is an orbit of a face map, that is a face walk of its
    rotation system.  An arc record holds the arc's connected component of
    its face map, the region on its right walked forward (the orbit of its
    first dart) and the region on its left (the orbit of its last dart,
    walked backward).  A crossing record holds its component and, per port
    p, the region of the corner between ports p - 1 and p.  Components are
    tagged with their face, so regions are compared only within one face
    map.

    The predicates rest on the face tracing of rotation systems (Mohar &
    Thomassen, *Graphs on Surfaces*, 2001, ch. 3-4): a connected map of
    genus zero has one drawing on the sphere up to homeomorphism, and the
    regions of that drawing are exactly its face walks.  A face map is the
    face's tangle with its boundary circle contracted to one node, so a
    drawing of the map, cut open at that node, is a drawing of the tangle
    in the disc.  The genus check is made per component, so a component
    that does not hold the boundary may be drawn in any region of the
    others, with any of its own regions outermost.  Each move that can
    fail works at a few places of one face map (an arc's side, a crossing's
    corner, a gap between two boundary marks) joined by a short path.  If
    the places share a region, draw the old map, run the path inside that
    region and make the move along it: the result is drawn, so it passes
    the genus check.  If the result passes, draw it and undo the move along
    the path it leaves: that draws the old map with the places in one
    region, which is one face walk when they lie in one component.
    """

    def __init__(self, d: Diagram):
        """The regions of d; DiagramError when d is not valid."""
        self.faces, self.transits = d.complex.faces, d.transits
        self.arcs: Dict[Tuple[int, int], Tuple[tuple, int, int]] = {}
        self.crossings: Dict[str, Tuple[tuple, List[int]]] = {}
        self.maps: Dict[str, Tuple[FaceMap, List[int], List[Tuple[int, int]]]] = {}
        rank = {t: r for order in transit_orders(d).values()
                for r, t in enumerate(order)}
        for f, fm in valid_face_maps(d):
            comp = fm.component
            for c, i in fm.x_index.items():
                self.crossings[c] = ((f, comp[i]), fm.orbit_of[4 * i:4 * i + 4])
            # marks sort by (side, rank along the side's walk); a gap between
            # ranks r - 1 and r sits at 2r - 1
            word = d.complex.faces[f]
            keys = []
            for t, k in fm.marks:
                j = d.transits[t].sides[k][1]
                keys.append((j, 2 * rank[t] if word[j][1] > 0 else -2 * rank[t]))
            self.maps[f] = (fm, comp, keys)
            for a, b in fm.ends:
                self.arcs[fm.arc_of[a]] = ((f, comp[fm.node_of(a)]),
                                           fm.orbit_of[a], fm.orbit_of[b])

    def _meets_gap(self, f: str, gap: tuple, component: tuple, region: int) -> bool:
        """Whether a place of face f's map lies on the region of a boundary gap.

        The gap sorts among the marks' keys as ``gap``; the boundary segment
        that holds it joins the two marks of the face that flank it.  Its
        region is the walk that reaches the later mark and turns along the
        segment into the earlier mark's arc, that is the walk through the
        earlier mark's dart.  A place in another component of the face map,
        or in a face without marks (whose boundary is not part of the map),
        shares no face walk with the gap and always meets it.
        """
        fm, comp, keys = self.maps[f]
        if not keys:
            return True
        dart = fm.mark_dart((bisect.bisect(keys, gap) - 1) % len(keys))
        return (f, comp[fm.node_of(dart)]) != component or fm.orbit_of[dart] == region

    def _slot(self, site: MoveSite) -> Tuple[str, tuple]:
        """The face and key of the gap ``slot`` on the edge of side ``s1``."""
        f, j = _inc(site.get("s1"))
        slot = site.get("slot")
        return f, (j, 2 * slot - 1 if self.faces[f][j][1] > 0 else 1 - 2 * slot)

    def admits(self, site: MoveSite) -> bool:
        """Whether ``apply`` accepts a candidate site.

        The kind's predicate is the last entry of its ``_MOVES`` row; each
        is exact for the sites that ``candidate_sites`` lists on the (valid)
        diagram.  Besides the genus of each face map, each predicate below
        accounts for every other check of ``validate_diagram``.
        """
        return _MOVES[site.kind][2](self, site)

    def _always(self, site: MoveSite) -> bool:
        """M1, M2i, M3, M4i and the M7 transit runs: every candidate is admitted.

        Each rewrite works inside one region of a drawing of the old map, or
        erases a part of it, so the result is drawn (class docstring); the
        other checks of ``validate_diagram`` hold by construction.  M1p, M1m:
        a curl in a region on the arc's side.  M1pi, M1mi: the loop's inner
        side is a one-dart walk; erase it.  M2i, M3, M3i: ``_bigon_ok`` and
        the triangle match make a two- or three-dart walk, a disc to slide
        across.  M4i: the tip cuts a half-disc off its face, and the arcs
        that flank it meet the other side's two marks, which flank one
        segment and so one walk.  M7 runs: each arc between the run's
        transits cuts a corner off its face, as each new arc does.
        """
        return True

    def _slide(self, site: MoveSite) -> bool:
        """M2: admitted unless the finger would join two different regions.

        Arc b is pushed across arc a from the right of a walked forward,
        so the finger leaves b on its right if ``anti``, else on its left.
        When both arcs are in one component of their face map, the site is
        admitted exactly when that side of b and the right of a are one
        face walk.  When they are in different components, or one is a
        circle (which is in no face map), it is always admitted.

        Sufficiency: in a drawing of the old map, run a path from a's right
        to b's side inside their common region and push the finger of b
        along it; a component that is apart is drawn inside the region on
        a's right with b's side outermost.  Necessity: the result holds the
        bigon x1 - x2 (the two-dart walk of the darts at x1 port 0 and x2
        port 3); shrinking it to a point and lifting the finger off a
        draws the old map with a's right and b's side in the region the
        bigon came from.  If that drawing is of one component, the two
        sides are one face walk.  Same arc with ``anti``: a's right meets
        itself, and the self-poke is always drawn.

        Other checks: two fresh crossing names, each entered once by a
        (ports 1, 3) and once by b (ports 2, 2 or 0, 0), so once per
        diameter; the five new arcs lie in the shared face.
        """
        return bool(site.get("anti")) in _fingers(
            self.arcs.get((site.get("comp_a"), site.get("arc_a"))),
            self.arcs.get((site.get("comp_b"), site.get("arc_b"))))

    def slides(self, d: Diagram) -> Iterator[MoveSite]:
        """The M2 sites of d that ``_slide`` admits, in ``candidate_sites`` order."""
        for group in _face_groups(d):
            records = [self.arcs.get((arc.comp, arc.index)) for arc in group]
            for a, ra in zip(group, records):
                for b, rb in zip(group, records):   # b = a: the two self-poke sites
                    antis = (True,) if b is a else _fingers(ra, rb)
                    for over in "ab":
                        for anti in antis:
                            yield MoveSite.make(MoveKind.M2, comp_a=a.comp, arc_a=a.index,
                                                comp_b=b.comp, arc_b=b.index,
                                                over=over, anti=anti)

    def _tongue(self, site: MoveSite) -> bool:
        """M4: admitted unless the arc's side facing the gap misses its region.

        The tongue leaves the arc through transit ``ta`` and comes back
        through ``tb``, next along the edge, so the new boundary segment
        between them lies on one side of the arc and the old segment's
        region on the other.  That facing side is the arc's right when
        side ``s1`` runs along the edge, its left when it runs against it.
        When the arc and the gap are in one component of the face map of
        ``s1``'s face, the site is admitted exactly when the facing side
        is the segment's inner region.  An arc in another component, a
        circle, or a face without marks is always admitted.

        Source face: sufficiency draws the old map, pulls a finger of the
        arc along a path in the shared region to the gap and cuts its tip
        off at the boundary; an arc apart is drawn in the gap's region with
        the facing side outermost.  Necessity: in a drawing of the result,
        join the two new arc ends by a path along the short segment
        between ``ta`` and ``tb`` and lift it off the boundary; that draws
        the old map with the facing side on the gap's region.

        Target face: the cap joins two marks of side ``s2`` with no mark
        between them, which cuts a half-disc off the boundary: +2 nodes,
        +3 edges, +1 walk, or a new theta-graph component where the face
        had no marks.  Its genus never changes, also when ``s2`` is a
        second side of the same face, as on the torus: the cap is drawn
        beside its own gap whatever is drawn at the other.

        Other checks: two fresh transit names at positions strictly
        inside the gap, so in (0, 1) and off every position on the edge;
        the edge is not a boundary edge and ``s1 != s2`` are incidences
        of it (``candidate_sites`` lists only those); each new transit is
        visited once; the arc's halves lie in ``s1``'s face and the cap in
        ``s2``'s, as their ends do.
        """
        rec = self.arcs.get((site.get("comp"), site.get("arc")))
        if rec is None:
            return True
        f, j = _inc(site.get("s1"))
        forward = self.faces[f][j][1] > 0
        return self._meets_gap(*self._slot(site), rec[0], rec[1] if forward else rec[2])

    def _carry(self, site: MoveSite) -> bool:
        """M5: a retract is always admitted, a push unless it misses the gap.

        Push: the fan ports ``rot`` .. ``rot + 3`` meet the side in the order
        that puts the corner between ports ``rot - 1`` and ``rot`` on the
        gap's region.  When the crossing and the gap are in one component
        of the face map, the site is admitted exactly when that corner is
        the segment's inner region; a crossing in another component, or a
        face without marks, is always admitted.

        Source face: sufficiency drags the crossing along a path in the
        shared region to the gap and splits it into four marks in fan
        order, which is the order ``apply`` gives the new transits; a
        component apart is drawn in the gap's region with that corner
        outermost.  Necessity: in a drawing of the result, pull the four
        consecutive marks off the boundary together into one node just
        inside the gap; that draws the old map with the open corner on the
        gap's region.

        Target face: the crossing sits beside four consecutive marks of
        ``s2`` with its ports counterclockwise in the side's walk order, a
        fan that cuts three triangles off the boundary, so its genus never
        changes, also when ``s2``'s face is the crossing's own.

        Other checks: four fresh transits at positions strictly inside the
        gap, on a non-boundary edge between the distinct incidences ``s1``
        and ``s2``, each visited once; the ports are renumbered by a
        rotation or a reflection of their cycle, which keeps the two
        diameters apart and a dotted pair of adjacent ports a pair, so the
        dots transport and the two visits stay one per diameter; the flank
        arcs keep the crossing's face and the four short arcs lie in
        ``s2``'s face.

        Retract: ``candidate_sites`` lists a crossing only when
        ``_retract_info`` matched it: its four ports run straight to four
        distinct transits, consecutive on one edge, with one near side in
        the crossing's face and one far side, and the ports meet the near
        side as a counterclockwise fan in its walk order.  In a valid
        diagram that fan is forced, since a node joined to four consecutive
        marks is drawn only so; a fan in the inverted order would fail the
        genus check, and it is never listed.

        Face walks: the near face loses the node, its four arcs and their
        marks, and a part of a drawing is a drawing.  In the far face four
        consecutive marks of one gap become one node just inside it, with
        its ports counterclockwise in the far side's walk order (the same
        ports when the two sides run opposite ways along the edge, their
        reflection when they run the same way), which is again a drawing.
        So the result always passes, and there is no converse to argue.

        Other checks: the four transits are deleted with the two events
        that flank each visit, so no transit is left unvisited; the ports
        are kept or reflected, so the visits stay one per diameter; each
        new visit's flanking arcs are the far face's arcs that met the
        deleted transits.
        """
        if site.get("mode") != "push":
            return True
        component, corners = self.crossings[site.get("crossing")]
        return self._meets_gap(*self._slot(site), component, corners[site.get("rot")])

    def _exchange(self, site: MoveSite) -> bool:
        """M6, M6i: admitted unless the swap crosses the two marks' arcs.

        Only the side both transits cross changes: its marks x, y are next
        on the boundary and swap.  The site is admitted exactly when the
        gaps just before x and just after y lie in one face walk: a path in
        it cuts off a disc holding all that hangs on x and y, which a
        half-turn swaps (class docstring).  Else the walks through the three
        corners at x and y are distinct (a bridge would cut off crossings
        only, of odd total degree), and the swap joins them: two walks fewer.
        """
        t1, t2 = site.get("t1"), site.get("t2")
        sides1, sides2 = self.transits[t1].sides, self.transits[t2].sides
        shared = set(sides1) & set(sides2)
        if not shared:
            return True
        (side,) = shared
        fm = self.maps[side[0]][0]
        n = len(fm.marks)
        m1, m2 = (fm.mark_end[("t", t, sides.index(side))] - fm.mark_base
                  for t, sides in ((t1, sides1), (t2, sides2)))
        first = m1 if (m1 + 1) % n == m2 else m2
        return (fm.orbit_of[fm.mark_dart((first - 1) % n)]
                == fm.orbit_of[fm.mark_dart((first + 1) % n)])

    def _reroute(self, site: MoveSite) -> bool:
        """M7: a transit run is admitted (``_always``), an empty run unless it misses its gap.

        An empty run is ``_tongue``'s argument with the entry corner's gap,
        next to the vertex, for the segment between ``ta`` and ``tb``.  The
        facing side is the arc's left if ``forward`` matches ``along``, the
        cycle crossing the entry corner from side i's end to side i + 1's as
        the face's word runs, and its right if not; a one-step cycle joins
        one edge end to itself and faces the right either way.  The new arcs
        at the other corners cut corners off their faces.  An arc in another
        component of the face map, or a circle, is admitted.
        """
        rec = self.arcs.get((site.get("comp"), site.get("arc")))
        if site.get("length") or rec is None:
            return True
        cycle = site.get("cycle")
        node, (f, i) = cycle[site.get("entry")]
        e, sgn = self.faces[f][i]
        along = node == (e, 1 if sgn > 0 else 0)
        left = len(cycle) > 1 and site.get("forward") == along
        return self._meets_gap(f, (i, math.inf), rec[0], rec[2] if left else rec[1])


def _fingers(a, b) -> Tuple[bool, ...]:
    """The ``anti`` values that ``_slide`` admits from arc record a to b (None: a circle).

    False needs b's left, True b's right, on a's right face walk.
    """
    if a is None or b is None or a[0] != b[0]:
        return (False, True)
    return (False,) * (b[2] == a[1]) + (True,) * (b[1] == a[1])


# -- dispatch ---------------------------------------------------------------

# kind -> (candidates(d, kind), apply(d, kind, site), predicate): the
# candidates are a _Rows for the kinds with many sites, a list for the
# others; the predicate is the _Regions method that decides the kind on a
# valid diagram
_MOVES = {
    MoveKind.M1P: (_candidates_m1, _apply_m1_insert, _Regions._always),
    MoveKind.M1M: (_candidates_m1, _apply_m1_insert, _Regions._always),
    MoveKind.M1P_INV: (_candidates_m1_inv, _apply_m1_delete, _Regions._always),
    MoveKind.M1M_INV: (_candidates_m1_inv, _apply_m1_delete, _Regions._always),
    MoveKind.M2: (_candidates_m2, _apply_m2_insert, _Regions._slide),
    MoveKind.M2_INV: (_candidates_m2_inv, _apply_m2_delete, _Regions._always),
    MoveKind.M3: (_candidates_m3, _apply_m3, _Regions._always),
    MoveKind.M3_INV: (_candidates_m3, _apply_m3, _Regions._always),
    MoveKind.M4: (_candidates_m4, _apply_m4_insert, _Regions._tongue),
    MoveKind.M4_INV: (_candidates_m4_inv, _apply_m4_delete, _Regions._always),
    MoveKind.M5P: (_candidates_m5, _apply_m5, _Regions._carry),
    MoveKind.M5M: (_candidates_m5, _apply_m5, _Regions._carry),
    MoveKind.M6: (_candidates_m6, _apply_m6, _Regions._exchange),
    MoveKind.M6_INV: (_candidates_m6, _apply_m6, _Regions._exchange),
    MoveKind.M7: (_candidates_m7, _apply_m7, _Regions._reroute),
}


def _move(kind: MoveKind):
    """The normalised kind (a MoveKind or its value) and its registry entry."""
    try:
        kind = MoveKind(kind)
    except ValueError:
        raise MoveError(f"unknown move kind {kind!r}") from None
    return kind, _MOVES[kind]


def _candidates(d: Diagram, kind: MoveKind) -> Sequence[MoveSite]:
    """The candidate sequence of a kind: ``len(seq)`` and ``seq[i]``.

    M1p, M1m, M2, M4, the M5 pushes and the M7 empty runs are rows of
    sites built on demand from a few counts per row; the other kinds, whose
    candidates pass a pattern match, are plain lists.
    """
    kind, (candidates, _apply, _decide) = _move(kind)
    return candidates(d, kind)


def candidate_sites(d: Diagram, kind: MoveKind) -> List[MoveSite]:
    """Pattern-matched candidate sites, before the validity filter.

    Every site of the kind's candidate sequence, in its order; ``fuzz``
    reads the same sequence but builds only the sites it tries.
    """
    return list(_candidates(d, kind))


def apply(d: Diagram, kind: MoveKind, site: MoveSite) -> Diagram:
    """Apply one move and validate the result; a negative index is stale."""
    kind, (_candidates, apply_kind, _decide) = _move(kind)
    if site.kind is not kind:
        raise MoveError(f"site is for {site.kind.value}, not {kind.value}")
    for key, value in site.data.items():
        if type(value) is int and value < 0:
            raise MoveError(f"stale site for {kind.value}: {key!r} is negative")
    try:
        out = apply_kind(d, kind, site)
    except (KeyError, IndexError) as exc:
        raise MoveError(f"stale site for {kind.value}: {exc}") from exc
    try:
        return validate_diagram(out)
    except DiagramError as exc:
        raise MoveError(f"{kind.value} at this site does not yield a valid "
                        f"diagram: {exc}") from exc


def iter_sites(d: Diagram, kind: MoveKind) -> Iterator[MoveSite]:
    """Every candidate site whose application yields a valid diagram, lazily.

    The predicate in the kind's ``_MOVES`` row decides each candidate
    exactly from the face walks of d's face maps (Mohar & Thomassen,
    *Graphs on Surfaces*, 2001), without applying one; M2 sites are built
    from region pairs only.  The order is ``candidate_sites`` order.  d must
    be valid: DiagramError, with validation's text, if it is not.
    """
    kind, _entry = _move(kind)
    regions = derived(d, "regions", _Regions)
    if kind is MoveKind.M2:
        return regions.slides(d)
    return filter(regions.admits, _candidates(d, kind))


def find_sites(d: Diagram, kind: MoveKind) -> List[MoveSite]:
    """The list of ``iter_sites``: every site of the kind, in ``candidate_sites`` order."""
    return list(iter_sites(d, kind))


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

    Each step tries at most 40 shuffled candidates of a kind.  It shuffles
    the indices of the kind's candidate sequence and builds only the sites
    it tries; ``random.shuffle`` draws depend only on the length, so the
    trace is the one that shuffling the full ``candidate_sites`` list
    gives.  The predicate in the kind's ``_MOVES`` row skips a rejected
    candidate without applying it, and only the admitted site is applied;
    the predicates are exact, so the trace is the one that applying every
    candidate would give.  d must be valid: DiagramError if it is not.
    """
    rng = random.Random(seed)
    trace: List[Tuple[MoveKind, MoveSite]] = []
    cur = d
    for i in range(steps):
        regions = derived(cur, "regions", _Regions)
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
                cands = _candidates(cur, kind)
                if not len(cands):
                    continue
                order = list(range(len(cands)))
                rng.shuffle(order)
                site = next(filter(regions.admits, map(cands.__getitem__, order[:40])), None)
                if site is not None:
                    applied = (kind, site, apply(cur, kind, site))
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
        except (ValueError, RecursionError) as exc:
            cut = "..." if len(payload) > 60 else ""     # a site may be nested 100k deep
            raise MoveError(f"trace line {ln}: bad site {payload[:60]!r}{cut}: {exc}") from None
    return out


def replay(d: Diagram, trace) -> Diagram:
    """Apply a trace's moves in order.

    A site of the wrong shape is a MoveError, and so is a site that
    ``apply`` accepts but ``candidate_sites`` does not list (compared by
    fingerprint, since ``True == 1`` in a tuple).  A MoveError from
    ``apply`` keeps its text and ends with the step, `` (trace step N)``.
    """
    for step, (kind, site) in enumerate(trace, 1):
        try:
            nxt = apply(d, kind, site)
        except MoveError as exc:
            raise MoveError(f"{exc} (trace step {step})") from None
        except (TypeError, ValueError) as exc:
            raise MoveError(f"trace step {step}: bad site for {MoveKind(kind).value}: "
                            f"{exc}") from None
        listed = {s.fingerprint() for s in candidate_sites(d, kind)}
        if site.fingerprint() not in listed:
            raise MoveError(f"trace step {step}: {site.kind.value} {site.fingerprint()} "
                            f"is not a candidate site")
        d = nxt
    return d
