"""Dotted link diagrams carried by a 2-complex.

A diagram is a family of closed curves.  Curves meet each other and
themselves in dotted crossings inside faces, and cross edges of the
complex at transits.  Between events a curve runs as an arc inside one
face; arcs carry no geometry.  Drawability is certified per face: the
tangle of each face, closed up with the face's boundary circle, must give
a genus-zero map under the rotation-system Euler count.

Crossings have four ports listed counterclockwise with respect to the
host face's boundary word; strands pair ports as the diameters (0,2) and
(1,3).  The dot flag selects which pair of opposite sectors carries the
dots: 0 puts them in sectors (p0,p1) and (p2,p3), 1 in (p1,p2) and
(p3,p0).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple, TypeVar, Union)

from .errors import DiagramError
from .twocomplex import Incidence, PointClass, TwoComplex, edge_class

__all__ = [
    "Crossing",
    "Transit",
    "CrossVisit",
    "TransitVisit",
    "Component",
    "Diagram",
    "validate_diagram",
    "mirror",
    "reorient_face",
    "reverse_component",
    "trace_loop",
    "split_components",
    "PlanarCode",
    "draw_local",
    "braid_code",
]


@dataclass(frozen=True)
class Crossing:
    face: str
    dot: int                     # 0 or 1, see module docstring


@dataclass(frozen=True)
class Transit:
    edge: str
    pos: Fraction                # in (0,1), measured along the edge direction
    sides: Tuple[Incidence, Incidence]


@dataclass(frozen=True)
class CrossVisit:
    crossing: str
    enter: int                   # entering port, 0..3


@dataclass(frozen=True)
class TransitVisit:
    transit: str
    enter: int                   # entering side, 0 or 1 (index into Transit.sides)


Event = Union[CrossVisit, TransitVisit]


@dataclass(frozen=True)
class Component:
    """One closed curve: a cyclic event list with an arc face after each event.

    A crossing-free, transit-free circle has no events and a single face in
    ``arc_faces``.  ``directed`` marks the listing order as an orientation.
    """

    events: Tuple[Event, ...]
    arc_faces: Tuple[str, ...]
    directed: bool = False


@dataclass(frozen=True)
class Diagram:
    """Crossings, transits and components on a complex.

    A diagram is treated as immutable: the library keeps data derived from
    it (the event walk with its arcs, port ends and visits, crossing signs,
    face maps, a passed validation, the face walks of the move predicates,
    the state-sum contraction with its plan, the bracket) keyed by the
    object, so changing its dicts in place after a library call is
    unsupported.  Build a new diagram with ``dataclasses.replace`` instead.
    """

    complex: TwoComplex
    crossings: Dict[str, Crossing]
    transits: Dict[str, Transit]
    components: Tuple[Component, ...]

    def oriented(self) -> bool:
        return all(c.directed for c in self.components)


# -- derived data ------------------------------------------------------

_T = TypeVar("_T")
_O = TypeVar("_O")

class _Record:
    """Derived data for the object used last: one slot, (weak reference, record).

    ``get(obj, key, build)`` is ``build(obj)``, computed once and kept under
    ``key`` in the record of ``obj``.  A call with another object replaces
    the slot in one assignment.  The identity check means that an equal but
    distinct object, or a new one that reuses the address of a freed one,
    starts from an empty record.  There is one slot, not a record per
    object, because a caller that keeps many objects alive would keep all
    their records alive too.  A build that raises stores nothing, and puts
    back the slot it replaced: a move whose result fails validation leaves
    the record of the diagram it was applied to.  The value is shared by
    every caller: do not change it.
    """

    __slots__ = ("last",)

    def __init__(self):
        self.last: Tuple[Callable[[], object], Dict[str, object]] = (lambda: None, {})

    def get(self, obj: _O, key: str, build: Callable[[_O], _T]) -> _T:
        last = self.last
        ref, record = last
        if ref() is not obj:
            record = {}
            self.last = (weakref.ref(obj), record)
        if key not in record:
            try:
                record[key] = build(obj)
            except BaseException:
                if record is not last[1]:
                    self.last = last
                raise
        return record[key]


# The record of the diagram used last, and that of the complex used last:
# data that depends on the complex alone outlives a change of diagram.
derived = _Record().get
complex_derived = _Record().get


# -- the event walk and its views ----------------------------------------

Slot = Tuple[str, str, int]      # ("x", crossing, port) or ("t", transit, side)
Visit = Tuple[int, int]          # (component index, event index)
TransitStep = Tuple[str, Incidence, Incidence]   # edge, entering side, exiting side


class Arc(NamedTuple):
    comp: int
    index: int
    src: Optional[Slot]          # None for a closed circle
    dst: Optional[Slot]
    face: str


class EventWalk:
    """Every component's event list, read once; kept in the record of d.

    A crossing visit entering port p leaves by port p + 2 (mod 4), a transit
    visit entering side s leaves by side 1 - s.  Per component ci the walk
    keeps the slots each event is entered and left by (``enters[ci]``,
    ``exits[ci]``) and its transit steps in listing order (``steps[ci]``).  It
    keeps the visits of each declared crossing and transit, the ``legs`` (exit
    slot, enter slot, transit steps) from each crossing visit to the next on
    its component, and the ``loops``: the components that visit no crossing.
    The arcs, the arc at each (component, index), the arc end at each crossing
    port and the visit pairs are built from these on first use.

    A fault does not stop the walk: ``fault`` is the first fault of the
    event lists in the order that validation checks them, or None, and
    ``visit_pairs`` raises it.
    """

    def __init__(self, d: Diagram):
        faces, transits = d.complex.faces, d.transits
        self.components = d.components
        self.crossing_visits: Dict[str, List[Visit]] = {c: [] for c in d.crossings}
        self.transit_visits: Dict[str, List[Visit]] = {t: [] for t in transits}
        self.enters: List[List[Slot]] = []
        self.exits: List[List[Slot]] = []
        self.steps: List[List[TransitStep]] = []
        self.legs: List[Tuple[Slot, Slot, Tuple[TransitStep, ...]]] = []
        self.loops: List[int] = []
        faults = []
        x_visits, t_visits, legs = self.crossing_visits, self.transit_visits, self.legs
        for ci, comp in enumerate(d.components):
            events = comp.events
            if not events:
                if len(comp.arc_faces) != 1:
                    faults.append(f"component {ci}: a circle needs exactly one face")
                elif comp.arc_faces[0] not in faces:
                    faults.append(f"component {ci}: unknown face")
            elif len(comp.arc_faces) != len(events):
                faults.append(f"component {ci}: arc face list does not match events")
            enters, exits, steps = [], [], []
            first = None                 # (steps before, enter slot) of the first crossing
            for ei, ev in enumerate(events):
                if isinstance(ev, CrossVisit):
                    c, p = ev.crossing, ev.enter
                    visits = x_visits.get(c)
                    if visits is None:
                        faults.append(f"component {ci}: unknown crossing {c!r}")
                    else:
                        visits.append((ci, ei))
                    if p not in (0, 1, 2, 3):
                        faults.append(f"component {ci}: bad port {p}")
                    enter = ("x", c, p)
                    if first is None:
                        first = (len(steps), enter)
                    else:
                        legs.append((out, enter, tuple(steps[n:])))
                    out, n = ("x", c, (p + 2) % 4), len(steps)
                    exits.append(out)
                else:
                    t, s = ev.transit, ev.enter
                    tr = transits.get(t)
                    if tr is None:
                        faults.append(f"component {ci}: unknown transit {t!r}")
                    else:
                        t_visits[t].append((ci, ei))
                    if s not in (0, 1):
                        faults.append(f"component {ci}: bad transit side {s}")
                    elif tr is not None:
                        steps.append((tr.edge, tr.sides[s], tr.sides[1 - s]))
                    enter = ("t", t, s)
                    exits.append(("t", t, 1 - s))
                enters.append(enter)
            self.enters.append(enters)
            self.exits.append(exits)
            self.steps.append(steps)
            if first is None:
                self.loops.append(ci)
            else:                        # the leg round the end of the listing
                m, enter = first
                legs.append((out, enter, tuple(steps[n:] + steps[:m])))
        self.fault: Optional[str] = faults[0] if faults else None

    @cached_property
    def arcs(self) -> List[Arc]:
        out = []
        for ci, comp in enumerate(self.components):
            enters, exits = self.enters[ci], self.exits[ci]
            if not enters:
                out.append(Arc(ci, 0, None, None, comp.arc_faces[0]))
                continue
            out += [Arc(ci, ai, exits[ai], enters[ai + 1 - len(enters)], comp.arc_faces[ai])
                    for ai in range(len(enters))]
        return out

    @cached_property
    def arc_at(self) -> Dict[Tuple[int, int], Arc]:
        return {(a.comp, a.index): a for a in self.arcs}

    @cached_property
    def port_ends(self) -> Dict[Tuple[str, int], Tuple[Arc, int]]:
        out = {}
        for arc in self.arcs:
            if arc.src is None:
                continue
            for end, slot in ((0, arc.src), (1, arc.dst)):
                if slot[0] == "x":
                    out[(slot[1], slot[2])] = (arc, end)
        return out

    @cached_property
    def visit_pairs(self) -> Dict[str, List[Visit]]:
        if self.fault is not None:
            raise DiagramError(self.fault)
        enters = self.enters
        for c, vs in self.crossing_visits.items():
            if len(vs) != 2:
                raise DiagramError(f"crossing {c!r} visited {len(vs)} times, expected 2")
            (c1, e1), (c2, e2) = vs     # one entering port of each parity:
            if (enters[c1][e1][2] + enters[c2][e2][2]) % 2 != 1:
                raise DiagramError(f"crossing {c!r}: visits do not cover both diameters")
        return self.crossing_visits


def event_walk(d: Diagram) -> EventWalk:
    """The event walk of d, built once and kept in the record of d."""
    return derived(d, "walk", EventWalk)


# The views of the event walk.

def arcs_of(d: Diagram) -> List[Arc]:
    return event_walk(d).arcs


def port_ends(d: Diagram) -> Dict[Tuple[str, int], Tuple[Arc, int]]:
    """(crossing, port) -> (arc, end), end 0 where the arc leaves the port, else 1."""
    return event_walk(d).port_ends


def crossing_visits(d: Diagram) -> Dict[str, List[Visit]]:
    """crossing id -> [(component index, event index)] in listing order."""
    return event_walk(d).crossing_visits


def transit_visits(d: Diagram) -> Dict[str, List[Visit]]:
    return event_walk(d).transit_visits


def visit_pairs(d: Diagram) -> Dict[str, List[Visit]]:
    """crossing id -> its two visits; DiagramError with validation's text if not."""
    return event_walk(d).visit_pairs


def _transit_orders(d: Diagram) -> Dict[str, Tuple[str, ...]]:
    transits = d.transits
    on_edge: Dict[str, List[str]] = {}
    for t, tr in transits.items():
        on_edge.setdefault(tr.edge, []).append(t)
    return {e: tuple(sorted(ts, key=lambda t: transits[t].pos))
            for e, ts in on_edge.items()}


def transit_orders(d: Diagram) -> Dict[str, Tuple[str, ...]]:
    """edge -> its transits by increasing position, for every edge with one.

    Edges, and transits at equal positions, keep their ``d.transits`` order.
    Kept in the record of d.
    """
    return derived(d, "transit_orders", _transit_orders)


def boundary_edges(cx: TwoComplex) -> FrozenSet[str]:
    """The edges of cx that bound a single face, kept in the record of cx."""
    return complex_derived(cx, "boundary_edges", lambda cx: frozenset(
        e for e in cx.edges if edge_class(cx, e).kind is PointClass.BOUNDARY))


# -- face boundary and the planarity certificate ------------------------

def boundary_marks(d: Diagram) -> Dict[str, List[Tuple[str, int]]]:
    """Face -> transit ends on its boundary, in boundary-word cyclic order.

    Each mark is (transit id, side index of the end lying on the face).
    A side lists its edge's transits in the order kept in the record of d,
    reversed where the side runs against the edge.
    """
    transits = d.transits
    on_side: Dict[Tuple[str, int, str], List[Tuple[str, int]]] = {}
    for e, order in transit_orders(d).items():
        for t in order:
            sides = transits[t].sides
            for k in (0, 1):
                f, j = sides[k]
                on_side.setdefault((f, j, e), []).append((t, k))
    out = {}
    for f, word in d.complex.faces.items():
        marks: List[Tuple[str, int]] = []
        for j, (e, direction) in enumerate(word):
            side = on_side.get((f, j, e))
            if side:
                marks.extend(side if direction > 0 else reversed(side))
        out[f] = marks
    return out


class FaceMap:
    """The face tangle closed with its boundary circle, as a rotation map.

    Crossings carry their four ports counterclockwise.  The boundary
    circle is contracted to one node that carries the marks' arc ends in
    reverse order: walked in word order, interior on the left, the circle
    turns from the arc at a mark into the arc of the mark before.  This
    keeps V - E + F and the components, and drops only the walk outside
    the circle, which holds no arc (Mohar & Thomassen, 2001, ch. 3-4).

    Darts: crossing ``x_index[c]`` = i owns ``4i .. 4i+3`` (its ports), and
    mark m owns ``mark_dart(m)``.  ``alpha`` pairs the ends of an arc,
    ``arc_of`` names its (component, index), ``orbits`` are the face walks
    (dart -> successor of ``alpha[dart]`` at its node, region on the right)
    and ``orbit_of`` names the walk through each dart; the walk through
    ``mark_dart(m)`` is the region between marks m and m + 1.
    ``component`` holds equal labels for connected nodes: entry i
    for crossing i and, if there are marks, a last one for the boundary
    node, which ``node_of`` gives for a mark's dart.
    """

    def __init__(self, crossings: List[str], arcs: List[Arc],
                 marks: List[Tuple[str, int]]):
        """The face's crossings in name order, its arcs that are not
        circles, and its boundary marks; ``face_maps`` groups them.

        ``ok`` is False when an arc end has no dart in this face (its
        crossing lies elsewhere, or its transit end is not one of the
        face's marks), when two arcs share a dart, or when a dart is left
        unmatched; such a map has no walks.
        """
        self.ok = True
        self.marks = marks
        n_x, n_marks = len(crossings), len(marks)
        self.mark_base = base = 4 * n_x
        n_darts = base + n_marks
        self.x_index = {c: i for i, c in enumerate(crossings)}
        # the dart of each mark, keyed by the slot of the arc end on it
        self.mark_end = {("t",) + m: base + i for i, m in enumerate(marks)}
        alpha = [-1] * n_darts
        arc_of: List[Optional[Tuple[int, int]]] = [None] * n_darts
        # a union-find over the crossings and the boundary node (entry n_x)
        parent = list(range(n_x + bool(n_marks)))

        def root(i: int) -> int:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]     # path halving
            return i

        slot_dart = self.slot_dart
        for arc in arcs:
            try:
                a, b = slot_dart(arc.src), slot_dart(arc.dst)
            except KeyError:     # an end off this face has no dart here
                self.ok = False
                return
            if alpha[a] >= 0 or alpha[b] >= 0:
                self.ok = False
                return
            alpha[a], alpha[b] = b, a
            arc_of[a] = arc_of[b] = arc[:2]
            parent[root(a >> 2 if a < base else n_x)] = root(b >> 2 if b < base else n_x)
        if -1 in alpha:
            self.ok = False      # an unmatched port or transit end
            return
        self.alpha = alpha
        self.arc_of = arc_of
        self.component = [root(i) for i in range(len(parent))]
        self.orbit_of = orbit_of = [-1] * n_darts
        self.orbits = orbits = []
        last_mark = n_darts - 1
        for start in range(n_darts):
            if orbit_of[start] >= 0:
                continue
            o = len(orbits)
            orbit = []
            i = start
            while orbit_of[i] < 0:
                orbit_of[i] = o
                orbit.append(i)
                i = alpha[i]
                if i < base:
                    i = i - 3 if i & 3 == 3 else i + 1
                else:
                    i = last_mark if i == base else i - 1
            orbits.append(orbit)

    def slot_dart(self, slot: Slot) -> int:
        """The dart of an arc end: a crossing port or a boundary mark."""
        if slot[0] == "x":
            return 4 * self.x_index[slot[1]] + slot[2]
        return self.mark_end[slot]

    def node_of(self, dart: int) -> int:
        """Index into ``component`` of the crossing or boundary node of a dart."""
        base = self.mark_base
        return dart >> 2 if dart < base else base >> 2

    def mark_dart(self, mark: int) -> int:
        return self.mark_base + mark

    def genus_zero(self) -> bool:
        """Every connected component is a sphere: V - E + F = 2 per component.

        No connected map has Euler characteristic above 2, so the
        per-component condition is the sum V - E + F = 2 * components.
        """
        if not self.ok:
            return False
        return (len(self.component) - len(self.alpha) // 2 + len(self.orbits)
                == 2 * len(set(self.component)))


def face_maps(d: Diagram) -> Iterator[Tuple[str, FaceMap]]:
    """(face, face map) for every face in complex order, built on demand.

    One pass over the arcs and one over the transits serve every face.
    """
    faces = d.complex.faces
    crossings: Dict[str, List[str]] = {f: [] for f in faces}
    for c in sorted(d.crossings):
        crossings.setdefault(d.crossings[c].face, []).append(c)
    face_arcs: Dict[str, List[Arc]] = {f: [] for f in faces}
    for arc in arcs_of(d):
        if arc.src is not None:
            face_arcs.setdefault(arc.face, []).append(arc)
    marks = derived(d, "marks", boundary_marks)
    for f in faces:
        yield f, FaceMap(crossings[f], face_arcs[f], marks[f])


# -- validation ---------------------------------------------------------

def validate_diagram(d: Diagram) -> Diagram:
    """Check every structural invariant; return the diagram unchanged.

    A second call on a diagram that passed returns at once, as long as
    its record is still the one kept (see ``derived``).
    """
    valid_face_maps(d)
    return d


def valid_face_maps(d: Diagram) -> List[Tuple[str, FaceMap]]:
    """(face, face map) for every face of a valid diagram, in complex order.

    Raises DiagramError at the first check that fails.  The maps of a
    diagram that passed are kept in its record.
    """
    return derived(d, "face_maps", _checked_face_maps)


def _checked_face_maps(d: Diagram) -> List[Tuple[str, FaceMap]]:
    """The checks of ``validate_diagram``, in order; the face maps if all pass."""
    cx = d.complex
    crossings, transits = d.crossings, d.transits
    for c, cr in crossings.items():
        if cr.face not in cx.faces:
            raise DiagramError(f"crossing {c!r} sits in unknown face {cr.face!r}")
        if cr.dot not in (0, 1):
            raise DiagramError(f"crossing {c!r}: dots must mark one opposite sector pair")
    boundary = boundary_edges(cx)
    for t, tr in transits.items():
        if tr.edge not in cx.edges:
            raise DiagramError(f"transit {t!r} crosses unknown edge {tr.edge!r}")
        if tr.edge in boundary:
            raise DiagramError(f"transit {t!r} crosses boundary edge {tr.edge!r}")
        if tr.sides[0] == tr.sides[1]:
            raise DiagramError(f"transit {t!r} joins an incidence to itself")
        for inc in tr.sides:
            if inc not in cx.incidences[tr.edge]:
                raise DiagramError(f"transit {t!r} references a bad incidence {inc!r}")
        p = tr.pos      # a Fraction's denominator is positive
        if not (0 < p.numerator < p.denominator if type(p) is Fraction else 0 < p < 1):
            raise DiagramError(f"transit {t!r} position out of range")
    for e, order in transit_orders(d).items():
        for t1, t2 in zip(order, order[1:]):    # equal positions are neighbours
            if transits[t1].pos == transits[t2].pos:
                raise DiagramError(f"edge {e!r} carries transits at equal positions")

    visit_pairs(d)              # the event lists, then the crossing visits
    for t, vs in transit_visits(d).items():
        if len(vs) != 1:
            raise DiagramError(f"transit {t!r} visited {len(vs)} times, expected 1")

    # Each port and transit end is now the end of exactly one arc, so every
    # face map is ok exactly when every arc lies in the face of both its
    # ends: the arcs are read one by one only to name the first that does not.
    maps = list(face_maps(d))
    if not all(fm.ok for _f, fm in maps):
        for arc in arcs_of(d):
            src, dst = arc.src, arc.dst
            if src is None:
                continue
            fa = crossings[src[1]].face if src[0] == "x" else transits[src[1]].sides[src[2]][0]
            fb = crossings[dst[1]].face if dst[0] == "x" else transits[dst[1]].sides[dst[2]][0]
            if arc.face != fa or arc.face != fb:
                raise DiagramError(f"arc {arc.comp}.{arc.index} labeled {arc.face!r} "
                                   f"joins faces {fa!r}, {fb!r}")
    for f, fm in maps:
        if not fm.genus_zero():
            raise DiagramError(f"tangle of face {f!r} is not drawable in a disc")
    return maps


# -- elementary operations ----------------------------------------------

def mirror(d: Diagram) -> Diagram:
    """Flip the dotted sector pair at every crossing."""
    return replace(d, crossings={c: replace(cr, dot=1 - cr.dot)
                                 for c, cr in d.crossings.items()})


def reverse_component(d: Diagram, ci: int) -> Diagram:
    """Reverse the direction of one component: each event is entered where it was left.

    Port p becomes p ^ 2 (p + 2 mod 4, and a bad port stays bad), side s 1 - s.
    """
    comp = d.components[ci]
    if not comp.events:
        return d
    events = tuple(CrossVisit(ev.crossing, ev.enter ^ 2) if isinstance(ev, CrossVisit)
                   else TransitVisit(ev.transit, 1 - ev.enter)
                   for ev in comp.events[:1] + comp.events[:0:-1])
    comps = list(d.components)
    comps[ci] = Component(events, comp.arc_faces[::-1], comp.directed)
    return replace(d, components=tuple(comps))


def trace_loop(d: Diagram, ci: int) -> List[str]:
    """The transit sequence of a component, crossings ignored."""
    return [ev.transit for ev in d.components[ci].events
            if isinstance(ev, TransitVisit)]


def split_components(d: Diagram) -> List[List[int]]:
    """Group components connected through shared crossings; sorted groups."""
    n = len(d.components)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (c1, _), (c2, _) in visit_pairs(d).values():
        r1, r2 = find(c1), find(c2)
        if r1 != r2:
            parent[r1] = r2
    groups: Dict[int, List[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def sc(d: Diagram) -> int:
    """Number of split components."""
    return len(split_components(d))


def reorient_face(d: Diagram, f: str) -> Diagram:
    """Reverse the boundary word of one face and re-encode the diagram.

    The result describes the same curves; ports and dots of crossings in
    the face are rewritten for the reversed local orientation and
    incidence references into the face are renumbered.
    """
    cx = d.complex
    if f not in cx.faces:
        raise DiagramError(f"unknown face {f!r}")
    word = cx.faces[f]
    m = len(word)
    new_word = tuple((e, -dd) for e, dd in reversed(word))
    faces = dict(cx.faces)
    faces[f] = new_word
    from .twocomplex import validate_complex
    cx2 = validate_complex(cx.name, cx.vertices, cx.edges, faces)

    def remap_inc(inc: Incidence) -> Incidence:
        return (f, m - 1 - inc[1]) if inc[0] == f else inc

    transits = {t: replace(tr, sides=(remap_inc(tr.sides[0]), remap_inc(tr.sides[1])))
                for t, tr in d.transits.items()}
    crossings = {}
    flipped = set()
    for c, cr in d.crossings.items():
        if cr.face == f:
            crossings[c] = Crossing(f, 1 - cr.dot)
            flipped.add(c)
        else:
            crossings[c] = cr

    def remap_event(ev: Event) -> Event:
        if isinstance(ev, CrossVisit) and ev.crossing in flipped:
            return CrossVisit(ev.crossing, (4 - ev.enter) % 4)
        return ev

    components = tuple(Component(tuple(remap_event(ev) for ev in comp.events),
                                 comp.arc_faces, comp.directed)
                       for comp in d.components)
    return Diagram(cx2, crossings, transits, components)


def orient_all(d: Diagram) -> Diagram:
    """Mark every component as directed by its listing order."""
    return replace(d, components=tuple(replace(c, directed=True)
                                       for c in d.components))


# -- canonical relabeling (equality up to entity names) ------------------

def _normalized_positions(d: Diagram) -> Dict[str, Fraction]:
    """transit -> its position re-spaced to i/(n+1) along its edge."""
    pos = {}
    for order in transit_orders(d).values():
        for i, t in enumerate(order):
            pos[t] = Fraction(i + 1, len(order) + 1)
    return pos


def canonical_relabel(d: Diagram) -> Diagram:
    """Rename entities, normalize positions, and fix port rotations.

    Entities are renamed in order of first traversal, transit positions
    are re-spaced to i/(n+1) per edge, and every crossing's ports are
    rotated so that its first visit enters at port 0.  Two diagrams that
    differ only in names, positions, or port rotations get equal
    canonical forms.
    """
    xmap: Dict[str, str] = {}
    tmap: Dict[str, str] = {}
    rot: Dict[str, int] = {}
    for comp in d.components:
        for ev in comp.events:
            if isinstance(ev, CrossVisit):
                if ev.crossing not in xmap:
                    xmap[ev.crossing] = f"c{len(xmap) + 1}"
                    rot[ev.crossing] = ev.enter
            else:
                tmap.setdefault(ev.transit, f"t{len(tmap) + 1}")
    crossings = {xmap[c]: Crossing(cr.face, (cr.dot - rot[c]) % 2)
                 for c, cr in d.crossings.items()}
    new_pos = _normalized_positions(d)
    transits = {tmap[t]: replace(tr, pos=new_pos[t]) for t, tr in d.transits.items()}

    def remap(ev: Event) -> Event:
        if isinstance(ev, CrossVisit):
            return CrossVisit(xmap[ev.crossing], (ev.enter - rot[ev.crossing]) % 4)
        return TransitVisit(tmap[ev.transit], ev.enter)

    components = tuple(Component(tuple(remap(ev) for ev in comp.events),
                                 comp.arc_faces, comp.directed)
                       for comp in d.components)
    return Diagram(d.complex, crossings, transits, components)


def same_diagram(a: Diagram, b: Diagram) -> bool:
    return canonical_relabel(a) == canonical_relabel(b)


# -- classical planar codes ----------------------------------------------

@dataclass(frozen=True)
class PlanarCode:
    """A dotted diagram code in the plane.

    Each crossing lists its four arc-end labels counterclockwise plus the
    dot flag; every arc label occurs exactly twice in total.  ``circles``
    counts crossing-free closed curves.
    """

    crossings: Tuple[Tuple[str, Tuple[str, str, str, str], int], ...]
    circles: int = 0


def code_strands(code: PlanarCode) -> List[List[Tuple[str, int]]]:
    """Each strand of a planar code as its (crossing id, entering port) list.

    A strand enters a port and leaves through the opposite one.  Strands
    are traced from the ports in code order, so the listing and the
    direction of each strand are deterministic.  Crossing ids are unique.
    """
    ends: Dict[str, List[Tuple[str, int]]] = {}
    ids = set()
    for cid, ports, _dot in code.crossings:
        if cid in ids:
            raise DiagramError(f"duplicate crossing id {cid!r}")
        ids.add(cid)
        for p, label in enumerate(ports):
            ends.setdefault(label, []).append((cid, p))
    other: Dict[Tuple[str, int], Tuple[str, int]] = {}
    for label, occ in ends.items():
        if len(occ) != 2:
            raise DiagramError(f"arc label {label!r} occurs {len(occ)} times, expected 2")
        other[occ[0]], other[occ[1]] = occ[1], occ[0]
    strands, visited = [], set()
    for cid, _ports, _dot in code.crossings:
        for start in ((cid, p) for p in range(4)):
            if start in visited:
                continue
            strand, cur = [], start
            while True:
                strand.append(cur)
                out = (cur[0], (cur[1] + 2) % 4)
                visited.update((cur, out))
                cur = other[out]
                if cur == start:
                    break
            strands.append(strand)
    return strands


def draw_local(cx: TwoComplex, face: str, code: PlanarCode) -> Diagram:
    """Realize a planar dotted code inside one face; crossing id k is named ck."""
    if face not in cx.faces:
        raise DiagramError(f"unknown face {face!r}")
    crossings = {}
    for cid, _ports, dot in code.crossings:
        if dot not in (0, 1):
            raise DiagramError(f"crossing {cid!r}: dots must mark one opposite sector pair")
        crossings[f"c{cid}"] = Crossing(face, dot)
    components = [Component(tuple(CrossVisit(f"c{cid}", p) for cid, p in strand),
                            (face,) * len(strand))
                  for strand in code_strands(code)]
    components += [Component((), (face,))] * code.circles
    return validate_diagram(Diagram(cx, crossings, {}, tuple(components)))


def braid_code(word: Iterable[int], strands: int) -> PlanarCode:
    """Dotted code of a braid closure.

    ``word`` lists generators: letter ``+i`` crosses strands i, i+1 with
    the descending strand dotted as the over strand, ``-i`` the other way.
    The closure joins top to bottom positions.
    """
    word = list(word)
    if strands < 1:
        raise DiagramError("need at least one strand")
    if any(abs(x) < 1 or abs(x) >= strands for x in word):
        raise DiagramError("braid letter out of range")
    arc_at = [f"bs{i}" for i in range(strands)]  # current arc per position
    counter = itertools.count(0)
    crossings = []
    for n, letter in enumerate(word):
        i = abs(letter) - 1
        a_in, b_in = arc_at[i], arc_at[i + 1]
        a_out = f"ba{next(counter)}"
        b_out = f"ba{next(counter)}"
        # braid flows downward: ports ccw = (NE in_right, NW in_left, SW out_left, SE out_right)
        ports = (b_in, a_in, a_out, b_out)
        dot = 1 if letter > 0 else 0
        crossings.append((f"{n}", ports, dot))
        arc_at[i], arc_at[i + 1] = a_out, b_out
    circles = 0
    for i in range(strands):
        if arc_at[i] == f"bs{i}":
            circles += 1
    # merge the closure: the final arc at position i is the same arc as the initial one
    rename = {}
    for i in range(strands):
        if arc_at[i] != f"bs{i}":
            rename[arc_at[i]] = f"bs{i}"
    merged = []
    for cid, ports, dot in crossings:
        ports = tuple(_resolve(rename, p) for p in ports)
        merged.append((cid, ports, dot))
    return PlanarCode(tuple(merged), circles)


def _resolve(rename: Dict[str, str], label: str) -> str:
    while label in rename:
        label = rename[label]
    return label
