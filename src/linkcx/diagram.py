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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple, Union

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
    complex: TwoComplex
    crossings: Dict[str, Crossing]
    transits: Dict[str, Transit]
    components: Tuple[Component, ...]

    def oriented(self) -> bool:
        return all(c.directed for c in self.components)

    def crossing_count(self) -> int:
        return len(self.crossings)


# -- slots and arcs ----------------------------------------------------

Slot = Tuple[str, str, int]      # ("x", crossing, port) or ("t", transit, side)


def enter_slot(ev: Event) -> Slot:
    if isinstance(ev, CrossVisit):
        return ("x", ev.crossing, ev.enter)
    return ("t", ev.transit, ev.enter)


def exit_slot(ev: Event) -> Slot:
    if isinstance(ev, CrossVisit):
        return ("x", ev.crossing, (ev.enter + 2) % 4)
    return ("t", ev.transit, 1 - ev.enter)


@dataclass(frozen=True)
class Arc:
    comp: int
    index: int
    src: Optional[Slot]          # None for a closed circle
    dst: Optional[Slot]
    face: str


def arcs_of(d: Diagram) -> List[Arc]:
    out = []
    for ci, comp in enumerate(d.components):
        k = len(comp.events)
        if k == 0:
            out.append(Arc(ci, 0, None, None, comp.arc_faces[0]))
            continue
        for ai in range(k):
            out.append(Arc(ci, ai,
                           exit_slot(comp.events[ai]),
                           enter_slot(comp.events[(ai + 1) % k]),
                           comp.arc_faces[ai]))
    return out


def slot_face(d: Diagram, slot: Slot) -> str:
    kind, ident, k = slot
    if kind == "x":
        return d.crossings[ident].face
    return d.transits[ident].sides[k][0]


def crossing_visits(d: Diagram) -> Dict[str, List[Tuple[int, int]]]:
    """crossing id -> [(component index, event index)] in listing order."""
    out: Dict[str, List[Tuple[int, int]]] = {c: [] for c in d.crossings}
    for ci, comp in enumerate(d.components):
        for ei, ev in enumerate(comp.events):
            if isinstance(ev, CrossVisit):
                out[ev.crossing].append((ci, ei))
    return out


def transit_visits(d: Diagram) -> Dict[str, List[Tuple[int, int]]]:
    out: Dict[str, List[Tuple[int, int]]] = {t: [] for t in d.transits}
    for ci, comp in enumerate(d.components):
        for ei, ev in enumerate(comp.events):
            if isinstance(ev, TransitVisit):
                out[ev.transit].append((ci, ei))
    return out


def edge_transit_order(d: Diagram, edge: str) -> List[str]:
    """Transits on an edge, by increasing position."""
    ts = [t for t, tr in d.transits.items() if tr.edge == edge]
    return sorted(ts, key=lambda t: d.transits[t].pos)


# -- face boundary and the planarity certificate ------------------------

def face_boundary_marks(d: Diagram, f: str) -> List[Tuple[str, int]]:
    """Transit ends on the boundary of face f, in boundary-word cyclic order.

    Each mark is (transit id, side index of the end lying on f).
    """
    marks: List[Tuple[str, int]] = []
    word = d.complex.faces[f]
    for j, (e, direction) in enumerate(word):
        on_side = []
        for t, tr in d.transits.items():
            if tr.edge != e:
                continue
            for k in (0, 1):
                if tr.sides[k] == (f, j):
                    on_side.append((tr.pos, t, k))
        on_side.sort(reverse=(direction < 0))
        marks.extend((t, k) for _pos, t, k in on_side)
    return marks


class FaceMap:
    """The face tangle closed with its boundary circle, as a rotation map.

    Rotations: crossings carry their four ports counterclockwise; each
    boundary mark carries (segment to next mark, arc end, segment from
    previous mark) counterclockwise, which matches a boundary walked in
    word order with the face interior on its left.
    """

    def __init__(self, d: Diagram, f: str):
        self.ok = True
        marks = face_boundary_marks(d, f)
        mark_index = {m: i for i, m in enumerate(marks)}
        n_marks = len(marks)
        nodes: List[tuple] = [("x", c) for c, cr in sorted(d.crossings.items())
                              if cr.face == f]
        nodes += [("b", i) for i in range(n_marks)]
        self.nodes = nodes
        rotation_size = {n: 4 if n[0] == "x" else 3 for n in nodes}
        dart_id: Dict[tuple, int] = {}
        darts: List[tuple] = []
        for n in nodes:
            for r in range(rotation_size[n]):
                dart_id[(n, r)] = len(darts)
                darts.append((n, r))
        self.darts = darts
        self.dart_id = dart_id
        alpha = [-1] * len(darts)
        arc_of: List[Optional[Tuple[int, int]]] = [None] * len(darts)

        def pair(a, b):
            alpha[dart_id[a]] = dart_id[b]
            alpha[dart_id[b]] = dart_id[a]

        # boundary mark slots: 0 = to next mark, 1 = arc end, 2 = to previous
        for i in range(n_marks):
            pair((("b", i), 0), (("b", (i + 1) % n_marks), 2))

        def slot_dart(slot: Slot):
            kind, ident, k = slot
            if kind == "x":
                return (("x", ident), k)
            return (("b", mark_index[(ident, k)]), 1)

        used = set()
        for arc in arcs_of(d):
            if arc.face != f or arc.src is None:
                continue
            if slot_face(d, arc.src) != f or slot_face(d, arc.dst) != f:
                self.ok = False
                return
            a, b = slot_dart(arc.src), slot_dart(arc.dst)
            if dart_id[a] in used or dart_id[b] in used:
                self.ok = False
                return
            used.update((dart_id[a], dart_id[b]))
            pair(a, b)
            arc_of[dart_id[a]] = (arc.comp, arc.index)
            arc_of[dart_id[b]] = (arc.comp, arc.index)

        if any(a < 0 for a in alpha):
            self.ok = False      # an unmatched port or transit end
            return
        self.alpha = alpha
        self.arc_of = arc_of
        succ = [0] * len(darts)
        for (n, r), i in dart_id.items():
            succ[i] = dart_id[(n, (r + 1) % rotation_size[n])]
        self.succ = succ

    def orbits(self) -> List[List[int]]:
        """Face walks of the map: orbits of dart -> ccw successor of reverse."""
        out = []
        seen = [False] * len(self.darts)
        for start in range(len(self.darts)):
            if seen[start]:
                continue
            orbit = []
            i = start
            while not seen[i]:
                seen[i] = True
                orbit.append(i)
                i = self.succ[self.alpha[i]]
            out.append(orbit)
        return out

    def genus_zero(self) -> bool:
        if not self.ok:
            return False
        parent = list(range(len(self.darts)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, a in enumerate(self.alpha):
            ra, rb = find(i), find(a)
            if ra != rb:
                parent[ra] = rb
            ra, rb = find(i), find(self.succ[i])
            if ra != rb:
                parent[ra] = rb

        faces_per: Dict[int, int] = {}
        for orbit in self.orbits():
            root = find(orbit[0])
            faces_per[root] = faces_per.get(root, 0) + 1
        verts_per: Dict[int, set] = {}
        edges_per: Dict[int, int] = {}
        for (n, _r), i in self.dart_id.items():
            root = find(i)
            verts_per.setdefault(root, set()).add(n)
            edges_per[root] = edges_per.get(root, 0) + 1
        for root, nf in faces_per.items():
            if len(verts_per[root]) - edges_per[root] // 2 + nf != 2:
                return False
        return True


def _face_map_genus_zero(d: Diagram, f: str) -> bool:
    return FaceMap(d, f).genus_zero()


# -- validation ---------------------------------------------------------

def validate_diagram(d: Diagram) -> Diagram:
    """Check every structural invariant; return the diagram unchanged."""
    cx = d.complex
    for c, cr in d.crossings.items():
        if cr.face not in cx.faces:
            raise DiagramError(f"crossing {c!r} sits in unknown face {cr.face!r}")
        if cr.dot not in (0, 1):
            raise DiagramError(f"crossing {c!r}: dots must mark one opposite sector pair")
    per_edge: Dict[str, List[Fraction]] = {}
    for t, tr in d.transits.items():
        if tr.edge not in cx.edges:
            raise DiagramError(f"transit {t!r} crosses unknown edge {tr.edge!r}")
        cls = edge_class(cx, tr.edge)
        if cls.kind == PointClass.BOUNDARY:
            raise DiagramError(f"transit {t!r} crosses boundary edge {tr.edge!r}")
        if tr.sides[0] == tr.sides[1]:
            raise DiagramError(f"transit {t!r} joins an incidence to itself")
        for inc in tr.sides:
            if inc not in cx.incidences[tr.edge]:
                raise DiagramError(f"transit {t!r} references a bad incidence {inc!r}")
        if not (0 < tr.pos < 1):
            raise DiagramError(f"transit {t!r} position out of range")
        per_edge.setdefault(tr.edge, []).append(tr.pos)
    for e, ps in per_edge.items():
        if len(set(ps)) != len(ps):
            raise DiagramError(f"edge {e!r} carries transits at equal positions")

    for ci, comp in enumerate(d.components):
        k = len(comp.events)
        if k == 0:
            if len(comp.arc_faces) != 1:
                raise DiagramError(f"component {ci}: a circle needs exactly one face")
            if comp.arc_faces[0] not in cx.faces:
                raise DiagramError(f"component {ci}: unknown face")
            continue
        if len(comp.arc_faces) != k:
            raise DiagramError(f"component {ci}: arc face list does not match events")
        for ev in comp.events:
            if isinstance(ev, CrossVisit):
                if ev.crossing not in d.crossings:
                    raise DiagramError(f"component {ci}: unknown crossing {ev.crossing!r}")
                if ev.enter not in range(4):
                    raise DiagramError(f"component {ci}: bad port {ev.enter}")
            else:
                if ev.transit not in d.transits:
                    raise DiagramError(f"component {ci}: unknown transit {ev.transit!r}")
                if ev.enter not in (0, 1):
                    raise DiagramError(f"component {ci}: bad transit side {ev.enter}")

    xvisits = crossing_visits(d)
    for c, vs in xvisits.items():
        if len(vs) != 2:
            raise DiagramError(f"crossing {c!r} visited {len(vs)} times, expected 2")
        enters = sorted(d.components[ci].events[ei].enter % 2 for ci, ei in vs)
        if enters != [0, 1]:
            raise DiagramError(f"crossing {c!r}: visits do not cover both diameters")
    for t, vs in transit_visits(d).items():
        if len(vs) != 1:
            raise DiagramError(f"transit {t!r} visited {len(vs)} times, expected 1")

    for arc in arcs_of(d):
        if arc.src is None:
            continue
        fa, fb = slot_face(d, arc.src), slot_face(d, arc.dst)
        if arc.face != fa or arc.face != fb:
            raise DiagramError(
                f"arc {arc.comp}.{arc.index} labeled {arc.face!r} joins faces {fa!r}, {fb!r}")

    for f in cx.faces:
        if not _face_map_genus_zero(d, f):
            raise DiagramError(f"tangle of face {f!r} is not drawable in a disc")
    return d


# -- elementary operations ----------------------------------------------

def mirror(d: Diagram) -> Diagram:
    """Flip the dotted sector pair at every crossing."""
    return replace(d, crossings={c: replace(cr, dot=1 - cr.dot)
                                 for c, cr in d.crossings.items()})


def reverse_component(d: Diagram, ci: int) -> Diagram:
    """Reverse the direction of one component."""
    comp = d.components[ci]
    k = len(comp.events)
    if k == 0:
        return d

    def flip(ev: Event) -> Event:
        if isinstance(ev, CrossVisit):
            return CrossVisit(ev.crossing, (ev.enter + 2) % 4)
        return TransitVisit(ev.transit, 1 - ev.enter)

    events = tuple(flip(ev) for ev in (comp.events[0],) + comp.events[:0:-1])
    faces = comp.arc_faces[::-1]
    comps = list(d.components)
    comps[ci] = Component(events, faces, comp.directed)
    return replace(d, components=tuple(comps))


def trace_loop(d: Diagram, ci: int) -> List[str]:
    """The transit sequence of a component, crossings ignored."""
    return [ev.transit for ev in d.components[ci].events
            if isinstance(ev, TransitVisit)]


def transit_steps(d: Diagram, ci: int, start: int = 0,
                  stop: Optional[int] = None) -> List[Tuple[str, Incidence, Incidence]]:
    """(edge, entering incidence, exiting incidence) per transit of a component.

    Events are read cyclically from index ``start`` up to, but not
    including, ``stop``; once round the component when ``stop`` is None.
    """
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


def split_components(d: Diagram) -> List[List[int]]:
    """Group components connected through shared crossings; sorted groups."""
    n = len(d.components)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for vs in crossing_visits(d).values():
        (c1, _), (c2, _) = vs
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
    new_pos: Dict[str, Fraction] = {}
    for e in sorted({tr.edge for tr in d.transits.values()}):
        order = edge_transit_order(d, e)
        n = len(order)
        for i, t in enumerate(order):
            new_pos[t] = Fraction(i + 1, n + 1)
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


def _code_arc_ends(code: PlanarCode) -> Dict[str, List[Tuple[str, int]]]:
    ends: Dict[str, List[Tuple[str, int]]] = {}
    for cid, ports, _dot in code.crossings:
        for p, label in enumerate(ports):
            ends.setdefault(label, []).append((cid, p))
    return ends


def draw_local(cx: TwoComplex, face: str, code: PlanarCode,
               prefix: str = "c") -> Diagram:
    """Realize a planar dotted code inside one face of the complex."""
    if face not in cx.faces:
        raise DiagramError(f"unknown face {face!r}")
    ends = _code_arc_ends(code)
    for label, occ in ends.items():
        if len(occ) != 2:
            raise DiagramError(f"arc label {label!r} occurs {len(occ)} times, expected 2")
    crossings = {}
    port_arc: Dict[Tuple[str, int], str] = {}
    for cid, ports, dot in code.crossings:
        name = f"{prefix}{cid}"
        if name in crossings:
            raise DiagramError(f"duplicate crossing id {cid!r}")
        if dot not in (0, 1):
            raise DiagramError(f"crossing {cid!r}: dots must mark one opposite sector pair")
        crossings[name] = Crossing(face, dot)
        for p, label in enumerate(ports):
            port_arc[(name, p)] = label

    # follow strands: enter a port, leave through the opposite port
    other_end: Dict[Tuple[str, int], Tuple[str, int]] = {}
    for label, ((c1, p1), (c2, p2)) in \
            {k: (v[0], v[1]) for k, v in ends.items()}.items():
        a = (f"{prefix}{c1}", p1)
        b = (f"{prefix}{c2}", p2)
        other_end[a] = b
        other_end[b] = a

    visited = set()
    components = []
    for cid, ports, _dot in code.crossings:
        for start_port in range(4):
            start = (f"{prefix}{cid}", start_port)
            if start in visited:
                continue
            events = []
            cur = start
            while True:
                visited.add(cur)
                events.append(CrossVisit(cur[0], cur[1]))
                out = (cur[0], (cur[1] + 2) % 4)
                visited.add(out)
                cur = other_end[out]
                if cur == start:
                    break
            components.append(Component(tuple(events), (face,) * len(events)))
    for _ in range(code.circles):
        components.append(Component((), (face,)))
    d = Diagram(cx, crossings, {}, tuple(components))
    return validate_diagram(d)


def braid_code(word: Iterable[int], strands: int, prefix: str = "b") -> PlanarCode:
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
    arc_at = [f"{prefix}s{i}" for i in range(strands)]  # current arc per position
    counter = itertools.count(0)
    crossings = []
    for n, letter in enumerate(word):
        i = abs(letter) - 1
        a_in, b_in = arc_at[i], arc_at[i + 1]
        a_out = f"{prefix}a{next(counter)}"
        b_out = f"{prefix}a{next(counter)}"
        # braid flows downward: ports ccw = (NE in_right, NW in_left, SW out_left, SE out_right)
        ports = (b_in, a_in, a_out, b_out)
        dot = 1 if letter > 0 else 0
        crossings.append((f"{n}", ports, dot))
        arc_at[i], arc_at[i + 1] = a_out, b_out
    closed = 0
    circles = 0
    for i in range(strands):
        if arc_at[i] == f"{prefix}s{i}":
            circles += 1
            continue
    # merge the closure: the final arc at position i is the same arc as the initial one
    rename = {}
    for i in range(strands):
        if arc_at[i] != f"{prefix}s{i}":
            rename[arc_at[i]] = f"{prefix}s{i}"
    merged = []
    for cid, ports, dot in crossings:
        ports = tuple(_resolve(rename, p) for p in ports)
        merged.append((cid, ports, dot))
    return PlanarCode(tuple(merged), circles)


def _resolve(rename: Dict[str, str], label: str) -> str:
    while label in rename:
        label = rename[label]
    return label
