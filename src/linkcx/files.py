"""Line-oriented text formats for complexes, diagrams, and connections.

Parsing and serialization round-trip bit-exactly: serialize(parse(text))
reproduces the serializer's own output byte for byte, and transit
positions are normalized to i/(n+1) spacing on write.

Complex files:       complex <id> / vertex <id> / edge <id> <v1> <v2>
                     face <id> = <edge><+|-> ...
Diagram files:       diagram on <complex-id>
                     crossing <id> in <face> ports <4 arc-end refs ccw> dots <0|1>
                     transit <id> edge <e> pos <p/q> sides <incidence#> <incidence#>
                     component <id> [oriented <+|->] : <event list>
Connection files:    connection on <complex-id>
                     group free <rank> <names> | group abelian <rank>
                     label edge <e> side <incidence#> = <word>

Arc-end refs name the arc by component and index, `comp.arc.end`; event
lists alternate events `x(<crossing>,<port>)` / `t(<transit>,<side>)`
with the face of the following arc, and a bare face denotes a
crossing-free circle.  Planar code files hold one `x <id> <a> <b> <c>
<d> <dot>` line per crossing plus an optional `circles <n>` line.

Integer fields (event ports, incidence numbers, group ranks, the circle
count) are ASCII decimal digits only: no sign, no other script's digits,
so `-1` is refused rather than read from the end of a list.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .diagram import (Component, Crossing, CrossVisit, Diagram, PlanarCode,
                      Transit, TransitVisit, _normalized_positions, port_ends,
                      reverse_component, validate_diagram)
from .errors import FormatError
from .groups import GroupSpec, text_to_word, word_to_text
from .homotopy import Connection
from .twocomplex import TwoComplex, validate_complex

__all__ = [
    "parse_complex", "serialize_complex",
    "parse_diagram", "serialize_diagram",
    "parse_connection", "serialize_connection",
    "parse_planar_code", "serialize_planar_code",
]


def _natural(text: str) -> int:
    """An integer field: ASCII decimal digits only, else ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a natural number: {text!r}")
    return int(text)


def _lines(text: str) -> List[Tuple[int, str]]:
    """(line number, stripped line) for every line that is not blank or a comment."""
    return [(n, line) for n, raw in enumerate(text.splitlines(), 1)
            if (line := raw.strip()) and line[0] != "#"]


# -- complexes ----------------------------------------------------------

def parse_complex(text: str) -> TwoComplex:
    name = None
    vertices: List[str] = []
    edges: Dict[str, Tuple[str, str]] = {}
    faces: Dict[str, list] = {}
    for n, line in _lines(text):
        parts = line.split()
        if parts[0] == "complex" and len(parts) == 2:
            if name is not None:
                raise FormatError("duplicate complex header", n)
            name = parts[1]
        elif parts[0] == "vertex" and len(parts) == 2:
            if parts[1] in vertices:
                raise FormatError(f"duplicate vertex {parts[1]!r}", n)
            vertices.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 4:
            if parts[1] in edges:
                raise FormatError(f"duplicate edge {parts[1]!r}", n)
            edges[parts[1]] = (parts[2], parts[3])
        elif parts[0] == "face" and len(parts) >= 4 and parts[2] == "=":
            if parts[1] in faces:
                raise FormatError(f"duplicate face {parts[1]!r}", n)
            word = []
            for token in parts[3:]:
                if len(token) < 2 or token[-1] not in "+-":
                    raise FormatError(f"bad boundary side {token!r}", n)
                word.append((token[:-1], 1 if token[-1] == "+" else -1))
            faces[parts[1]] = word
        else:
            raise FormatError(f"unknown directive {line!r}", n)
    if name is None:
        raise FormatError("missing complex header", 1)
    return validate_complex(name, vertices, edges, faces)


def serialize_complex(cx: TwoComplex) -> str:
    out = [f"complex {cx.name}"]
    out += [f"vertex {v}" for v in cx.vertices]
    out += [f"edge {e} {v1} {v2}" for e, (v1, v2) in cx.edges.items()]
    for f, word in cx.faces.items():
        sides = " ".join(f"{e}{'+' if d > 0 else '-'}" for e, d in word)
        out.append(f"face {f} = {sides}")
    return "\n".join(out) + "\n"


# -- diagrams -----------------------------------------------------------

def _event_text(ev) -> str:
    if isinstance(ev, CrossVisit):
        return f"x({ev.crossing},{ev.enter})"
    return f"t({ev.transit},{ev.enter})"


def serialize_diagram(d: Diagram) -> str:
    """Write a diagram; components are named k1, k2, ... in order."""
    out = [f"diagram on {d.complex.name}"]
    # ports are reported as arc-end references derived from the components
    port_end = port_ends(d)
    for c in sorted(d.crossings):
        cr = d.crossings[c]
        try:
            ends = [port_end[(c, p)] for p in range(4)]
        except KeyError:
            raise FormatError(f"crossing {c!r} has unused ports")
        refs = " ".join(f"k{arc.comp + 1}.{arc.index}.{end}" for arc, end in ends)
        out.append(f"crossing {c} in {cr.face} ports {refs} dots {cr.dot}")
    pos = _normalized_positions(d)
    for t in sorted(d.transits):
        tr = d.transits[t]
        incs = d.complex.incidences[tr.edge]
        i1, i2 = incs.index(tr.sides[0]), incs.index(tr.sides[1])
        p = pos[t]
        out.append(f"transit {t} edge {tr.edge} pos {p.numerator}/{p.denominator} "
                   f"sides {i1} {i2}")
    for ci, comp in enumerate(d.components):
        head = f"component k{ci + 1}"
        if comp.directed:
            head += " oriented +"
        if not comp.events:
            out.append(f"{head} : {comp.arc_faces[0]}")
            continue
        body = " ".join(f"{_event_text(ev)} {face}"
                        for ev, face in zip(comp.events, comp.arc_faces))
        out.append(f"{head} : {body}")
    return "\n".join(out) + "\n"


def parse_diagram(text: str, cx: TwoComplex) -> Diagram:
    header = None
    crossings: Dict[str, Crossing] = {}
    transits: Dict[str, Transit] = {}
    ports: Dict[str, Tuple[str, ...]] = {}
    components: List[Component] = []
    comp_names: List[str] = []
    reversed_comps: set = set()
    for n, line in _lines(text):
        parts = line.split()
        if parts[0] == "diagram":
            if header is not None:
                raise FormatError("duplicate diagram header", n)
            if len(parts) != 3 or parts[1] != "on":
                raise FormatError("bad diagram header", n)
            header = parts[2]
            if header != cx.name:
                raise FormatError(
                    f"diagram is on {header!r}, not {cx.name!r}", n)
        elif parts[0] == "crossing":
            if (len(parts) != 11 or parts[2] != "in" or parts[4] != "ports"
                    or parts[9] != "dots"):
                raise FormatError("bad crossing line", n)
            name, face, dot = parts[1], parts[3], parts[10]
            if name in crossings:
                raise FormatError(f"duplicate crossing {name!r}", n)
            if face not in cx.faces:
                raise FormatError(f"unknown face {face!r}", n)
            if dot not in ("0", "1"):
                raise FormatError("dots must mark one opposite sector pair", n)
            crossings[name] = Crossing(face, int(dot))
            ports[name] = tuple(parts[5:9])
        elif parts[0] == "transit":
            if (len(parts) != 9 or parts[2] != "edge" or parts[4] != "pos"
                    or parts[6] != "sides"):
                raise FormatError("bad transit line", n)
            name, e = parts[1], parts[3]
            if name in transits:
                raise FormatError(f"duplicate transit {name!r}", n)
            if e not in cx.edges:
                raise FormatError(f"unknown edge {e!r}", n)
            try:
                p = Fraction(parts[5])
            except (ValueError, ZeroDivisionError):
                raise FormatError(f"bad position {parts[5]!r}", n)
            incs = cx.incidences[e]
            try:
                s1, s2 = incs[_natural(parts[7])], incs[_natural(parts[8])]
            except (ValueError, IndexError):
                raise FormatError(f"bad incidence number on edge {e!r}", n)
            transits[name] = Transit(e, p, (s1, s2))
        elif parts[0] == "component":
            if len(parts) < 4 or ":" not in parts:
                raise FormatError("bad component line", n)
            name = parts[1]
            if name in comp_names:
                raise FormatError(f"duplicate component {name!r}", n)
            comp_names.append(name)
            sep = parts.index(":")
            directed = sep == 4 and parts[2] == "oriented" and parts[3] in ("+", "-")
            if not directed and sep != 2:
                raise FormatError("bad component line", n)
            reverse = directed and parts[3] == "-"
            tail = parts[sep + 1:]
            if not tail:
                raise FormatError("bad component line", n)
            if len(tail) == 1:
                components.append(Component((), (tail[0],), directed))
                continue
            if len(tail) % 2 != 0:
                raise FormatError("event list must alternate events and faces", n)
            events = []
            for token in tail[0::2]:
                ident, _, num = token[2:-1].rpartition(",")
                kind = token[:2]
                if not (token[-1] == ")" and (kind == "x(" or kind == "t(") and ident
                        and num.isascii() and num.isdigit()):
                    raise FormatError(f"bad event {token!r}", n)
                events.append(CrossVisit(ident, int(num)) if kind == "x("
                              else TransitVisit(ident, int(num)))
            components.append(Component(tuple(events), tuple(tail[1::2]), directed))
            if reverse:
                reversed_comps.add(len(components) - 1)
        else:
            raise FormatError(f"unknown directive {line!r}", n)
    if header is None:
        raise FormatError("missing diagram header", 1)
    d = Diagram(cx, crossings, transits, tuple(components))
    # a `-` orientation flag means the listing runs against the direction;
    # normalize to forward listings first, so that one walk serves the
    # reference check and validation
    for ci in reversed_comps:
        d = reverse_component(d, ci)
    _check_port_refs(d, ports, comp_names, reversed_comps)
    return validate_diagram(d)


def _check_port_refs(d: Diagram, ports: Dict[str, Tuple[str, ...]],
                     comp_names: List[str], reversed_comps: set) -> None:
    """The serialized arc-end references must match the component data.

    Each reference ``comp.index.end`` is checked against the arc end at its
    port.  Arc i of a reversed component of k events, as listed, is arc
    k - 1 - i of d with its ends swapped.
    """
    # a name the file declares wins over the canonical k1, k2, ...
    names = {f"k{i + 1}": i for i in range(len(d.components))}
    names.update((name, i) for i, name in enumerate(comp_names))
    port_end = port_ends(d)
    for c, refs in ports.items():
        for p, ref in enumerate(refs):
            comp_name, _, rest = ref.partition(".")
            ci = names.get(comp_name)
            if ci is None:
                raise FormatError(f"port reference {ref!r} names no component")
            arc, end = port_end.get((c, p), (None, 0))
            if arc is not None:
                index = arc.index
                if arc.comp in reversed_comps:
                    index, end = len(d.components[arc.comp].events) - 1 - index, 1 - end
            if arc is None or arc.comp != ci or rest != f"{index}.{end}":
                raise FormatError(
                    f"crossing {c!r} port {p}: reference {ref!r} does not "
                    f"match the component data")


# -- connections ---------------------------------------------------------

def serialize_connection(conn: Connection, cx: TwoComplex) -> str:
    out = [f"connection on {cx.name}"]
    g = conn.group
    if g.kind == "free":
        out.append(f"group free {g.rank}" + ("" if not g.names else " " + " ".join(g.names)))
    else:
        out.append(f"group abelian {g.rank}")
    for e in cx.edges:
        for idx, inc in enumerate(cx.incidences[e]):
            word = conn.labels.get((e, inc))
            if word is None:
                continue
            out.append(f"label edge {e} side {idx} = {word_to_text(g, word)}")
    return "\n".join(out) + "\n"


def parse_connection(text: str, cx: TwoComplex) -> Connection:
    header = None
    group: Optional[GroupSpec] = None
    labels = {}
    for n, line in _lines(text):
        parts = line.split()
        if parts[0] == "connection":
            if len(parts) != 3 or parts[1] != "on":
                raise FormatError("bad connection header", n)
            if header is not None:
                raise FormatError("duplicate connection header", n)
            header = parts[2]
            if header != cx.name:
                raise FormatError(f"connection is on {header!r}, not {cx.name!r}", n)
        elif parts[0] == "group":
            if group is not None:
                raise FormatError("duplicate group line", n)
            if len(parts) >= 3 and parts[1] == "free":
                try:
                    rank = _natural(parts[2])
                except ValueError:
                    raise FormatError("bad group rank", n)
                names = parts[3:]
                if len(names) != rank:
                    raise FormatError("generator names do not match the rank", n)
                try:
                    group = GroupSpec.free(*names)
                except ValueError as exc:
                    raise FormatError(str(exc), n)
            elif len(parts) == 3 and parts[1] == "abelian":
                try:
                    group = GroupSpec.abelian(_natural(parts[2]))
                except ValueError:
                    raise FormatError("bad group rank", n)
            else:
                raise FormatError("bad group line", n)
        elif parts[0] == "label":
            if group is None:
                raise FormatError("label before group line", n)
            if (len(parts) < 7 or parts[1] != "edge" or parts[3] != "side"
                    or parts[5] != "="):
                raise FormatError("bad label line", n)
            e = parts[2]
            if e not in cx.edges:
                raise FormatError(f"unknown edge {e!r}", n)
            try:
                inc = cx.incidences[e][_natural(parts[4])]
            except (ValueError, IndexError):
                raise FormatError(f"bad incidence number on edge {e!r}", n)
            try:
                word = text_to_word(group, " ".join(parts[6:]))
            except ValueError as exc:
                raise FormatError(str(exc), n)
            if (e, inc) in labels:
                raise FormatError("duplicate label", n)
            labels[(e, inc)] = word
        else:
            raise FormatError(f"unknown directive {line!r}", n)
    if header is None or group is None:
        raise FormatError("missing connection header or group", 1)
    base = Connection.trivial(cx, group)
    merged = dict(base.labels)
    merged.update(labels)
    return Connection(group, merged)


# -- planar codes ----------------------------------------------------------

def serialize_planar_code(code: PlanarCode) -> str:
    out = []
    for cid, ports, dot in code.crossings:
        out.append(f"x {cid} {' '.join(ports)} {dot}")
    if code.circles:
        out.append(f"circles {code.circles}")
    return "\n".join(out) + "\n"


def parse_planar_code(text: str) -> PlanarCode:
    crossings = []
    circles = 0
    for n, line in _lines(text):
        parts = line.split()
        if parts[0] == "x" and len(parts) == 7:
            if parts[6] not in ("0", "1"):
                raise FormatError("dots must be 0 or 1", n)
            crossings.append((parts[1], tuple(parts[2:6]), int(parts[6])))
        elif parts[0] == "circles" and len(parts) == 2:
            try:
                circles = _natural(parts[1])
            except ValueError:
                raise FormatError("bad circle count", n)
        else:
            raise FormatError(f"unknown directive {line!r}", n)
    return PlanarCode(tuple(crossings), circles)
