"""Combinatorial compact 2-complexes: polygonal faces glued along edges.

A complex is given by vertices, directed edges, and faces.  Each face is a
cyclic boundary word of sides ``(edge, direction)``; the word order is the
face's chosen local orientation.  Every edge must bound at least one face
side and the face/edge incidence structure must be connected.

Points are classified by the homeomorphism type of the link of the point:
a circle gives a generic (surface) point, a segment a boundary point, a
theta graph with n >= 3 parallel strands a ridge point, anything else a
singular point.  For edges the link type is determined by the incidence
count alone; for vertices it is computed from the link graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Tuple

from .errors import ComplexError

__all__ = [
    "TwoComplex",
    "EdgeClass",
    "PointClass",
    "VertexLinkGraph",
    "validate_complex",
    "edge_class",
    "vertex_link",
    "classify_vertex",
    "build_graph_cylinder",
    "build_square_identification",
    "build_disc",
]

Side = Tuple[str, int]            # (edge id, +1 or -1)
Incidence = Tuple[str, int]       # (face id, side index)
EdgeEnd = Tuple[str, int]         # (edge id, end 0 = tail vertex, 1 = head vertex)


class PointClass(Enum):
    GENERIC = "generic"
    BOUNDARY = "boundary"
    RIDGE = "ridge"
    SINGULAR = "singular"


@dataclass(frozen=True)
class EdgeClass:
    kind: PointClass
    incidences: int

    @classmethod
    def from_count(cls, n: int) -> "EdgeClass":
        if n < 1:
            raise ComplexError("edge with zero face incidences")
        if n == 1:
            return cls(PointClass.BOUNDARY, 1)
        if n == 2:
            return cls(PointClass.GENERIC, 2)
        return cls(PointClass.RIDGE, n)


@dataclass(frozen=True)
class TwoComplex:
    """Validated 2-complex.  Treat as immutable; operations return new values."""

    name: str
    vertices: Tuple[str, ...]
    edges: Dict[str, Tuple[str, str]]
    faces: Dict[str, Tuple[Side, ...]]
    incidences: Dict[str, Tuple[Incidence, ...]] = field(compare=False)

    def side_tail(self, side: Side) -> str:
        e, d = side
        v1, v2 = self.edges[e]
        return v1 if d > 0 else v2

    def side_head(self, side: Side) -> str:
        e, d = side
        v1, v2 = self.edges[e]
        return v2 if d > 0 else v1


def _build_incidences(edges, faces) -> Dict[str, Tuple[Incidence, ...]]:
    out: Dict[str, List[Incidence]] = {e: [] for e in edges}
    for f, word in faces.items():
        for i, (e, _d) in enumerate(word):
            out[e].append((f, i))
    return {e: tuple(v) for e, v in out.items()}


def validate_complex(name: str, vertices, edges, faces) -> TwoComplex:
    """Check a raw description and return the validated complex.

    ``vertices``: iterable of ids.  ``edges``: id -> (v1, v2).
    ``faces``: id -> sequence of (edge id, +1|-1).
    """
    vertices = tuple(vertices)
    edges = dict(edges)
    faces = {f: tuple((e, int(d)) for e, d in word) for f, word in faces.items()}

    vset = set(vertices)
    if len(vset) != len(vertices):
        raise ComplexError("duplicate vertex id")
    for e, (v1, v2) in edges.items():
        if v1 not in vset or v2 not in vset:
            raise ComplexError(f"edge {e!r} references unknown vertex")
    for f, word in faces.items():
        if not word:
            raise ComplexError(f"face {f!r} has an empty boundary word")
        for e, d in word:
            if e not in edges:
                raise ComplexError(f"face {f!r} references unknown edge {e!r}")
            if d not in (1, -1):
                raise ComplexError(f"face {f!r} has a bad direction flag {d!r}")

    cx = TwoComplex(name, vertices, edges, faces, _build_incidences(edges, faces))

    for f, word in faces.items():
        m = len(word)
        for i in range(m):
            if cx.side_head(word[i]) != cx.side_tail(word[(i + 1) % m]):
                raise ComplexError(f"face {f!r}: boundary word does not close at side {i}")

    for e in edges:
        if not cx.incidences[e]:
            raise ComplexError(f"edge {e!r} bounds no face")

    used = {v for v1v2 in edges.values() for v in v1v2}
    for v in vertices:
        if v not in used:
            raise ComplexError(f"vertex {v!r} is isolated")

    _check_connected(cx)
    return cx


def _check_connected(cx: TwoComplex) -> None:
    if not cx.faces:
        raise ComplexError("complex has no faces")
    # faces, edges and vertices, each edge joined to its faces and its ends;
    # isolated vertices were refused above, so vertices add no component
    nodes = ([("f", f) for f in cx.faces] + [("e", e) for e in cx.edges]
             + [("v", v) for v in cx.vertices])
    links = [(("e", e), ("f", f)) for e, incs in cx.incidences.items() for f, _i in incs]
    links += [(("e", e), ("v", v)) for e, ends in cx.edges.items() for v in ends]
    if not _connected(nodes, links):
        raise ComplexError("complex is not connected")


def _connected(nodes: list, links: list) -> bool:
    """Whether the graph on ``nodes`` (at least one) with edges ``links`` is connected."""
    adj: Dict[object, set] = {n: set() for n in nodes}
    for a, b in links:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = set(), [nodes[0]]
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(adj[n] - seen)
    return len(seen) == len(nodes)


def edge_class(cx: TwoComplex, e: str) -> EdgeClass:
    if e not in cx.edges:
        raise ComplexError(f"unknown edge {e!r}")
    return EdgeClass.from_count(len(cx.incidences[e]))


# -- vertex links ------------------------------------------------------

Link = Tuple[EdgeEnd, EdgeEnd, str, int]   # two ends joined by corner i of a face


@dataclass(frozen=True)
class VertexLinkGraph:
    """Link of a vertex: nodes are edge-ends, links are face corners."""

    vertex: str
    nodes: Tuple[EdgeEnd, ...]
    links: Tuple[Link, ...]


def _corner_ends(cx: TwoComplex, f: str, i: int) -> Tuple[EdgeEnd, EdgeEnd]:
    """Edge-ends spanned by the corner between sides i and i+1 of face f."""
    word = cx.faces[f]
    e1, d1 = word[i]
    e2, d2 = word[(i + 1) % len(word)]
    end1 = (e1, 1 if d1 > 0 else 0)     # head end of side i
    end2 = (e2, 0 if d2 > 0 else 1)     # tail end of side i+1
    return end1, end2


def corner_vertex(cx: TwoComplex, f: str, i: int) -> str:
    word = cx.faces[f]
    return cx.side_head(word[i])


def vertex_link(cx: TwoComplex, v: str) -> VertexLinkGraph:
    if v not in cx.vertices:
        raise ComplexError(f"unknown vertex {v!r}")
    nodes = []
    for e, (v1, v2) in cx.edges.items():
        if v1 == v:
            nodes.append((e, 0))
        if v2 == v:
            nodes.append((e, 1))
    links = []
    for f, word in cx.faces.items():
        for i in range(len(word)):
            if corner_vertex(cx, f, i) == v:
                a, b = _corner_ends(cx, f, i)
                links.append((a, b, f, i))
    return VertexLinkGraph(v, tuple(nodes), tuple(links))


def _suppress_degree_two(nodes: list, edges: list) -> Tuple[list, list]:
    """Remove degree-2 nodes by merging their two incident edges.

    A node carrying a single loop is kept: it represents a circle.
    """
    nodes = list(nodes)
    edges = [tuple(e) for e in edges]
    changed = True
    while changed:
        changed = False
        deg = Counter()
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        for u in nodes:
            if deg[u] != 2:
                continue
            inc = [k for k, (a, b) in enumerate(edges) if u in (a, b)]
            if len(inc) == 1:      # a loop at u
                continue
            k1, k2 = inc
            n1 = edges[k1][0] if edges[k1][1] == u else edges[k1][1]
            n2 = edges[k2][0] if edges[k2][1] == u else edges[k2][1]
            edges = [e for k, e in enumerate(edges) if k not in (k1, k2)]
            edges.append((n1, n2))
            nodes.remove(u)
            changed = True
            break
    return nodes, edges


def classify_vertex(cx: TwoComplex, v: str) -> PointClass:
    graph = vertex_link(cx, v)
    nodes = list(graph.nodes)
    edges = [(a, b) for a, b, _f, _i in graph.links]
    if not nodes or not _connected(nodes, edges):
        return PointClass.SINGULAR

    nodes, edges = _suppress_degree_two(nodes, edges)
    deg = Counter()
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1

    if len(nodes) == 1 and len(edges) == 1 and edges[0][0] == edges[0][1]:
        return PointClass.GENERIC                       # circle
    if len(nodes) == 2 and len(edges) == 1 and deg[nodes[0]] == deg[nodes[1]] == 1:
        return PointClass.BOUNDARY                      # segment
    if len(nodes) == 2 and len(edges) >= 3:
        a, b = nodes
        if all(set(e) == {a, b} for e in edges):
            return PointClass.RIDGE                     # theta_n, n >= 3
    return PointClass.SINGULAR


# -- builders ----------------------------------------------------------

def build_graph_cylinder(vertices, graph_edges) -> TwoComplex:
    """Cylinder over a finite graph: one square face per graph edge.

    ``graph_edges``: id -> (a, b); loops and parallel edges are allowed.
    """
    vertices = list(vertices)
    graph_edges = dict(graph_edges)
    if not graph_edges:
        raise ComplexError("graph has no edges")
    used = {v for ab in graph_edges.values() for v in ab}
    if set(vertices) != used:
        raise ComplexError("graph has an isolated vertex")

    cverts = []
    cedges = {}
    for v in vertices:
        cverts += [f"{v}.0", f"{v}.1"]
        cedges[f"v.{v}"] = (f"{v}.0", f"{v}.1")
    cfaces = {}
    for e, (a, b) in graph_edges.items():
        cedges[f"{e}.0"] = (f"{a}.0", f"{b}.0")
        cedges[f"{e}.1"] = (f"{a}.1", f"{b}.1")
        cfaces[f"F.{e}"] = (
            (f"{e}.0", 1),     # bottom, a -> b
            (f"v.{b}", 1),     # up the far vertical
            (f"{e}.1", -1),    # top, b -> a
            (f"v.{a}", -1),    # down the near vertical
        )
    return validate_complex("cylinder", cverts, cedges, cfaces)


def build_square_identification(kind: str) -> TwoComplex:
    """One-square models: torus, annulus, or Moebius band."""
    if kind == "torus":
        return validate_complex(
            "torus",
            ["P"],
            {"h": ("P", "P"), "v": ("P", "P")},
            {"F": (("h", 1), ("v", 1), ("h", -1), ("v", -1))},
        )
    if kind == "annulus":
        return validate_complex(
            "annulus",
            ["P", "Q"],
            {"V": ("P", "Q"), "b": ("P", "P"), "t": ("Q", "Q")},
            {"F": (("b", 1), ("V", 1), ("t", -1), ("V", -1))},
        )
    if kind == "moebius":
        # vertical sides glued with a flip, so V is traversed twice the same way
        return validate_complex(
            "moebius",
            ["P", "Q"],
            {"V": ("P", "Q"), "b": ("P", "Q"), "t": ("Q", "P")},
            {"F": (("b", 1), ("V", -1), ("t", -1), ("V", -1))},
        )
    raise ComplexError(f"unknown square identification {kind!r}")


def build_disc() -> TwoComplex:
    """A disc: a single face glued along one boundary loop edge."""
    return validate_complex("disc", ["P"], {"e": ("P", "P")}, {"F": (("e", 1),)})
