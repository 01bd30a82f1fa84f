"""The diagrams the tests read, in named families.

Each family is fixed: a tuple of example ids ``(name, n)``, or a function
without parameters that builds its tuple once per process and shares it
with every test that reads it.  A test that needs a list of diagrams
reads a family here; it does not build one of its own.

- ``EXAMPLES``, ``PINNED``, ``SMALL`` and ``SERIES``: the bundled examples.
- ``kinked()``: examples with a floating kinked circle.
- ``glued()``: diagrams on complexes glued from face words, off the
  bundled set: a sphere, a ridge, non-orientable faces, singular vertices.
- ``starts()``: where the fuzz properties start their walks.
- ``variants()``, ``short_walks()`` and ``pushes()``: moved diagrams.
- ``recorded_candidates()`` and ``recorded_walks()``: diagrams read back
  from ``tests/recorded``, so the pins that read them do not move with
  ``fuzz``.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache
from pathlib import Path

from linkcx import moves as mv
from linkcx.diagram import (Component, Crossing, CrossVisit, Diagram, Transit,
                            TransitVisit, draw_local, mirror, validate_diagram)
from linkcx.errors import ComplexError, MoveError
from linkcx.examples import EXAMPLE_IDS, ExampleBundle, example, hopf_code, trefoil_code
from linkcx.groups import GroupSpec
from linkcx.homotopy import Connection
from linkcx.moves import MoveKind as K
from linkcx.twocomplex import validate_complex


# -- the bundled examples ----------------------------------------------------------

def _with_series(ns):
    return tuple((name, n) for name in EXAMPLE_IDS
                 for n in (ns if name in ("Ln", "Kn") else (None,)))


# one of each: the examples of the fuzz campaigns
EXAMPLES = tuple((name, {"Ln": 1, "Kn": 0}.get(name)) for name in EXAMPLE_IDS)
# the examples of the pinned fuzz traces and of the recorded diagrams
PINNED = _with_series((1, 2))
# the examples of the site, class and file tests, and the starts of walks
SMALL = _with_series(range(3))
# the examples of the engine and walk views
SERIES = _with_series(range(5))


def _label(name, n):
    return name if n is None else f"{name}{n}"


def _with_floating_kink(d, face):
    """d plus a kinked circle in the face: a second component of its face map."""
    d = validate_diagram(replace(d, components=d.components + (Component((), (face,)),)))
    site = mv.MoveSite.make(K.M1P, comp=len(d.components) - 1, arc=0, bend=1)
    return mv.apply(d, K.M1P, site)


# (example, the face of its floating kink)
KINKS = ((("Ln", 1), "F.e0"), (("torus_link", None), "F"), (("hopf_local", None), "F"),
         (("Ln", 0), "F.e0"))


@cache
def kinked():
    """(label, bundle): examples with a kinked circle in one face."""
    out = []
    for (name, n), face in KINKS:
        b = example(name, n)
        out.append((_label(name, n) + "+kink",
                    replace(b, diagram=_with_floating_kink(b.diagram, face))))
    return tuple(out)


# -- complexes glued from face words -------------------------------------------------

def glue(name, faces):
    """The complex whose faces have these words; its vertices come from the corners.

    A word is a string of edge letters, a capital letter for a side run
    against its edge.  A corner joins the head end of one side to the tail
    end of the next, and the vertices are the classes of edge ends that
    the corners join.
    """
    words = {f: tuple((ch.lower(), -1 if ch.isupper() else 1) for ch in word)
             for f, word in faces.items()}
    root = {}

    def find(end):
        while root.get(end, end) != end:
            end = root[end]
        return end

    for word in words.values():
        for (e1, d1), (e2, d2) in zip(word, word[1:] + word[:1]):
            root[find((e1, d1 > 0))] = find((e2, d2 < 0))
    edges = sorted({e for word in words.values() for e, _d in word})
    names = {}
    for e in edges:
        for end in (False, True):
            names.setdefault(find((e, end)), f"v{len(names)}")
    return validate_complex(name, list(names.values()),
                            {e: (names[find((e, False))], names[find((e, True))])
                             for e in edges}, words)


# surfaces, a ridge and singular vertices: the three discs' vertex link is a
# theta graph, the torus with a disc has three link cycles, and the dunce
# hat's link has two one-step cycles
GLUED = (
    ("sphere", {"F": "e", "G": "E"}),
    ("three_discs", {"F": "e", "G": "E", "H": "e"}),
    ("klein_bottle", {"F": "abAb"}),
    ("projective_plane", {"F": "aa"}),
    ("dunce_hat", {"F": "aaA"}),
    ("genus_two", {"F": "abABcdCD"}),
    ("torus_and_disc", {"F": "hvHV", "G": "h"}),
)
# gluings with a vertex-link cycle, on two or three polygons: a boundary edge
# (0), ridges and singular vertices (5, 6, 9), a one-step cycle (5, 9)
GLUING_SEEDS = (0, 5, 6, 9)


def random_gluing(seed):
    """One to three polygons of one to four sides, glued in groups of one to three sides.

    Most groups are pairs, so most edges are surface edges.
    """
    rng = random.Random(seed)
    while True:
        sizes = dict(zip("FGH", (rng.randint(1, 4) for _ in range(rng.randint(1, 3)))))
        sides = [(f, k) for f, m in sizes.items() for k in range(m)]
        rng.shuffle(sides)
        letter, e = {}, 0
        while sides:
            k = rng.choice((1, 2, 2, 2, 3))
            group, sides = sides[:k], sides[k:]
            for side in group:
                ch = "abcdefghijkl"[e]
                letter[side] = ch.upper() if rng.random() < 0.5 else ch
            e += 1
        try:
            return glue(f"gluing{seed}", {f: "".join(letter[(f, k)] for k in range(m))
                                           for f, m in sizes.items()})
        except ComplexError:
            continue


@cache
def glued():
    """(label, bundle): a trefoil in face F of each GLUED complex, a Hopf link in
    face F of each random gluing; the connection is trivial, so it is flat."""
    out = []
    for name, faces in GLUED:
        out.append((name, glue(name, faces), trefoil_code("left")))
    for seed in GLUING_SEEDS:
        out.append((f"gluing{seed}", random_gluing(seed), hopf_code()))
    return tuple((name, ExampleBundle(cx, draw_local(cx, "F", code),
                                      Connection.trivial(cx, GroupSpec.free())))
                 for name, cx, code in out)


@cache
def starts():
    """(label, bundle): SMALL, the floating kinks and the glued diagrams."""
    return (tuple((_label(name, n), example(name, n)) for name, n in SMALL)
            + kinked() + glued())


# -- moved diagrams ----------------------------------------------------------------

@cache
def variants():
    """(diagram, connection): each of SERIES, its mirror, and three 20-step walks from each.

    The walks keep the caps 8 and 12; a walk that raises is left out.
    """
    out = []
    for name, n in SERIES:
        b = example(name, n)
        for d in (b.diagram, mirror(b.diagram)):
            out.append((d, b.connection))
            for seed in range(3):
                try:
                    out.append((mv.fuzz(d, 20, seed, max_crossings=8,
                                        max_transits=12)[0], b.connection))
                except MoveError:
                    pass
    return tuple(out)


# (example, the face of its floating kink or None)
SITES = ((("torus_link", None), "F"), (("moebius_link", None), None),
         (("annulus_link", None), None), (("Ln", 1), None), (("Kn", 0), None),
         (("Ln", 0), "F.e0"))


@cache
def short_walks():
    """Two 5-step walks from each of SITES (caps 6 and 12), and where SITES names a
    face, the start and the second walk each with a floating kink there."""
    out = []
    for (name, n), face in SITES:
        base = example(name, n).diagram
        for seed, cap in ((0, 6), (1, 12)):
            d = mv.fuzz(base, 5, seed, max_crossings=cap, max_transits=2 * cap)[0]
            out.append(d)
        if face is not None:
            out += [_with_floating_kink(base, face), _with_floating_kink(d, face)]
    return tuple(out)


@cache
def pushes():
    """(diagram, crossing): every M5 push of five examples, with the pushed crossing."""
    out = []
    for name, n in (("Ln", 1), ("Kn", 0), ("torus_link", None),
                    ("moebius_link", None), ("annulus_link", None)):
        d = example(name, n).diagram
        for kind in (K.M5P, K.M5M):
            for site in mv.find_sites(d, kind):
                if site.get("mode") == "push":
                    out.append((mv.apply(d, kind, site), site.get("crossing")))
    return tuple(out)


# -- diagrams recorded as JSON -----------------------------------------------------

RECORDED = Path(__file__).resolve().parent / "recorded"


def encode(d):
    """The raw fields of d as JSON: crossings and transits in dict order, exact
    positions as fraction text, and the components."""
    return {"crossings": [[c, x.face, x.dot] for c, x in d.crossings.items()],
            "transits": [[t, tr.edge, str(tr.pos), [list(side) for side in tr.sides]]
                         for t, tr in d.transits.items()],
            "components": [[[["x", ev.crossing, ev.enter] if isinstance(ev, CrossVisit)
                             else ["t", ev.transit, ev.enter] for ev in comp.events],
                            list(comp.arc_faces), comp.directed]
                           for comp in d.components]}


def decode(fields, cx):
    """The diagram on cx whose raw fields ``encode`` gave."""
    def event(kind, name, enter):
        return CrossVisit(name, enter) if kind == "x" else TransitVisit(name, enter)

    return Diagram(cx,
                   {c: Crossing(face, dot) for c, face, dot in fields["crossings"]},
                   {t: Transit(edge, Fraction(pos), tuple(tuple(side) for side in sides))
                    for t, edge, pos, sides in fields["transits"]},
                   tuple(Component(tuple(event(*ev) for ev in events), tuple(faces),
                                   directed)
                         for events, faces, directed in fields["components"]))


def _read(name):
    """The diagrams of each record of a recorded file, on its example's complex."""
    out = []
    for record in json.loads((RECORDED / name).read_text()):
        cx = example(*record["example"]).complex
        out.append(tuple(decode(fields, cx) for fields in record["diagrams"]))
    return tuple(out)


@cache
def recorded_candidates():
    """Per example of PINNED: it, its mirror, and the ends of 12-step walks
    from it with seeds 0-2 (caps 6 and 12), as ``fuzz`` drew them at 1a96610."""
    return tuple(d for ds in _read("candidate_diagrams.json") for d in ds)


@cache
def recorded_walks():
    """Per example of PINNED: the 20 states before each step of a 20-step walk
    from it with seed 0 (caps 6 and 12), as ``fuzz`` drew them at 1a96610."""
    return _read("stale_site_walks.json")
