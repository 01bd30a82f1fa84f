"""Every check of ``validate_diagram``: its error text, its order, and a reference.

Each planted fault breaks one check of a valid diagram, Ln(1) on the
three-face cylinder, and pins the exact ``DiagramError`` message.

``reference_checks`` is a plain implementation of the same checks, kept
as the oracle of the library's: it sorts positions as Fractions per face
side, tests equal positions with a set, and closes each face with a
boundary circle of three darts per mark.  The library must give the same
verdict and error text on every fuzz step, planted fault and mutated file,
and on a valid diagram the same marks, face walks and components.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from linkcx import diagram as dg
from linkcx import moves as mv
from linkcx.cli import main
from linkcx.diagram import (Component, Crossing, CrossVisit, Diagram, Transit,
                            TransitVisit, validate_diagram)
from linkcx.errors import DiagramError, MoveError
from linkcx.examples import example
from linkcx.twocomplex import PointClass, build_disc, edge_class

import corpus


# -- the reference ---------------------------------------------------------


def _slots(ev):
    """(enter slot, exit slot) of an event."""
    if isinstance(ev, CrossVisit):
        return ("x", ev.crossing, ev.enter), ("x", ev.crossing, (ev.enter + 2) % 4)
    return ("t", ev.transit, ev.enter), ("t", ev.transit, 1 - ev.enter)


def _arcs(d):
    """(component, index, src, dst, face) per arc; src is None on a circle."""
    out = []
    for ci, comp in enumerate(d.components):
        k = len(comp.events)
        if k == 0:
            out.append((ci, 0, None, None, comp.arc_faces[0]))
        for ai in range(k):
            out.append((ci, ai, _slots(comp.events[ai])[1],
                        _slots(comp.events[(ai + 1) % k])[0], comp.arc_faces[ai]))
    return out


def _marks(d):
    on_side = {}
    for t, tr in d.transits.items():
        for k in (0, 1):
            f, j = tr.sides[k]
            on_side.setdefault((f, j, tr.edge), []).append((tr.pos, t, k))
    out = {}
    for f, word in d.complex.faces.items():
        out[f] = []
        for j, (e, direction) in enumerate(word):
            side = sorted(on_side.get((f, j, e), ()), reverse=direction < 0)
            out[f].extend((t, k) for _pos, t, k in side)
    return out


def _face_map(crossings, arcs, marks):
    """(walks, components) of a face map, each a set of frozensets of labels.

    A crossing port is labelled ("x", crossing, port) and a mark's arc end
    ("t", transit, side); each mark also has a segment to the next mark
    and one from the previous.  The walk outside the boundary circle, with
    no label, is left out.  None when an arc end has no dart or two arcs
    share one, or a dart is unmatched; False when the map is not a union
    of spheres.
    """
    labels = [("x", c, p) for c in crossings for p in range(4)]
    for t, k in marks:
        labels += [None, ("t", t, k), None]
    dart = {lab: i for i, lab in enumerate(labels) if lab is not None}
    base, n = 4 * len(crossings), len(labels)
    alpha = [-1] * n
    for m in range(len(marks)):
        a, b = base + 3 * m, base + 3 * ((m + 1) % len(marks)) + 2
        alpha[a], alpha[b] = b, a
    for _ci, _ai, src, dst, _f in arcs:
        if src not in dart or dst not in dart:
            return None
        a, b = dart[src], dart[dst]
        if alpha[a] >= 0 or alpha[b] >= 0:
            return None
        alpha[a], alpha[b] = b, a
    if -1 in alpha:
        return None

    def node(i):
        return i // 4 if i < base else len(crossings) + (i - base) // 3

    def succ(i):
        if i < base:
            return i + 1 if i % 4 < 3 else i - 3
        return i + 1 if (i - base) % 3 < 2 else i - 2

    seen, walks = set(), []
    for start in range(n):
        i, walk = start, []
        while i not in seen:
            seen.add(i)
            walk.append(i)
            i = succ(alpha[i])
        if walk:
            walks.append(walk)
    parent = list(range(node(n - 1) + 1 if n else 0))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(n):
        parent[find(node(i))] = find(node(alpha[i]))
    n_comp = len({find(x) for x in range(len(parent))})
    if len(parent) - n // 2 + len(walks) != 2 * n_comp:
        return False
    named = [frozenset(labels[i] for i in w if labels[i]) for w in walks]
    nodes = {}
    for i in range(n):
        name = ("x", crossings[i // 4]) if i < base else "boundary"
        nodes.setdefault(find(node(i)), set()).add(name)
    return {w for w in named if w}, {frozenset(v) for v in nodes.values()}


def reference_checks(d):
    """("ok", per-face (marks, walks, components)) or ("error", message)."""
    try:
        return "ok", _reference_checks(d)
    except DiagramError as exc:
        return "error", str(exc)


def _reference_checks(d):
    cx = d.complex
    for c, cr in d.crossings.items():
        if cr.face not in cx.faces:
            raise DiagramError(f"crossing {c!r} sits in unknown face {cr.face!r}")
        if cr.dot not in (0, 1):
            raise DiagramError(f"crossing {c!r}: dots must mark one opposite sector pair")
    per_edge = {}
    for t, tr in d.transits.items():
        if tr.edge not in cx.edges:
            raise DiagramError(f"transit {t!r} crosses unknown edge {tr.edge!r}")
        if edge_class(cx, tr.edge).kind == PointClass.BOUNDARY:
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

    visits = {c: [] for c in d.crossings}
    passes = {t: 0 for t in d.transits}
    for comp in d.components:
        for ev in comp.events:
            if isinstance(ev, CrossVisit):
                visits[ev.crossing].append(ev.enter)
            else:
                passes[ev.transit] += 1
    for c, enters in visits.items():
        if len(enters) != 2:
            raise DiagramError(f"crossing {c!r} visited {len(enters)} times, expected 2")
        if sorted(p % 2 for p in enters) != [0, 1]:
            raise DiagramError(f"crossing {c!r}: visits do not cover both diameters")
    for t, count in passes.items():
        if count != 1:
            raise DiagramError(f"transit {t!r} visited {count} times, expected 1")

    def slot_face(slot):
        kind, ident, k = slot
        return d.crossings[ident].face if kind == "x" else d.transits[ident].sides[k][0]

    arcs = _arcs(d)
    for ci, ai, src, dst, face in arcs:
        if src is None:
            continue
        fa, fb = slot_face(src), slot_face(dst)
        if face != fa or face != fb:
            raise DiagramError(f"arc {ci}.{ai} labeled {face!r} joins faces {fa!r}, {fb!r}")

    marks = _marks(d)
    out = {}
    for f in cx.faces:
        crossings = sorted(c for c, cr in d.crossings.items() if cr.face == f)
        fm = _face_map(crossings, [a for a in arcs if a[2] is not None and a[4] == f],
                       marks[f])
        if not fm:
            raise DiagramError(f"tangle of face {f!r} is not drawable in a disc")
        out[f] = (marks[f],) + fm
    return out


def library_checks(d):
    """The library's verdict on a fresh copy of d, in the reference's terms."""
    try:
        maps = dg._checked_face_maps(replace(d))
    except DiagramError as exc:
        return "error", str(exc)
    out = {}
    for f, fm in maps:
        crossings = sorted(fm.x_index, key=fm.x_index.get)
        labels = [("x", c, p) for c in crossings for p in range(4)]
        labels += [("t",) + m for m in fm.marks]
        walks = {frozenset(labels[i] for i in orbit) for orbit in fm.orbits}
        comps = {}
        for i, root in enumerate(fm.component):
            comps.setdefault(root, set()).add(("x", crossings[i]) if i < len(crossings)
                                             else "boundary")
        out[f] = (fm.marks, walks, {frozenset(v) for v in comps.values()})
    return "ok", out


def assert_same_verdict(d):
    assert library_checks(d) == reference_checks(d)


BASE = example("Ln", 1).diagram


def crossing(d, c, **kw):
    return replace(d, crossings={**d.crossings, c: replace(d.crossings[c], **kw)})


def transit(d, t, **kw):
    return replace(d, transits={**d.transits, t: replace(d.transits[t], **kw)})


def component(d, ci, **kw):
    comps = list(d.components)
    comps[ci] = replace(comps[ci], **kw)
    return replace(d, components=tuple(comps))


def event(d, ci, ei, ev):
    events = list(d.components[ci].events)
    events[ei] = ev
    return component(d, ci, events=tuple(events))


def interleaved_chords():
    """One crossing, two loops on opposite port pairs: not drawable."""
    return Diagram(build_disc(), {"c1": Crossing("F", 0)}, {}, (
        Component((CrossVisit("c1", 0),), ("F",)),
        Component((CrossVisit("c1", 1),), ("F",))))


# (id, faulty diagram, exact message)
FAULTS = [
    ("unknown face", crossing(BASE, "c1", face="G"),
     "crossing 'c1' sits in unknown face 'G'"),
    ("bad dot", crossing(BASE, "c2", dot=2),
     "crossing 'c2': dots must mark one opposite sector pair"),
    ("unknown edge", transit(BASE, "ta1", edge="x"),
     "transit 'ta1' crosses unknown edge 'x'"),
    ("boundary edge", transit(BASE, "tb1", edge="e0.0"),
     "transit 'tb1' crosses boundary edge 'e0.0'"),
    ("self-joined incidence", transit(BASE, "tb1", sides=(("F.e0", 1), ("F.e0", 1))),
     "transit 'tb1' joins an incidence to itself"),
    ("bad incidence", transit(BASE, "tb1", sides=(("F.e0", 1), ("F.e0", 3))),
     "transit 'tb1' references a bad incidence ('F.e0', 3)"),
    ("position 0", transit(BASE, "tb2", pos=Fraction(0)),
     "transit 'tb2' position out of range"),
    ("position 1", transit(BASE, "tb2", pos=Fraction(1)),
     "transit 'tb2' position out of range"),
    ("negative position", transit(BASE, "tb2", pos=Fraction(-1, 3)),
     "transit 'tb2' position out of range"),
    ("position above 1", transit(BASE, "ta2", pos=Fraction(4, 3)),
     "transit 'ta2' position out of range"),
    ("int position 0", transit(BASE, "tb2", pos=0),
     "transit 'tb2' position out of range"),
    ("equal positions", transit(BASE, "tb2", pos=Fraction(1, 3)),
     "edge 'v.b' carries transits at equal positions"),
    ("equal positions, one a float",
     transit(transit(BASE, "tb1", pos=Fraction(1, 2)), "tb2", pos=0.5),
     "edge 'v.b' carries transits at equal positions"),
    ("circle with no face", replace(BASE, components=BASE.components + (Component((), ()),)),
     "component 2: a circle needs exactly one face"),
    ("circle with two faces",
     replace(BASE, components=BASE.components + (Component((), ("F.e0", "F.e1")),)),
     "component 2: a circle needs exactly one face"),
    ("circle in unknown face",
     replace(BASE, components=BASE.components + (Component((), ("G",)),)),
     "component 2: unknown face"),
    ("arc face list length", component(BASE, 1, arc_faces=("F.e0",) * 3),
     "component 1: arc face list does not match events"),
    ("unknown crossing", event(BASE, 0, 1, CrossVisit("c9", 1)),
     "component 0: unknown crossing 'c9'"),
    ("bad port", event(BASE, 0, 1, CrossVisit("c2", 4)),
     "component 0: bad port 4"),
    ("unknown transit", event(BASE, 1, 3, TransitVisit("t9", 0)),
     "component 1: unknown transit 't9'"),
    ("bad transit side", event(BASE, 1, 3, TransitVisit("ta2", 2)),
     "component 1: bad transit side 2"),
    ("crossing not visited",
     replace(BASE, crossings={**BASE.crossings, "c3": Crossing("F.e1", 0)}),
     "crossing 'c3' visited 0 times, expected 2"),
    ("diameters", event(BASE, 1, 0, CrossVisit("c1", 0)),
     "crossing 'c1': visits do not cover both diameters"),
    ("transit visited twice", event(BASE, 1, 3, TransitVisit("ta1", 0)),
     "transit 'ta1' visited 2 times, expected 1"),
    ("transit not visited",
     replace(BASE, transits={**BASE.transits,
                             "t9": Transit("v.b", Fraction(1, 2), (("F.e1", 1), ("F.e2", 1)))}),
     "transit 't9' visited 0 times, expected 1"),
    ("arc joins faces", component(BASE, 0, arc_faces=("F.e1", "F.e0", "F.e1", "F.e0")),
     "arc 0.0 labeled 'F.e1' joins faces 'F.e0', 'F.e0'"),
    ("arc leaves its face", component(BASE, 0, arc_faces=("F.e0", "F.e0", "F.e0", "F.e0")),
     "arc 0.2 labeled 'F.e0' joins faces 'F.e1', 'F.e1'"),
    ("arc in unknown face", component(BASE, 1, arc_faces=("F.e0", "G", "F.e2", "F.e0")),
     "arc 1.1 labeled 'G' joins faces 'F.e0', 'F.e0'"),
    ("not drawable", interleaved_chords(),
     "tangle of face 'F' is not drawable in a disc"),
    ("not drawable beside transits", event(BASE, 0, 1, CrossVisit("c2", 3)),
     "tangle of face 'F.e0' is not drawable in a disc"),
    # two faults at once: the first check in order fires
    ("bad dot before unknown edge", transit(crossing(BASE, "c2", dot=5), "tb1", edge="x"),
     "crossing 'c2': dots must mark one opposite sector pair"),
    ("range before equal positions",
     transit(transit(BASE, "tb2", pos=Fraction(1, 3)), "ta2", pos=Fraction(2)),
     "transit 'ta2' position out of range"),
    ("equal positions before components",
     event(transit(BASE, "ta2", pos=Fraction(1, 3)), 0, 0, CrossVisit("c9", 0)),
     "edge 'v.a' carries transits at equal positions"),
    ("visits before arcs",
     component(event(BASE, 1, 0, CrossVisit("c1", 0)), 0, arc_faces=("F.e1",) * 4),
     "crossing 'c1': visits do not cover both diameters"),
]


@pytest.mark.parametrize("d, message", [(d, m) for _id, d, m in FAULTS],
                         ids=[f[0] for f in FAULTS])
def test_planted_fault_message(d, message):
    with pytest.raises(DiagramError) as info:
        validate_diagram(replace(d))
    assert str(info.value) == message


def test_base_is_valid():
    assert validate_diagram(replace(BASE))


def test_planted_faults_match_the_reference():
    for _id, d, message in FAULTS:
        assert reference_checks(d) == ("error", message)
        assert_same_verdict(d)
    assert_same_verdict(BASE)


@pytest.fixture
def validated(monkeypatch):
    """Every diagram the library validates while the test runs, in order."""
    seen = []
    check = dg._checked_face_maps

    def recording(d):
        seen.append(d)
        return check(d)

    monkeypatch.setattr(dg, "_checked_face_maps", recording)
    return seen


def test_fuzz_steps_match_the_reference(validated):
    # every move result a fuzz run validates, and the results of the M6
    # and M7 candidates at its end, those rejected included
    for name, n in corpus.EXAMPLES:
        for seed in range(6):
            out, _trace = mv.fuzz(example(name, n).diagram, 25, seed, max_crossings=6,
                                  max_transits=12)
            for kind in (mv.MoveKind.M6, mv.MoveKind.M7):
                for site in mv.candidate_sites(out, kind):
                    try:
                        mv.apply(out, kind, site)
                    except MoveError:
                        pass
    verdicts = [reference_checks(d)[0] for d in validated]
    assert verdicts.count("ok") >= 9 * 6 * 25 and "error" in verdicts
    for d in list(validated):
        assert_same_verdict(d)


# -- mutated files ----------------------------------------------------------

MUTANT_TOKENS = ("0", "1", "2", "3", "4", "-1", "1/2", "2/3", "0/1", "1/0", "3/2",
                 "-1/3", "1.5", "x", "F", "+", "-", ":", "=", "u", "u^-1", "c1",
                 "t1", "x(c1,4)", "t(t1,2)", "x(c9,0)", "()", "k1.0.0")


def mutate(text, rng):
    """One seeded single-line mutation of a file's text."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    tokens = lines[i].split(" ")
    j = rng.randrange(len(tokens))
    op = rng.choice(("drop", "dup", "swap", "token", "token", "token", "cut", "untoken"))
    if op == "drop":
        del lines[i]
    elif op == "dup":
        lines.insert(i, lines[i])
    elif op == "swap":
        k = rng.randrange(len(lines))
        lines[i], lines[k] = lines[k], lines[i]
    elif op == "cut":
        lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    else:
        if op == "untoken":
            del tokens[j]
        else:
            pool = MUTANT_TOKENS + tuple(text.split())
            tokens[j] = rng.choice(pool)
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


MUTATION_EXAMPLES = (("torus_link", None), ("moebius_link", None),
                     ("annulus_link", None), ("trefoil_left", None),
                     ("hopf_local", None), ("Ln", 1), ("Kn", 1))


def test_mutated_files_end_in_an_error_line_or_succeed(tmp_path, capsys, validated):
    rng = random.Random(12)
    originals = []
    for name, n in MUTATION_EXAMPLES:
        args = ["example", name, "--emit", str(tmp_path / "orig")]
        assert main(args + ([] if n is None else ["--n", str(n)])) == 0
        stem = tmp_path / "orig" / (name if n is None else f"{name}{n}")
        originals.append({ext: stem.with_suffix("." + ext).read_text()
                          for ext in ("complex", "diagram", "connection")})
    capsys.readouterr()
    codes = []
    for trial in range(300):
        texts = dict(originals[trial % len(originals)])
        ext = rng.choice(("complex", "diagram", "diagram", "diagram", "connection"))
        texts[ext] = mutate(texts[ext], rng)
        paths = {}
        for key, text in texts.items():
            paths[key] = tmp_path / f"m.{key}"
            paths[key].write_text(text)
        cx, diag, conn = (str(paths[k]) for k in ("complex", "diagram", "connection"))
        for argv in (["validate", cx, diag], ["inv", cx, diag, "--conn", conn],
                     ["bracket", cx, diag]):
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, texts[ext])
            if code:
                assert any(line.startswith("error: ") for line in err.splitlines()), \
                    (argv, texts[ext], err)
            codes.append(code)
    # the mutations reach both verdicts, and each validated diagram gets the
    # reference's verdict and text
    assert codes.count(0) > 100 and codes.count(1) > 100
    assert {reference_checks(d)[0] for d in validated} == {"ok", "error"}
    for d in list(validated):
        assert_same_verdict(d)
