"""Free-homotopy classes of curves, the linking class, the colinking class,
and a computable coarsening of the homotopy bracket.

Holonomy is supplied as a connection: a group element h(s) for every
(edge, face-side incidence) pair, in a declared free or free-abelian
group.  A transit entering through incidence s1 and leaving through s2
contributes h(s1) * h(s2)^-1 to the loop's holonomy, read in travel
order.  Supplying a connection that actually presents the holonomy of
the complex is the caller's responsibility; connections for all example
complexes ship with the library.

The homotopy bracket implemented here coarsens curve systems to finite
multisets of nontrivial conjugacy classes: every curve whose class is
trivial is deleted and replaced by the factor (-A^2 - A^-2).  Curves in a
state carry no preferred direction, so their classes are additionally
canonicalized up to inversion.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# state_curves is re-exported: callers look it up here too
from .bracket import _contract, _tally_polynomial, state_curves  # noqa: F401
from .diagram import Diagram, TransitVisit
from .errors import DiagramError
from .groups import (ConjClass, GroupSpec, Word, conj_class, inv, mul,
                     text_to_word, unoriented_class, word_to_text)
from .invariants import _sign_from_visits, _visit_pair, wri
from .laurent import Laurent
from .twocomplex import Incidence, TwoComplex

__all__ = [
    "Connection",
    "PiElement",
    "TensorElement",
    "SystemElement",
    "loop_class",
    "component_class",
    "LK",
    "co",
    "homotopy_bracket",
    "normalized_homotopy_bracket",
]

LabelKey = Tuple[str, Incidence]


@dataclass(frozen=True)
class Connection:
    group: GroupSpec
    labels: Dict[LabelKey, Word]

    def h(self, edge: str, inc: Incidence) -> Word:
        try:
            return self.labels[(edge, inc)]
        except KeyError:
            raise DiagramError(f"connection has no label for edge {edge!r} at {inc!r}")

    @classmethod
    def trivial(cls, cx: TwoComplex, group: GroupSpec) -> "Connection":
        labels = {(e, inc): group.identity()
                  for e, incs in cx.incidences.items() for inc in incs}
        return cls(group, labels)

    def with_labels(self, assignments: Dict[LabelKey, str]) -> "Connection":
        labels = dict(self.labels)
        for key, text in assignments.items():
            labels[key] = text_to_word(self.group, text)
        return Connection(self.group, labels)

    def remap_face_reversal(self, face: str, word_len: int) -> "Connection":
        """Labels for the complex with one face's boundary word reversed."""
        labels = {}
        for (e, (f, j)), w in self.labels.items():
            if f == face:
                labels[(e, (f, word_len - 1 - j))] = w
            else:
                labels[(e, (f, j))] = w
        return Connection(self.group, labels)


def holonomy(conn: Connection, steps) -> Word:
    """Product of h(entering) * h(exiting)^-1 over transit steps."""
    g = conn.group
    acc = g.identity()
    for edge, inc_in, inc_out in steps:
        acc = mul(g, acc, mul(g, conn.h(edge, inc_in), inv(g, conn.h(edge, inc_out))))
    return acc


def loop_class(conn: Connection, steps) -> ConjClass:
    """Free-homotopy class of a directed loop given by its transit steps."""
    return conj_class(conn.group, holonomy(conn, steps))


def _component_steps_from(d: Diagram, ci: int, start_after: int):
    comp = d.components[ci]
    k = len(comp.events)
    steps = []
    for off in range(1, k + 1):
        ev = comp.events[(start_after + off) % k]
        if isinstance(ev, TransitVisit):
            tr = d.transits[ev.transit]
            steps.append((tr.edge, tr.sides[ev.enter], tr.sides[1 - ev.enter]))
    return steps


def component_class(d: Diagram, conn: Connection, ci: int) -> ConjClass:
    """Class of one component's underlying loop, in listing direction."""
    return loop_class(conn, _component_steps_from(d, ci, -1))


# -- module elements ----------------------------------------------------

class PiElement:
    """Finite integer combination of conjugacy classes."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[ConjClass, int] = ()):
        self.terms = {c: n for c, n in dict(terms).items() if n}

    def __eq__(self, other):
        return isinstance(other, PiElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        acc = dict(self.terms)
        for c, n in other.terms.items():
            acc[c] = acc.get(c, 0) + n
        return PiElement(acc)

    def __neg__(self):
        return PiElement({c: -n for c, n in self.terms.items()})

    def scale(self, k: int) -> "PiElement":
        return PiElement({c: k * n for c, n in self.terms.items()})

    def augmentation(self) -> int:
        """Image under the map sending every class to 1."""
        return sum(self.terms.values())

    def involution(self) -> "PiElement":
        """Induced by inversion in the group."""
        acc: Dict[ConjClass, int] = {}
        for c, n in self.terms.items():
            ci = c.inverse()
            acc[ci] = acc.get(ci, 0) + n
        return PiElement(acc)

    def is_zero(self) -> bool:
        return not self.terms

    def to_text(self, spec: GroupSpec) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda cn: cn[0].sort_key())
        return " + ".join(f"{n}*[{word_to_text(spec, c)}]" for c, n in items)

    def __repr__(self):
        return f"PiElement({self.terms})"


class TensorElement:
    """Finite integer combination of ordered class pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[ConjClass, ConjClass], int] = ()):
        self.terms = {p: n for p, n in dict(terms).items() if n}

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        acc = dict(self.terms)
        for p, n in other.terms.items():
            acc[p] = acc.get(p, 0) + n
        return TensorElement(acc)

    def __neg__(self):
        return TensorElement({p: -n for p, n in self.terms.items()})

    def scale(self, k: int) -> "TensorElement":
        return TensorElement({p: k * n for p, n in self.terms.items()})

    def involution(self) -> "TensorElement":
        acc: Dict[Tuple[ConjClass, ConjClass], int] = {}
        for (a, b), n in self.terms.items():
            key = (a.inverse(), b.inverse())
            acc[key] = acc.get(key, 0) + n
        return TensorElement(acc)

    def is_zero(self) -> bool:
        return not self.terms

    def to_text(self, spec: GroupSpec) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(),
                       key=lambda pn: (pn[0][0].sort_key(), pn[0][1].sort_key()))
        return " + ".join(
            f"{n}*[{word_to_text(spec, a)}]x[{word_to_text(spec, b)}]"
            for (a, b), n in items)

    def __repr__(self):
        return f"TensorElement({self.terms})"


class SystemElement:
    """Laurent combination of multisets of nontrivial classes."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[ConjClass, ...], Laurent] = ()):
        self.terms = {m: f for m, f in dict(terms).items() if f}

    def __eq__(self, other):
        return isinstance(other, SystemElement) and self.terms == other.terms

    def __add__(self, other):
        acc = dict(self.terms)
        for m, f in other.terms.items():
            g = acc.get(m, Laurent.zero()) + f
            if g:
                acc[m] = g
            else:
                acc.pop(m, None)
        return SystemElement(acc)

    def scale(self, f: Laurent) -> "SystemElement":
        return SystemElement({m: f * g for m, g in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def specialize(self, curve_factor: Laurent) -> Laurent:
        """Send a multiset of size m to curve_factor**m and sum."""
        acc = Laurent.zero()
        for m, f in self.terms.items():
            acc = acc + f * (curve_factor ** len(m))
        return acc

    def to_text(self, spec: GroupSpec) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(),
                       key=lambda mf: (len(mf[0]), tuple(c.sort_key() for c in mf[0])))
        parts = []
        for m, f in items:
            classes = ", ".join(word_to_text(spec, c) for c in m)
            parts.append(f"({f})*{{{classes}}}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SystemElement({self.terms})"


# -- linking and colinking classes ---------------------------------------

def LK(d: Diagram, conn: Connection) -> PiElement:
    """Linking class of an oriented 2-component diagram."""
    if len(d.components) != 2:
        raise DiagramError("linking class needs exactly two components")
    if not d.oriented():
        raise DiagramError("linking class needs directed components")
    acc: Dict[ConjClass, int] = {}
    for c in d.crossings:
        v1, v2 = _visit_pair(d, c)
        if v1[0] == v2[0]:
            continue
        sign = _sign_from_visits(d, c, v1, v2)
        steps = (_component_steps_from(d, v1[0], v1[1])
                 + _component_steps_from(d, v2[0], v2[1]))
        cls = loop_class(conn, steps)
        acc[cls] = acc.get(cls, 0) + sign
    return PiElement(acc)


def co(d: Diagram, conn: Connection) -> TensorElement:
    """Colinking class of an oriented knot."""
    if len(d.components) != 1:
        raise DiagramError("colinking class needs a knot")
    if not d.oriented():
        raise DiagramError("colinking class needs a directed knot")
    comp = d.components[0]
    k = len(comp.events)
    knot_class = component_class(d, conn, 0)
    one = conj_class(conn.group, conn.group.identity())
    acc: Dict[Tuple[ConjClass, ConjClass], int] = {}

    def put(key, n):
        acc[key] = acc.get(key, 0) + n

    for c in d.crossings:
        (ci1, i), (ci2, j) = _visit_pair(d, c)
        sign = _sign_from_visits(d, c, (ci1, i), (ci2, j))

        def steps_between(a: int, b: int):
            steps = []
            off = (a + 1) % k
            while off != b:
                ev = comp.events[off]
                if isinstance(ev, TransitVisit):
                    tr = d.transits[ev.transit]
                    steps.append((tr.edge, tr.sides[ev.enter], tr.sides[1 - ev.enter]))
                off = (off + 1) % k
            return steps

        k1 = loop_class(conn, steps_between(i, j))
        k2 = loop_class(conn, steps_between(j, i))
        put((k1, k2), sign)
        put((k2, k1), sign)
        put((knot_class, one), -sign)
        put((one, knot_class), -sign)
    return TensorElement(acc)


# -- homotopy bracket ------------------------------------------------------

def homotopy_bracket(d: Diagram, conn: Connection,
                     max_crossings: Optional[int] = None) -> SystemElement:
    """State sum valued in multisets of nontrivial curve classes.

    Each state contributes A^(2|C| - cro) times the coarsened class of its
    curve system: trivial curves each become a factor (-A^2 - A^-2) and
    the remaining classes form the basis multiset.
    """
    con = _contract(d, max_crossings, "homotopy bracket")
    g = conn.group
    path_words = [holonomy(conn, steps) for steps in con.steps]
    tallies: Dict[Tuple[ConjClass, ...], Counter] = {}
    for k, loops in con.states():
        trivial = 0
        classes: List[ConjClass] = []
        for loop in loops:
            w = g.identity()
            for p in loop:
                w = mul(g, w, path_words[p])
            cls = unoriented_class(g, w)
            if cls.is_identity():
                trivial += 1
            else:
                classes.append(cls)
        key = tuple(sorted(classes, key=lambda c: c.sort_key()))
        tallies.setdefault(key, Counter())[(k, trivial)] += 1
    n = len(con.order)
    return SystemElement({key: _tally_polynomial(tally, n)
                          for key, tally in tallies.items()})


def normalized_homotopy_bracket(d: Diagram, conn: Connection,
                                max_crossings: Optional[int] = None) -> SystemElement:
    """(-A^3)^(-wri) times the homotopy bracket; invariant under every move."""
    return homotopy_bracket(d, conn, max_crossings).scale(
        Laurent.minus_A3_power(-wri(d)))


# -- parsing the serialized term lists -------------------------------------

def _parse_class(spec: GroupSpec, text: str) -> ConjClass:
    return conj_class(spec, text_to_word(spec, text.strip()))


def parse_pi_element(spec: GroupSpec, text: str) -> PiElement:
    text = text.strip()
    if text == "0":
        return PiElement()
    terms: Dict[ConjClass, int] = {}
    for part in text.split(" + "):
        coeff, _, rest = part.partition("*[")
        if not rest.endswith("]"):
            raise ValueError(f"bad term {part!r}")
        cls = _parse_class(spec, rest[:-1])
        terms[cls] = terms.get(cls, 0) + int(coeff)
    return PiElement(terms)


def parse_tensor_element(spec: GroupSpec, text: str) -> TensorElement:
    text = text.strip()
    if text == "0":
        return TensorElement()
    terms: Dict[Tuple[ConjClass, ConjClass], int] = {}
    for part in text.split(" + "):
        coeff, _, rest = part.partition("*[")
        left, sep, right = rest.partition("]x[")
        if not sep or not right.endswith("]"):
            raise ValueError(f"bad term {part!r}")
        key = (_parse_class(spec, left), _parse_class(spec, right[:-1]))
        terms[key] = terms.get(key, 0) + int(coeff)
    return TensorElement(terms)


def parse_system_element(spec: GroupSpec, text: str) -> SystemElement:
    text = text.strip()
    if text == "0":
        return SystemElement()
    terms: Dict[Tuple[ConjClass, ...], Laurent] = {}
    for part in text.split(" + ("):
        part = part.strip()
        if part.startswith("("):
            part = part[1:]
        poly_text, sep, rest = part.partition(")*{")
        if not sep or not rest.endswith("}"):
            raise ValueError(f"bad term {part!r}")
        body = rest[:-1].strip()
        classes = tuple(_parse_class(spec, c) for c in body.split(",")) \
            if body else ()
        key = tuple(sorted(classes, key=lambda c: c.sort_key()))
        f = Laurent.parse(poly_text)
        terms[key] = terms.get(key, Laurent.zero()) + f
    return SystemElement(terms)
