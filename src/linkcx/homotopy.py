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
canonicalized up to inversion.  A diagram whose path holonomies are all
trivial (every braid closure in a disc, say) has only trivial curves, so
its homotopy bracket is (-A^2 - A^-2) times its kept bracket, under the
empty multiset, and no group state sum runs.

The three value types, PiElement (LK), TensorElement (co) and
SystemElement (the homotopy bracket), are sums keyed by curve classes on
``laurent._Terms``, the arithmetic and text codec Laurent uses too.  A term
prints as ``coeff*<open>class<sep>class<close>``, as in ``2*[u v]``,
``3*[u]x[v]`` and ``(1*A^4)*{u, v}``.  Each type's ``parse`` (bound as
``parse_pi_element``, ``parse_tensor_element`` and ``parse_system_element``)
inverts its ``to_text`` byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

# state_curves is re-exported: callers look it up here too
from .bracket import _bracket_of, _contract, _state_sum, state_curves  # noqa: F401
from .diagram import Diagram, derived, transit_steps
from .errors import DiagramError
from .groups import (ConjClass, GroupSpec, Word, conj_class, inv, mul,
                     reduce_word, text_to_word, word_to_text)
from .invariants import _sign_from_visits, _visit_pairs, wri
from .laurent import Laurent, _put, _Terms
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

    def __post_init__(self):
        # reduced labels make every holonomy product a junction-only one
        if self.group.kind == "free":
            object.__setattr__(self, "labels", {key: reduce_word(w) for key, w
                                                in self.labels.items()})

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


def component_class(d: Diagram, conn: Connection, ci: int) -> ConjClass:
    """Class of one component's underlying loop, in listing direction."""
    return loop_class(conn, transit_steps(d, ci))


# -- module elements ----------------------------------------------------

class _ClassTerms(_Terms):
    """Sum keyed by curve classes, printed sorted by the classes of its keys.

    Subclasses declare the key shape (``_key`` from a list of classes,
    ``_classes`` back), the brackets and separator and the coefficient codec.
    """

    __slots__ = ()
    _open, _sep, _close = "[", "]x[", "]"

    @staticmethod
    def _classes(key):
        return key

    @classmethod
    def _key_text(cls, key, spec: GroupSpec) -> str:
        return cls._sep.join(word_to_text(spec, a) for a in cls._classes(key))

    @classmethod
    def _key_parse(cls, text: str, spec: GroupSpec):
        return cls._key([conj_class(spec, text_to_word(spec, a))
                         for a in (text.split(cls._sep) if text.strip() else [])])

    @classmethod
    def _order(cls, key):
        classes = cls._classes(key)
        return len(classes), [a.sort_key() for a in classes]

    def involution(self):
        """Induced by inversion in the group, class by class."""
        acc = {}
        for k, c in self.terms.items():
            _put(acc, self._key([a.inverse() for a in self._classes(k)]), c)
        return type(self)(acc)


class PiElement(_ClassTerms):
    """Finite integer combination of conjugacy classes: ``2*[u v]``."""

    __slots__ = ()

    @staticmethod
    def _key(classes) -> ConjClass:
        (a,) = classes
        return a

    @staticmethod
    def _classes(key: ConjClass):
        return (key,)

    def augmentation(self) -> int:
        """Image under the map sending every class to 1."""
        return sum(self.terms.values())


class TensorElement(_ClassTerms):
    """Finite integer combination of ordered class pairs: ``3*[u]x[v]``."""

    __slots__ = ()

    @staticmethod
    def _key(classes) -> Tuple[ConjClass, ConjClass]:
        a, b = classes
        return a, b


class SystemElement(_ClassTerms):
    """Laurent combination of multisets of nontrivial classes: ``(1*A^4)*{u, v}``."""

    __slots__ = ()
    _open, _sep, _close = "{", ", ", "}"

    @staticmethod
    def _key(classes) -> Tuple[ConjClass, ...]:
        return tuple(sorted(classes, key=ConjClass.sort_key))

    @staticmethod
    def _coeff_text(f: Laurent) -> str:
        return f"({f})"

    @staticmethod
    def _coeff_parse(text: str) -> Laurent:
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError("coefficient is not parenthesised")
        return Laurent.parse(text[1:-1])

    def specialize(self, curve_factor: Laurent) -> Laurent:
        """Send a multiset of size m to curve_factor**m and sum."""
        acc = Laurent.zero()
        for m, f in self.terms.items():
            acc = acc + f * (curve_factor ** len(m))
        return acc


parse_pi_element = PiElement.parse
parse_tensor_element = TensorElement.parse
parse_system_element = SystemElement.parse


# -- linking and colinking classes ---------------------------------------

def LK(d: Diagram, conn: Connection) -> PiElement:
    """Linking class of an oriented 2-component diagram."""
    if len(d.components) != 2:
        raise DiagramError("linking class needs exactly two components")
    if not d.oriented():
        raise DiagramError("linking class needs directed components")
    acc: Dict[ConjClass, int] = {}
    for c, (v1, v2) in _visit_pairs(d).items():
        if v1[0] == v2[0]:
            continue
        steps = (transit_steps(d, v1[0], v1[1] + 1)
                 + transit_steps(d, v2[0], v2[1] + 1))
        _put(acc, loop_class(conn, steps), _sign_from_visits(d, c, v1, v2))
    return PiElement(acc)


def co(d: Diagram, conn: Connection) -> TensorElement:
    """Colinking class of an oriented knot."""
    if len(d.components) != 1:
        raise DiagramError("colinking class needs a knot")
    if not d.oriented():
        raise DiagramError("colinking class needs a directed knot")
    knot_class = component_class(d, conn, 0)
    one = conj_class(conn.group, conn.group.identity())
    acc: Dict[Tuple[ConjClass, ConjClass], int] = {}
    for c, (v1, v2) in _visit_pairs(d).items():
        sign = _sign_from_visits(d, c, v1, v2)
        k1 = loop_class(conn, transit_steps(d, 0, v1[1] + 1, v2[1]))
        k2 = loop_class(conn, transit_steps(d, 0, v2[1] + 1, v1[1]))
        for key, n in (((k1, k2), sign), ((k2, k1), sign),
                       ((knot_class, one), -sign), ((one, knot_class), -sign)):
            _put(acc, key, n)
    return TensorElement(acc)


# -- homotopy bracket ------------------------------------------------------

def homotopy_bracket(d: Diagram, conn: Connection,
                     max_crossings: Optional[int] = None) -> SystemElement:
    """State sum valued in multisets of nontrivial curve classes.

    Each state contributes A^(2|C| - cro) times the coarsened class of its
    curve system: trivial curves each become a factor (-A^2 - A^-2) and
    the remaining classes form the basis multiset.  Each path's holonomy is
    read once, and the path back, through the same transits, gets its
    inverse.  With every path word trivial, it is the loop factor times the
    kept bracket; otherwise the group state sum multiplies the others.
    """
    con = _contract(d, max_crossings, "homotopy bracket")
    g, match, path_words = conn.group, con.match, []
    for a, steps in enumerate(con.steps):
        b = match[a] if a < len(match) else a
        path_words.append(inv(g, path_words[b]) if b < a else holonomy(conn, steps))
    one = g.identity()
    if all(w == one for w in path_words):
        kept = derived(d, "bracket", _bracket_of)
        return SystemElement({(): Laurent.loop_factor() * kept})
    return SystemElement(_state_sum(con, g, path_words))


def normalized_homotopy_bracket(d: Diagram, conn: Connection,
                                max_crossings: Optional[int] = None) -> SystemElement:
    """(-A^3)^(-wri) times the homotopy bracket; invariant under every move."""
    return homotopy_bracket(d, conn, max_crossings).scale(
        Laurent.minus_A3_power(-wri(d)))
