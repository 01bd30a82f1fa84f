"""Free-homotopy classes of curves, the linking class, the colinking class,
and a computable coarsening of the homotopy bracket.

Holonomy is supplied as a connection: a group element h(s) for every
(edge, face-side incidence) pair, in a declared free or free-abelian
group.  A transit entering through incidence s1 and leaving through s2
contributes h(s1) * h(s2)^-1 to the loop's holonomy, read in travel
order.  That the connection presents the holonomy of the complex is the
caller's responsibility; every example complex ships with one.  LK, co
and component classes read one list of prefix words per component, so
the loop cut at a crossing is a product of prefixes and their inverses.

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
from typing import Dict, List, Optional, Tuple

# state_curves is re-exported: callers look it up here too
from .bracket import _bracket_of, _contract, _state_sum, state_curves  # noqa: F401
from .diagram import Diagram, TransitVisit, derived, visit_pairs
from .errors import DiagramError
from .groups import (ConjClass, GroupSpec, Word, conj_class, inv, mul,
                     reduce_word, text_to_word, word_to_text)
from .invariants import _all_signs, wri
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


def _prefix_words(d: Diagram, conn: Connection, ci: int) -> List[Word]:
    """P[0] = 1, and P[i + 1] is P[i] times event i's ``holonomy`` factor.

    Events a to b - 1 read P[a]^-1 P[b], exactly on reduced free words.
    """
    g, acc = conn.group, conn.group.identity()
    words = [acc]
    for ev in d.components[ci].events:
        if isinstance(ev, TransitVisit):
            tr = d.transits[ev.transit]
            acc = mul(g, acc, mul(g, conn.h(tr.edge, tr.sides[ev.enter]),
                                  inv(g, conn.h(tr.edge, tr.sides[1 - ev.enter]))))
        words.append(acc)
    return words


def component_class(d: Diagram, conn: Connection, ci: int) -> ConjClass:
    """Class of one component's underlying loop, in listing direction."""
    visit_pairs(d)      # a fault in the event lists raises DiagramError here
    return conj_class(conn.group, _prefix_words(d, conn, ci)[-1])


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
    """Linking class of an oriented 2-component diagram.

    At a crossing visited at event a of A and b of B, the loop runs once
    round A, then B, from just after it: X^-1 A X Y^-1 B Y over prefix
    words, X = P_A[a + 1] and Y = P_B[b + 1], conjugate to A z B z^-1 for
    z = X Y^-1.
    """
    if len(d.components) != 2:
        raise DiagramError("linking class needs exactly two components")
    if not d.oriented():
        raise DiagramError("linking class needs directed components")
    # visits come in listing order, so a crossing of the two has A = component 0
    between = [(c, a, b) for c, ((ca, a), (cb, b)) in visit_pairs(d).items() if ca != cb]
    if not between:
        return PiElement({})         # and no label is read
    signs, g = _all_signs(d, need_directed=False), conn.group
    pa, pb = (_prefix_words(d, conn, ci) for ci in (0, 1))
    acc: Dict[ConjClass, int] = {}
    for c, a, b in between:
        z = mul(g, pa[a + 1], inv(g, pb[b + 1]))
        loop = mul(g, pa[-1], mul(g, mul(g, z, pb[-1]), inv(g, z)))
        _put(acc, conj_class(g, loop), signs[c][0])
    return PiElement(acc)


def co(d: Diagram, conn: Connection) -> TensorElement:
    """Colinking class of an oriented knot.

    The lobes at a crossing visited at events i < j are events i + 1 to
    j - 1, P[i + 1]^-1 P[j], and j + 1 round to i - 1, conjugate to
    P[-1] P[i] P[j + 1]^-1, over the knot's prefix words P.
    """
    if len(d.components) != 1:
        raise DiagramError("colinking class needs a knot")
    if not d.oriented():
        raise DiagramError("colinking class needs a directed knot")
    signs, g, words = _all_signs(d, need_directed=False), conn.group, _prefix_words(d, conn, 0)
    knot_class = conj_class(g, words[-1])
    one = conj_class(g, g.identity())
    acc: Dict[Tuple[ConjClass, ConjClass], int] = {}
    for c, ((_, i), (_, j)) in visit_pairs(d).items():
        sign = signs[c][0]
        k1 = conj_class(g, mul(g, inv(g, words[i + 1]), words[j]))
        k2 = conj_class(g, mul(g, words[-1], mul(g, words[i], inv(g, words[j + 1]))))
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
