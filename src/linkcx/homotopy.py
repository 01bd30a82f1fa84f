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

The three value types, PiElement (LK), TensorElement (co) and
SystemElement (the homotopy bracket), share one term algebra and one text
codec: "0", or terms ``coeff*<open>class<sep>class<close>`` joined by
" + ", as in ``2*[u v]``, ``3*[u]x[v]`` and ``(1*A^4)*{u, v}``.  Each
type's ``parse`` (bound as ``parse_pi_element``, ``parse_tensor_element``
and ``parse_system_element``) inverts its ``to_text`` byte for byte.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# state_curves is re-exported: callers look it up here too
from .bracket import _contract, _tally_polynomial, state_curves  # noqa: F401
from .diagram import Diagram, transit_steps
from .errors import DiagramError
from .groups import (ConjClass, GroupSpec, Word, conj_class, inv, mul,
                     text_to_word, unoriented_class, word_to_text)
from .invariants import _sign_from_visits, _visit_pairs, wri
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


def component_class(d: Diagram, conn: Connection, ci: int) -> ConjClass:
    """Class of one component's underlying loop, in listing direction."""
    return loop_class(conn, transit_steps(d, ci))


# -- module elements ----------------------------------------------------

# split a term list at every " + " outside a parenthesised coefficient
_TERM_SEP = re.compile(r" \+ (?![^(]*\))")


def _put(acc: dict, key, c) -> None:
    acc[key] = acc[key] + c if key in acc else c


class _Terms:
    """Finite combination of class keys with nonzero coefficients.

    Subclasses declare the key shape (``_key`` from a list of classes,
    ``_classes`` back), the brackets of the text codec and the coefficient
    codec.  Terms print sorted by the classes of their keys.
    """

    __slots__ = ("terms",)
    _open, _sep, _close = "[", "]x[", "]"
    _coeff_text = str
    _coeff_parse = int

    def __init__(self, terms=()):
        self.terms = {k: c for k, c in dict(terms).items() if c}

    @staticmethod
    def _classes(key):
        return key

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self.terms)
        for k, c in other.terms.items():
            _put(acc, k, c)
        return type(self)(acc)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def scale(self, f):
        return type(self)({k: f * c for k, c in self.terms.items()})

    def involution(self):
        """Induced by inversion in the group, class by class."""
        acc = {}
        for k, c in self.terms.items():
            _put(acc, self._key([a.inverse() for a in self._classes(k)]), c)
        return type(self)(acc)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"{type(self).__name__}({self.terms})"

    def to_text(self, spec: GroupSpec) -> str:
        if not self.terms:
            return "0"
        rows = sorted(((self._classes(k), c) for k, c in self.terms.items()),
                      key=lambda row: (len(row[0]), [a.sort_key() for a in row[0]]))
        return " + ".join(
            f"{self._coeff_text(c)}*{self._open}"
            f"{self._sep.join(word_to_text(spec, a) for a in classes)}{self._close}"
            for classes, c in rows)

    @classmethod
    def parse(cls, spec: GroupSpec, text: str):
        """Inverse of ``to_text``."""
        text = text.strip()
        acc = {}
        for part in ([] if text == "0" else _TERM_SEP.split(text)):
            coeff, _, rest = part.partition("*" + cls._open)
            body = rest[:-len(cls._close)]
            try:
                if not rest.endswith(cls._close):
                    raise ValueError("unclosed term")
                classes = [conj_class(spec, text_to_word(spec, a))
                           for a in (body.split(cls._sep) if body.strip() else [])]
                _put(acc, cls._key(classes), cls._coeff_parse(coeff.strip()))
            except ValueError as exc:
                raise ValueError(f"bad term {part!r}: {exc}") from None
        return cls(acc)


class PiElement(_Terms):
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


class TensorElement(_Terms):
    """Finite integer combination of ordered class pairs: ``3*[u]x[v]``."""

    __slots__ = ()

    @staticmethod
    def _key(classes) -> Tuple[ConjClass, ConjClass]:
        a, b = classes
        return a, b


class SystemElement(_Terms):
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
        key = SystemElement._key(classes)
        tallies.setdefault(key, Counter())[(k, trivial)] += 1
    n = len(con.order)
    return SystemElement({key: _tally_polynomial(tally, n)
                          for key, tally in tallies.items()})


def normalized_homotopy_bracket(d: Diagram, conn: Connection,
                                max_crossings: Optional[int] = None) -> SystemElement:
    """(-A^3)^(-wri) times the homotopy bracket; invariant under every move."""
    return homotopy_bracket(d, conn, max_crossings).scale(
        Laurent.minus_A3_power(-wri(d)))
