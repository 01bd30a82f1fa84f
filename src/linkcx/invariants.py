"""Crossing signs, linking numbers, and writhes of dotted diagrams.

The sign of a crossing is read off the dots and the strand directions:
in the host face's orientation, the over diameter is the one whose
counterclockwise rotation sweeps the dotted sectors first.  The sign is
+1 exactly when the under strand leaves through the port one step
counterclockwise from the over strand's exit port.  Reversing the face
orientation swaps the over diameter and the port labels together, so the
value does not depend on the encoding.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .diagram import Diagram, crossing_visits, derived
from .errors import DiagramError

__all__ = [
    "crossing_sign",
    "lk",
    "pairwise_lk",
    "wri",
    "Wri",
    "parity_check",
    "local_obstruction",
]


Visit = Tuple[int, int]                  # (component index, event index)


def _visit_pairs(d: Diagram) -> Dict[str, Tuple[Visit, Visit]]:
    """crossing -> its two visits in listing order, kept in the record of d."""
    return derived(d, "visit_pairs", _pairs_of_visits)


def _pairs_of_visits(d: Diagram) -> Dict[str, Tuple[Visit, Visit]]:
    out = {}
    for c, vs in derived(d, "crossing_visits", crossing_visits).items():
        if len(vs) != 2:
            raise DiagramError(f"crossing {c!r} is not visited exactly twice")
        out[c] = (vs[0], vs[1])
    return out


def _sign_from_visits(d: Diagram, c: str, v1, v2) -> int:
    dot = d.crossings[c].dot
    e1 = d.components[v1[0]].events[v1[1]].enter
    e2 = d.components[v2[0]].events[v2[1]].enter
    # over diameter is (p_dot, p_dot+2)
    over_enter = e1 if e1 % 2 == dot % 2 else e2
    under_enter = e2 if over_enter == e1 else e1
    over_exit = (over_enter + 2) % 4
    under_exit = (under_enter + 2) % 4
    return 1 if (under_exit - over_exit) % 4 == 1 else -1


def crossing_sign(d: Diagram, c: str) -> int:
    """Sign of a crossing of an oriented diagram, in {+1, -1}."""
    if c not in d.crossings:
        raise DiagramError(f"unknown crossing {c!r}")
    v1, v2 = _visit_pairs(d)[c]
    for ci, _ei in (v1, v2):
        if not d.components[ci].directed:
            raise DiagramError(f"crossing {c!r}: strand through it is not directed")
    return _sign_from_visits(d, c, v1, v2)


def _all_signs(d: Diagram, need_directed: bool) -> Dict[str, Tuple[int, int, int]]:
    """crossing -> (sign, component of first visit, component of second).

    The table is kept in the record of d; the direction check runs on
    every call.
    """
    signs = derived(d, "signs", _signs_of)
    if need_directed:
        for _sign, c1, c2 in signs.values():
            if not (d.components[c1].directed and d.components[c2].directed):
                raise DiagramError("diagram is not fully directed")
    return signs


def _signs_of(d: Diagram) -> Dict[str, Tuple[int, int, int]]:
    return {c: (_sign_from_visits(d, c, v1, v2), v1[0], v2[0])
            for c, (v1, v2) in _visit_pairs(d).items()}


def lk(d: Diagram) -> int:
    """Linking number of an oriented 2-component diagram."""
    if len(d.components) != 2:
        raise DiagramError("linking number needs exactly two components")
    return pairwise_lk(d, 0, 1)


def pairwise_lk(d: Diagram, i: int, j: int) -> int:
    """Linking number of the oriented sub-link formed by components i and j."""
    if i == j:
        raise DiagramError("pairwise linking number needs two distinct components")
    n = len(d.components)
    if not (0 <= i < n and 0 <= j < n):
        raise DiagramError("component index out of range")
    total = 0
    for sign, c1, c2 in _all_signs(d, need_directed=True).values():
        if {c1, c2} == {i, j}:
            total += sign
    return total


def wri(d: Diagram) -> int:
    """Unoriented writhe: the sum of each component's self-crossing signs.

    Self-crossing signs do not depend on the direction of the component,
    so undirected components are traversed in listing order.
    """
    total = 0
    for sign, c1, c2 in _all_signs(d, need_directed=False).values():
        if c1 == c2:
            total += sign
    return total


def Wri(d: Diagram) -> int:
    """Oriented writhe: the sum of all crossing signs."""
    return sum(s for s, _c1, _c2 in _all_signs(d, need_directed=True).values())


def _inter_crossing_count(d: Diagram) -> int:
    return sum(1 for _s, c1, c2 in _all_signs(d, need_directed=False).values()
               if c1 != c2)


def parity_check(d: Diagram) -> bool:
    """lk is congruent mod 2 to the number of crossings between the components."""
    if len(d.components) != 2:
        raise DiagramError("parity check needs exactly two components")
    return (lk(d) - _inter_crossing_count(d)) % 2 == 0


def local_obstruction(d: Diagram) -> bool:
    """True when an odd linking number certifies the link is not local."""
    if len(d.components) != 2:
        raise DiagramError("locality obstruction needs exactly two components")
    return lk(d) % 2 == 1
