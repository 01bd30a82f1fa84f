"""Bracket polynomial state sums, span bounds, and a classical oracle.

A state picks a subset C of the crossings.  Crossings in C are smoothed so
that the two dotted sectors merge; the others so that the undotted sectors
merge.  With |L,C| resulting curves the state contributes

    (-A^2 - A^-2)^(|L,C| - 1) * A^(2|C| - cro)

and the bracket is the sum over all states.  The normalized bracket
multiplies by (-A^3)^(-wri); a direct kink computation fixes the sign: a
positive kink multiplies the bracket by -A^3, so this normalization is
invariant under every move.

One engine serves every state sum.  ``_Contraction``, built once per
diagram, matches every crossing port to the port at the far end of its
arc, through the transits between them, which form the path leaving the
port.  ``loops(mask)`` follows match and smoothing through one state and
returns its curves as lists of path indices; ``states()`` enumerates all
2^cro states.  The bracket counts the curves, the homotopy bracket
multiplies per-path holonomies, and both tally integer counts per
(|C|, loop exponent) before building their polynomials once, at the end.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .diagram import CrossVisit, Diagram, PlanarCode, Slot, arcs_of, transit_steps
from .errors import CrossingCapError, DiagramError
from .invariants import Wri, wri
from .laurent import Laurent
from .twocomplex import Incidence

__all__ = [
    "SimpleSystem",
    "smooth",
    "state_term",
    "bracket",
    "normalized_bracket",
    "normalized_bracket_oriented",
    "span",
    "check_span_theorem",
    "check_state_inequality",
    "classical_oracle",
    "classical_lk",
    "default_crossing_cap",
]

TransitStep = Tuple[str, Incidence, Incidence]   # edge, entering side, exiting side


def default_crossing_cap() -> int:
    """LINKCX_MAX_CROSSINGS, a non-negative integer; 22 when unset."""
    text = os.environ.get("LINKCX_MAX_CROSSINGS", "22").strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"LINKCX_MAX_CROSSINGS must be a non-negative integer, "
                         f"not {text!r}")
    return int(text)


@dataclass(frozen=True)
class SimpleSystem:
    """Disjoint simple closed curves; each curve is its transit step trace."""

    curves: Tuple[Tuple[TransitStep, ...], ...]

    def count(self) -> int:
        return len(self.curves)


def _smoothing_pairs(dot: int, in_state: bool) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Port pairs joined by the smoothing.

    The state smoothing merges the dotted sectors, so it joins the two
    port pairs that cut those sectors off from the other two.
    """
    d = dot
    if in_state:
        return ((d + 1) % 4, (d + 2) % 4), ((d + 3) % 4, d % 4)
    return (d % 4, (d + 1) % 4), ((d + 2) % 4, (d + 3) % 4)


# -- the state-sum engine -------------------------------------------------

class _Contraction:
    """Arcs and transits contracted away: ports matched pairwise.

    Port 4*i + p is port p of crossing ``order[i]``.  Path a leads from
    port a to ``match[a]`` through the transit steps ``steps[a]``, and
    ``join[s][a]`` is the port that smoothing s (1 in the state) joins to
    a.  Crossing-free components are the fixed closed paths from 4 * cro.
    """

    __slots__ = ("order", "index", "match", "join", "steps", "fixed")

    def __init__(self, d: Diagram):
        self.order = sorted(d.crossings)
        self.index = {c: i for i, c in enumerate(self.order)}
        arc_at: Dict[Slot, Slot] = {}
        for arc in arcs_of(d):
            if arc.src is not None:
                arc_at[arc.src] = arc.dst
                arc_at[arc.dst] = arc.src
        self.match: List[int] = []
        self.steps: List[Tuple[TransitStep, ...]] = []
        self.join: Tuple[List[int], List[int]] = ([], [])
        for i, c in enumerate(self.order):
            for p in range(4):
                steps = []
                slot = arc_at[("x", c, p)]
                while slot[0] == "t":            # hop through the edge
                    tr = d.transits[slot[1]]
                    steps.append((tr.edge, tr.sides[slot[2]], tr.sides[1 - slot[2]]))
                    slot = arc_at[("t", slot[1], 1 - slot[2])]
                self.match.append(4 * self.index[slot[1]] + slot[2])
                self.steps.append(tuple(steps))
            for s, join in enumerate(self.join):
                ports = [0] * 4
                for a, b in _smoothing_pairs(d.crossings[c].dot, bool(s)):
                    ports[a], ports[b] = 4 * i + b, 4 * i + a
                join.extend(ports)
        self.fixed: List[List[int]] = []
        for ci, comp in enumerate(d.components):
            if not any(isinstance(ev, CrossVisit) for ev in comp.events):
                self.fixed.append([len(self.steps)])
                self.steps.append(tuple(transit_steps(d, ci)))

    def loops(self, mask: int) -> List[List[int]]:
        """Curves of the state given by mask, each as its list of paths."""
        match, join = self.match, self.join
        seen = [False] * len(match)
        out = []
        for start in range(len(match)):
            if seen[start]:
                continue
            loop = []
            a = start
            while True:
                loop.append(a)
                b = match[a]
                seen[a] = seen[b] = True
                a = join[mask >> (b >> 2) & 1][b]
                if a == start:
                    break
            out.append(loop)
        return out + self.fixed

    def states(self) -> Iterator[Tuple[int, List[List[int]]]]:
        """(|C|, curves) of every state."""
        for mask in range(1 << len(self.order)):
            yield mask.bit_count(), self.loops(mask)


def _contract(d: Diagram, max_crossings: Optional[int], what: str) -> _Contraction:
    """The engine of a full state sum, after the emptiness and cap checks."""
    if not d.components:
        raise DiagramError(f"{what} of an empty diagram is undefined")
    cap = default_crossing_cap() if max_crossings is None else max_crossings
    n = len(d.crossings)
    if n > cap:
        raise CrossingCapError(f"{n} crossings exceed the state-sum cap {cap}")
    return _Contraction(d)


def _tally_polynomial(tally: Dict[Tuple[int, int], int], n: int) -> Laurent:
    """Sum of count * (-A^2 - A^-2)^e * A^(2k - n) over a {(k, e): count} tally."""
    loop = Laurent.loop_factor()
    total = Laurent.zero()
    for (k, e), count in tally.items():
        total = total + (loop ** e) * Laurent.monomial(count, 2 * k - n)
    return total


def state_curves(d: Diagram, state: Iterable[str]) -> SimpleSystem:
    """Curves of a smoothed state, each with its transit step sequence."""
    con = _Contraction(d)
    loops = con.loops(sum(1 << con.index[c] for c in state))
    return SimpleSystem(tuple(tuple(step for p in loop for step in con.steps[p])
                              for loop in loops))


def smooth(d: Diagram, state: Iterable[str]) -> SimpleSystem:
    state = frozenset(state)
    unknown = state - set(d.crossings)
    if unknown:
        raise DiagramError(f"state references unknown crossings {sorted(unknown)}")
    return state_curves(d, state)


# -- the bracket ----------------------------------------------------------

def state_term(d: Diagram, state: Iterable[str]) -> Laurent:
    state = frozenset(state)
    count = smooth(d, state).count()
    if count < 1:
        raise DiagramError("state sum needs a nonempty diagram")
    loop = Laurent.loop_factor()
    return (loop ** (count - 1)) * Laurent.A(2 * len(state) - len(d.crossings))


def bracket(d: Diagram, max_crossings: Optional[int] = None) -> Laurent:
    """Sum of state terms over all subsets of the crossing set."""
    con = _contract(d, max_crossings, "bracket")
    tally = Counter((k, len(loops) - 1) for k, loops in con.states())
    return _tally_polynomial(tally, len(con.order))


def normalized_bracket(d: Diagram, max_crossings: Optional[int] = None) -> Laurent:
    """(-A^3)^(-wri) times the bracket; invariant under every move."""
    return Laurent.minus_A3_power(-wri(d)) * bracket(d, max_crossings)


def normalized_bracket_oriented(d: Diagram, max_crossings: Optional[int] = None) -> Laurent:
    """The oriented normalization, using the full writhe."""
    return Laurent.minus_A3_power(-Wri(d)) * bracket(d, max_crossings)


def span(f: Laurent) -> int:
    return f.span()


def all_state_counts(d: Diagram) -> Tuple[int, int]:
    """(|L, #L|, |L, empty|): curve counts of the two extreme states."""
    con = _Contraction(d)
    return len(con.loops((1 << len(con.order)) - 1)), len(con.loops(0))


def check_span_theorem(d: Diagram, max_crossings: Optional[int] = None) -> bool:
    """cro >= 1 - sc + span/4, checked exactly."""
    from .diagram import sc
    f = bracket(d, max_crossings)
    return 4 * len(d.crossings) >= 4 * (1 - sc(d)) + span(f)


def check_state_inequality(d: Diagram) -> bool:
    """|L,#L| + |L,empty| <= cro + 2 sc, checked exactly."""
    from .diagram import sc
    full, empty = all_state_counts(d)
    return full + empty <= len(d.crossings) + 2 * sc(d)


# -- classical oracle ------------------------------------------------------

def classical_oracle(code: PlanarCode) -> Laurent:
    """Kauffman bracket of a planar dotted code.

    Independent of the diagram machinery: states are resolved by merging
    arc labels directly.
    """
    ids = [cid for cid, _p, _d in code.crossings]
    n = len(ids)
    loop = Laurent.loop_factor()
    total = Laurent.zero()
    for mask in range(1 << n):
        groups: Dict[str, str] = {}

        def find(x: str) -> str:
            while groups.get(x, x) != x:
                groups[x] = groups.get(groups[x], groups[x])
                x = groups[x]
            return x

        labels = set()
        for i, (cid, ports, dot) in enumerate(code.crossings):
            labels.update(ports)
            if mask >> i & 1:
                joins = ((dot + 1) % 4, (dot + 2) % 4), ((dot + 3) % 4, dot % 4)
            else:
                joins = (dot % 4, (dot + 1) % 4), ((dot + 2) % 4, (dot + 3) % 4)
            for a, b in joins:
                ra, rb = find(ports[a]), find(ports[b])
                if ra != rb:
                    groups[ra] = rb
        circles = len({find(x) for x in labels}) + code.circles
        k = bin(mask).count("1")
        total = total + (loop ** (circles - 1)) * Laurent.A(2 * k - n)
    return total


def _trace_code_components(code: PlanarCode) -> List[List[Tuple[str, int]]]:
    """Components as lists of (crossing id, entering port), traced deterministically."""
    ends: Dict[str, List[Tuple[str, int]]] = {}
    for cid, ports, _dot in code.crossings:
        for p, label in enumerate(ports):
            ends.setdefault(label, []).append((cid, p))
    other: Dict[Tuple[str, int], Tuple[str, int]] = {}
    for label, occ in ends.items():
        if len(occ) != 2:
            raise DiagramError(f"arc label {label!r} occurs {len(occ)} times")
        other[occ[0]] = occ[1]
        other[occ[1]] = occ[0]
    comps, visited = [], set()
    for cid, _ports, _dot in code.crossings:
        for p in range(4):
            start = (cid, p)
            if start in visited:
                continue
            walk = []
            cur = start
            while True:
                visited.add(cur)
                walk.append(cur)
                out = (cur[0], (cur[1] + 2) % 4)
                visited.add(out)
                cur = other[out]
                if cur == start:
                    break
            comps.append(walk)
    return comps


def classical_lk(code: PlanarCode) -> int:
    """Linking number of a 2-component code, halved crossing-sign sum.

    Components are directed by the deterministic trace order, the same
    convention used when the code is drawn into a face.
    """
    comps = _trace_code_components(code)
    if len(comps) + code.circles != 2:
        raise DiagramError("classical linking number needs exactly two components")
    if code.circles:
        return 0
    comp_of: Dict[Tuple[str, int], int] = {}
    enters: Dict[str, List[int]] = {}
    for i, walk in enumerate(comps):
        for cid, p in walk:
            comp_of[(cid, p)] = i
            enters.setdefault(cid, []).append(p)
    total = 0
    for cid, ports, dot in code.crossings:
        e1, e2 = enters[cid]
        if comp_of[(cid, e1)] == comp_of[(cid, e2)]:
            continue
        over_enter = e1 if e1 % 2 == dot % 2 else e2
        under_enter = e2 if over_enter == e1 else e1
        sign = 1 if ((under_enter + 2) - (over_enter + 2)) % 4 == 1 else -1
        total += sign
    if total % 2:
        raise DiagramError("inter-component signs must sum to an even number")
    return total // 2
