"""Bracket polynomial state sums, span bounds, and a classical oracle.

A state picks a subset C of the crossings.  Crossings in C are smoothed so
that the two dotted sectors merge; the others so that the undotted sectors
merge.  With |L,C| resulting curves the state contributes

    (-A^2 - A^-2)^(|L,C| - 1) * A^(2|C| - cro)

and the bracket is the sum over all states.  The normalized bracket
multiplies by (-A^3)^(-wri); a direct kink computation fixes the sign: a
positive kink multiplies the bracket by -A^3, so this normalization is
invariant under every move.

One engine serves both brackets.  ``_Contraction``, built once per
diagram and kept in its record (``diagram.derived``), matches every
crossing port to the port at the far end of its arc, through the
transits between them, which form the path leaving the port.  The loop
count of a state is then a question of connectivity in a perfect
matching, so the complex need not be planar.  ``_state_sum`` smooths the
crossings one at a time, in a greedy order that keeps few ports open,
and keeps one table entry per pairing of the open ports (for
the homotopy bracket also per holonomy word of each open path and per
multiset of nontrivial classes closed so far).  Each entry carries an
integer tally over (|C|, trivial loops), and ``_tally_polynomial`` turns
each tally into a Laurent polynomial once, at the end.  The work grows
with the number of entries, not with the 2^cro states; the cap on
crossings (``LINKCX_MAX_CROSSINGS``, 22 when unset) still applies.

What does not depend on the group is planned once per contraction
(``_Contraction.plan``): the smoothing order, and for each crossing a
``_Step`` that numbers the open ports before and after it by position
and says, for each smoothing, where every walk through the crossing
comes out and which paths it crosses.  A table entry then stores its
pairing as positions and is extended by walking lists; with a group, the
word of each walk is multiplied out once per call and step.  The
bracket of a diagram is kept in its record, so the normalized brackets
and the span check reuse it; the emptiness and cap checks run on every
call.  ``loops(mask)`` traces the curves of one state; ``state_curves``,
``smooth``, ``state_term`` and ``all_state_counts`` are per-state views.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from heapq import heappop, heappush
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .diagram import (CrossVisit, Diagram, PlanarCode, Slot, arcs_of, derived,
                      sc, transit_steps)
from .errors import CrossingCapError, DiagramError
from .groups import ConjClass, GroupSpec, Word, inv, mul, unoriented_class
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
    "span_bound_holds",
    "state_bound_holds",
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
    ``plan()`` is the group-free part of the state sum, built on first use.
    """

    __slots__ = ("order", "index", "match", "join", "steps", "fixed", "_plan")

    def __init__(self, d: Diagram):
        self.order = sorted(d.crossings)
        self.index = {c: i for i, c in enumerate(self.order)}
        arc_at: Dict[Slot, Slot] = {}
        for arc in derived(d, "arcs", arcs_of):
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
        self._plan: Optional[List[_Step]] = None

    def plan(self) -> List[_Step]:
        """One ``_Step`` per crossing in smoothing order, built once and kept."""
        if self._plan is None:
            self._plan = _build_plan(self)
        return self._plan

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


def _contraction(d: Diagram) -> _Contraction:
    """The contraction of d, built once and kept in the record of d."""
    return derived(d, "contraction", _Contraction)


def _contract(d: Diagram, max_crossings: Optional[int], what: str) -> _Contraction:
    """The engine of a full state sum, after the emptiness and cap checks."""
    if not d.components:
        raise DiagramError(f"{what} of an empty diagram is undefined")
    cap = default_crossing_cap() if max_crossings is None else max_crossings
    n = len(d.crossings)
    if n > cap:
        raise CrossingCapError(f"{n} crossings exceed the state-sum cap {cap}")
    return _contraction(d)


def _tally_polynomial(tally: Dict[Tuple[int, int], int], n: int) -> Laurent:
    """Sum of count * (-A^2 - A^-2)^e * A^(2k - n) over a {(k, e): count} tally.

    (-A^2 - A^-2)^e is (-1)^e times the sum of C(e, j) * A^(2e - 4j).
    """
    acc: Dict[int, int] = {}
    for (k, e), count in tally.items():
        c = -count if e % 2 else count
        top = 2 * k - n + 2 * e
        for j in range(e + 1):
            acc[top - 4 * j] = acc.get(top - 4 * j, 0) + c * comb(e, j)
    return Laurent(acc)


def _frontier_order(con: _Contraction) -> List[int]:
    """Crossing indices in smoothing order: each next one leaves fewest ports open.

    grow[i] counts i's paths to unsmoothed crossings less those to smoothed
    ones.  It only falls, so a crossing's newest heap entry pops before its
    older ones, and the least (grow, i) of an unsmoothed crossing goes next.
    """
    n = len(con.order)
    far = [[q >> 2 for q in con.match[4 * i:4 * i + 4] if q >> 2 != i]
           for i in range(n)]
    grow = [len(f) for f in far]
    heap = sorted(zip(grow, range(n)))
    done = [False] * n
    order = []
    while heap:
        _g, i = heappop(heap)
        if done[i]:
            continue
        done[i] = True
        order.append(i)
        for j in far[i]:
            if not done[j]:
                grow[j] -= 2
                heappush(heap, (grow[j], j))
    return order


class _Step:
    """One crossing of the plan: how the open ports before it reach those after.

    The old and new frontiers are the open ports before and after the
    crossing is smoothed, numbered by position: the ports that survive come
    first in the new frontier, in their old order, then the open ports of
    the crossing.  ``closing`` lists the old positions whose ports close
    here.  A walk through the smoothing ends either at an old position,
    where the smoothed part before the crossing takes over, or at new
    position q, coded ~q.  For smoothing s, ``exits[s][k]`` is where the
    walk that leaves old position k into the crossing ends (~q at once for
    a port that survives at q), and ``starts[s][q]`` is where the walk that
    leaves new position q first arrives (its own old position for a port
    that survives).  ``exit_paths`` and ``start_paths`` hold the path
    indices each walk crosses, and ``inner[s]`` those of each loop that
    closes inside the crossing.
    """

    __slots__ = ("width", "closing", "exits", "starts", "exit_paths",
                 "start_paths", "inner")

    def __init__(self, con: _Contraction, i: int, closed: List[bool],
                 old: List[int], new: List[int]):
        match = con.match
        ports = range(4 * i, 4 * i + 4)
        at_old = {a: k for k, a in enumerate(old) if closed[a]}
        at_new = {a: q for q, a in enumerate(new)}
        self.width = len(new)
        self.closing = list(at_old.values())
        self.exits, self.starts = [], []
        self.exit_paths, self.start_paths, self.inner = [], [], []
        for join in con.join:
            met = set()

            def walk(c: int, path: List[int]) -> int:
                """From port c of the crossing, reached through the smoothing."""
                while closed[c]:
                    path.append(c)
                    far = match[c]
                    if far in at_old:
                        return at_old[far]
                    met.update((c, far))         # a path back into the crossing
                    c = join[far]
                return ~at_new[c]

            exits, exit_paths = [], []
            for a in old:
                path = [a] if closed[a] else []
                exits.append(walk(join[match[a]], path) if path else ~at_new[a])
                exit_paths.append(tuple(path))
            starts = [k for k, a in enumerate(old) if not closed[a]]
            start_paths = [()] * len(starts)
            for p in ports:
                if not closed[p]:
                    path = []
                    starts.append(walk(join[p], path))
                    start_paths.append(tuple(path))
            inner = []
            for c in ports:
                if closed[c] and match[c] in ports and c not in met:
                    path = [c]
                    met.update((c, match[c]))
                    x = join[match[c]]
                    while x != c:
                        path.append(x)
                        met.update((x, match[x]))
                        x = join[match[x]]
                    inner.append(tuple(path))
            self.exits.append(exits)
            self.exit_paths.append(exit_paths)
            self.starts.append(starts)
            self.start_paths.append(start_paths)
            self.inner.append(inner)


def _build_plan(con: _Contraction) -> List[_Step]:
    """One ``_Step`` per crossing, in ``_frontier_order``."""
    closed = [False] * len(con.match)
    frontier: List[int] = []
    plan = []
    for i in _frontier_order(con):
        ports = range(4 * i, 4 * i + 4)
        for p in ports:
            closed[con.match[p]] = True
        old = frontier
        frontier = ([a for a in old if not closed[a]]
                    + [p for p in ports if not closed[p]])
        plan.append(_Step(con, i, closed, old, frontier))
    return plan


def _state_sum(con: _Contraction, group: Optional[GroupSpec] = None,
               path_words: Sequence[Word] = ()) -> Dict[Tuple[ConjClass, ...],
                                                        Dict[Tuple[int, int], int]]:
    """{nontrivial classes: {(|C|, trivial loops): states}} over all states.

    The crossings are smoothed one at a time, as the plan of ``con`` says.
    A port is open while the far end of its path is unsmoothed, and the
    smoothed part of every state is a set of closed loops plus open paths
    joining the open ports in pairs.  States that pair the open ports alike
    (and, with a group, carry the same words along those paths and the same
    closed classes) continue alike, so the table keeps one integer tally per
    such key.  Without a group every loop is trivial and there are no words.
    """
    stride = len(con.match) + len(con.fixed) + 1     # (k, e) is kept as k * stride + e
    one = group.identity() if group else None
    classes_of: Dict[Word, ConjClass] = {}

    def word(path: Sequence[int]) -> Word:
        w = one
        for p in path:
            w = mul(group, w, path_words[p])
        return w

    def classify(loops: List[Word]) -> Tuple[int, List[ConjClass]]:
        """The number of trivial loops, and the classes of the others."""
        if not group:
            return len(loops), []
        found = []
        for w in loops:
            cls = classes_of.get(w)
            if cls is None:
                cls = classes_of[w] = unoriented_class(group, w)
            if not cls.is_identity():
                found.append(cls)
        return len(loops) - len(found), found

    # (mates, words, classes): mates[j] is the frontier position that the
    # path from position j ends at, words[j] the word read along that path
    table = {((), (), ()): {0: 1}}
    for step in con.plan():
        width, closing = step.width, step.closing
        out: Dict[tuple, Dict[int, int]] = {}
        for s in (0, 1):
            exits, starts = step.exits[s], step.starts[s]
            if group:
                exit_words = [word(path) for path in step.exit_paths[s]]
                start_words = [word(path) for path in step.start_paths[s]]
                inner = classify([word(path) for path in step.inner[s]])
            else:
                inner = len(step.inner[s]), []
            for (mates, words, classes), weights in table.items():
                new = [-1] * width
                new_words = [one] * width if group else None
                seen = [False] * len(mates)
                for q, y in enumerate(starts):
                    if new[q] >= 0:
                        continue
                    w = start_words[q] if group else None
                    # seen[y] holds only on an inconsistent plan: it keeps walks finite
                    while y >= 0 and not seen[y]:
                        z = mates[y]
                        seen[y] = seen[z] = True
                        if group:
                            w = mul(group, mul(group, w, words[y]), exit_words[z])
                        y = exits[z]
                    new[q], new[~y] = ~y, q
                    if group:
                        new_words[q], new_words[~y] = w, inv(group, w)
                loops = []
                for k in closing:
                    if seen[k]:
                        continue
                    y, w = k, one
                    while not seen[y]:
                        z = mates[y]
                        seen[y] = seen[z] = True
                        if group:
                            w = mul(group, mul(group, w, words[y]), exit_words[z])
                        y = exits[z]
                    loops.append(w)
                trivial, found = inner
                if loops:
                    more_trivial, more_found = classify(loops)
                    trivial, found = trivial + more_trivial, found + more_found
                key = (tuple(new), tuple(new_words) if group else (),
                       tuple(sorted(classes + tuple(found), key=ConjClass.sort_key))
                       if found else classes)
                shift = s * stride + trivial
                acc = out.get(key)
                if acc is None:
                    out[key] = {x + shift: c for x, c in weights.items()}
                else:
                    for x, c in weights.items():
                        acc[x + shift] = acc.get(x + shift, 0) + c
        table = out
    trivial, found = classify([path_words[p] if group else None for (p,) in con.fixed])
    tallies: Dict[Tuple[ConjClass, ...], Dict[Tuple[int, int], int]] = {}
    for (_mates, _words, classes), weights in table.items():
        key = tuple(sorted(classes + tuple(found), key=ConjClass.sort_key))
        tally = tallies.setdefault(key, {})
        for x, c in weights.items():
            k, e = divmod(x, stride)
            tally[k, e + trivial] = tally.get((k, e + trivial), 0) + c
    return tallies


def state_curves(d: Diagram, state: Iterable[str]) -> SimpleSystem:
    """Curves of a smoothed state, each with its transit step sequence."""
    con = _contraction(d)
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
    _contract(d, max_crossings, "bracket")
    return derived(d, "bracket", _bracket_of)


def _bracket_of(d: Diagram) -> Laurent:
    con = _contraction(d)
    (tally,) = _state_sum(con).values()
    return _tally_polynomial({(k, e - 1): c for (k, e), c in tally.items()},
                             len(con.order))


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
    con = _contraction(d)
    return len(con.loops((1 << len(con.order)) - 1)), len(con.loops(0))


def span_bound_holds(cro: int, sc_count: int, f: Laurent) -> bool:
    """cro >= 1 - sc + span(f)/4, checked exactly."""
    return 4 * cro >= 4 * (1 - sc_count) + span(f)


def state_bound_holds(cro: int, sc_count: int, full: int, empty: int) -> bool:
    """|L,#L| + |L,empty| <= cro + 2 sc."""
    return full + empty <= cro + 2 * sc_count


def check_span_theorem(d: Diagram, max_crossings: Optional[int] = None) -> bool:
    """cro >= 1 - sc + span/4 for the bracket of d."""
    return span_bound_holds(len(d.crossings), sc(d), bracket(d, max_crossings))


def check_state_inequality(d: Diagram) -> bool:
    """|L,#L| + |L,empty| <= cro + 2 sc for the extreme states of d."""
    return state_bound_holds(len(d.crossings), sc(d), *all_state_counts(d))


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
