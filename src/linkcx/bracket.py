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
diagram from its components' event lists and kept in its record
(``diagram.derived``), matches every crossing port to the port that the
curve reaches next, through the transits between them, which form the
path leaving the port.  The loop count of a state is then a question of
connectivity in a perfect matching, so the complex need not be planar.
``_state_sum`` smooths the crossings one at a time, in a greedy order
that keeps few ports open and, among equals, smooths the crossings whose
paths cross edges last.  It keeps one table entry per pairing of the
open ports (for the homotopy bracket also per holonomy word of each open
path and per multiset of nontrivial classes closed so far, where an
entry with identity words moves as in the bracket).  Each entry carries
the Laurent polynomial of its states, trivial loops included, and the
bracket divides the final one by the loop factor once.  The work grows
with the number of entries, not with the 2^cro states; the cap on
crossings (``LINKCX_MAX_CROSSINGS``, 22 when unset) still applies.

What does not depend on the group is planned once per contraction
(``_Contraction.plan``): the smoothing order, and for each crossing a
``_Step`` that numbers the open ports before and after it by position
and says, for each smoothing, where every walk through the crossing
comes out and which paths it crosses.  A step depends only on the local
pattern of its crossing, so steps on at most ``_TABLED_WIDTH`` open
ports come from one table for the process, each keeping the transition
of every pairing it has met: a pairing is walked once per pattern, and
with a group the words are multiplied along the kept hops.  The bracket
of a diagram is kept in its record, so the normalized brackets and the
span check reuse it; the emptiness and cap checks run on every call.
``loops(mask)`` traces the curves of one state; ``state_curves``,
``smooth``, ``state_term`` and ``all_state_counts`` are per-state views.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# arcs_of is re-exported: callers look it up here too
from .diagram import (CrossVisit, Diagram, PlanarCode, arcs_of,  # noqa: F401
                      derived, sc, transit_steps)
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


# Port x of a crossing is joined to port _JOINS[dot][s][x] by smoothing s.
# The state smoothing (s = 1) merges the two dotted sectors, so it joins the
# port pairs that cut them off from the other two: (p1, p2) and (p3, p0)
# for dot 0, whose dots sit in (p0, p1) and (p2, p3).
_JOIN_01_23, _JOIN_12_30 = (1, 0, 3, 2), (3, 2, 1, 0)
_JOINS = ((_JOIN_01_23, _JOIN_12_30), (_JOIN_12_30, _JOIN_01_23))


# -- the state-sum engine -------------------------------------------------

class _Contraction:
    """Arcs and transits contracted away: ports matched pairwise.

    Port 4*i + p is port p of crossing ``order[i]``.  Path a leads from
    port a to ``match[a]`` through the transit steps ``steps[a]``.  The
    paths are read off each component's event list, from one crossing
    visit to the next; the path back runs through the same transits in
    reverse, each entered by the side it was left by.  ``joins[i]`` holds
    the join patterns of crossing i for smoothings 0 and 1 (``_JOINS``),
    and ``join[s][a]`` is the port that smoothing s (1 in the state) joins
    to a.  Crossing-free components are the fixed closed paths from
    4 * cro; ``transit_ports[i]`` counts crossing i's ports with transit steps.
    ``plan()`` is the group-free part of the state sum, built on first use.
    """

    __slots__ = ("order", "index", "match", "joins", "join", "steps", "fixed",
                 "transit_ports", "_plan")

    def __init__(self, d: Diagram):
        self.order = sorted(d.crossings)
        self.index = index = {c: i for i, c in enumerate(self.order)}
        self.joins = [_JOINS[d.crossings[c].dot] for c in self.order]
        self.join = tuple([4 * i + x for i, pair in enumerate(self.joins) for x in pair[s]]
                          for s in (0, 1))
        self.match = match = [0] * (4 * len(self.order))
        self.steps: List[Tuple[TransitStep, ...]] = [()] * len(match)
        self.fixed: List[List[int]] = []
        self.transit_ports = [0] * len(self.order)
        transits = d.transits
        for ci, comp in enumerate(d.components):
            events = comp.events
            visits = [k for k, ev in enumerate(events) if isinstance(ev, CrossVisit)]
            if not visits:
                self.fixed.append([len(self.steps)])
                self.steps.append(tuple(transit_steps(d, ci)))
                continue
            for v, w in zip(visits, visits[1:] + visits[:1]):
                steps = []
                for ev in events[v + 1:w] if v < w else events[v + 1:] + events[:w]:
                    tr = transits[ev.transit]
                    steps.append((tr.edge, tr.sides[ev.enter], tr.sides[1 - ev.enter]))
                here, there = events[v], events[w]
                a = 4 * index[here.crossing] + (here.enter + 2) % 4
                b = 4 * index[there.crossing] + there.enter
                match[a], match[b] = b, a
                if steps:
                    self.transit_ports[a >> 2] += 1
                    self.transit_ports[b >> 2] += 1
                self.steps[a] = tuple(steps)
                self.steps[b] = tuple([(e, out, into) for e, into, out in reversed(steps)])
        self._plan: Optional[List[Tuple[_Step, List[int]]]] = None

    def plan(self) -> List[Tuple[_Step, List[int]]]:
        """(step, ports of its entries) per crossing in smoothing order; kept."""
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


def _times_loop(p: Dict[int, int]) -> Dict[int, int]:
    """The {exponent: coefficient} polynomial p times (-A^2 - A^-2)."""
    q = {x + 2: -c for x, c in p.items()}
    for x, c in p.items():
        q[x - 2] = q.get(x - 2, 0) - c
    return q


def _over_loop(p: Laurent) -> Laurent:
    """p divided by (-A^2 - A^-2), exactly; p must be a multiple of it."""
    given, q = p.terms, {}
    # from the top down: p[y + 2] = -q[y] - q[y + 4]
    for y in range(max(given) - 2, min(given) + 1, -1) if given else ():
        q[y] = -given.get(y + 2, 0) - q.get(y + 4, 0)
    return Laurent(q)


def _frontier_order(con: _Contraction) -> List[int]:
    """Crossing indices in smoothing order: each next one leaves fewest ports open.

    grow[i] counts i's paths to unsmoothed crossings less those to smoothed
    ones.  It only falls, so a crossing's newest heap entry pops before its
    older ones, and the least (grow, transit_ports[i], i) of an unsmoothed
    crossing goes next, so that path words enter the table late.
    """
    n = len(con.order)
    far = [[q >> 2 for q in con.match[4 * i:4 * i + 4] if q >> 2 != i]
           for i in range(n)]
    grow = [len(f) for f in far]
    transits = con.transit_ports
    heap = sorted(zip(grow, transits, range(n)))
    done = [False] * n
    order = []
    while heap:
        _g, _t, i = heappop(heap)
        if done[i]:
            continue
        done[i] = True
        order.append(i)
        for j in far[i]:
            if not done[j]:
                grow[j] -= 2
                heappush(heap, (grow[j], transits[j], j))
    return order


# Steps whose old and new frontiers both have at most this many ports are
# tabled: kept in _STEPS with the transitions they meet, for the process.
_TABLED_WIDTH = 8

# The tabled steps by signature.  A step and its kept transitions depend on
# the signature alone, so any plan may share them; a race builds one twice.
_STEPS: Dict[tuple, "_Step"] = {}

# Every tuple that a tabled step keeps, by value, as they repeat a lot.
_SHARED: Dict[tuple, tuple] = {}


def _shared(t: tuple) -> tuple:
    """The copy of t in _SHARED, itself made of copies in _SHARED."""
    found = _SHARED.get(t)
    if found is None:
        found = tuple([_shared(x) if type(x) is tuple else x for x in t])
        _SHARED[found] = found
    return found


class _Step:
    """One crossing of the plan, in positions relative to its frontiers.

    The old and new frontiers are the open ports before and after the
    crossing is smoothed.  A step depends only on its signature, its
    arguments: the crossing's two join patterns; per old position, the
    port of the crossing it closes at, or -1; and per port of the
    crossing, the port of the crossing that its path leads back to (a
    kink), or -1.  Entry e of the step is old position e when e < len(old),
    else port e - len(old) of the crossing; the plan keeps beside the step
    the ports ``at`` that the entries stand for.  ``frontier`` lists the
    entries of the new frontier: the old positions that stay open, in
    order, then the open ports of the crossing.  ``closing`` lists the old
    positions that close here.

    A walk through the smoothing ends either at an old position, where
    the smoothed part before the crossing takes over, or at new position
    q, coded ~q.  For smoothing s, ``exits[s][k]`` is where the walk that
    leaves old position k into the crossing ends (~q at once for a
    position that stays open at q), and ``starts[s][q]`` is where the walk
    that leaves new position q first arrives (its own old position for
    one that stays open).  ``exit_paths`` and ``start_paths`` hold the
    entries of the paths each walk crosses, and ``inner[s]`` those of each
    loop that closes inside the crossing.

    ``tabled`` says that both frontiers have at most ``_TABLED_WIDTH``
    ports.  A tabled step is kept in ``_STEPS``, and ``kept`` maps each
    pairing of the old positions that it has met to its transitions under
    smoothings 0 and 1 (see ``meet``); a wider step keeps none.
    """

    __slots__ = ("width", "tabled", "frontier", "closing", "exits", "starts",
                 "exit_paths", "start_paths", "inner", "kept")

    def __init__(self, joins: Tuple[Tuple[int, ...], Tuple[int, ...]],
                 closes: Tuple[int, ...], kinks: Tuple[int, ...]):
        n = len(closes)
        back = {x: k for k, x in enumerate(closes) if x >= 0}   # port -> old position
        stay = [k for k, x in enumerate(closes) if x < 0]
        opened = [x for x in range(4) if x not in back and kinks[x] < 0]
        frontier = tuple(stay + [n + x for x in opened])
        self.width = len(frontier)
        self.tabled = max(n, self.width) <= _TABLED_WIDTH
        at_new = {e: q for q, e in enumerate(frontier)}
        fields = []
        for join in joins:
            met = set()

            def walk(c: int, path: List[int]) -> int:
                """From port c of the crossing, reached through the smoothing."""
                while c in back or kinks[c] >= 0:
                    path.append(n + c)
                    if c in back:
                        return back[c]
                    met.update((c, kinks[c]))    # a kink back into the crossing
                    c = join[kinks[c]]
                return ~at_new[n + c]

            exits, exit_paths = [], []
            for k, x in enumerate(closes):
                path = [k] if x >= 0 else []
                exits.append(walk(join[x], path) if path else ~at_new[k])
                exit_paths.append(tuple(path))
            starts, start_paths = stay[:], [()] * len(stay)
            for x in opened:
                path = []
                starts.append(walk(join[x], path))
                start_paths.append(tuple(path))
            inner = []
            for c in range(4):
                if kinks[c] >= 0 and c not in met:
                    path = [n + c]
                    met.update((c, kinks[c]))
                    x = join[kinks[c]]
                    while x != c:
                        path.append(n + x)
                        met.update((x, kinks[x]))
                        x = join[kinks[x]]
                    inner.append(tuple(path))
            fields.append([tuple(f)
                           for f in (exits, starts, exit_paths, start_paths, inner)])
        data = (frontier, tuple(back.values()), *zip(*fields))
        if self.tabled:
            data = [_shared(x) for x in data]
        (self.frontier, self.closing, self.exits, self.starts, self.exit_paths,
         self.start_paths, self.inner) = data
        self.kept: Dict[Tuple[int, ...], tuple] = {}

    def meet(self, mates: Tuple[int, ...]) -> tuple:
        """The transitions of the old pairing ``mates`` under smoothings 0 and 1.

        ``mates[k]`` is the old position that the path from old position k
        ends at.  A transition is the new pairing, the number of loops
        that close (inside the crossing too), the walks and the loops.  A
        walk is (its new position, the one it ends at, its hops) and a loop
        its hops; hop y crosses the path from old position y to its mate
        mates[y], then the exit path of that mate.  A tabled step keeps
        the pair, made of tuples from ``_SHARED``.
        """
        both = []
        for s in (0, 1):
            exits = self.exits[s]
            new = [-1] * self.width
            seen = [False] * len(mates)
            walks, loops, closed = [], [], len(self.inner[s])
            for q, y in enumerate(self.starts[s]):
                if new[q] >= 0:
                    continue
                path = []
                # seen[y] holds only on an inconsistent plan: it keeps walks finite
                while y >= 0 and not seen[y]:
                    z = mates[y]
                    seen[y] = seen[z] = True
                    path.append(y)
                    y = exits[z]
                new[q], new[~y] = ~y, q
                walks.append((q, ~y, tuple(path)))
            for y in self.closing:
                path = []
                while not seen[y]:
                    z = mates[y]
                    seen[y] = seen[z] = True
                    path.append(y)
                    y = exits[z]
                if path:
                    closed += 1
                    loops.append(tuple(path))
            both.append((tuple(new), closed, tuple(walks), tuple(loops)))
        if not self.tabled:
            return tuple(both)
        pair = self.kept[mates] = _shared(tuple(both))
        return pair


def _build_plan(con: _Contraction) -> List[Tuple[_Step, List[int]]]:
    """One step per crossing in ``_frontier_order``, with the ports of its entries.

    A step is taken from ``_STEPS`` by its signature, or built and tabled
    there; a step wider than ``_TABLED_WIDTH`` is built for this plan alone.
    """
    match = con.match
    frontier: List[int] = []
    plan = []
    for i in _frontier_order(con):
        ports = range(4 * i, 4 * i + 4)
        signature = (con.joins[i],
                     tuple([match[a] & 3 if match[a] >> 2 == i else -1 for a in frontier]),
                     tuple([match[p] & 3 if match[p] >> 2 == i else -1 for p in ports]))
        step = _STEPS.get(signature)
        if step is None:
            step = _Step(*signature)
            if step.tabled:
                _STEPS[tuple([_shared(x) for x in signature])] = step
        at = frontier + list(ports)
        plan.append((step, at))
        frontier = [at[e] for e in step.frontier]
    return plan


# (sort key, unoriented class) of nontrivial loop words by (group, word), for the
# process; a group parsed again is equal.  Emptied when it holds _CLASS_CACHE_SIZE.
_CLASS_CACHE_SIZE = 1024
_CLASSES: Dict[Tuple[GroupSpec, Word], Tuple[tuple, ConjClass]] = {}


def _classes(group: GroupSpec, one: Word, loops: Sequence[Word]) -> list:
    """(sort key, unoriented class) of each loop word but the identity."""
    return [_CLASSES.get((group, w)) or _new_class(group, w) for w in loops if w != one]


def _new_class(group: GroupSpec, w: Word) -> Tuple[tuple, ConjClass]:
    if len(_CLASSES) >= _CLASS_CACHE_SIZE:
        _CLASSES.clear()
    c = unoriented_class(group, w)
    _CLASSES[group, w] = found = (c.sort_key(), c)
    return found


def _along(group: GroupSpec, one: Word, w: Word, hops: Sequence[int],
           words: Sequence[Word], mates: Sequence[int], exits: Sequence[Word]) -> Word:
    """w times each hop's path word, then its mate's exit word; empty lists are all 1."""
    for y in hops:
        if words and words[y] != one:
            w = mul(group, w, words[y])
        if exits and exits[mates[y]] != one:
            w = mul(group, w, exits[mates[y]])
    return w


def _state_sum(con: _Contraction, group: Optional[GroupSpec] = None,
               path_words: Sequence[Word] = ()) -> Dict[Tuple[ConjClass, ...], Laurent]:
    """{nontrivial classes: sum of A^(2|C| - cro) (-A^2 - A^-2)^(trivial loops)}.

    The crossings are smoothed one at a time, as the plan of ``con`` says.
    A port is open while the far end of its path is unsmoothed, and the
    smoothed part of every state is a set of closed loops plus open paths
    joining the open ports in pairs.  States that pair the open ports alike
    (and, with a group, carry the same words along those paths and the same
    closed classes) continue alike, so the table keeps one {exponent of A:
    coefficient} polynomial per such key, from A^-cro times the loop factor
    of each trivial crossing-free component.  An entry moves by the step's
    kept transitions of its pairing: smoothing s shifts it by 2s and each
    trivial loop that closes multiplies it by the loop factor.  An entry
    whose words are all the identity keeps the words ().  A step is calm
    when the paths from its crossing's ports read the identity, as then do
    all its exit, start and inner words; an entry with () words crosses it
    as without a group.  Other entries multiply only the non-identity words
    along their hops.
    """
    one = group.identity() if group else None
    fixed = sorted(_classes(group, one, [path_words[p] for (p,) in con.fixed])
                   if group else [])
    start = {-len(con.order): 1}
    for _ in range(len(con.fixed) - len(fixed)):
        start = _times_loop(start)

    # (mates, words, classes): mates[j] is the frontier position that the
    # path from position j ends at, words[j] the word read along that path,
    # and classes the sorted (sort key, class) of the closed nontrivial loops
    table = {((), (), tuple(fixed)): start}
    for step, at in con.plan():
        width, kept, meet = step.width, step.kept, step.meet
        out: Dict[tuple, Dict[int, int]] = {}
        calm = not group or all(path_words[a] == one for a in at[-4:])
        if calm:
            exit_words = start_words = inner = ([], [])
        else:
            entry_words = [path_words[a] for a in at]
            exit_words, start_words, inner = [
                [[_along(group, one, one, path, entry_words, (), ()) for path in paths[s]]
                 for s in (0, 1)]
                for paths in (step.exit_paths, step.start_paths, step.inner)]
            inner = [_classes(group, one, loops) for loops in inner]
        for (mates, words, classes), weights in table.items():
            plain = calm and not words
            pair = kept.get(mates) or meet(mates)
            for s, (new, trivial, walks, loops) in enumerate(pair):
                if plain:
                    key = (new, (), classes)
                else:
                    exits, starts = exit_words[s], start_words[s]
                    new_words = [one] * width
                    for q, r, hops in walks:
                        w = _along(group, one, starts[q] if starts else one,
                                   hops, words, mates, exits)
                        if w != one:
                            new_words[q], new_words[r] = w, inv(group, w)
                    found = inner[s] + _classes(group, one, [
                        _along(group, one, one, hops, words, mates, exits) for hops in loops])
                    trivial -= len(found)
                    key = (new, () if new_words.count(one) == width else tuple(new_words),
                           tuple(sorted(classes + tuple(found))) if found else classes)
                acc = out.setdefault(key, {})
                if trivial:
                    # the last loop factor is multiplied in as the entry is added
                    moved = weights
                    for _ in range(trivial - 1):
                        moved = _times_loop(moved)
                    up, down = 2 * s + 2, 2 * s - 2
                    for x, c in moved.items():
                        acc[x + up] = acc.get(x + up, 0) - c
                        acc[x + down] = acc.get(x + down, 0) - c
                else:
                    for x, c in weights.items():
                        acc[x + 2 * s] = acc.get(x + 2 * s, 0) + c
        table = out
    # all ports are closed now, so the classes alone tell the entries apart
    return {tuple([c for _key, c in classes]): Laurent(weights)
            for (_mates, _words, classes), weights in table.items()}


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
    (total,) = _state_sum(_contraction(d)).values()
    return _over_loop(total)


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
