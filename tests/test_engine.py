"""The crossing-by-crossing state sum against the brute force over all states.

The reference enumerates every mask and traces its curves with
``_Contraction.loops``; the engine never looks at a single state.  Both
brackets are compared through their text, byte for byte.  The contraction
is also checked against one built from the arcs of the diagram, and the
results against the state of the process-wide table of steps.
"""

import importlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkcx import moves as mv
from linkcx.bracket import (_Contraction, _frontier_order, _state_sum,
                            bracket, classical_oracle)
from linkcx.diagram import (CrossVisit, PlanarCode, arcs_of, braid_code,
                            draw_local, event_walk, mirror)
from linkcx.examples import example
from linkcx.groups import GroupSpec, inv, mul, reduce_word, unoriented_class
from linkcx.homotopy import (Connection, SystemElement, holonomy,
                             homotopy_bracket)
from linkcx.laurent import Laurent
from linkcx.twocomplex import build_disc

import corpus

br = importlib.import_module("linkcx.bracket")
LOOP = Laurent.loop_factor()


def brute_bracket(d) -> Laurent:
    con = _Contraction(d)
    n = len(con.order)
    total = Laurent.zero()
    for mask in range(1 << n):
        loops = len(con.loops(mask))
        total = total + LOOP ** (loops - 1) * Laurent.A(2 * mask.bit_count() - n)
    return total


def brute_homotopy_bracket(d, conn) -> SystemElement:
    con = _Contraction(d)
    words = [holonomy(conn, steps) for steps in con.steps]
    return brute_from_words(con, conn.group, words)


def brute_from_words(con, g, words) -> SystemElement:
    """The homotopy bracket over all states, for these path words."""
    n = len(con.order)
    acc = {}
    for mask in range(1 << n):
        trivial, classes = 0, []
        for loop in con.loops(mask):
            w = g.identity()
            for p in loop:
                w = mul(g, w, words[p])
            cls = unoriented_class(g, w)
            if cls.is_identity():
                trivial += 1
            else:
                classes.append(cls)
        key = SystemElement._key(classes)
        term = LOOP ** trivial * Laurent.A(2 * mask.bit_count() - n)
        acc[key] = acc[key] + term if key in acc else term
    return SystemElement(acc)


def kernel_bracket(con, group, words) -> SystemElement:
    """The homotopy bracket that the group kernel gives for these path words."""
    return SystemElement(_state_sum(con, group, words))


def assert_engine_matches_brute(d, conn):
    assert str(bracket(d)) == str(brute_bracket(d))
    assert (homotopy_bracket(d, conn).to_text(conn.group)
            == brute_homotopy_bracket(d, conn).to_text(conn.group))


def test_examples_and_mirrors():
    for name, n in corpus.SERIES:
        b = example(name, n)
        assert_engine_matches_brute(b.diagram, b.connection)
        assert_engine_matches_brute(mirror(b.diagram), b.connection)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(corpus.starts()), st.integers(0, 2 ** 32 - 1))
def test_fuzzed_diagrams(start, seed):
    b = start[1]
    d, _trace = mv.fuzz(b.diagram, 25, seed=seed, max_crossings=7, max_transits=12)
    assert_engine_matches_brute(d, b.connection)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(corpus.starts()), st.integers(0, 2 ** 32 - 1))
def test_mirror_inverts_A_in_both_brackets(start, seed):
    # the homotopy bracket keeps its class keys, each coefficient under A -> A^-1
    b = start[1]
    d, _trace = mv.fuzz(b.diagram, 25, seed=seed, max_crossings=7, max_transits=12)
    assert bracket(mirror(d)) == bracket(d).subs_A_inverse()
    h = homotopy_bracket(d, b.connection)
    assert homotopy_bracket(mirror(d), b.connection).terms == {
        key: c.subs_A_inverse() for key, c in h.terms.items()}


@pytest.mark.parametrize("base", corpus.SMALL)
def test_fuzzed_diagrams_on_fixed_seeds(base):
    # open paths read backwards carry inverse words: these seeds always run
    b = example(*base)
    for seed in range(3):
        d, _trace = mv.fuzz(b.diagram, 25, seed=seed, max_crossings=7, max_transits=12)
        assert_engine_matches_brute(d, b.connection)


def test_wide_frontiers():
    # T(k, k) = (s1 ... s(k-1))^k keeps 2k ports open
    disc = build_disc()
    conn = Connection.trivial(disc, GroupSpec.free())
    for k in (3, 4):
        code = braid_code(list(range(1, k)) * k, k)
        d = draw_local(disc, "F", code)
        assert bracket(d) == classical_oracle(code)
        assert_engine_matches_brute(d, conn)


def test_crossing_free_diagrams():
    for name, n in (("unknot_local", None), ("Ln", 0)):
        b = example(name, n)
        assert not b.diagram.crossings
        assert_engine_matches_brute(b.diagram, b.connection)
    disc = build_disc()
    three = draw_local(disc, "F", PlanarCode((), 3))
    assert bracket(three) == LOOP * LOOP
    assert_engine_matches_brute(three, Connection.trivial(disc, GroupSpec.free()))


def test_kinks():
    # a kink matches a port to a port of its own crossing; on L(0) the
    # other component stays crossing-free with a nontrivial class
    for name, n in (("unknot_local", None), ("Ln", 0), ("hopf_local", None),
                    ("Kn", 1)):
        b = example(name, n)
        for kind in (mv.MoveKind.M1P, mv.MoveKind.M1M):
            d = mv.apply(b.diagram, kind, mv.find_sites(b.diagram, kind)[0])
            d = mv.apply(d, kind, mv.find_sites(d, kind)[-1])
            con = _Contraction(d)
            assert any(con.match[p] >> 2 == p >> 2 for p in range(len(con.match)))
            assert_engine_matches_brute(d, b.connection)


def test_kinks_beside_a_fixed_path():
    # both kinks on component 0 of L(0): component 1 stays a crossing-free
    # closed path, one fixed path of the contraction.  Relabelled so that
    # component 0 has trivial holonomy, the fixed path alone carries a class.
    b = example("Ln", 0)
    conn = b.connection.with_labels({("v.b", ("F.e1", 1)): "u"})
    g = conn.group
    for kinds in ((mv.MoveKind.M1P,) * 2, (mv.MoveKind.M1M,) * 2,
                  (mv.MoveKind.M1P, mv.MoveKind.M1M)):
        d = b.diagram
        for kind in kinds:
            d = mv.apply(d, kind, next(s for s in mv.find_sites(d, kind)
                                       if s.get("comp") == 0))
        con = _Contraction(d)
        assert len(con.order) == 2 and len(con.fixed) == 1
        (p,), = con.fixed
        assert all(holonomy(conn, steps) == g.identity() for steps in con.steps[:p])
        assert not unoriented_class(g, holonomy(conn, con.steps[p])).is_identity()
        assert_engine_matches_brute(d, conn)


def test_engine_matches_oracle_on_braid_closures():
    disc = build_disc()
    rng = random.Random(2024)
    for _ in range(40):
        strands = rng.randint(2, 5)
        n = rng.randint(1, 10)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(n)]
        code = braid_code(word, strands)
        assert bracket(draw_local(disc, "F", code)) == classical_oracle(code), word


# -- the polynomial weights ------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-40, 40), st.integers(-9, 9), max_size=12))
def test_division_inverts_the_loop_factor(coeffs):
    p = Laurent(coeffs)
    assert Laurent(br._times_loop(coeffs)) == p * LOOP
    assert br._over_loop(p * LOOP) == p
    assert br._over_loop(Laurent.zero()) == Laurent.zero()


# -- closed forms past the reach of the brute force ----------------------------

def _closure(word, strands):
    return draw_local(build_disc(), "F", braid_code(word, strands))


def test_cancelling_braid_closures_are_unlinks():
    two = _closure([1, -1] * 20, 2)
    assert str(bracket(two, max_crossings=40)) == "-1*A^2 + -1*A^-2"
    three = _closure([1, 2, -2, -1] * 10, 3)
    assert str(bracket(three, max_crossings=40)) == "1*A^4 + 2*A^0 + 1*A^-4"


def test_sixty_crossing_closure_specializes():
    d = _closure([1, -2] * 30, 3)
    conn = Connection.trivial(build_disc(), GroupSpec.free())
    h = homotopy_bracket(d, conn, max_crossings=60)
    assert h.specialize(LOOP) == LOOP * bracket(d, max_crossings=60)


# -- the group kernel where the trivial-holonomy shortcut answers -------------

def test_group_kernel_matches_the_shortcut_on_trivial_holonomy():
    # homotopy_bracket no longer runs the group kernel on these inputs
    disc = build_disc()
    conn = Connection.trivial(disc, GroupSpec.free())
    cases = [(_closure(list(range(1, k)) * k, k), conn) for k in (3, 4, 5)]
    cases += [(example(name).diagram, example(name).connection)
              for name in ("trefoil_left", "hopf_local", "unknot_local")]
    rng = random.Random(11)
    for _ in range(20):
        strands = rng.randint(2, 5)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 10))]
        cases.append((_closure(word, strands), conn))
    for d, c in cases:
        con = _Contraction(d)
        words = [holonomy(c, steps) for steps in con.steps]
        assert all(w == c.group.identity() for w in words)
        assert (kernel_bracket(con, c.group, words).to_text(c.group)
                == homotopy_bracket(d, c).to_text(c.group))


# -- sparse words: many nontrivial words, and many transits --------------------

def random_words(con, g, rng, paths):
    """Path words, random on at most ``paths`` paths, their reverses inverted."""
    words = [g.identity()] * len(con.steps)
    for a in rng.sample(range(len(con.match)), paths):
        if g.kind == "free":
            w = reduce_word([rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 4))])
        else:
            w = (rng.randint(-2, 2), rng.randint(1, 2))
        if w != g.identity():
            words[a], words[con.match[a]] = w, inv(g, w)
    return words


@pytest.mark.parametrize("group", [GroupSpec.free("u", "v"), GroupSpec.abelian(2)],
                         ids=["free", "abelian"])
def test_group_kernel_on_many_words(group):
    rng = random.Random(16)
    for k in (3, 4):
        con = _Contraction(_closure(list(range(1, k)) * k, k))
        for _ in range(4):
            words = random_words(con, group, rng, rng.randint(2, 8))
            assert (kernel_bracket(con, group, words).to_text(group)
                    == brute_from_words(con, group, words).to_text(group))


@pytest.mark.parametrize("base", [("torus_link", None), ("Kn", 0), ("annulus_link", None)])
def test_fuzzed_diagrams_with_many_transits(base):
    b = example(*base)
    most = 0
    for seed in range(4):
        d, _trace = mv.fuzz(b.diagram, 60, seed=seed, max_crossings=8, max_transits=40)
        most = max(most, len(d.transits))
        assert_engine_matches_brute(d, b.connection)
    assert most >= 30


def test_the_class_cache_keeps_its_bound():
    g = GroupSpec.abelian(2)
    size = br._CLASS_CACHE_SIZE
    for i in range(2 * size + 1):
        found = br._classes(g, g.identity(), [(i, 1), g.identity()])
        assert [c for _key, c in found] == [unoriented_class(g, (i, 1))]
        assert 0 < len(br._CLASSES) <= size
    assert (g, (2 * size, 1)) in br._CLASSES
    # a group parsed again is the same key
    assert (GroupSpec.abelian(2), (2 * size, 1)) in br._CLASSES


# -- the smoothing order ----------------------------------------------------

def scanned_frontier_order(con, by_transits=True):
    """The order by a full rescan per pick: the least (grow, transit ports, index).

    Transit ports are the ports whose path has transit steps; without
    ``by_transits`` they are not counted, which was the order before them.
    """
    n = len(con.order)
    done = [False] * n
    order = []
    for _ in range(n):
        best = None
        for i in range(n):
            if done[i]:
                continue
            grow = transits = 0
            for p in range(4 * i, 4 * i + 4):
                j = con.match[p] >> 2
                if j != i:
                    grow += -1 if done[j] else 1
                if by_transits and con.steps[p]:
                    transits += 1
            if best is None or (grow, transits, i) < best:
                best = (grow, transits, i)
        done[best[2]] = True
        order.append(best[2])
    return order


def test_frontier_order_matches_the_scan():
    diagrams = [_closure(list(range(1, k)) * k, k) for k in range(3, 11)]
    diagrams += [d for d, _conn in corpus.variants()]
    assert len(diagrams) > 100
    without_transits = 0
    for d in diagrams:
        con = _Contraction(d)
        order = _frontier_order(con)
        assert order == scanned_frontier_order(con)
        if not any(con.steps[:len(con.match)]):
            # without transits the order is the one by (grow, index)
            without_transits += 1
            assert order == scanned_frontier_order(con, by_transits=False)
    assert without_transits >= 8


# -- the contraction against the arcs of the diagram ---------------------------

def arcs_contraction(d):
    """(match, join, steps, fixed) read slot by slot off the arcs of d."""
    order = sorted(d.crossings)
    index = {c: i for i, c in enumerate(order)}
    arc_at = {}
    for arc in arcs_of(d):
        if arc.src is not None:
            arc_at[arc.src] = arc.dst
            arc_at[arc.dst] = arc.src
    match, join, steps = [], ([], []), []
    for i, c in enumerate(order):
        for p in range(4):
            path = []
            slot = arc_at[("x", c, p)]
            while slot[0] == "t":                # hop through the edge
                tr = d.transits[slot[1]]
                path.append((tr.edge, tr.sides[slot[2]], tr.sides[1 - slot[2]]))
                slot = arc_at[("t", slot[1], 1 - slot[2])]
            match.append(4 * index[slot[1]] + slot[2])
            steps.append(tuple(path))
        dot = d.crossings[c].dot
        # smoothing 1 merges the dotted sectors (dot, dot+1) and (dot+2, dot+3)
        for s, pairs in enumerate((((dot, dot + 1), (dot + 2, dot + 3)),
                                   ((dot + 1, dot + 2), (dot + 3, dot)))):
            ports = [0] * 4
            for a, b in pairs:
                ports[a % 4], ports[b % 4] = 4 * i + b % 4, 4 * i + a % 4
            join[s].extend(ports)
    fixed = []
    for ci, comp in enumerate(d.components):
        if not any(isinstance(ev, CrossVisit) for ev in comp.events):
            fixed.append([len(steps)])
            steps.append(tuple(event_walk(d).steps[ci]))
    return match, join, steps, fixed


def test_contraction_matches_the_arcs():
    assert len(corpus.variants()) > 100
    for d, _conn in corpus.variants():
        con = _Contraction(d)
        assert (con.match, con.join, con.steps, con.fixed) == arcs_contraction(d)


# -- the table of steps --------------------------------------------------------

def both_brackets(diagrams):
    # a copy of each diagram has an empty record, so its plan is built again
    out = []
    for d, conn in diagrams:
        d = replace(d)
        out.append((str(bracket(d)), homotopy_bracket(d, conn).to_text(conn.group)))
    return out


def test_results_do_not_depend_on_the_table():
    # mirrors differ from their diagrams in the join patterns alone
    diagrams = corpus.variants()
    br._STEPS.clear()
    cold = both_brackets(diagrams)
    br._STEPS.clear()
    backwards = both_brackets(diagrams[::-1])[::-1]
    warm = both_brackets(diagrams)
    assert cold == backwards
    assert cold == warm


# T(k, k) = (s1 ... s(k-1))^k: its bracket, and the homotopy bracket with
# path 0 labelled u and path 4k + 1 labelled v (their reverses inverted)
TORUS_PINS = {
    5: ("5*A^12 + 4*A^4 + 4*A^-4 + 1*A^-12 + 1*A^-20 + 1*A^-28",
        "(-7*A^0 + 10*A^-4 + -2*A^-8 + -5*A^-12 + 3*A^-16 + 2*A^-20 + -2*A^-24 "
        "+ 1*A^-28)*{u v} + (-5*A^10 + 5*A^6 + -9*A^2 + 2*A^-2 + 4*A^-6 + -6*A^-10 "
        "+ 3*A^-18 + -2*A^-22)*{u, v}"),
    6: ("-5*A^16 + -4*A^12 + -5*A^8 + -4*A^4 + -1*A^0 + -4*A^-4 + -1*A^-8 + -4*A^-12 "
        "+ -1*A^-16 + -1*A^-24 + -1*A^-32 + -1*A^-40",
        "(-4*A^8 + 6*A^4 + -2*A^0 + -10*A^-4 + 10*A^-8 + 2*A^-12 + -2*A^-16 + -2*A^-20 "
        "+ -2*A^-24 + 4*A^-28)*{u v^-1} + (5*A^14 + -1*A^10 + 2*A^6 + 8*A^2 + -9*A^-2 "
        "+ 3*A^-6 + 8*A^-10 + -2*A^-14 + 1*A^-18 + -3*A^-22 + 2*A^-26 + 2*A^-30 "
        "+ -1*A^-34 + 1*A^-38)*{u, v}"),
    7: ("14*A^18 + 14*A^10 + 14*A^2 + 6*A^-6 + 6*A^-14 + 6*A^-22 + 1*A^-30 + 1*A^-38 "
        "+ 1*A^-46 + 1*A^-54",
        "(-14*A^6 + 27*A^2 + -19*A^-2 + -13*A^-6 + 15*A^-10 + 20*A^-14 + -19*A^-18 "
        "+ -9*A^-22 + 9*A^-26 + 6*A^-30 + -2*A^-34 + -2*A^-38 + -2*A^-42 "
        "+ 3*A^-46)*{u v} + (-14*A^16 + 14*A^12 + -28*A^8 + 14*A^4 + -1*A^0 "
        "+ -18*A^-4 + -1*A^-8 + 16*A^-12 + -2*A^-16 + -17*A^-20 + 2*A^-24 + 7*A^-28 "
        "+ -2*A^-32 + -3*A^-40 + 1*A^-44 + 1*A^-48 + -1*A^-52)*{u, v}"),
    8: ("-14*A^22 + -14*A^18 + -14*A^14 + -14*A^10 + -6*A^6 + -14*A^2 + -6*A^-2 "
        "+ -14*A^-6 + -6*A^-10 + -1*A^-14 + -6*A^-18 + -1*A^-22 + -6*A^-26 + -1*A^-30 "
        "+ -6*A^-34 + -1*A^-38 + -1*A^-46 + -1*A^-54 + -1*A^-62 + -1*A^-70",
        "(-4*A^14 + 8*A^10 + -22*A^6 + -6*A^2 + 54*A^-2 + -28*A^-6 + -42*A^-10 "
        "+ 32*A^-14 + 30*A^-18 + -20*A^-22 + -24*A^-26 + 16*A^-30 + 8*A^-34 + 4*A^-38 "
        "+ -6*A^-42 + -8*A^-46 + 6*A^-50 + 4*A^-54 + -2*A^-58 + -2*A^-62 "
        "+ 2*A^-66)*{u v^-1} + (14*A^20 + 10*A^12 + 12*A^8 + -28*A^4 + 36*A^0 "
        "+ 24*A^-4 + -38*A^-8 + 2*A^-12 + 31*A^-16 + 5*A^-20 + -24*A^-24 + 6*A^-28 "
        "+ 11*A^-32 + 3*A^-36 + 2*A^-40 + -8*A^-44 + 1*A^-48 + 5*A^-52 + -2*A^-60 "
        "+ 1*A^-64 + 1*A^-68)*{u, v}"),
}


def test_wide_closures_keep_their_values_out_of_the_table():
    f2 = GroupSpec.free("u", "v")
    for k, (want, want_homotopy) in TORUS_PINS.items():
        d = _closure(list(range(1, k)) * k, k)
        assert str(bracket(d, max_crossings=60)) == want
        con = _Contraction(d)
        assert not all(step.tabled for step, _at in con.plan())
        words = [f2.identity()] * len(con.steps)
        for a, w in ((0, (1,)), (4 * k + 1, (2,))):
            words[a], words[con.match[a]] = w, inv(f2, w)
        assert kernel_bracket(con, f2, words).to_text(f2) == want_homotopy
    assert br._STEPS
    for (_joins, closes, _kinks), step in br._STEPS.items():
        assert max(len(closes), step.width) <= br._TABLED_WIDTH == 8
