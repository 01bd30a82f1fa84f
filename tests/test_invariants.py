import pytest

import linkcx as lx
from linkcx.diagram import PlanarCode, draw_local, mirror, reverse_component
from linkcx.errors import DiagramError
from linkcx.examples import example, hopf_code
from linkcx.bracket import classical_lk
from linkcx.twocomplex import build_disc


def test_paper_linking_numbers():
    assert lx.lk(example("torus_link").diagram) == 1
    assert lx.lk(example("moebius_link").diagram) == 1
    assert lx.lk(example("annulus_link").diagram) == 2
    for n in range(6):
        assert lx.lk(example("Ln", n).diagram) == 2 * n


def test_mirror_negates_lk_and_writhes():
    for name in ("torus_link", "moebius_link", "annulus_link"):
        d = example(name).diagram
        assert lx.lk(mirror(d)) == -lx.lk(d)
        assert lx.Wri(mirror(d)) == -lx.Wri(d)
    k = example("Kn", 1).diagram
    assert lx.wri(mirror(k)) == -lx.wri(k)


def test_reversal_keeps_lk():
    for name in ("torus_link", "annulus_link"):
        d = example(name).diagram
        both = reverse_component(reverse_component(d, 0), 1)
        assert lx.lk(both) == lx.lk(d)
        assert lx.Wri(both) == lx.Wri(d)


def test_reversing_a_knot_keeps_signs():
    k = example("Kn", 2).diagram
    r = reverse_component(k, 0)
    for c in k.crossings:
        assert lx.crossing_sign(r, c) == lx.crossing_sign(k, c)


def test_weave_crossings_are_positive():
    for name, n in (("Ln", 2), ("Kn", 1)):
        d = example(name, n).diagram
        for c in d.crossings:
            assert lx.crossing_sign(d, c) == 1


def test_trefoil_writhes():
    assert lx.wri(example("trefoil_left").diagram) == -3
    assert lx.wri(example("trefoil_right").diagram) == 3


def test_wri_formula():
    # Wri = wri + sum of pairwise linking numbers
    for name, n in (("Ln", 1), ("annulus_link", None), ("torus_link", None)):
        d = example(name, n).diagram
        total = lx.wri(d)
        k = len(d.components)
        for i in range(k):
            for j in range(i + 1, k):
                total += lx.pairwise_lk(d, i, j)
        assert lx.Wri(d) == total


def test_pairwise_lk_symmetry():
    d = example("Ln", 2).diagram
    assert lx.pairwise_lk(d, 0, 1) == lx.pairwise_lk(d, 1, 0) == 4
    with pytest.raises(DiagramError):
        lx.pairwise_lk(d, 0, 0)


def test_parity_and_locality():
    t = example("torus_link").diagram
    assert lx.parity_check(t)
    assert lx.local_obstruction(t)
    for n in range(3):
        d = example("Ln", n).diagram
        assert lx.parity_check(d)
        assert not lx.local_obstruction(d)


def test_local_hopf_doubles_classical_lk():
    d = example("hopf_local").diagram
    assert classical_lk(hopf_code()) == 1
    assert lx.lk(d) == 2 * classical_lk(hopf_code()) == 2


def test_a_repeated_crossing_id_is_refused_as_by_draw_local():
    # classical_lk used to trace the strands of this code and return 1
    code = PlanarCode((("1", ("a", "b", "c", "d"), 0), ("1", ("c", "d", "a", "b"), 0)))
    for read in (classical_lk, lambda code: draw_local(build_disc(), "F", code)):
        with pytest.raises(DiagramError, match="^duplicate crossing id '1'$"):
            read(code)


def test_lk_needs_two_components():
    with pytest.raises(DiagramError):
        lx.lk(example("trefoil_left").diagram)


def test_lk_needs_directions():
    d = example("torus_link").diagram
    comps = tuple(c.__class__(c.events, c.arc_faces, False) for c in d.components)
    undirected = d.__class__(d.complex, d.crossings, d.transits, comps)
    with pytest.raises(DiagramError):
        lx.lk(undirected)
    # wri is orientation free
    assert lx.wri(undirected) == lx.wri(d)


def test_mirror_flips_each_sign():
    for name in ("trefoil_left", "hopf_local", "torus_link"):
        d = example(name).diagram
        m = mirror(d)
        for c in d.crossings:
            assert lx.crossing_sign(m, c) == -lx.crossing_sign(d, c)


def test_local_two_component_codes_double_classical_lk():
    import random
    from linkcx.diagram import braid_code, draw_local, orient_all
    from linkcx.twocomplex import build_disc
    cx = build_disc()
    rng = random.Random(12)
    found = 0
    while found < 10:
        strands = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 8))]
        code = braid_code(word, strands)
        d = orient_all(draw_local(cx, "F", code))
        if len(d.components) != 2 or not code.crossings:
            continue
        found += 1
        assert lx.lk(d) == 2 * classical_lk(code), word
