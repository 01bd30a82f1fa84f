import pytest

import linkcx as lx
from linkcx import moves as mv
from linkcx.diagram import same_diagram
from linkcx.errors import MoveError
from linkcx.examples import example
from linkcx.laurent import Laurent
from linkcx.moves import MoveKind as K

M1_DELTA = {K.M1P: 1, K.M1M: -1, K.M1P_INV: -1, K.M1M_INV: 1}


def test_every_arc_has_kink_sites():
    for name in ("unknot_local", "torus_link"):
        d = example(name).diagram
        sites = mv.find_sites(d, K.M1P)
        n_arcs = sum(max(len(c.events), 1) for c in d.components)
        assert len(sites) == 2 * n_arcs


def test_kink_signs_and_multipliers():
    d = example("unknot_local").diagram
    for kind, sign in ((K.M1P, 1), (K.M1M, -1)):
        for site in mv.find_sites(d, kind):
            d2 = mv.apply(d, kind, site)
            (c,) = d2.crossings
            assert lx.crossing_sign(lx.orient_all(d2), c) == sign
            assert lx.wri(d2) == sign
            assert lx.bracket(d2) == Laurent.minus_A3_power(sign)
            assert lx.normalized_bracket(d2) == Laurent.one()


def test_kink_insert_delete_round_trip():
    d = example("trefoil_left").diagram
    for kind, inv in ((K.M1P, K.M1P_INV), (K.M1M, K.M1M_INV)):
        site = mv.find_sites(d, kind)[0]
        d2 = mv.apply(d, kind, site)
        assert len(d2.crossings) == len(d.crossings) + 1
        undo = [s for s in mv.find_sites(d2, inv)]
        assert any(mv.apply(d2, inv, s) == d for s in undo)


def test_no_m3_on_bare_diagrams():
    assert mv.find_sites(example("unknot_local").diagram, K.M3) == []
    # the trefoil triangle has the cyclic over-pattern, so no slide applies
    assert mv.find_sites(example("trefoil_left").diagram, K.M3) == []


def test_m2_then_inverse_is_identity():
    d = example("hopf_local").diagram
    applied = 0
    for site in mv.candidate_sites(d, K.M2)[:40]:
        try:
            d2 = mv.apply(d, K.M2, site)
        except MoveError:
            continue
        applied += 1
        assert len(d2.crossings) == len(d.crossings) + 2
        assert lx.bracket(d2) == lx.bracket(d)
        undo = mv.find_sites(d2, K.M2_INV)
        assert any(same_diagram(mv.apply(d2, K.M2_INV, s), d) for s in undo)
    assert applied > 0


def test_m2_self_poke():
    d = example("unknot_local").diagram
    sites = [s for s in mv.find_sites(d, K.M2)
             if dict(s.data)["arc_a"] == dict(s.data)["arc_b"]]
    assert sites
    d2 = mv.apply(d, K.M2, sites[0])
    assert len(d2.crossings) == 2
    assert lx.bracket(d2) == Laurent.one()


def test_m4_insert_delete():
    d = example("torus_link").diagram
    applied = 0
    for site in mv.candidate_sites(d, K.M4):
        try:
            d2 = mv.apply(d, K.M4, site)
        except MoveError:
            continue
        applied += 1
        assert len(d2.transits) == len(d.transits) + 2
        assert len(d2.crossings) == len(d.crossings)
        assert lx.lk(d2) == lx.lk(d)
        undo = mv.find_sites(d2, K.M4_INV)
        assert any(same_diagram(mv.apply(d2, K.M4_INV, s), d) for s in undo)
    assert applied > 0


def test_m5_push_and_retract():
    for name, n in (("torus_link", None), ("Kn", 0), ("moebius_link", None)):
        d = example(name, n).diagram
        pushes = 0
        for kind in (K.M5P, K.M5M):
            for site in mv.candidate_sites(d, kind):
                if dict(site.data).get("mode") != "push":
                    continue
                try:
                    d2 = mv.apply(d, kind, site)
                except MoveError:
                    continue
                pushes += 1
                assert len(d2.transits) == len(d.transits) + 4
                assert lx.bracket(d2) == lx.bracket(d)
                assert lx.wri(d2) == lx.wri(d)
                undo = [s for k2 in (K.M5P, K.M5M)
                        for s in mv.find_sites(d2, k2)
                        if dict(s.data).get("mode") == "retract"]
                assert any(same_diagram(mv.apply(d2, s.kind, s), d)
                           for s in undo)
        assert pushes > 0, name


def test_m6_needs_three_branches():
    # parallel strands through the same two branches may not exchange
    assert mv.find_sites(example("Ln", 0).diagram, K.M6) == []


def test_m7_round_trip_on_torus():
    d = example("torus_link").diagram
    applied = 0
    for site in mv.candidate_sites(d, K.M7)[:30]:
        try:
            d2 = mv.apply(d, K.M7, site)
        except MoveError:
            continue
        applied += 1
        assert lx.lk(d2) == lx.lk(d)
        assert lx.bracket(d2) == lx.bracket(d)
        undo = mv.candidate_sites(d2, K.M7)
        ok = False
        for s in undo:
            try:
                d3 = mv.apply(d2, K.M7, s)
            except MoveError:
                continue
            if same_diagram(d3, d):
                ok = True
                break
        assert ok
    assert applied > 0


def test_no_m7_without_link_cycles():
    # every vertex of the theta_3 cylinder has a claw or path link
    d = example("Ln", 1).diagram
    assert mv.candidate_sites(d, K.M7) == []


def test_mirror_commutes_with_moves():
    d = example("trefoil_left").diagram
    for kind, mirrored_kind in ((K.M1P, K.M1M), (K.M1M, K.M1P)):
        site = mv.find_sites(d, kind)[0]
        left = lx.mirror(mv.apply(d, kind, site))
        right = mv.apply(lx.mirror(d), mirrored_kind,
                         mv.MoveSite(mirrored_kind, site.data))
        assert left == right
    # M2 keeps its kind; the site's over strand flips with the dots
    site = mv.find_sites(d, K.M2)[0]
    data = dict(site.data)
    data["over"] = "b" if data["over"] == "a" else "a"
    left = lx.mirror(mv.apply(d, K.M2, site))
    right = mv.apply(lx.mirror(d), K.M2, mv.MoveSite.make(K.M2, **data))
    assert left == right


def test_mirror_commutes_with_m5():
    d = example("torus_link").diagram
    for kind, flipped in ((K.M5P, K.M5M), (K.M5M, K.M5P)):
        sites = [s for s in mv.find_sites(d, kind)
                 if dict(s.data).get("mode") == "push"]
        for site in sites[:2]:
            left = lx.mirror(mv.apply(d, kind, site))
            right = mv.apply(lx.mirror(d), flipped,
                             mv.MoveSite(flipped, site.data))
            assert left == right


def test_fuzz_determinism():
    d = example("annulus_link").diagram
    out1, trace1 = mv.fuzz(d, 25, seed=5)
    out2, trace2 = mv.fuzz(d, 25, seed=5)
    assert out1 == out2
    assert trace1 == trace2
    out3, trace3 = mv.fuzz(d, 25, seed=6)
    assert trace3 != trace1


def test_fuzz_zero_steps():
    d = example("torus_link").diagram
    out, trace = mv.fuzz(d, 0, seed=1)
    assert out == d and trace == []


def test_trace_serialization_and_replay():
    d = example("moebius_link").diagram
    out, trace = mv.fuzz(d, 15, seed=9)
    text = mv.serialize_trace(trace)
    parsed = mv.parse_trace(text)
    assert [(k, s.data) for k, s in parsed] == [(k, s.data) for k, s in trace]
    assert mv.replay(d, parsed) == out


def test_wri_changes_only_under_kinks():
    d = example("Kn", 0).diagram
    cur = d
    w = lx.wri(cur)
    _out, trace = mv.fuzz(d, 30, seed=11)
    for kind, site in trace:
        nxt = mv.apply(cur, kind, site)
        assert lx.wri(nxt) - lx.wri(cur) == M1_DELTA.get(kind, 0)
        cur = nxt


def test_apply_rejects_mismatched_site():
    d = example("unknot_local").diagram
    site = mv.find_sites(d, K.M1P)[0]
    with pytest.raises(MoveError):
        mv.apply(d, K.M2, site)


def test_unknown_move_kind_is_a_move_error():
    d = example("unknot_local").diagram
    site = mv.find_sites(d, K.M1P)[0]
    with pytest.raises(MoveError, match="unknown move kind"):
        mv.apply(d, "M9", site)
    with pytest.raises(MoveError, match="unknown move kind"):
        mv.candidate_sites(d, "M9")


def test_string_move_kinds_are_normalised():
    d = example("unknot_local").diagram
    sites = mv.candidate_sites(d, "M1p")
    assert sites == mv.candidate_sites(d, K.M1P)
    assert same_diagram(mv.apply(d, "M1p", sites[0]), mv.apply(d, K.M1P, sites[0]))
    with pytest.raises(MoveError, match="site is for M1p, not M1m"):
        mv.apply(d, "M1m", sites[0])
