import hashlib
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import linkcx as lx
from linkcx import diagram as dg
from linkcx import moves as mv
from linkcx.diagram import Component, CrossVisit, mirror, same_diagram, validate_diagram
from linkcx.errors import DiagramError, MoveError
from linkcx.examples import example
from linkcx.files import serialize_diagram
from linkcx.laurent import Laurent
from linkcx.moves import MoveKind as K

import corpus

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


def test_every_tongue_retracts_to_its_diagram():
    # the merge used to compare the tongue's tip, which lies in the other
    # face, and a retracted circle took the tip's face
    ln1 = example("Ln", 1).diagram
    circle = validate_diagram(replace(ln1, components=ln1.components
                                      + (Component((), ("F.e0",)),)))
    tongues = 0
    for d in (ln1, example("Kn", 0).diagram, example("torus_link").diagram, circle):
        for site in mv.find_sites(d, K.M4):
            d2 = mv.apply(d, K.M4, site)
            tongues += 1
            # the tongue starts at the visit of the first new transit
            (ta, _tb) = (t for t in d2.transits if t not in d.transits)
            (ci, ei), = dg.transit_visits(d2)[ta]
            undo = mv.MoveSite.make(K.M4_INV, comp=ci, event=ei)
            assert undo in mv.find_sites(d2, K.M4_INV), site
            assert same_diagram(mv.apply(d2, K.M4_INV, undo), d), site
    assert tongues > 52


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


def test_a_negative_site_index_is_stale():
    # apply used to read a negative index from the end of the component
    sites = {}
    for name, n in (("torus_link", None), ("Kn", 0), ("trefoil_left", None)):
        d = example(name, n).diagram
        for d in (d, mv.fuzz(d, 12, 1, max_crossings=6, max_transits=12)[0]):
            for kind in K:
                for site in mv.find_sites(d, kind):
                    ints = [key for key, v in site.data.items() if type(v) is int]
                    if ints:
                        sites.setdefault(kind, (d, site, ints))
                        break
    assert set(K) - set(sites) == {K.M2_INV, K.M6, K.M6_INV}   # no integer field
    for kind, (d, site, ints) in sites.items():
        for key in ints:
            bad = mv.MoveSite.make(kind, **{**site.data, key: -1})
            with pytest.raises(MoveError) as exc:
                mv.apply(d, kind, bad)
            assert str(exc.value) == f"stale site for {kind.value}: {key!r} is negative"


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


def test_m6_site_must_name_its_edge():
    d, _trace = mv.fuzz(example("Ln", 1).diagram, 10, seed=4)
    site = mv.MoveSite.make(K.M6, edge="v.b", t1="t8", t2="t4")
    assert mv.find_sites(d, K.M6) == [mv.MoveSite.make(K.M6, edge="v.b", t1="t3", t2="t11"),
                                      mv.MoveSite.make(K.M6, edge="v.b", t1="t2", t2="t6"),
                                      site]
    stale = mv.MoveSite.make(K.M6, edge="no-such-edge", t1="t8", t2="t4")
    with pytest.raises(MoveError, match="stale site for M6: .*'no-such-edge'"):
        mv.apply(d, K.M6, stale)


def test_m7_site_must_name_its_vertex():
    d = example("torus_link").diagram
    site = mv.find_sites(d, K.M7)[0]
    data = dict(site.data)
    mv.apply(d, K.M7, site)
    for v in ("no-such-vertex",) + tuple(w for w in d.complex.vertices
                                          if w != data["vertex"]):
        data["vertex"] = v
        with pytest.raises(MoveError, match="stale site for M7: .*round vertex"):
            mv.apply(d, K.M7, mv.MoveSite.make(K.M7, **data))


# -- find_sites against the brute force ------------------------------------------

def applies(d, kind, site):
    """Whether ``apply``, with its full validation, accepts the site."""
    try:
        mv.apply(d, kind, site)
    except MoveError:
        return False
    return True


def brute_sites(d, kind):
    """The reference: apply and fully validate every candidate."""
    return [site for site in mv.candidate_sites(d, kind) if applies(d, kind, site)]


def assert_sites_match_brute(d):
    for kind in K:
        assert mv.find_sites(d, kind) == brute_sites(d, kind), kind


def test_find_sites_matches_brute_force_on_examples_and_mirrors():
    for name, n in corpus.SMALL:
        d = example(name, n).diagram
        assert_sites_match_brute(d)
        assert_sites_match_brute(mirror(d))


def test_find_sites_matches_brute_force_across_map_components():
    # sites between two components of one face map are never pruned
    for _label, b in corpus.kinked():
        assert_sites_match_brute(b.diagram)


def test_find_sites_matches_brute_force_on_glued_complexes():
    # an M7 empty run faced the arc's left whenever it ran forward round the
    # cycle, which holds only where the cycle passes its entry corner along
    # the face's word; a one-step cycle passes it both ways.  About 40
    # evenly spaced candidates of each kind are applied here; a report-only
    # CI step applies every candidate along eight walks per complex
    for name, b in corpus.glued():
        d, _trace = mv.fuzz(b.diagram, 6, 0, max_crossings=2, max_transits=4)
        for kind in K:
            cands = mv.candidate_sites(d, kind)
            sample = cands[::max(1, -(-len(cands) // 40))]
            listed = set(mv.find_sites(d, kind))
            assert ([s for s in sample if s in listed]
                    == [s for s in sample if applies(d, kind, s)]), (name, kind)


def invalid_ln1():
    """Ln(1) with one component's arc faces rotated by one: every arc mislabeled."""
    d = example("Ln", 1).diagram
    comp = d.components[0]
    return replace(d, components=(replace(comp, arc_faces=comp.arc_faces[1:]
                                          + comp.arc_faces[:1]),) + d.components[1:])


def test_site_search_on_an_invalid_diagram_raises_validation_error():
    # search used to apply and validate every candidate of an invalid diagram
    bad = invalid_ln1()
    with pytest.raises(DiagramError) as exc:
        validate_diagram(bad)
    text = str(exc.value)
    for kind in K:
        mv.candidate_sites(bad, kind)            # lists without validating
        for search in (mv.find_sites, mv.iter_sites):
            with pytest.raises(DiagramError) as raised:
                search(bad, kind)
            assert str(raised.value) == text
    with pytest.raises(DiagramError) as raised:
        mv.fuzz(bad, 1, 0)
    assert str(raised.value) == text


def test_face_maps_of_an_invalid_diagram_list_no_triangle():
    bad = invalid_ln1()
    assert mv.candidate_sites(bad, K.M3) == []


def test_m3_candidates_of_a_valid_diagram_build_no_face_map(monkeypatch):
    d, _trace = mv.fuzz(example("trefoil_left").diagram, 12, 3, max_crossings=6,
                        max_transits=12)
    validate_diagram(d)
    built = []
    init = dg.FaceMap.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(dg.FaceMap, "__init__", counting_init)
    assert mv.candidate_sites(d, K.M3)
    assert built == []


GROWING = (K.M1P, K.M1M, K.M2, K.M4, K.M5P, K.M5M)


def test_each_kind_has_one_registry_row():
    assert len(mv._MOVES) == len(K) and set(mv._MOVES) == set(K)
    # candidates, rewrite and the _Regions predicate that decides the kind
    assert all(len(row) == 3 and row[2].__qualname__.startswith("_Regions.")
               for row in mv._MOVES.values())


def test_decided_kinds_apply_nothing_on_a_valid_diagram(monkeypatch):
    calls = Counter()
    real_apply = mv.apply

    def counting_apply(d, kind, site):
        calls[kind] += 1
        return real_apply(d, kind, site)

    monkeypatch.setattr(mv, "apply", counting_apply)
    for name, n in (("Ln", 2), ("Kn", 2), ("torus_link", None)):
        d = example(name, n).diagram
        for kind in K:
            # the kinds that grow a diagram have sites on each of these
            assert mv.find_sites(d, kind) or kind not in GROWING, (name, kind)
    assert calls == Counter()


def retract_sites(d):
    return [s for kind in (K.M5P, K.M5M) for s in mv.candidate_sites(d, kind)
            if dict(s.data)["mode"] == "retract"]


def test_find_sites_matches_brute_force_after_every_push():
    pushed = corpus.pushes()
    assert len(pushed) == 56
    assert sum(len(retract_sites(d)) for d, _c in pushed) == 60
    for d, _c in pushed:
        assert_sites_match_brute(d)


def test_retract_applies_whatever_the_listing_start():
    # a visit at the end of its listing makes the retract block wrap round
    for d, c in corpus.pushes():
        for ci, comp in enumerate(d.components):
            k = len(comp.events)
            for r in range(1, k):
                comps = list(d.components)
                comps[ci] = Component(comp.events[r:] + comp.events[:r],
                                      comp.arc_faces[r:] + comp.arc_faces[:r],
                                      comp.directed)
                d2 = validate_diagram(replace(d, components=tuple(comps)))
                sites = retract_sites(d2)
                assert any(s.get("crossing") == c for s in sites)
                for site in sites:
                    mv.apply(d2, site.kind, site)


def test_an_inverted_fan_is_no_retract_site():
    # reflecting the pushed crossing's ports inverts its fan at the edge
    for d, c in corpus.pushes():
        comps = tuple(Component(tuple(CrossVisit(ev.crossing, (4 - ev.enter) % 4)
                                      if getattr(ev, "crossing", None) == c else ev
                                      for ev in comp.events),
                                comp.arc_faces, comp.directed)
                      for comp in d.components)
        flipped = replace(d, components=comps)
        with pytest.raises(DiagramError, match="not drawable"):
            validate_diagram(flipped)
        assert all(s.get("crossing") != c for s in retract_sites(flipped))


def test_site_counts_match_the_recorded_fixture_counts():
    # recorded by applying and validating every candidate
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    counts = json.loads(path.read_text())["cli_site_counts"]
    fixtures = [("Ln", n) for n in range(2, 7)] + [("Kn", n) for n in range(2, 6)]
    fixtures += [(name, None) for name in ("torus_link", "moebius_link", "annulus_link")]
    assert len(counts) == len(fixtures) == 12
    for name, n in fixtures:
        d = example(name, n).diagram
        stem = name if n is None else f"{name}{n}"
        assert {k.value: len(mv.find_sites(d, k)) for k in K} == counts[stem], stem


@settings(max_examples=4, deadline=None)
@given(st.sampled_from(corpus.starts()), st.integers(0, 2 ** 32 - 1))
def test_find_sites_matches_brute_force_on_fuzzed_diagrams(start, seed):
    d, _trace = mv.fuzz(start[1].diagram, 8, seed=seed, max_crossings=4, max_transits=8)
    assert_sites_match_brute(d)


INVERSES = {K.M1P: (K.M1P_INV,), K.M1M: (K.M1M_INV,), K.M2: (K.M2_INV,),
            K.M4: (K.M4_INV,), K.M5P: (K.M5P, K.M5M), K.M5M: (K.M5P, K.M5M)}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(corpus.starts()), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(sorted(INVERSES)), st.data())
def test_a_move_and_its_inverse_give_back_the_diagram(start, seed, kind, data):
    # M5 draws a push and undoes it with a retract of either dot variant
    d, _trace = mv.fuzz(start[1].diagram, 6, seed=seed, max_crossings=4, max_transits=8)
    sites = [s for s in mv.find_sites(d, kind) if s.data.get("mode", "push") == "push"]
    assume(sites)
    d2 = mv.apply(d, kind, data.draw(st.sampled_from(sites)))
    assert any(same_diagram(mv.apply(d2, inverse, s), d)
               for inverse in INVERSES[kind] for s in mv.find_sites(d2, inverse)
               if s.data.get("mode") != "push")


def test_m2_sites_from_region_pairs_match_brute_force():
    for d in corpus.short_walks():
        assert mv.find_sites(d, K.M2) == brute_sites(d, K.M2)


def test_m2_site_search_builds_only_the_sites_it_keeps(monkeypatch):
    made = Counter()
    make = mv.MoveSite.make.__func__

    def counting_make(cls, kind, **data):
        made[kind] += 1
        return make(cls, kind, **data)

    monkeypatch.setattr(mv.MoveSite, "make", classmethod(counting_make))
    rejected = 0
    for d in corpus.short_walks():
        made.clear()                         # drop the sites that fuzz tried
        sites = mv.find_sites(d, K.M2)
        assert made[K.M2] == len(sites)
        rejected += len(mv.candidate_sites(d, K.M2)) - len(sites)
    assert rejected > 0


# -- outputs pinned to recorded values -------------------------------------------

FUZZ_DIGEST = "0c45acd52a2a02cec4f8241cf01457eb2f662374b3d8fb1f66871d877a7642e1"


def test_fuzz_traces_are_pinned():
    records = []
    for name, n in corpus.PINNED:
        d = example(name, n).diagram
        for seed in range(4):
            try:
                out, trace = mv.fuzz(d, 30, seed, max_crossings=6, max_transits=12)
            except MoveError as exc:
                records.append("ERR " + str(exc))
                continue
            records.append(mv.serialize_trace(trace) + serialize_diagram(out))
    assert len(records) == 44
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == FUZZ_DIGEST


def test_fuzz_applies_no_candidate_that_the_regions_reject(monkeypatch):
    tried, rejected = Counter(), Counter()
    apply = mv.apply

    def counting(d, kind, site):
        tried[kind] += 1
        try:
            return apply(d, kind, site)
        except MoveError:
            rejected[kind] += 1
            raise

    monkeypatch.setattr(mv, "apply", counting)
    for name, n in corpus.EXAMPLES:
        d = example(name, n).diagram
        for seed in range(3):
            mv.fuzz(d, 30, seed, max_crossings=6, max_transits=12)
    assert set(tried) == set(K)
    assert rejected == Counter()


CANDIDATE_DIGEST = "af065ea649b47020a3883f9a01f02b387b9181b9e5feb8c8b0e92c8e0cfb69e7"


def test_candidate_sites_are_pinned():
    # recorded from the nested-loop generators that the indexed sequences replaced
    records, sizes = [], Counter()
    for d in corpus.recorded_candidates():
        for kind in K:
            sites = mv.candidate_sites(d, kind)
            sizes[kind] += len(sites)
            records.extend(f"{kind.value} {site.fingerprint()}" for site in sites)
    assert all(sizes[kind] for kind in K)
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == CANDIDATE_DIGEST


def test_recorded_diagrams_read_back_as_recorded():
    # the codec keeps dict order and exact positions, which the pins read
    for name in ("candidate_diagrams.json", "stale_site_walks.json"):
        records = json.loads((corpus.RECORDED / name).read_text())
        for record in records:
            cx = example(*record["example"]).complex
            for fields in record["diagrams"]:
                d = validate_diagram(corpus.decode(fields, cx))
                assert corpus.encode(d) == fields
    assert len(corpus.recorded_candidates()) == 55
    assert [len(states) for states in corpus.recorded_walks()] == [20] * 11


REWRITE_DIGEST = "29a704dba681ea84fc1d492eb875cecbca1df48a8a7346f214f985074159a756"


def rewrite_lines():
    """The raw rewrite, unvalidated, at about 40 evenly spaced candidates of each kind.

    A line holds the kind, the site and either the result's components,
    crossings and transits, in dict order, or the text of what it raised.
    """
    lines = []
    for d in corpus.recorded_candidates():
        for kind in K:
            cands = mv._candidates(d, kind)
            for i in range(0, len(cands), max(1, -(-len(cands) // 40))):
                site = cands[i]
                try:
                    out = mv._MOVES[kind][1](d, kind, site)
                except (MoveError, KeyError, IndexError) as exc:
                    result = f"{type(exc).__name__} {exc}"
                else:
                    result = (f"{out.components!r} {list(out.crossings.items())!r} "
                              f"{list(out.transits.items())!r}")
                lines.append(f"{kind.value} {site.fingerprint()} {result}")
    return lines


def test_rewrites_are_pinned():
    lines = rewrite_lines()
    assert len(lines) > 5000
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == REWRITE_DIGEST


def test_fuzz_builds_only_the_sites_it_tries(monkeypatch):
    made, tried, longest, over = Counter(), Counter(), [0], []
    make = mv.MoveSite.make.__func__
    candidates = mv._candidates

    def counting_make(cls, kind, **data):
        made[kind] += 1
        return make(cls, kind, **data)

    def counting_candidates(d, kind):
        seq = candidates(d, kind)
        tried[kind] += 1
        longest[0] = max(longest[0], len(seq))
        return seq

    def on_step(i, _kind, _before, _after):
        over.extend((i, kind, made[kind], tried[kind]) for kind in made
                    if made[kind] > 40 * tried[kind])
        made.clear()
        tried.clear()

    monkeypatch.setattr(mv.MoveSite, "make", classmethod(counting_make))
    monkeypatch.setattr(mv, "_candidates", counting_candidates)
    for name, n in corpus.EXAMPLES:
        for seed in range(2):
            mv.fuzz(example(name, n).diagram, 25, seed, max_crossings=6,
                    max_transits=12, on_step=on_step)
    assert longest[0] > 40
    assert over == []


def test_rejection_texts_are_pinned():
    d = example("Ln", 2).diagram
    lines = []
    for kind in (K.M2, K.M4, K.M5P, K.M5M):
        for site in mv.candidate_sites(d, kind):
            try:
                mv.apply(d, kind, site)
            except MoveError as exc:
                lines.append(f"{kind.value} {site.fingerprint()} {exc}")
    undrawable = "{0} at this site does not yield a valid diagram: " \
                 "tangle of face {1!r} is not drawable in a disc"
    assert Counter(line.split("} ", 1)[1] for line in lines) == {
        undrawable.format("M2", "F.e0"): 310,
        undrawable.format("M4", "F.e0"): 96,
        undrawable.format("M4", "F.e1"): 6,
        undrawable.format("M4", "F.e2"): 6,
        undrawable.format("M5p", "F.e0"): 92,
        undrawable.format("M5m", "F.e0"): 64,
    }
    assert (hashlib.sha256("\n".join(lines).encode()).hexdigest()
            == "62ea2397a2f7bc82626fd3e3f5d76d1bbace80838713af853bad35991d1a2440")


def stale_site_lines():
    """apply's MoveError for each listed site carried to another diagram.

    Along each recorded walk, every site that a listed kind lists at one
    step (for M5 the retracts, for M7 the transit runs) is applied to the
    next step, to the mirror of its own step and to the walk's last step.
    """
    listed = (K.M1P_INV, K.M1M_INV, K.M2_INV, K.M3, K.M4_INV, K.M5P, K.M5M, K.M6, K.M7)
    lines = []
    for states in corpus.recorded_walks():
        for before, after in zip(states, states[1:]):
            for kind in listed:
                for site in mv.candidate_sites(before, kind):
                    data = dict(site.data)
                    if data.get("mode") == "push" or data.get("length") == 0:
                        continue
                    for target in (after, mirror(before), states[-1]):
                        try:
                            mv.apply(target, kind, site)
                        except MoveError as exc:
                            lines.append(f"{kind.value} {site.fingerprint()} {exc}")
    return lines


def test_stale_site_texts_are_pinned():
    lines = stale_site_lines()
    undrawable = "M6 at this site does not yield a valid diagram: " \
                 "tangle of face {!r} is not drawable in a disc"
    # each line is "kind fingerprint text", and a fingerprint ends in "}"
    assert Counter((line.split(" ", 1)[0], line.split("} ", 1)[1])
                   for line in lines) == {
        ("M1pi", "kink sign does not match the move kind"): 145,
        ("M1pi", "stale kink site"): 155,
        ("M1pi", "stale site for M1pi: tuple index out of range"): 23,
        ("M1mi", "kink sign does not match the move kind"): 93,
        ("M1mi", "stale kink site"): 108,
        ("M1mi", "stale site for M1mi: tuple index out of range"): 12,
        ("M2i", "arcs do not join the same crossing pair"): 73,
        ("M2i", "stale bigon site"): 92,
        ("M3", "arcs do not form a triangle"): 108,
        ("M3", "stale triangle site"): 60,
        ("M3", "the sliding strand must be over or under both others"): 14,
        ("M4i", "events do not form a tongue"): 13,
        ("M4i", "stale site for M4i: tuple index out of range"): 18,
        ("M4i", "stale tongue site"): 154,
        ("M4i", "tongue transits are not adjacent on the edge"): 19,
        ("M5p", "crossing is not retractable across an edge"): 39,
        ("M5p", "dot variant does not match the move kind"): 46,
        ("M5m", "crossing is not retractable across an edge"): 23,
        ("M5m", "dot variant does not match the move kind"): 45,
        ("M5m", "stale site for M5m: 'c2'"): 2,
        ("M6", undrawable.format("F.e0")): 464,
        ("M6", undrawable.format("F.e1")): 4,
        ("M6", undrawable.format("F.e2")): 87,
        ("M6", "exchange needs three pairwise-distinct branches"): 5,
        ("M6", "transits are not adjacent on the edge"): 49,
        ("M6", "transits lie on different edges"): 2,
        ("M7", "arc does not follow the cycle near the vertex"): 188,
        **{("M6", f"stale site for M6: {t!r}"): n for t, n in (
            ("t1", 2), ("t2", 3), ("t3", 12), ("t4", 1), ("t10", 5), ("tb1", 11),
            ("tb_hi", 6))},
    }
    assert (hashlib.sha256("\n".join(lines).encode()).hexdigest()
            == "f75e92d94eb443cae6a6d105332415ee67cd87b02a405be26f35be7643d55174")
