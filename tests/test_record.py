"""The record of derived data kept for the diagram used last.

One module-level slot holds (weak reference to a diagram, its record).
These tests check that a record serves only the object it was built for,
that one event walk serves validation, the state sums, the signs, the
split components and the move sites, that the three state sums share one
contraction and one plan, that a
diagram's bracket and sign table are computed once while the checks on
each call still run, that a rejected move leaves its input's record in the
slot, and that the order of calls across diagrams never changes a result.
The link cycles of M7 live in a record of their own, kept per complex.
"""

import gc
import importlib
from dataclasses import replace

import pytest

from linkcx import diagram as dg
from linkcx import moves as mv
from linkcx.bracket import (_Contraction, all_state_counts, bracket,
                            check_span_theorem, normalized_bracket,
                            normalized_bracket_oriented)
from linkcx.diagram import derived, validate_diagram
from linkcx.errors import CrossingCapError, DiagramError, MoveError
from linkcx.examples import example
from linkcx.files import parse_diagram, serialize_diagram
from linkcx.homotopy import LK, co, homotopy_bracket
from linkcx.invariants import Wri, lk, pairwise_lk, parity_check, wri
from linkcx.moves import MoveKind, apply, candidate_sites, find_sites, fuzz

# ``linkcx.bracket`` is also the name of a function in the package
br = importlib.import_module("linkcx.bracket")
inv = importlib.import_module("linkcx.invariants")


def _count_contractions(monkeypatch):
    builds = []
    init = _Contraction.__init__

    def counting(self, d):
        builds.append(d)
        init(self, d)

    monkeypatch.setattr(_Contraction, "__init__", counting)
    return builds


def test_the_three_state_sums_share_one_contraction(monkeypatch):
    bundle = example("Kn", 2)
    d = replace(bundle.diagram)          # an object no earlier call has seen
    builds = _count_contractions(monkeypatch)
    bracket(d)
    homotopy_bracket(d, bundle.connection)
    all_state_counts(d)
    assert builds == [d]


def test_one_walk_serves_every_reader(monkeypatch):
    bundles = [example("Kn", 2), example("Ln", 2)]
    walks = []
    init = dg.EventWalk.__init__

    def counting(self, d):
        walks.append(d)
        init(self, d)

    monkeypatch.setattr(dg.EventWalk, "__init__", counting)
    for bundle in bundles:
        d = replace(bundle.diagram)      # an object no earlier call has seen
        validate_diagram(d)
        bracket(d)
        homotopy_bracket(d, bundle.connection)
        wri(d)
        (co if len(d.components) == 1 else LK)(d, bundle.connection)
        dg.sc(d)
        find_sites(d, MoveKind.M2)
        assert len(walks) == 1 and walks[0] is d
        walks.clear()
    assert {len(b.diagram.components) for b in bundles} == {1, 2}


def test_a_reversed_listing_is_parsed_with_one_walk(monkeypatch):
    # the `-` flag used to walk the listing as read, then the reversed one
    bundle = example("Ln", 1)
    text = serialize_diagram(bundle.diagram)
    walks = []
    init = dg.EventWalk.__init__

    def counting(self, d):
        walks.append(d)
        init(self, d)

    monkeypatch.setattr(dg.EventWalk, "__init__", counting)
    for flag in ("+", "-"):
        flagged = text.replace("component k1 oriented +", f"component k1 oriented {flag}")
        d = parse_diagram(flagged, bundle.complex)
        assert lk(d) == (2 if flag == "+" else -2)
        assert len(walks) == 1 and walks[0] is d
        walks.clear()


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_a_diagram_has_one_bracket_state_sum(monkeypatch):
    d = replace(example("Ln", 2).diagram)
    sums = _counting(monkeypatch, br, "_state_sum")
    b = bracket(d)
    normalized_bracket(d)
    normalized_bracket_oriented(d)
    assert check_span_theorem(d)
    assert bracket(d) is b
    assert len(sums) == 1


def test_a_kept_bracket_still_checks_the_crossing_cap():
    d = replace(example("Kn", 2).diagram)
    n = len(d.crossings)
    bracket(d, max_crossings=n)
    with pytest.raises(CrossingCapError):
        bracket(d, max_crossings=n - 1)
    with pytest.raises(CrossingCapError):
        normalized_bracket(d, max_crossings=n - 1)
    with pytest.raises(CrossingCapError):
        check_span_theorem(d, max_crossings=n - 1)


def test_homotopy_bracket_reuses_the_plan_of_bracket(monkeypatch):
    bundle = example("Ln", 3)
    d = replace(bundle.diagram)
    plans = _counting(monkeypatch, br, "_build_plan")
    bracket(d)
    homotopy_bracket(d, bundle.connection)
    homotopy_bracket(d, bundle.connection)
    assert len(plans) == 1


def test_the_sign_table_is_kept_and_the_direction_is_checked_on_every_call(monkeypatch):
    d = replace(example("Ln", 2).diagram)
    signs = _counting(monkeypatch, inv, "_sign_from_visits")
    for f in (wri, Wri, lk, parity_check, lambda d: pairwise_lk(d, 0, 1), wri):
        f(d)
    assert len(signs) == len(d.crossings)
    undirected = replace(d, components=tuple(replace(c, directed=False)
                                             for c in d.components))
    assert wri(undirected) == wri(d)
    wri(undirected)                      # the table of undirected is kept now
    for f in (Wri, lk, parity_check, lambda d: pairwise_lk(d, 0, 1)):
        with pytest.raises(DiagramError, match="not fully directed"):
            f(undirected)


def test_link_cycles_are_kept_per_complex(monkeypatch):
    d = replace(example("torus_link").diagram)
    cycles = _counting(monkeypatch, mv, "_link_cycles")
    first = candidate_sites(d, MoveKind.M7)
    # another diagram on the same complex takes the diagram slot, not the cycles
    other = fuzz(d, 3, 0, max_crossings=4, max_transits=8)[0]
    candidate_sites(other, MoveKind.M7)
    assert candidate_sites(replace(d), MoveKind.M7) == first
    assert len(cycles) == len(d.complex.vertices)


def test_an_equal_but_distinct_diagram_gets_its_own_record(monkeypatch):
    d = example("Ln", 2).diagram
    twin = replace(d)
    assert twin == d and twin is not d
    builds = _count_contractions(monkeypatch)
    bracket(d)
    bracket(twin)
    bracket(d)
    assert len(builds) == 3
    assert derived(d, "probe", lambda _d: "d") == "d"
    assert derived(twin, "probe", lambda _d: "twin") == "twin"


def test_a_rebuilt_diagram_never_sees_the_freed_ones_record():
    def build():
        return example("Kn", 1).diagram

    d = build()
    assert derived(d, "probe", lambda _d: "old") == "old"
    del d
    gc.collect()
    # the new object may reuse the freed address; its record starts empty
    d = build()
    assert derived(d, "probe", lambda _d: "new") == "new"


def test_a_diagram_that_passed_is_not_validated_again(monkeypatch):
    d = replace(example("torus_link").diagram)
    assert validate_diagram(d) is d

    def fail(_d):
        raise AssertionError("validated twice")

    monkeypatch.setattr(dg, "_checked_face_maps", fail)
    assert validate_diagram(d) is d
    with pytest.raises(AssertionError):
        validate_diagram(replace(d))


def _results(bundle):
    d, conn = bundle.diagram, bundle.connection
    calls = {"bracket": lambda: bracket(d),
             "homotopy_bracket": lambda: homotopy_bracket(d, conn).to_text(conn.group),
             "all_state_counts": lambda: all_state_counts(d)}
    if len(d.components) == 2:
        calls["LK"] = lambda: LK(d, conn).to_text(conn.group)
    else:
        calls["co"] = lambda: co(d, conn).to_text(conn.group)
    return calls


def test_call_order_does_not_change_results():
    a, b = example("Ln", 2), example("Kn", 1)
    alone = {}
    for name, bundle in (("A", a), ("B", b)):
        fresh = replace(bundle, diagram=replace(bundle.diagram))
        alone[name] = {key: f() for key, f in _results(fresh).items()}
    calls = {"A": _results(a), "B": _results(b)}
    keys = ("bracket", "homotopy_bracket", "all_state_counts", "LK", "co")
    for key in keys:
        for name in ("A", "B", "A"):
            if key in calls[name]:
                assert calls[name][key]() == alone[name][key], (name, key)
    # and each diagram's record filled piecewise between the other's calls
    for first, second in (("A", "B"), ("B", "A")):
        for key in reversed(keys):
            for name in (first, second):
                if key in calls[name]:
                    assert calls[name][key]() == alone[name][key], (name, key)


def _rejected_sites():
    """(diagram, kind, site) whose apply raises MoveError, one per kind.

    The site is the kind's first candidate that ``find_sites`` leaves out.
    """
    ln1 = example("Ln", 1).diagram
    out = [(example("torus_link").diagram, MoveKind.M7), (ln1, MoveKind.M4),
           (fuzz(ln1, 12, 0, max_crossings=6, max_transits=12)[0], MoveKind.M6)]
    return [(d, kind, next(s for s in candidate_sites(d, kind) if s not in find_sites(d, kind)))
            for d, kind in out]


def test_a_rejected_apply_keeps_the_record_of_its_input(monkeypatch):
    checked = []
    check = dg._checked_face_maps

    def counting(d):
        checked.append(d)
        return check(d)

    monkeypatch.setattr(dg, "_checked_face_maps", counting)
    for d, kind, site in _rejected_sites():
        cur = replace(d)                 # an object no earlier call has seen
        validate_diagram(cur)
        with pytest.raises(MoveError):
            apply(cur, kind, site)
        candidate_sites(cur, kind)
        validate_diagram(cur)
        assert sum(x is cur for x in checked) == 1, kind
