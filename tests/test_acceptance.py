"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
assertions carry the same conditions either way.  The fuzz campaign
(criteria 4, 5, and 7) runs once per session and is shared.
"""

import random

import pytest

import linkcx as lx
from linkcx import files
from linkcx import moves as mv
from linkcx.bracket import all_state_counts, classical_lk, classical_oracle, span
from linkcx.diagram import braid_code, draw_local, mirror, reverse_component
from linkcx.examples import example, hopf_code, trefoil_code, unknot_code
from linkcx.groups import conj_class, text_to_word
from linkcx.homotopy import LK, co, normalized_homotopy_bracket
from linkcx.laurent import Laurent
from linkcx.moves import MoveKind as K
from linkcx.twocomplex import build_disc

import corpus

M1_SIGN = {K.M1P: 1, K.M1M: -1, K.M1P_INV: -1, K.M1M_INV: 1}


def _report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- criterion 1: worked linking numbers ---------------------------------

def test_criterion_1_linking_numbers():
    checks = []
    checks.append(lx.lk(example("torus_link").diagram) == 1)
    moe = example("moebius_link").diagram
    checks.append(lx.lk(moe) == 1 and lx.lk(mirror(moe)) == -1)
    ann = example("annulus_link").diagram
    checks.append(lx.lk(ann) == 2 and lx.lk(mirror(ann)) == -2)
    for n in range(6):
        checks.append(lx.lk(example("Ln", n).diagram) == 2 * n)
    _report(1, all(checks),
            "lk: torus 1, moebius +-1, annulus +-2, L(n) 2n for n=0..5")


# -- criterion 2: colinking classes of K(n) -------------------------------

def test_criterion_2_colinking_classes():
    values = []
    ok = True
    for n in range(4):
        b = example("Kn", n)
        g = b.connection.group
        u = conj_class(g, text_to_word(g, "u"))
        v = conj_class(g, text_to_word(g, "v"))
        kn = conj_class(g, text_to_word(g, "u v"))
        one = conj_class(g, ())
        expected = {(u, v): 2 * n + 1, (v, u): 2 * n + 1,
                    (kn, one): -(2 * n + 1), (one, kn): -(2 * n + 1)}
        value = co(b.diagram, b.connection)
        ok = ok and value.terms == expected
        values.append(value)
    distinct = all(values[i] != values[j]
                   for i in range(4) for j in range(i + 1, 4))
    _report(2, ok and distinct,
            "co(K(n)) = (2n+1)(u(x)v + v(x)u - k(x)1 - 1(x)k), n=0..3, all distinct")


# -- criterion 3: oracle equivalence ---------------------------------------

def test_criterion_3_oracle_equivalence():
    cx = build_disc()
    codes = [trefoil_code("left"), trefoil_code("right"), hopf_code(),
             unknot_code()]
    rng = random.Random(2026)
    while len(codes) < 54:
        strands = rng.randint(2, 5)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 10))]
        code = braid_code(word, strands)
        if len(code.crossings) <= 10:
            codes.append(code)
    ok = all(lx.bracket(draw_local(cx, "F", code)) == classical_oracle(code)
             for code in codes)
    _report(3, ok, f"bracket . draw_local = classical oracle on {len(codes)} codes")


# -- criteria 4, 5, 7: the fuzz campaign ------------------------------------

class FuzzReport:
    def __init__(self):
        self.steps = 0
        self.invariance_ok = True
        self.multiplier_ok = True
        self.theorem_ok = True
        self.parity_ok = True
        self.failures = []


@pytest.fixture(scope="module")
def fuzz_report():
    report = FuzzReport()
    for name, n in corpus.EXAMPLES:
        bundle = example(name, n)
        conn = bundle.connection
        d0 = bundle.diagram
        two = len(d0.components) == 2
        knot = len(d0.components) == 1

        def snapshot(d):
            br = lx.bracket(d)
            snap = {
                "bracket": br,
                "wri": lx.wri(d),
                "Wri": lx.Wri(d),
                "normalized_bracket": Laurent.minus_A3_power(-lx.wri(d)) * br,
                "normalized_homotopy_bracket":
                    normalized_homotopy_bracket(d, conn),
            }
            if two:
                snap["lk"] = lx.lk(d)
                snap["LK"] = LK(d, conn)
            if knot:
                snap["co"] = co(d, conn)
            return snap

        base = snapshot(d0)
        state = {"prev": base}

        def check(i, kind, before, after, name=name, state=state, base=base,
                  two=two):
            cur = snapshot(after)
            prev = state["prev"]
            for key in ("lk", "LK", "co", "normalized_bracket",
                        "normalized_homotopy_bracket"):
                if key in base and cur[key] != base[key]:
                    report.invariance_ok = False
                    report.failures.append((name, i, kind.value, key))
            delta = M1_SIGN.get(kind, 0)
            if (cur["wri"] - prev["wri"] != delta
                    or cur["Wri"] - prev["Wri"] != delta):
                report.invariance_ok = False
                report.failures.append((name, i, kind.value, "writhe step"))
            if kind in M1_SIGN:
                want = Laurent.minus_A3_power(M1_SIGN[kind]) * prev["bracket"]
            else:
                want = prev["bracket"]
            if cur["bracket"] != want:
                report.multiplier_ok = False
                report.failures.append((name, i, kind.value, "bracket multiplier"))
            cro, s = len(after.crossings), lx.sc(after)
            full, empty = all_state_counts(after)
            if not (4 * cro >= 4 * (1 - s) + cur["bracket"].span()
                    and full + empty <= cro + 2 * s):
                report.theorem_ok = False
                report.failures.append((name, i, kind.value, "theorem"))
            if two:
                inter = sum(1 for c in after.crossings
                            if len({ci for ci, _e in
                                    _visits(after, c)}) == 2)
                if (cur["lk"] - inter) % 2 != 0:
                    report.parity_ok = False
                    report.failures.append((name, i, kind.value, "parity"))
            state["prev"] = cur

        for seed in range(1, 11):
            mv.fuzz(d0, 100, seed, max_crossings=6, max_transits=12,
                    on_step=check)
            report.steps += 100
            state["prev"] = base
    return report


def _visits(d, c):
    from linkcx.diagram import crossing_visits
    return crossing_visits(d)[c]


def test_criterion_4_move_invariance(fuzz_report):
    ok = fuzz_report.invariance_ok and fuzz_report.multiplier_ok
    _report(4, ok,
            f"{fuzz_report.steps} fuzz steps (10 runs x 100 steps, seeds 1..10 "
            f"per example): lk, LK, co, normalized brackets invariant; "
            f"writhe and bracket multipliers exact"
            + ("" if ok else f"; failures: {fuzz_report.failures[:5]}"))


def test_criterion_5_theorem_checks(fuzz_report):
    trefoil = example("trefoil_left").diagram
    f = lx.bracket(trefoil)
    full, empty = all_state_counts(trefoil)
    equalities = (span(f) == 12
                  and 3 == 1 - 1 + span(f) // 4
                  and full + empty == 5 == 3 + 2)
    examples_ok = all(lx.check_span_theorem(example(n, k).diagram)
                      and lx.check_state_inequality(example(n, k).diagram)
                      for n, k in corpus.EXAMPLES)
    ok = fuzz_report.theorem_ok and equalities and examples_ok
    _report(5, ok, "span and state-count bounds hold on all diagrams and "
                   "fuzz intermediates; trefoil attains both equalities")


# -- criterion 6: mirror dualities ------------------------------------------

def test_criterion_6_mirror_dualities():
    ok = True
    for name, n in corpus.EXAMPLES:
        bundle = example(name, n)
        d = bundle.diagram
        m = mirror(d)
        ok = ok and lx.Wri(m) == -lx.Wri(d)
        ok = ok and lx.bracket(m) == lx.bracket(d).subs_A_inverse()
        if len(d.components) == 2:
            ok = ok and lx.lk(m) == -lx.lk(d)
            e = LK(d, bundle.connection)
            ok = ok and LK(m, bundle.connection) == -e
            rev = reverse_component(reverse_component(d, 0), 1)
            ok = ok and LK(rev, bundle.connection) == e.involution()
        if len(d.components) == 1:
            value = co(d, bundle.connection)
            ok = ok and co(m, bundle.connection) == -value
            rev = reverse_component(d, 0)
            ok = ok and co(rev, bundle.connection) == value.involution()
    _report(6, ok, "mirror negates lk, LK, co, Wri; reversal acts by the "
                   "inversion involution; bracket(mirror)(A) = bracket(A^-1)")


# -- criterion 7: parity and locality ----------------------------------------

def test_criterion_7_parity_and_locality(fuzz_report):
    torus = example("torus_link").diagram
    hopf = example("hopf_local").diagram
    ok = (fuzz_report.parity_ok
          and lx.parity_check(torus)
          and lx.local_obstruction(torus)
          and lx.lk(hopf) == 2 * classical_lk(hopf_code()))
    _report(7, ok, "lk parity holds on all fuzz diagrams; torus link is "
                   "obstructed from locality; local hopf doubles the "
                   "classical linking number")


# -- criterion 8: encoding independence ---------------------------------------

def test_criterion_8_reorient_faces():
    ok = True
    for name, n in corpus.EXAMPLES:
        bundle = example(name, n)
        d = bundle.diagram
        conn = bundle.connection
        for f in d.complex.faces:
            r = lx.reorient_face(d, f)
            rconn = conn.remap_face_reversal(f, len(d.complex.faces[f]))
            ok = ok and lx.wri(r) == lx.wri(d) and lx.Wri(r) == lx.Wri(d)
            ok = ok and lx.bracket(r) == lx.bracket(d)
            ok = ok and (normalized_homotopy_bracket(r, rconn)
                         == normalized_homotopy_bracket(d, conn))
            if len(d.components) == 2:
                ok = ok and lx.lk(r) == lx.lk(d)
                ok = ok and LK(r, rconn) == LK(d, conn)
            if len(d.components) == 1:
                ok = ok and co(r, rconn) == co(d, conn)
    _report(8, ok, "reorienting any face of any example changes no invariant")


# -- criterion 9: byte-exact round trips ---------------------------------------

def test_criterion_9_round_trips():
    ok = True
    for name, n in corpus.EXAMPLES:
        bundle = example(name, n)
        ctext = files.serialize_complex(bundle.complex)
        cx = files.parse_complex(ctext)
        ok = ok and files.serialize_complex(cx) == ctext
        dtext = files.serialize_diagram(bundle.diagram)
        d = files.parse_diagram(dtext, cx)
        ok = ok and files.serialize_diagram(d) == dtext
        if bundle.connection is not None:
            ntext = files.serialize_connection(bundle.connection, bundle.complex)
            conn = files.parse_connection(ntext, cx)
            ok = ok and files.serialize_connection(conn, cx) == ntext
    _report(9, ok, "parse . serialize is the identity, byte-exact, on all "
                   "emitted fixtures")
