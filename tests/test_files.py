import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkcx as lx
from linkcx import files
from linkcx import moves as mv
from linkcx.errors import FormatError
from linkcx.examples import example, hopf_code

import corpus


@pytest.mark.parametrize("name,n", corpus.SMALL)
def test_round_trips_are_byte_exact(name, n):
    b = example(name, n)
    ctext = files.serialize_complex(b.complex)
    cx = files.parse_complex(ctext)
    assert files.serialize_complex(cx) == ctext
    dtext = files.serialize_diagram(b.diagram)
    d = files.parse_diagram(dtext, cx)
    assert files.serialize_diagram(d) == dtext
    if b.connection is not None:
        ntext = files.serialize_connection(b.connection, b.complex)
        conn = files.parse_connection(ntext, cx)
        assert files.serialize_connection(conn, cx) == ntext


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(corpus.starts()), st.integers(0, 2 ** 32 - 1))
def test_fuzzed_round_trips_are_byte_exact(start, seed):
    b = start[1]
    d, _trace = mv.fuzz(b.diagram, 25, seed=seed, max_crossings=7, max_transits=12)
    dtext = files.serialize_diagram(d)
    back = files.parse_diagram(dtext, b.complex)
    assert files.serialize_diagram(back) == dtext
    assert lx.bracket(back) == lx.bracket(d)
    assert lx.wri(back) == lx.wri(d)
    assert lx.homotopy_bracket(back, b.connection) == lx.homotopy_bracket(d, b.connection)


def test_parsed_diagram_has_same_invariants():
    b = example("Ln", 2)
    cx = files.parse_complex(files.serialize_complex(b.complex))
    d = files.parse_diagram(files.serialize_diagram(b.diagram), cx)
    assert lx.lk(d) == lx.lk(b.diagram)
    conn = files.parse_connection(
        files.serialize_connection(b.connection, b.complex), cx)
    assert lx.LK(d, conn) == lx.LK(b.diagram, b.connection)


def test_unknown_directive_reports_line():
    with pytest.raises(FormatError) as err:
        files.parse_complex("complex x\nvertex P\nfrobnicate\n")
    assert err.value.line == 3


def test_referential_errors():
    b = example("torus_link")
    cx = b.complex
    good = files.serialize_diagram(b.diagram)
    with pytest.raises(FormatError):
        files.parse_diagram(good.replace("in F", "in G"), cx)
    with pytest.raises(FormatError):
        files.parse_diagram(good.replace("edge v", "edge w"), cx)
    with pytest.raises(FormatError):   # event referencing a missing crossing
        files.parse_diagram(good.replace("x(c1,2)", "x(c9,2)"), cx)
    with pytest.raises(FormatError):   # adjacent dots are not expressible
        files.parse_diagram(good.replace("dots 0", "dots 2"), cx)
    with pytest.raises(FormatError):   # port references must match components
        files.parse_diagram(good.replace("k1.0.0", "k2.0.0", 1), cx)


def test_declared_component_names_win_over_canonical_ones():
    b = example("Ln", 1)
    text = files.serialize_diagram(b.diagram)
    swapped = text.replace("k1", "k#").replace("k2", "k1").replace("k#", "k2")
    assert "component k2 oriented +" in swapped.splitlines()[-2]
    d = files.parse_diagram(swapped, b.complex)
    assert files.serialize_diagram(d) == text


def test_header_mismatch():
    b = example("torus_link")
    other = example("moebius_link").complex
    text = files.serialize_diagram(b.diagram)
    with pytest.raises(FormatError):
        files.parse_diagram(text, other)


def test_reversed_orientation_normalizes():
    b = example("torus_link")
    text = files.serialize_diagram(b.diagram)
    flipped = text.replace("component k1 oriented +", "component k1 oriented -")
    d = files.parse_diagram(flipped, b.complex)
    # the parse normalizes to forward listings, negating the linking number
    assert lx.lk(d) == -lx.lk(b.diagram)


def test_planar_code_round_trip():
    code = hopf_code()
    text = files.serialize_planar_code(code)
    assert files.parse_planar_code(text) == code
    assert files.serialize_planar_code(files.parse_planar_code(text)) == text
    with pytest.raises(FormatError):
        files.parse_planar_code("x a b c\n")


def test_all_example_ids_construct():
    for name, n in corpus.SMALL:
        bundle = example(name, n)
        assert bundle.diagram.components or name == "unknot_local"


# -- the reader's error texts -----------------------------------------------------

TORUS = example("torus_link")
COMPLEX_TEXT = files.serialize_complex(TORUS.complex)
DIAGRAM_TEXT = files.serialize_diagram(TORUS.diagram)
CONNECTION_TEXT = files.serialize_connection(TORUS.connection, TORUS.complex)


def _complex(text):
    return files.parse_complex(text)


def _diagram(text):
    return files.parse_diagram(text, TORUS.complex)


def _connection(text):
    return files.parse_connection(text, TORUS.complex)


def _edit(text, old, new):
    assert text.count(old) >= 1, old
    return text.replace(old, new, 1)


# (parser, malformed text, error text, line): one fault per directive
READER_FAULTS = [
    # complexes
    (_complex, _edit(COMPLEX_TEXT, "complex torus", "complex torus x"),
     "unknown directive 'complex torus x'", 1),
    (_complex, COMPLEX_TEXT + "complex torus\n", "duplicate complex header", 6),
    (_complex, _edit(COMPLEX_TEXT, "complex torus\n", ""), "missing complex header", 1),
    (_complex, COMPLEX_TEXT + "vertex P\n", "duplicate vertex 'P'", 6),
    (_complex, COMPLEX_TEXT + "edge h P P\n", "duplicate edge 'h'", 6),
    (_complex, COMPLEX_TEXT + "face F = h+\n", "duplicate face 'F'", 6),
    (_complex, _edit(COMPLEX_TEXT, "v+", "v*"), "bad boundary side 'v*'", 5),
    (_complex, COMPLEX_TEXT + "frobnicate\n", "unknown directive 'frobnicate'", 6),
    # diagrams
    (_diagram, _edit(DIAGRAM_TEXT, "diagram on", "diagram of"), "bad diagram header", 1),
    (_diagram, DIAGRAM_TEXT + "diagram on torus\n", "duplicate diagram header", 7),
    (_diagram, _edit(DIAGRAM_TEXT, "on torus", "on disc"),
     "diagram is on 'disc', not 'torus'", 1),
    (_diagram, _edit(DIAGRAM_TEXT, "diagram on torus\n", ""), "missing diagram header", 1),
    (_diagram, _edit(DIAGRAM_TEXT, "ports k1.0.0 k2.0.0 k1.1.1 k2.1.1 ", ""),
     "bad crossing line", 2),
    (_diagram, _edit(DIAGRAM_TEXT, "transit t1", "crossing c1 in F ports a b c d dots 0\n"
                                                 "transit t1"),
     "duplicate crossing 'c1'", 3),
    (_diagram, _edit(DIAGRAM_TEXT, "in F", "in G"), "unknown face 'G'", 2),
    (_diagram, _edit(DIAGRAM_TEXT, "dots 0", "dots 2"),
     "dots must mark one opposite sector pair", 2),
    (_diagram, _edit(DIAGRAM_TEXT, "sides 0 1", "sides 0"), "bad transit line", 3),
    (_diagram, _edit(DIAGRAM_TEXT, "transit t2", "transit t1"), "duplicate transit 't1'", 4),
    (_diagram, _edit(DIAGRAM_TEXT, "edge v", "edge w"), "unknown edge 'w'", 3),
    (_diagram, _edit(DIAGRAM_TEXT, "pos 1/2", "pos 1/0"), "bad position '1/0'", 3),
    (_diagram, _edit(DIAGRAM_TEXT, "pos 1/2", "pos half"), "bad position 'half'", 3),
    (_diagram, _edit(DIAGRAM_TEXT, "sides 0 1", "sides 0 2"),
     "bad incidence number on edge 'v'", 3),
    (_diagram, _edit(DIAGRAM_TEXT, "k1 oriented + :", "k1 oriented +"), "bad component line", 5),
    (_diagram, _edit(DIAGRAM_TEXT, "k1 oriented +", "k1 sideways +"), "bad component line", 5),
    (_diagram, _edit(DIAGRAM_TEXT, "component k2", "component k1"),
     "duplicate component 'k1'", 6),
    (_diagram, _edit(DIAGRAM_TEXT, "t(t1,0) F", "t(t1,0)"),
     "event list must alternate events and faces", 5),
    (_diagram, _edit(DIAGRAM_TEXT, "x(c1,2)", "x(c1,two)"), "bad event 'x(c1,two)'", 5),
    (_diagram, _edit(DIAGRAM_TEXT, "x(c1,2)", "y(c1,2)"), "bad event 'y(c1,2)'", 5),
    (_diagram, _edit(DIAGRAM_TEXT, "ports k1.0.0", "ports k9.0.0"),
     "port reference 'k9.0.0' names no component", None),
    (_diagram, _edit(DIAGRAM_TEXT, "ports k1.0.0", "ports k2.0.0"),
     "crossing 'c1' port 0: reference 'k2.0.0' does not match the component data", None),
    (_diagram, _edit(DIAGRAM_TEXT, "k2.1.1 dots", "k2.1.0 dots"),
     "crossing 'c1' port 3: reference 'k2.1.0' does not match the component data", None),
    (_diagram, DIAGRAM_TEXT + "frobnicate\n", "unknown directive 'frobnicate'", 7),
    # connections
    (_connection, _edit(CONNECTION_TEXT, "connection on", "connection of"),
     "bad connection header", 1),
    (_connection, CONNECTION_TEXT + "connection on torus\n", "duplicate connection header", 7),
    (_connection, _edit(CONNECTION_TEXT, "on torus", "on disc"),
     "connection is on 'disc', not 'torus'", 1),
    (_connection, _edit(CONNECTION_TEXT, "connection on torus\n", ""),
     "missing connection header or group", 1),
    (_connection, CONNECTION_TEXT + "group abelian 2\n", "duplicate group line", 7),
    (_connection, _edit(CONNECTION_TEXT, "abelian 2", "abelian two"), "bad group rank", 2),
    (_connection, _edit(CONNECTION_TEXT, "abelian 2", "free x"), "bad group rank", 2),
    (_connection, _edit(CONNECTION_TEXT, "abelian 2", "free 2 a"),
     "generator names do not match the rank", 2),
    (_connection, _edit(CONNECTION_TEXT, "abelian 2", "free 2 a a"),
     "generator names repeat", 2),
    (_connection, _edit(CONNECTION_TEXT, "abelian 2", "cyclic 2"), "bad group line", 2),
    (_connection, _edit(CONNECTION_TEXT, "group abelian 2\n", ""),
     "label before group line", 2),
    (_connection, _edit(CONNECTION_TEXT, "side 0 = 1", "side 0 1"), "bad label line", 3),
    (_connection, _edit(CONNECTION_TEXT, "edge h side 0", "edge w side 0"),
     "unknown edge 'w'", 3),
    (_connection, _edit(CONNECTION_TEXT, "edge h side 1", "edge h side 2"),
     "bad incidence number on edge 'h'", 4),
    (_connection, _edit(CONNECTION_TEXT, "edge h side 1", "edge h side 0"),
     "duplicate label", 4),
    (_connection, _edit(CONNECTION_TEXT, "= g2", "= g3"), "unknown generator 'g3'", 4),
    (_connection, CONNECTION_TEXT + "frobnicate\n", "unknown directive 'frobnicate'", 7),
]


@pytest.mark.parametrize("parse,text,message,line", READER_FAULTS)
def test_reader_faults_name_their_text_and_line(parse, text, message, line):
    with pytest.raises(FormatError) as err:
        parse(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


# integer fields are ASCII decimal digits: int() would read a sign, read
# other scripts' digits, and index incidences from the end of the list
INTEGER_FAULTS = [
    (_diagram, _edit(DIAGRAM_TEXT, "sides 0 1", f"sides {bad} 1"),
     "bad incidence number on edge 'v'", 3)
    for bad in ("-2", "-1", "+1", "١")
] + [
    (_connection, f"connection on torus\ngroup abelian 2\nlabel edge h side {bad} = g2\n",
     "bad incidence number on edge 'h'", 3)
    for bad in ("-1", "+1", "١")
] + [
    (_connection, _edit(CONNECTION_TEXT, "abelian 2", group), "bad group rank", 2)
    for group in ("abelian ١", "abelian +2", "abelian -2", "free +1 a", "free ١ a")
] + [
    (files.parse_planar_code, f"circles {bad}\n", "bad circle count", 1)
    for bad in ("-3", "+3", "١")
]


@pytest.mark.parametrize("parse,text,message,line", INTEGER_FAULTS)
def test_integer_fields_take_ascii_digits_only(parse, text, message, line):
    with pytest.raises(FormatError) as err:
        parse(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_integer_fields_accept_leading_zeros():
    assert _diagram(_edit(DIAGRAM_TEXT, "sides 0 1", "sides 00 01")) == TORUS.diagram
    assert files.parse_planar_code("circles 007\n").circles == 7
