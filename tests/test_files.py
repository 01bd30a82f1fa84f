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
