import json

import pytest

from linkcx import cli, files, moves
from linkcx.cli import main
from linkcx.diagram import draw_local
from linkcx.examples import trefoil_code

import corpus


def _emit(tmp_path, name, n=None):
    args = ["example", name, "--emit", str(tmp_path)]
    if n is not None:
        args += ["--n", str(n)]
    assert main(args) == 0
    stem = name if n is None else f"{name}{n}"
    return (tmp_path / f"{stem}.complex", tmp_path / f"{stem}.diagram",
            tmp_path / f"{stem}.connection")


def test_example_then_lk(tmp_path, capsys):
    cx, d, _ = _emit(tmp_path, "Ln", 3)
    capsys.readouterr()
    assert main(["inv", str(cx), str(d), "--lk"]) == 0
    assert "lk = 6" in capsys.readouterr().out


def test_bracket_output(tmp_path, capsys):
    cx, d, _ = _emit(tmp_path, "hopf_local")
    capsys.readouterr()
    assert main(["bracket", str(cx), str(d)]) == 0
    assert capsys.readouterr().out.strip() == "-1*A^4 + -1*A^-4"


def test_validate(tmp_path, capsys):
    cx, d, _ = _emit(tmp_path, "torus_link")
    capsys.readouterr()
    assert main(["validate", str(cx), str(d)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_homotopy_bracket_needs_connection(tmp_path, capsys):
    cx, d, conn = _emit(tmp_path, "annulus_link")
    assert main(["bracket", str(cx), str(d), "--homotopy"]) == 2
    assert main(["bracket", str(cx), str(d), "--homotopy",
                 "--conn", str(conn)]) == 0


def test_span_check(tmp_path, capsys):
    cx, d, _ = _emit(tmp_path, "trefoil_left")
    capsys.readouterr()
    assert main(["span-check", str(cx), str(d)]) == 0
    out = capsys.readouterr().out
    assert "span = 12" in out
    assert "ok" in out and "VIOLATED" not in out


def test_inv_all(tmp_path, capsys):
    cx, d, conn = _emit(tmp_path, "Kn", 0)
    capsys.readouterr()
    assert main(["inv", str(cx), str(d), "--conn", str(conn)]) == 0
    out = capsys.readouterr().out
    assert "wri = 1" in out
    assert "co = " in out


def test_inv_on_an_undirected_diagram_prints_wri_only(tmp_path, capsys):
    cx, d, _ = _emit(tmp_path, "hopf_local")
    d.write_text(d.read_text().replace(" oriented +", ""))
    capsys.readouterr()
    assert main(["inv", str(cx), str(d)]) == 0
    out = capsys.readouterr().out
    assert out == "wri = 0\n"
    assert main(["inv", str(cx), str(d), "--lk"]) == 1
    assert capsys.readouterr().err == "error: diagram is not fully directed\n"


def test_move_apply_and_replay(tmp_path, capsys):
    cx, d, _ = _emit(tmp_path, "unknot_local")
    capsys.readouterr()
    assert main(["move", "apply", str(cx), str(d), "M1p", "--site", "0"]) == 0
    out = capsys.readouterr().out
    assert "crossing" in out
    (tmp_path / "kinked.diagram").write_text(out)
    trace = tmp_path / "trace.txt"
    assert main(["move", "fuzz", str(cx), str(d), "--steps", "5", "--seed", "2",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["move", "replay", str(cx), str(d), str(trace)]) == 0


def test_fuzz_check_all(tmp_path, capsys):
    cx, d, conn = _emit(tmp_path, "moebius_link")
    assert main(["fuzz", str(cx), str(d), "--steps", "25", "--seed", "7",
                 "--check", "all", "--conn", str(conn)]) == 0


def test_fuzz_check_all_on_a_sphere(tmp_path, capsys):
    # M7 empty runs round the sphere's one vertex were admitted where they fail
    sphere = corpus.glue("sphere", {"F": "e", "G": "E"})
    cx, d = tmp_path / "sphere.complex", tmp_path / "trefoil.diagram"
    cx.write_text(files.serialize_complex(sphere))
    d.write_text(files.serialize_diagram(draw_local(sphere, "F", trefoil_code("left"))))
    for seed in range(4):
        assert main(["move", "fuzz", str(cx), str(d), "--steps", "80", "--seed", str(seed),
                     "--check", "all"]) == 0, capsys.readouterr().err


def test_fuzz_check_all_catches_homotopy_bracket_drift(tmp_path, capsys, monkeypatch):
    # the homotopy bracket reads twice its value after the start: a planted drift
    cx, d, conn = _emit(tmp_path, "moebius_link")
    real = cli.homotopy.normalized_homotopy_bracket
    calls = []

    def drifting(d, conn):
        calls.append(d)
        h = real(d, conn)
        return h if len(calls) == 1 else h.scale(2)

    monkeypatch.setattr(cli.homotopy, "normalized_homotopy_bracket", drifting)
    capsys.readouterr()
    assert main(["move", "fuzz", str(cx), str(d), "--steps", "25", "--seed", "7",
                 "--check", "all", "--conn", str(conn)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: hb changed under M5p\n"
    assert captured.out == "" and len(calls) == 2


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2


def test_validation_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.complex"
    bad.write_text("complex x\nvertex P\nedge e P Q\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_crossing_cap_env(tmp_path, capsys, monkeypatch):
    cx, d, _ = _emit(tmp_path, "trefoil_left")
    capsys.readouterr()
    monkeypatch.setenv("LINKCX_MAX_CROSSINGS", "2")
    assert main(["bracket", str(cx), str(d)]) == 1
    assert "cap" in capsys.readouterr().err


def test_undeclared_transit_is_a_validation_error(tmp_path, capsys):
    cx, d, _ = _emit(tmp_path, "Ln", 2)
    bad = tmp_path / "bad.diagram"
    bad.write_text(d.read_text().replace("t(tb1,0)", "t(tZZ,0)"))
    capsys.readouterr()
    assert main(["validate", str(cx), str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_crossing_cap_env_is_a_usage_error(tmp_path, capsys, monkeypatch):
    cx, d, _ = _emit(tmp_path, "trefoil_left")
    capsys.readouterr()
    monkeypatch.setenv("LINKCX_MAX_CROSSINGS", "abc")
    assert main(["bracket", str(cx), str(d)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_directory_input_is_a_usage_error(tmp_path, capsys):
    cx, _d, _ = _emit(tmp_path, "trefoil_left")
    capsys.readouterr()
    assert main(["validate", str(cx), str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_negative_fuzz_steps_is_a_usage_error(tmp_path, capsys):
    cx, d, _ = _emit(tmp_path, "unknot_local")
    capsys.readouterr()
    assert main(["move", "fuzz", str(cx), str(d), "--steps", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "applied" not in captured.out


@pytest.mark.parametrize("line", ["M1p {bad", "M1p", "M1p [1,2]"])
def test_malformed_trace_line_is_an_error(tmp_path, capsys, line):
    cx, d, _ = _emit(tmp_path, "unknot_local")
    trace = tmp_path / "trace.txt"
    trace.write_text(line + "\n")
    capsys.readouterr()
    assert main(["move", "replay", str(cx), str(d), str(trace)]) == 1
    assert capsys.readouterr().err.startswith("error: trace line 1:")


def test_ill_typed_trace_site_is_an_error(tmp_path, capsys):
    cx, d, _ = _emit(tmp_path, "unknot_local")
    trace = tmp_path / "trace.txt"
    trace.write_text('M1p {"arc": "x", "bend": 3, "comp": 0}\n')
    capsys.readouterr()
    assert main(["move", "replay", str(cx), str(d), str(trace)]) == 1
    assert capsys.readouterr().err.startswith("error: trace step 1:")


def test_a_negative_trace_index_is_a_stale_site(tmp_path, capsys):
    # apply used to read a negative index from the end of the component
    cx, d, _ = _emit(tmp_path, "Ln", 1)
    trace = tmp_path / "trace.txt"
    trace.write_text('M1p {"arc": 0, "bend": 1, "comp": -1}\n')
    capsys.readouterr()
    assert main(["move", "replay", str(cx), str(d), str(trace)]) == 1
    assert capsys.readouterr().err == ("error: stale site for M1p: 'comp' is negative "
                                       "(trace step 1)\n")


@pytest.mark.parametrize("line", [
    'M1p {"arc": true, "bend": 1, "comp": 0}',
    'M2 {"anti": "yes", "arc_a": 0, "arc_b": 0, "comp_a": 0, "comp_b": 0, "over": "a"}'])
def test_unlisted_trace_site_is_an_error(tmp_path, capsys, line):
    # apply accepts each site, but candidate_sites never lists it
    cx, d, _ = _emit(tmp_path, "Ln", 1)
    trace = tmp_path / "trace.txt"
    trace.write_text(line + "\n")
    capsys.readouterr()
    assert main(["move", "replay", str(cx), str(d), str(trace)]) == 1
    assert capsys.readouterr().err.startswith("error: trace step 1:")


def test_stale_m6_site_in_a_trace_is_an_error(tmp_path, capsys):
    cx, d, _ = _emit(tmp_path, "Ln", 1)
    trace = tmp_path / "trace.txt"
    assert main(["move", "fuzz", str(cx), str(d), "--steps", "10", "--seed", "4",
                 "--trace", str(trace)]) == 0
    with trace.open("a") as out:
        out.write('M6 {"edge": "no-such-edge", "t1": "t8", "t2": "t4"}\n')
    capsys.readouterr()
    assert main(["move", "replay", str(cx), str(d), str(trace)]) == 1
    assert capsys.readouterr().err.startswith("error: stale site for M6:")


def test_a_stale_site_names_its_trace_step(tmp_path, capsys):
    cx, d, _ = _emit(tmp_path, "Ln", 1)
    trace = tmp_path / "trace.txt"
    assert main(["move", "fuzz", str(cx), str(d), "--steps", "10", "--seed", "4",
                 "--trace", str(trace)]) == 0
    assert len(trace.read_text().splitlines()) == 10
    with trace.open("a") as out:
        out.write('M6 {"edge": "no-such-edge", "t1": "t8", "t2": "t4"}\n')
    capsys.readouterr()
    assert main(["move", "replay", str(cx), str(d), str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stale site for M6:")
    assert err.rstrip().endswith("(trace step 11)")


def test_stale_m7_site_in_a_trace_is_an_error(tmp_path, capsys):
    cx, d, _ = _emit(tmp_path, "torus_link")
    cycle = [[["h", 0], ["F", 2]], [["v", 1], ["F", 1]], [["h", 1], ["F", 0]],
             [["v", 0], ["F", 3]]]
    site = {"arc": 0, "comp": 0, "cycle": cycle, "entry": 1, "forward": True,
            "length": 0}
    trace = tmp_path / "trace.txt"
    for vertex, code in (("P", 0), ("no-such-vertex", 1)):
        trace.write_text("M7 " + json.dumps(dict(site, vertex=vertex)) + "\n")
        capsys.readouterr()
        assert main(["move", "replay", str(cx), str(d), str(trace)]) == code
        if code:
            assert capsys.readouterr().err.startswith("error: stale site for M7:")


def test_repeated_calls_match_fresh_calls(tmp_path, capsys):
    cx, d, conn = _emit(tmp_path, "Kn", 1)
    calls = [["no-such-command"],
             ["validate", str(cx), str(d)],
             ["inv", str(cx), str(d), "--conn", str(conn)],
             ["move"],
             ["move", "apply", str(cx), str(d), "M1p", "--site", "1"],
             ["inv", str(cx), str(d), "--wri", "--co", "--conn", str(conn)],
             ["move", "apply", str(cx), str(d), "M9", "--site", "0"],
             ["validate", str(cx), str(d)]]

    def run(argv, fresh):
        if fresh:
            cli._build_parser.cache_clear()
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    capsys.readouterr()
    fresh = [run(argv, True) for argv in calls]
    repeated = [run(argv, False) for argv in calls + calls]
    assert repeated == fresh + fresh
    assert [code for code, _out, _err in fresh] == [2, 0, 0, 2, 0, 0, 2, 0]


@pytest.mark.parametrize("which", ["complex", "diagram", "conn", "trace"])
def test_non_utf8_input_is_a_format_error(tmp_path, capsys, which):
    cx, d, conn = _emit(tmp_path, "annulus_link")
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00garbage\x80\n")
    argv = {"complex": ["validate", binary, d],
            "diagram": ["validate", cx, binary],
            "conn": ["inv", cx, d, "--conn", binary],
            "trace": ["move", "replay", cx, d, binary]}[which]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {binary}: not UTF-8 text")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["inv", "bracket", "move apply"])
def test_a_one_character_event_is_a_format_error(tmp_path, capsys, command):
    cx, d, _ = _emit(tmp_path, "Ln", 2)
    text = d.read_text().replace(" x(c1,2) ", " ) ", 1)
    assert " ) " in text
    d.write_text(text)
    argv = {"inv": ["inv", cx, d, "--lk"],
            "bracket": ["bracket", cx, d],
            "move apply": ["move", "apply", cx, d, "M1p", "--site", "0"]}[command]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad event ')'" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("listing", [":", "oriented + :"])
def test_a_component_without_events_or_face_is_a_format_error(tmp_path, capsys, listing):
    cx, d, _ = _emit(tmp_path, "Ln", 1)
    lines = d.read_text().splitlines()
    n = next(i for i, line in enumerate(lines) if line.startswith("component k2"))
    lines[n] = f"component k2 {listing}"
    d.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["validate", str(cx), str(d)]) == 1
    assert capsys.readouterr().err == f"error: line {n + 1}: bad component line\n"


@pytest.mark.parametrize("group, labels", [
    ("group abelian -2", {"g1": "1", "g2": "1"}),
    ("group free 2 a a", {"g1": "a", "g2": "a"})], ids=["negative rank", "repeated name"])
@pytest.mark.parametrize("command", ["inv", "bracket --homotopy"])
def test_a_bad_group_line_is_a_format_error(tmp_path, capsys, command, group, labels):
    # both were read as groups: rank 0, and a name that meant generator 2
    cx, d, conn = _emit(tmp_path, "torus_link")
    text = conn.read_text().replace("group abelian 2", group)
    for old, new in labels.items():
        text = text.replace(f"= {old}\n", f"= {new}\n")
    conn.write_text(text)
    argv = {"inv": ["inv", cx, d],
            "bracket --homotopy": ["bracket", cx, d, "--homotopy"]}[command]
    capsys.readouterr()
    assert main([str(a) for a in argv + ["--conn", conn]]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 2: ") and captured.out == ""
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("name, n, label, line", [
    ("torus_link", None, "g2", 4), ("Ln", 1, "u", 6)], ids=["empty", "not an integer"])
def test_a_bad_exponent_is_a_format_error(tmp_path, capsys, name, n, label, line):
    # int()'s own message used to pass through: "invalid literal for int() ..."
    bad = {"g2": "g2^", "u": "u^1.5"}[label]
    cx, d, conn = _emit(tmp_path, name, n)
    text = conn.read_text()
    assert text.splitlines()[line - 1].endswith(f"= {label}")
    conn.write_text(text.replace(f"= {label}\n", f"= {bad}\n", 1))
    capsys.readouterr()
    assert main(["inv", str(cx), str(d), "--conn", str(conn)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: line {line}: bad exponent in {bad!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("name, n, kind", [("Ln", 2, "M2"), ("torus_link", None, "M7"),
                                           ("annulus_link", None, "M4")])
def test_move_apply_prints_the_listed_site(tmp_path, capsys, name, n, kind):
    cx_path, d_path, _ = _emit(tmp_path, name, n)
    d = files.parse_diagram(d_path.read_text(), files.parse_complex(cx_path.read_text()))
    sites = moves.find_sites(d, kind)
    argv = ["move", "apply", str(cx_path), str(d_path), kind, "--site"]
    capsys.readouterr()
    for i, site in enumerate(sites):
        assert main(argv + [str(i)]) == 0
        assert capsys.readouterr().out == files.serialize_diagram(moves.apply(d, kind, site))
    for i in (len(sites), -1):
        assert main(argv + [str(i)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {kind} has {len(sites)} sites; --site {i} is out of range\n")


def test_move_apply_builds_no_m2_site_past_its_own(tmp_path, capsys, monkeypatch):
    cx, d, _ = _emit(tmp_path, "Ln", 2)
    made = []
    make = moves.MoveSite.make.__func__

    def counting_make(cls, kind, **data):
        made.append(kind)
        return make(cls, kind, **data)

    monkeypatch.setattr(moves.MoveSite, "make", classmethod(counting_make))
    assert main(["move", "apply", str(cx), str(d), "M2", "--site", "0"]) == 0
    assert made == [moves.MoveKind.M2]


@pytest.mark.parametrize("port", ["²", "١"], ids=["superscript two", "arabic-indic one"])
def test_a_non_ascii_port_digit_is_a_format_error(tmp_path, capsys, port):
    cx, d, _ = _emit(tmp_path, "Ln", 2)
    text = d.read_text(encoding="utf-8")
    assert " x(c1,2) " in text
    d.write_text(text.replace(" x(c1,2) ", f" x(c1,{port}) ", 1), encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(cx), str(d)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"bad event 'x(c1,{port})'" in err
    assert err.count("\n") == 1


def test_a_two_sign_orientation_is_a_bad_component_line(tmp_path, capsys):
    cx, d, _ = _emit(tmp_path, "Ln", 1)
    lines = d.read_text().splitlines()
    n = next(i for i, line in enumerate(lines) if line.startswith("component k1"))
    assert lines[n].startswith("component k1 oriented + : ")
    lines[n] = lines[n].replace(" oriented + ", " oriented +- ", 1)
    d.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["validate", str(cx), str(d)]) == 1
    assert capsys.readouterr().err == f"error: line {n + 1}: bad component line\n"


def test_a_deeply_nested_trace_site_is_an_error(tmp_path, capsys):
    cx, d, _ = _emit(tmp_path, "unknot_local")
    trace = tmp_path / "trace.txt"
    depth = 200_000
    trace.write_text('M1p {"arc": ' + "[" * depth + "]" * depth + "}\n")
    capsys.readouterr()
    assert main(["move", "replay", str(cx), str(d), str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trace line 1: bad site ")
    assert err.count("\n") == 1
    # the line quotes a prefix of the payload, not the whole 400,009 characters
    assert len(err) < 200 and "'..." in err
