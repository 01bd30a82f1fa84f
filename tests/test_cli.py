import pytest

from linkcx.cli import main


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
