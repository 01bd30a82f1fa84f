"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

A short run of every workload must pass every check and print every metric
named in BENCHMARK.json; a planted wrong reference, a wrong exit code and an
exception must each count as a failed op instead of crashing the run.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_source_tree()
import tracer  # noqa: E402
import workloads as W  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_passes_and_prints_every_metric(workload, trace, key):
    proc = _run(run.ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_without_sources_fails_and_prints_no_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "fuzz_check", 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_planted_wrong_digest_fails_statesum_op():
    wl = W.StateSum(W.DEFAULT_SEED, W.load_reference())
    item = next(i for i in wl.schedule if i.key.startswith("Ln:2:"))
    rec = W.Recorder()
    wl.run_unit(item, rec)
    assert (rec.attempted, rec.failed) == (1, 0)
    wl.golden = dict(wl.golden, **{item.key: "0" * 16})
    wl.run_unit(item, rec)
    assert (rec.attempted, rec.failed) == (2, 1)
    assert "golden digest" in rec.failures[0]


def test_exception_in_op_is_a_failed_op(monkeypatch):
    wl = W.StateSum(1, W.load_reference())

    def broken(*_args, **_kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(W.B, "bracket", broken)
    rec = W.Recorder()
    wl.run_unit(wl.schedule[1], rec)
    assert (rec.attempted, rec.failed) == (1, 1)
    assert "planted" in rec.failures[0]


def test_planted_wrong_base_invariant_fails_fuzz_steps():
    wl = W.FuzzCheck(1, W.load_reference())
    trefoil, hopf = wl.examples[0], wl.examples[7]
    rec = W.Recorder()
    wl.run_unit((hopf, 5), rec)
    assert rec.attempted == W.FUZZ_STEPS and rec.failed == 0
    trefoil.base["normalized_bracket"] = trefoil.base["normalized_bracket"] * 2
    rec = W.Recorder()
    wl.run_unit((trefoil, 5), rec)
    assert rec.attempted == W.FUZZ_STEPS and rec.failed == W.FUZZ_STEPS


def test_planted_wrong_closed_form_and_exit_code_fail_cli_sessions(tmp_path):
    wl = W.CliSites(1, W.load_reference(), tmp_path)
    try:
        session = next(s for s in wl.schedule
                       if s.fixture.stem == "Ln2" and s.kind is not W.K.M2)
        rec = W.Recorder()
        wl.run_unit(session, rec)
        assert (rec.attempted, rec.failed) == (1, 0), rec.failures
        out_of_range = W.Session(session.fixture, session.kind, 10 ** 6)
        wl.run_unit(out_of_range, rec)
        assert (rec.attempted, rec.failed) == (2, 1)
        assert "exited 1" in rec.failures[0]
        session.fixture.expected["lk"] = "5"
        wl.run_unit(session, rec)
        assert (rec.attempted, rec.failed) == (3, 2)
        assert "lk is '4' before" in rec.failures[1]
    finally:
        wl.close()


def test_uninstall_restores_every_binding():
    moves = W.M
    originals = (moves.apply, moves.candidate_sites, moves.validate_diagram,
                 W.H.state_curves, W.B.arcs_of, W.L.Laurent.__dict__["A"])
    tr = tracer.Tracer()
    tr.install()
    assert moves.apply is not originals[0] and W.B.arcs_of is not originals[4]
    tr.uninstall()
    assert (moves.apply, moves.candidate_sites, moves.validate_diagram,
            W.H.state_curves, W.B.arcs_of, W.L.Laurent.__dict__["A"]) == originals
