"""Run one linkcx benchmark workload and print its metrics.

    python3 bench/run.py --workload statesum --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory and from nowhere else.  With ``--trace 0``
the workload runs as a closed loop for ``--seconds`` and the last line of
output carries the end-to-end metrics; with ``--trace 1`` one pass of the
workload runs alternately untraced and traced until ``--seconds`` is
used up, and the last line carries the per-layer metrics of a traced pass.
Every op's output is checked; failed ops are counted, never fatal.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs 3 times before the measured loop and 3 times after it, so
# that one slow stretch of the host cannot move the median (setup_s).
SETUPS = 3

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def use_source_tree(root: Path = ROOT):
    """Import linkcx from ``root/src`` only; fail if it is not there."""
    src = root / "src"
    if not (src / "linkcx" / "__init__.py").is_file():
        raise SystemExit(f"error: no linkcx sources under {src}")
    sys.path.insert(0, str(src))
    import linkcx
    if Path(linkcx.__file__).resolve().parent != (src / "linkcx").resolve():
        raise SystemExit(f"error: linkcx imported from {linkcx.__file__}, not {src}")


def git_commit(root: Path = ROOT) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "commit": git_commit(), "max_crossings": workloads.CAP,
            "LINKCX_MAX_CROSSINGS": os.environ.get("LINKCX_MAX_CROSSINGS", "unset")}


def build(name: str, seed: int, workdir: Path, times: list, count: int):
    """Build the workload count times, timing each; return the last build."""
    wl = None
    for _ in range(count):
        if wl is not None:
            wl.close()
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[name](seed, workloads.load_reference(), workdir)
        times.append(time.perf_counter() - t0)
    return wl


def percentile_ms(values, q: int) -> float:
    """The q-th percentile in ms (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0] * 1000
    return statistics.quantiles(values, n=100)[q - 1] * 1000


def windowed(rec, t0: float, window: int) -> dict:
    """End-to-end metrics as medians over windows of consecutive ops.

    The host's speed drifts by tens of percent over seconds; the median over
    a run's windows (a block, a fuzz round or a group of cli sessions, each
    with the workload's full mix) is far steadier than one figure over the
    whole run.
    A run too short for three windows is one window.
    """
    count = len(rec.latencies) // window
    if count < 3:
        count, window = 1, len(rec.latencies)
    rates, p50s, p90s = [], [], []
    for w in range(count):
        lo, hi = w * window, (w + 1) * window
        start = rec.ends[lo - 1] if lo else t0
        rates.append(sum(rec.passed[lo:hi]) / (rec.ends[hi - 1] - start))
        p50s.append(percentile_ms(rec.latencies[lo:hi], 50))
        p90s.append(percentile_ms(rec.latencies[lo:hi], 90))
    return {"ops_per_s": statistics.median(rates), "op_p50_ms": statistics.median(p50s),
            "op_p90_ms": statistics.median(p90s), "windows": count, "window_ops": window}


def run_untraced(wl, seconds: float):
    rec = workloads.Recorder()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    i = 0
    while time.perf_counter() < deadline:
        wl.run_unit(wl.schedule[i % len(wl.schedule)], rec, deadline)
        i += 1
    return rec, t0


def run_traced(wl, seconds: float, tr):
    """Alternate untraced and traced passes over wl.trace_units."""
    plain, traced = workloads.Recorder(), workloads.Recorder(tr)
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        for unit in wl.trace_units:
            wl.run_unit(unit, plain)
        tr.install()
        try:
            for unit in wl.trace_units:
                wl.run_unit(unit, traced)
        finally:
            tr.uninstall()
        passes += 1
        if time.perf_counter() >= deadline:
            return plain, traced, passes


def layer_metrics(tr, plain, traced, passes: int) -> dict:
    """Per-layer metrics of one traced pass (totals divided by passes)."""
    calls = lambda name: tr.calls.get(name, 0)
    self_s = lambda name: tr.self_s.get(name, 0.0)
    applied = calls("moves.apply") - tr.counts["moves.apply.rejected"]
    laurent_ops = sum(v for k, v in tr.calls.items() if k.startswith("laurent."))
    per_pass = {
        "bracket.calls": (calls("bracket.bracket"), "count/pass"),
        "diagram.arcs_of.calls": (calls("diagram.arcs_of"), "count/pass"),
        "homotopy.state_curves.calls": (calls("homotopy.state_curves"), "count/pass"),
        "homotopy.holonomy.calls": (calls("homotopy.holonomy"), "count/pass"),
        "groups.unoriented_class.calls": (calls("groups.unoriented_class"), "count/pass"),
        "laurent.ops": (laurent_ops, "count/pass"),
        "moves.candidates.calls": (calls("moves.candidates"), "count/pass"),
        "moves.candidates.sites": (tr.counts["moves.candidates.sites"], "count/pass"),
        "moves.apply.calls": (calls("moves.apply"), "count/pass"),
        "moves.apply.rejected": (tr.counts["moves.apply.rejected"], "count/pass"),
        "diagram.validate.calls": (calls("diagram.validate"), "count/pass"),
        "files.bytes": (tr.counts["files.bytes"], "B/pass"),
        "homotopy.bracket.self_s": (self_s("homotopy.bracket"), "s/pass"),
        "groups.unoriented_class.self_s": (self_s("groups.unoriented_class"), "s/pass"),
        "diagram.validate.self_s": (self_s("diagram.validate"), "s/pass"),
        "files.parse.self_s": (self_s("files.parse"), "s/pass"),
        "files.serialize.self_s": (self_s("files.serialize"), "s/pass"),
        "homotopy.LK.self_s": (self_s("homotopy.LK"), "s/pass"),
        "homotopy.co.self_s": (self_s("homotopy.co"), "s/pass"),
        "other.self_s": (self_s("other"), "s/pass"),
        "trace.op_s": (tr.op_time, "s/pass"),
    }
    for kind in workloads.K:
        per_pass["moves.apply.rejected." + kind.value] = (
            tr.counts["moves.apply.rejected." + kind.value], "count/pass")
    for layer in tracer.LAYERS:
        per_pass[layer + ".self_s"] = (tr.layer_self(layer), "s/pass")
    metrics = {name: {"value": value / passes, "unit": unit}
               for name, (value, unit) in per_pass.items()}
    metrics["moves.useful_ratio"] = {
        "value": applied / calls("moves.apply") if calls("moves.apply") else 0.0,
        "unit": "ratio"}
    metrics["trace.ops_per_s_ratio"] = {
        "value": sum(plain.latencies) / sum(traced.latencies), "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("statesum", "fuzz_check", "cli_sites"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    use_source_tree()
    global workloads, tracer
    import tracer
    import workloads

    # The cap is passed explicitly to every state sum; the CLI would read it
    # from the environment, so a user's setting must not leak in.
    os.environ.pop("LINKCX_MAX_CROSSINGS", None)
    workdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    setup_times = []
    wl = build(args.workload, args.seed, workdir, setup_times, SETUPS)
    try:
        if args.trace:
            tr = tracer.Tracer()
            plain, traced, passes = run_traced(wl, args.seconds, tr)
        else:
            rec, t0 = run_untraced(wl, args.seconds)
            elapsed = time.perf_counter() - t0
            values = windowed(rec, t0, wl.window)
        summary = {}
        if isinstance(wl, workloads.StateSum):
            summary["golden_digests_checked"] = wl.digest_checked
    finally:
        wl.close()
    build(args.workload, args.seed, workdir, setup_times, SETUPS).close()

    if args.trace:
        metrics = layer_metrics(tr, plain, traced, passes)
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tr.write_spans(spans)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        failures = plain.failures + traced.failures
        correct = failed == 0 and tr.unbalanced == 0
        summary.update(passes=passes, ops_per_pass=traced.attempted // passes,
                       unbalanced_ops=tr.unbalanced, spans_file=str(spans))
    else:
        attempted, failed, failures = rec.attempted, rec.failed, rec.failures
        correct = failed == 0
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        summary.update(ops=attempted, elapsed_s=elapsed, fail_ratio=failed / attempted,
                       latency_samples=len(rec.latencies), windows=values["windows"],
                       ops_per_window=values["window_ops"],
                       whole_run_ops_per_s=(attempted - failed) / elapsed)
    for line in failures:
        print(f"failed op: {line}", file=sys.stderr)
    print("env " + json.dumps(environment(args)))
    print("summary " + json.dumps(summary))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
