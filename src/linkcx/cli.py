"""Command-line interface.

Subcommands: validate, inv, bracket, move (apply | fuzz), span-check,
example, fuzz (alias of `move fuzz`).  Exit codes: 0 success, 1 a
validation or invariant check failed, 2 usage error.  All failures print
machine-parsable `error:` lines.  The environment variable
LINKCX_MAX_CROSSINGS overrides the state-sum cap; a value that is not a
non-negative integer is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import files, homotopy, invariants, moves
from .bracket import (all_state_counts, bracket, default_crossing_cap,
                      normalized_bracket, span, span_bound_holds,
                      state_bound_holds)
from .diagram import sc
from .errors import (ComplexError, CrossingCapError, DiagramError,
                     FormatError, MoveError)
from .examples import EXAMPLE_IDS, example

__all__ = ["main"]


def _read(path) -> str:
    """A UTF-8 input file's text; undecodable bytes are a FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start}: "
                          f"{exc.reason})") from None


def _load(cx_path, diag_path=None, conn_path=None):
    cx = files.parse_complex(_read(cx_path))
    d = conn = None
    if diag_path is not None:
        d = files.parse_diagram(_read(diag_path), cx)
    if conn_path is not None:
        conn = files.parse_connection(_read(conn_path), cx)
    return cx, d, conn


def _cmd_validate(args) -> int:
    cx, d, _ = _load(args.complex, args.diagram)
    print(f"complex {cx.name}: ok ({len(cx.vertices)} vertices, "
          f"{len(cx.edges)} edges, {len(cx.faces)} faces)")
    if d is not None:
        print(f"diagram: ok ({len(d.crossings)} crossings, "
              f"{len(d.transits)} transits, {len(d.components)} components)")
    return 0


def _cmd_inv(args) -> int:
    _cx, d, conn = _load(args.complex, args.diagram, args.conn)
    wanted = [name for name in ("lk", "wri", "Wri", "lkclass", "co")
              if getattr(args, name if name != "Wri" else "Wri_")]
    if not wanted:
        wanted = ["lk", "wri", "Wri", "lkclass", "co"]
        wanted = [w for w in wanted if _applicable(w, d, conn)]
    for name in wanted:
        print(f"{name} = {_compute_inv(name, d, conn)}")
    return 0


def _applicable(name, d, conn) -> bool:
    """Whether the invariant is defined on d: all but wri need every component directed."""
    if name == "wri":
        return True
    if not d.oriented():
        return False
    if name == "lk":
        return len(d.components) == 2
    if name == "lkclass":
        return len(d.components) == 2 and conn is not None
    if name == "co":
        return len(d.components) == 1 and conn is not None
    return True


def _compute_inv(name, d, conn):
    if name == "lk":
        return invariants.lk(d)
    if name == "wri":
        return invariants.wri(d)
    if name == "Wri":
        return invariants.Wri(d)
    if name == "lkclass":
        if conn is None:
            raise DiagramError("linking class needs --conn")
        return homotopy.LK(d, conn).to_text(conn.group)
    if name == "co":
        if conn is None:
            raise DiagramError("colinking class needs --conn")
        return homotopy.co(d, conn).to_text(conn.group)
    raise DiagramError(f"unknown invariant {name!r}")


def _cmd_bracket(args) -> int:
    _cx, d, conn = _load(args.complex, args.diagram, args.conn)
    if args.homotopy:
        if conn is None:
            print("error: --homotopy needs --conn", file=sys.stderr)
            return 2
        value = homotopy.normalized_homotopy_bracket(d, conn) if args.normalized \
            else homotopy.homotopy_bracket(d, conn)
        print(value.to_text(conn.group))
    elif args.normalized:
        print(normalized_bracket(d))
    else:
        print(bracket(d))
    return 0


def _cmd_span_check(args) -> int:
    _cx, d, _ = _load(args.complex, args.diagram)
    f = bracket(d)
    cro = len(d.crossings)
    s = sc(d)
    full, empty = all_state_counts(d)
    ok1 = span_bound_holds(cro, s, f)
    ok2 = state_bound_holds(cro, s, full, empty)
    print(f"span = {span(f)}")
    print(f"crossing bound: {cro} >= 1 - {s} + {span(f)}/4: "
          f"{'ok' if ok1 else 'VIOLATED'}")
    print(f"state count bound: {full} + {empty} <= {cro} + 2*{s}: "
          f"{'ok' if ok2 else 'VIOLATED'}")
    return 0 if ok1 and ok2 else 1


def _cmd_example(args) -> int:
    bundle = example(args.id, args.n)
    out = Path(args.emit)
    out.mkdir(parents=True, exist_ok=True)
    stem = args.id if args.n is None else f"{args.id}{args.n}"
    (out / f"{stem}.complex").write_text(files.serialize_complex(bundle.complex))
    (out / f"{stem}.diagram").write_text(files.serialize_diagram(bundle.diagram))
    written = [f"{stem}.complex", f"{stem}.diagram"]
    if bundle.connection is not None:
        (out / f"{stem}.connection").write_text(
            files.serialize_connection(bundle.connection, bundle.complex))
        written.append(f"{stem}.connection")
    for name in written:
        print(out / name)
    return 0


def _move_checker(d0, conn):
    """Recompute the move-invariant quantities and fail fast on drift."""
    state = {}

    def snapshot(d):
        snap = {"nb": normalized_bracket(d)}
        if conn is not None:
            snap["hb"] = homotopy.normalized_homotopy_bracket(d, conn)
        if _applicable("lk", d, conn):
            snap["lk"] = invariants.lk(d)
        if _applicable("lkclass", d, conn):
            snap["LK"] = homotopy.LK(d, conn)
        if _applicable("co", d, conn):
            snap["co"] = homotopy.co(d, conn)
        return snap

    state.update(snapshot(d0))

    def check(_i, kind, _before, after):
        now = snapshot(after)
        for key, val in now.items():
            if val != state[key]:
                raise MoveError(f"{key} changed under {kind.value}")

    return check


def _cmd_move(args) -> int:
    _cx, d, conn = _load(args.complex, args.diagram, args.conn)
    if args.action == "apply":
        kind = moves.MoveKind(args.kind)
        # stop at the chosen site; count them all only to report a bad index
        count = 0
        for count, site in enumerate(moves.iter_sites(d, kind), 1):
            if count == args.site + 1:
                break
        else:
            print(f"error: {kind.value} has {count} sites; "
                  f"--site {args.site} is out of range", file=sys.stderr)
            return 1
        d2 = moves.apply(d, kind, site)
        sys.stdout.write(files.serialize_diagram(d2))
        return 0
    if args.action == "replay":
        trace = moves.parse_trace(_read(args.trace_file))
        d2 = moves.replay(d, trace)
        sys.stdout.write(files.serialize_diagram(d2))
        return 0
    if args.steps < 0:
        print(f"error: --steps must be non-negative, not {args.steps}", file=sys.stderr)
        return 2
    on_step = _move_checker(d, conn) if args.check == "all" else None
    d2, trace = moves.fuzz(d, args.steps, args.seed, on_step=on_step)
    if args.trace:
        Path(args.trace).write_text(moves.serialize_trace(trace))
    print(f"applied {len(trace)} moves; final diagram has "
          f"{len(d2.crossings)} crossings and {len(d2.transits)} transits")
    if args.emit:
        Path(args.emit).write_text(files.serialize_diagram(d2))
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    top = argparse.ArgumentParser(
        prog="linkcx",
        description="dotted link diagrams on 2-complexes: validation, "
                    "invariants, brackets, and moves")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a complex and optional diagram")
    p.add_argument("complex")
    p.add_argument("diagram", nargs="?")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("inv", help="print invariants, one `name = value` per line")
    p.add_argument("complex")
    p.add_argument("diagram")
    p.add_argument("--conn")
    p.add_argument("--lk", action="store_true")
    p.add_argument("--wri", action="store_true")
    p.add_argument("--Wri", dest="Wri_", action="store_true")
    p.add_argument("--lkclass", action="store_true")
    p.add_argument("--co", action="store_true")
    p.set_defaults(func=_cmd_inv)

    p = sub.add_parser("bracket", help="bracket polynomial state sums")
    p.add_argument("complex")
    p.add_argument("diagram")
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--homotopy", action="store_true")
    p.add_argument("--conn")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("span-check", help="check the span and state-count bounds")
    p.add_argument("complex")
    p.add_argument("diagram")
    p.set_defaults(func=_cmd_span_check)

    p = sub.add_parser("example", help="emit a built-in example as files")
    p.add_argument("id", choices=EXAMPLE_IDS)
    p.add_argument("--n", type=int)
    p.add_argument("--emit", required=True, help="output directory")
    p.set_defaults(func=_cmd_example)

    for name in ("move", "fuzz"):
        p = sub.add_parser(name, help="apply moves or run the move fuzzer")
        if name == "move":
            action = p.add_subparsers(dest="action", required=True)
            ap = action.add_parser("apply")
            ap.add_argument("complex")
            ap.add_argument("diagram")
            ap.add_argument("kind", choices=[k.value for k in moves.MoveKind])
            ap.add_argument("--site", type=int, required=True)
            ap.add_argument("--conn")
            ap.set_defaults(func=_cmd_move, action="apply")
            rp = action.add_parser("replay")
            rp.add_argument("complex")
            rp.add_argument("diagram")
            rp.add_argument("trace_file")
            rp.add_argument("--conn")
            rp.set_defaults(func=_cmd_move, action="replay")
            fp = action.add_parser("fuzz")
        else:
            fp = p
            fp.set_defaults(action="fuzz")
        fp.add_argument("complex")
        fp.add_argument("diagram")
        fp.add_argument("--steps", type=int, default=100)
        fp.add_argument("--seed", type=int, default=0)
        fp.add_argument("--check", choices=["all", "none"], default="none")
        fp.add_argument("--conn")
        fp.add_argument("--trace", help="write the move trace to a file")
        fp.add_argument("--emit", help="write the final diagram to a file")
        fp.set_defaults(func=_cmd_move)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        default_crossing_cap()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (FormatError, ComplexError, DiagramError, MoveError,
            CrossingCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
