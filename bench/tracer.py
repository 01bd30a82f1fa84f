"""Per-layer tracing of linkcx from outside the library.

The library has no instrumentation of its own, so the traced run replaces
the public functions of each linkcx module with timing wrappers.  Modules
import names directly (``from .diagram import validate_diagram``), so a
wrapper is bound wherever a caller looks the name up: in every linkcx
module that holds the original function, or only in the modules a table
entry names.  ``uninstall`` puts every original back.

Self time is exact bookkeeping: a span's self time is its duration minus
the durations of the spans it called, so within one op the self times of
all spans plus ``other`` (op time that no span covers) add up to the op
time.  ``end_op`` checks that identity on every op.  Hot inner calls
(Laurent arithmetic, curve tracing, class canonicalization) are timed the
same way but aggregated; every other call also leaves a span record, kept
in memory and written once by ``write_spans``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (module, attribute, span name, hot, modules whose binding is patched;
#  None patches every binding).  The layer is the span name up to its
# first dot.  state_curves lives in linkcx.bracket but only the homotopy
# bracket calls it, so it is traced where homotopy looks it up.
FUNCTIONS = [
    ("linkcx.bracket", "bracket", "bracket.bracket", False, None),
    ("linkcx.bracket", "normalized_bracket", "bracket.normalized", False, None),
    ("linkcx.bracket", "all_state_counts", "bracket.all_state_counts", False, None),
    ("linkcx.bracket", "state_curves", "homotopy.state_curves", True,
     ("linkcx.homotopy",)),
    ("linkcx.homotopy", "homotopy_bracket", "homotopy.bracket", False, None),
    ("linkcx.homotopy", "normalized_homotopy_bracket", "homotopy.normalized",
     False, None),
    ("linkcx.homotopy", "holonomy", "homotopy.holonomy", True, None),
    ("linkcx.homotopy", "LK", "homotopy.LK", False, None),
    ("linkcx.homotopy", "co", "homotopy.co", False, None),
    ("linkcx.groups", "unoriented_class", "groups.unoriented_class", True, None),
    ("linkcx.groups", "conj_class", "groups.conj_class", True, None),
    ("linkcx.diagram", "validate_diagram", "diagram.validate", False, None),
    ("linkcx.diagram", "arcs_of", "diagram.arcs_of", True, None),
    ("linkcx.diagram", "crossing_visits", "diagram.crossing_visits", True, None),
    ("linkcx.diagram", "transit_visits", "diagram.transit_visits", True, None),
    ("linkcx.diagram", "sc", "diagram.sc", False, None),
    ("linkcx.invariants", "lk", "invariants.lk", False, None),
    ("linkcx.invariants", "wri", "invariants.wri", False, None),
    ("linkcx.invariants", "Wri", "invariants.Wri", False, None),
    ("linkcx.moves", "find_sites", "moves.find_sites", False, None),
    ("linkcx.moves", "candidate_sites", "moves.candidates", False, None),
    ("linkcx.moves", "apply", "moves.apply", False, None),
    ("linkcx.files", "parse_complex", "files.parse", False, None),
    ("linkcx.files", "parse_diagram", "files.parse", False, None),
    ("linkcx.files", "parse_connection", "files.parse", False, None),
    ("linkcx.files", "serialize_complex", "files.serialize", False, None),
    ("linkcx.files", "serialize_diagram", "files.serialize", False, None),
    ("linkcx.files", "serialize_connection", "files.serialize", False, None),
    ("linkcx.cli", "main", "cli.main", False, None),
]

# Laurent methods, patched on the class; every call counts as one op.
LAURENT_METHODS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__",
                   "__rmul__", "__pow__", "__eq__", "span", "subs_A_inverse",
                   "__str__", "zero", "one", "A", "minus_A3_power",
                   "loop_factor", "parse")

LAYERS = ("bracket", "homotopy", "groups", "laurent", "moves", "diagram",
          "files", "invariants", "cli")


def _linkcx_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "linkcx" or name.startswith("linkcx."))]


class Tracer:
    """Span stack, per-name counters and the in-memory span log."""

    def __init__(self):
        self.active = False
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []            # (op, id, parent id, name, start, end)
        self.ops = 0
        self.op_time = 0.0
        self.unbalanced = 0
        self._patches = []
        self._stack = []
        self._total_self = 0.0
        self._next_id = 0

    # -- patching ----------------------------------------------------

    def install(self):
        hooks = {"moves.candidates": self._count_sites,
                 "moves.apply": self._count_rejections,
                 "files.parse": self._count_parsed,
                 "files.serialize": self._count_serialized}
        self._move_error = importlib.import_module("linkcx.errors").MoveError
        for modname, attr, name, hot, where in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(original, name, hot, hooks.get(name))
            targets = (_linkcx_modules() if where is None
                       else [importlib.import_module(m) for m in where])
            for mod in targets:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        laurent = importlib.import_module("linkcx.laurent").Laurent
        for attr in LAURENT_METHODS:
            raw = laurent.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, "laurent." + attr, True))
            else:
                patched = self._wrap(raw, "laurent." + attr, True)
            self._patches.append((laurent, attr, raw))
            setattr(laurent, attr, patched)

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()
        self.active = False

    def _wrap(self, fn, name, hot, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1]
            span_id = None
            if not hot:
                span_id = tracer._next_id
                tracer._next_id += 1
            # a hot span passes its parent's id down, so records nest correctly
            frame = [0.0, parent[1] if hot else span_id]
            stack.append(frame)
            result = error = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                own = dt - frame[0]
                tracer.self_s[name] += own
                tracer._total_self += own
                tracer.calls[name] += 1
                parent[0] += dt
                if span_id is not None:
                    tracer.spans.append((tracer.ops, span_id, parent[1], name, t0, t1))
                if hook is not None:
                    hook(args, result, error)

        return traced

    # -- counters filled by hooks --------------------------------------

    def _count_sites(self, _args, result, _error):
        if result is not None:
            self.counts["moves.candidates.sites"] += len(result)

    def _count_rejections(self, args, _result, error):
        if isinstance(error, self._move_error):
            self.counts["moves.apply.rejected"] += 1
            self.counts["moves.apply.rejected." + args[1].value] += 1

    def _count_parsed(self, args, _result, _error):
        self.counts["files.bytes"] += len(args[0])

    def _count_serialized(self, _args, result, _error):
        if result is not None:
            self.counts["files.bytes"] += len(result)

    # -- op boundaries -------------------------------------------------

    def begin_op(self):
        self._stack = [[0.0, None]]
        self._op_self_start = self._total_self
        self.active = True

    def end_op(self, elapsed: float):
        """Close the op; whatever no span covered is ``other`` time."""
        self.active = False
        covered = self._stack[0][0]
        if len(self._stack) != 1 or abs((self._total_self - self._op_self_start)
                                        - covered) > 1e-6:
            self.unbalanced += 1
        other = elapsed - covered
        if other < -1e-6:
            self.unbalanced += 1
        self.self_s["other"] += other
        self.op_time += elapsed
        self.ops += 1

    def cancel_op(self):
        """Drop an op that was begun but never ran (nothing was covered)."""
        self.active = False
        if self._stack[0][0]:
            self.unbalanced += 1

    # -- results -------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def write_spans(self, path):
        """Write every span record, then the per-name totals, as JSON lines."""
        with open(path, "w") as out:
            for op, span_id, parent, name, t0, t1 in self.spans:
                out.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                      "name": name, "start": t0, "end": t1}) + "\n")
            for name in sorted(self.self_s):
                out.write(json.dumps({"total": name, "calls": self.calls.get(name, 0),
                                      "self_s": self.self_s[name]}) + "\n")
