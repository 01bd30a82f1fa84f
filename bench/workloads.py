"""The three linkcx benchmark workloads and the checks on their outputs.

Every workload is a single-threaded closed loop: one op starts only after
the previous one has returned.  Inputs come only from the seed.  The
library is always called through its module attributes, so the traced run
sees every call (see tracer.py).

* ``statesum``: ``bracket``, ``normalized_bracket`` and ``homotopy_bracket``
  of one diagram per op, on 3/4-strand braid closures in a disc (trivial
  curve classes) and Ln/Kn weaves on the theta cylinder (nontrivial
  classes), 4 to 12 crossings.  Nearly all time is in the 2^n state sums.
* ``fuzz_check``: ``moves.fuzz`` on the nine acceptance examples with the
  acceptance caps; one op is one fuzz step plus the acceptance invariant
  checks on its result.  State sums on tiny diagrams beside move search.
* ``cli_sites``: one in-process ``linkcx.cli.main`` session per op on
  emitted fixture files: validate, inv, ``move apply KIND --site i``, then
  validate and inv on the emitted diagram.  Parsing, serializing and
  exhaustive site enumeration, with no state sum at all.

A failed op (wrong output, exception or wrong exit code) is counted and
the loop goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

perf = time.perf_counter

B = importlib.import_module("linkcx.bracket")
C = importlib.import_module("linkcx.cli")
D = importlib.import_module("linkcx.diagram")
E = importlib.import_module("linkcx.examples")
F = importlib.import_module("linkcx.files")
G = importlib.import_module("linkcx.groups")
H = importlib.import_module("linkcx.homotopy")
I = importlib.import_module("linkcx.invariants")
L = importlib.import_module("linkcx.laurent")
M = importlib.import_module("linkcx.moves")
T = importlib.import_module("linkcx.twocomplex")

CAP = 22            # explicit state-sum cap: the environment cannot change it
DEFAULT_SEED = 0    # golden digests cover every input of this seed
K = M.MoveKind
M1_SIGN = {K.M1P: 1, K.M1M: -1, K.M1P_INV: -1, K.M1M_INV: 1}

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(path=REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text())


class Deadline(Exception):
    """Raised from a fuzz step callback when the run's time is up."""


class Recorder:
    """Clock and tally of a closed loop: latency, attempts and failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []
        self.ends = []           # when each op's check finished
        self.passed = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def start(self):
        if self.tracer is not None:
            self.tracer.begin_op()
        self._t0 = perf()

    def stop(self) -> float:
        dt = perf() - self._t0
        if self.tracer is not None:
            self.tracer.end_op(dt)
        return dt

    def cancel(self):
        if self.tracer is not None:
            self.tracer.cancel_op()

    def record(self, dt: float, problems):
        self.attempted += 1
        self.latencies.append(dt)
        self.ends.append(perf())
        self.passed.append(not problems)
        if problems:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append("; ".join(problems))


def checked(check, *args):
    """Run a check; an exception inside it is one more problem."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"check raised {exc!r}"]


def spread(items, cost):
    """Order items so that costly ones sit evenly through the sequence.

    Ranked by cost, item r goes to position (r * golden ratio) mod 1, so any
    stretch of the loop holds a fair share of cheap and expensive ops and a
    run's op count does not hinge on where it is cut off.
    """
    ranked = sorted(items, key=cost, reverse=True)
    return [item for _r, item in sorted(enumerate(ranked),
                                        key=lambda ri: (ri[0] * 0.6180339887) % 1)]


# -- statesum ---------------------------------------------------------------

BRAID_SIZES = (5, 6, 7, 8, 9, 10, 11, 12)
# Ln(4) twice: with 17 ops a block's median is the 9th, an Ln(4), whose
# cost does not depend on the seed.
WEAVES = (("Ln", 2), ("Ln", 3), ("Ln", 4), ("Ln", 4), ("Ln", 5),
          ("Kn", 2), ("Kn", 3), ("Kn", 4), ("Kn", 5))
STATESUM_BLOCKS = 10


@dataclass
class StateInput:
    key: str                 # golden digest key
    diagram: object
    connection: object
    code: object = None      # planar code of a braid closure, for the oracle
    sc: int = 0
    wri: int = 0


def braid_word(rng: random.Random, strands: int, length: int):
    """A braid word in which every generator occurs."""
    while True:
        word = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                     for _ in range(length))
        if {abs(x) for x in word} == set(range(1, strands)):
            return word


def statesum_digest(b, nb, hb, group) -> str:
    text = f"{b}\n{nb}\n{hb.to_text(group)}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class StateSum:
    name = "statesum"

    def __init__(self, seed: int, reference: dict, workdir=None):
        rng = random.Random(f"statesum/{seed}")
        disc = T.build_disc()
        trivial = H.Connection.trivial(disc, G.GroupSpec.free())
        self.golden = reference["statesum_digests"]
        self.schedule = []
        for _ in range(STATESUM_BLOCKS):
            block = []
            for n in BRAID_SIZES:
                strands = rng.choice((3, 4))
                word = braid_word(rng, strands, n)
                code = D.braid_code(word, strands)
                d = D.orient_all(D.draw_local(disc, "F", code))
                key = f"braid:{strands}:{','.join(map(str, word))}"
                block.append(StateInput(key, d, trivial, code))
            for family, n in WEAVES:
                bundle = E.example(family, n)
                flip = rng.random() < 0.5
                d = D.mirror(bundle.diagram) if flip else bundle.diagram
                key = f"{family}:{n}:{'mirror' if flip else 'plain'}"
                block.append(StateInput(key, d, bundle.connection))
            self.schedule += spread(block, lambda s: len(s.diagram.crossings))
        for item in self.schedule:
            item.sc = D.sc(item.diagram)
            item.wri = I.wri(item.diagram)
        self.trace_units = self.schedule[:len(BRAID_SIZES) + len(WEAVES)]
        self.window = len(self.trace_units)
        self.digest_checked = 0

    def compute(self, item):
        d = item.diagram
        return (B.bracket(d, max_crossings=CAP),
                B.normalized_bracket(d, max_crossings=CAP),
                H.homotopy_bracket(d, item.connection, max_crossings=CAP))

    def run_unit(self, item, rec: Recorder, deadline=None):
        rec.start()
        try:
            b, nb, hb = self.compute(item)
        except Exception as exc:   # a failing op is counted, not fatal
            rec.record(rec.stop(), [f"{item.key}: {exc!r}"])
            return
        dt = rec.stop()
        rec.record(dt, checked(self.check, item, b, nb, hb))

    def check(self, item, b, nb, hb):
        problems = []
        loop = L.Laurent.loop_factor()
        if hb.specialize(loop) != loop * b:
            problems.append(f"{item.key}: homotopy bracket does not specialize "
                            f"to loop * bracket")
        if nb != L.Laurent.minus_A3_power(-item.wri) * b:
            problems.append(f"{item.key}: normalized bracket is not "
                            f"(-A^3)^-wri * bracket")
        cro = len(item.diagram.crossings)
        if not b or 4 * cro < 4 * (1 - item.sc) + b.span():
            problems.append(f"{item.key}: span bound violated")
        want = self.golden.get(item.key)
        if want is not None:
            self.digest_checked += 1
            if statesum_digest(b, nb, hb, item.connection.group) != want:
                problems.append(f"{item.key}: output differs from golden digest")
        return problems

    def close(self):
        pass


# -- fuzz_check ---------------------------------------------------------------

FUZZ_EXAMPLES = (("trefoil_left", None), ("trefoil_right", None),
                 ("torus_link", None), ("moebius_link", None),
                 ("annulus_link", None), ("Ln", 1), ("Kn", 0),
                 ("hopf_local", None), ("unknot_local", None))
FUZZ_STEPS = 25
FUZZ_CAPS = {"max_crossings": 6, "max_transits": 12}
FUZZ_PASSES = 40


@dataclass
class FuzzExample:
    name: str
    diagram: object
    connection: object
    base: dict


def fuzz_snapshot(d, conn) -> dict:
    """The invariants the acceptance fixture recomputes after every move."""
    br = B.bracket(d, max_crossings=CAP)
    w = I.wri(d)
    snap = {"bracket": br, "wri": w, "Wri": I.Wri(d),
            "normalized_bracket": L.Laurent.minus_A3_power(-w) * br,
            "normalized_homotopy_bracket":
                H.normalized_homotopy_bracket(d, conn, max_crossings=CAP)}
    if len(d.components) == 2:
        snap["lk"] = I.lk(d)
        snap["LK"] = H.LK(d, conn)
    if len(d.components) == 1:
        snap["co"] = H.co(d, conn)
    return snap


def fuzz_problems(ex: FuzzExample, prev: dict, kind, after, cur: dict):
    """The acceptance checks of one step: invariance, multipliers, bounds."""
    problems = []
    for key in ("lk", "LK", "co", "normalized_bracket",
                "normalized_homotopy_bracket"):
        if key in ex.base and cur[key] != ex.base[key]:
            problems.append(f"{ex.name}: {key} changed under {kind.value}")
    delta = M1_SIGN.get(kind, 0)
    if cur["wri"] - prev["wri"] != delta or cur["Wri"] - prev["Wri"] != delta:
        problems.append(f"{ex.name}: writhe step wrong under {kind.value}")
    want = prev["bracket"]
    if kind in M1_SIGN:
        want = L.Laurent.minus_A3_power(M1_SIGN[kind]) * want
    if cur["bracket"] != want:
        problems.append(f"{ex.name}: bracket multiplier wrong under {kind.value}")
    cro, s = len(after.crossings), D.sc(after)
    full, empty = B.all_state_counts(after)
    if not (4 * cro >= 4 * (1 - s) + cur["bracket"].span()
            and full + empty <= cro + 2 * s):
        problems.append(f"{ex.name}: span or state-count bound violated")
    if "lk" in cur:
        visits = D.crossing_visits(after)
        inter = sum(1 for c in after.crossings
                    if len({ci for ci, _e in visits[c]}) == 2)
        if (cur["lk"] - inter) % 2:
            problems.append(f"{ex.name}: lk parity wrong")
    return problems


class FuzzCheck:
    name = "fuzz_check"

    def __init__(self, seed: int, reference: dict, workdir=None):
        rng = random.Random(f"fuzz_check/{seed}")
        self.examples = []
        for name, n in FUZZ_EXAMPLES:
            bundle = E.example(name, n)
            base = fuzz_snapshot(bundle.diagram, bundle.connection)
            label = name if n is None else f"{name}{n}"
            self.examples.append(FuzzExample(label, bundle.diagram,
                                             bundle.connection, base))
        self.schedule = [(ex, rng.randrange(1 << 32))
                         for _ in range(FUZZ_PASSES) for ex in self.examples]
        self.trace_units = self.schedule[:len(self.examples)]
        self.window = FUZZ_STEPS * len(self.examples)

    def run_unit(self, unit, rec: Recorder, deadline=None):
        ex, fuzz_seed = unit
        prev = [ex.base]

        def on_step(_i, kind, _before, after):
            try:
                cur = fuzz_snapshot(after, ex.connection)
                problems = fuzz_problems(ex, prev[0], kind, after, cur)
                prev[0] = cur
            except Exception as exc:   # a failing step is counted, not fatal
                problems = [f"{ex.name}: {exc!r}"]
            rec.record(rec.stop(), problems)
            if deadline is not None and perf() >= deadline:
                raise Deadline
            rec.start()

        rec.start()
        try:
            M.fuzz(ex.diagram, FUZZ_STEPS, fuzz_seed, on_step=on_step, **FUZZ_CAPS)
        except Deadline:
            return
        except Exception as exc:
            rec.record(rec.stop(), [f"{ex.name} seed {fuzz_seed}: {exc!r}"])
            return
        rec.cancel()

    def close(self):
        pass


# -- cli_sites ------------------------------------------------------------------

CLI_FIXTURES = (("Ln", 2), ("Ln", 3), ("Ln", 4), ("Ln", 5), ("Ln", 6),
                ("Kn", 2), ("Kn", 3), ("Kn", 4), ("Kn", 5),
                ("torus_link", None), ("moebius_link", None), ("annulus_link", None))
CLI_KINDS = (K.M1P, K.M1M, K.M2, K.M4, K.M5P, K.M5M, K.M7)
CLI_CYCLES = 4
CLI_GROUPS = 3
# Closed forms: lk of the surface examples (acceptance criterion 1).
SURFACE_LK = {"torus_link": 1, "moebius_link": 1, "annulus_link": 2}


@dataclass
class Fixture:
    stem: str
    complex_path: str
    diagram_path: str
    connection_path: str
    emitted_path: str
    complex: object
    expected: dict           # inv name -> closed-form value text
    kinds: list              # kinds with sites: (kind, sites, candidates)


@dataclass
class Session:
    fixture: Fixture
    kind: object
    site: int


def run_cli(argv):
    """linkcx.cli.main in process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = C.main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_inv(text: str) -> dict:
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def closed_forms(name, n, bundle) -> dict:
    group = bundle.connection.group
    if name == "Ln":
        pi = H.PiElement({G.conj_class(group, G.text_to_word(group, "u v")): 2 * n})
        return {"lk": str(2 * n), "lkclass": pi.to_text(group)}
    if name == "Kn":
        u, v, kn, one = (G.conj_class(group, G.text_to_word(group, w))
                         for w in ("u", "v", "u v", "1"))
        m = 2 * n + 1
        co = H.TensorElement({(u, v): m, (v, u): m, (kn, one): -m, (one, kn): -m})
        return {"co": co.to_text(group)}
    return {"lk": str(SURFACE_LK[name])}


class CliSites:
    name = "cli_sites"

    def __init__(self, seed: int, reference: dict, workdir):
        rng = random.Random(f"cli_sites/{seed}")
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        counts = reference["cli_site_counts"]
        candidates = reference["cli_candidate_counts"]
        fixtures = []
        for name, n in CLI_FIXTURES:
            argv = ["example", name, "--emit", str(self.workdir)]
            if n is not None:
                argv[2:2] = ["--n", str(n)]
            code, _out, err = run_cli(argv)
            if code != 0:
                raise RuntimeError(f"cannot emit fixture {name} {n}: {err}")
            stem = name if n is None else f"{name}{n}"
            base = self.workdir / stem
            cx = F.parse_complex(Path(f"{base}.complex").read_text())
            fixtures.append(Fixture(
                stem, f"{base}.complex", f"{base}.diagram", f"{base}.connection",
                f"{base}.emitted.diagram", cx,
                closed_forms(name, n, E.example(name, n)),
                [(k, counts[stem][k.value], candidates[stem][k.value])
                 for k in CLI_KINDS if counts[stem][k.value] > 0]))
        # One cycle applies every kind that has sites to every fixture, at a
        # seeded site.  A session costs about its number of candidates, so
        # the sessions are dealt in snake order into groups of equal size and
        # nearly equal cost; each group is one window of the loop.
        pairs = sorted(((fx, kind, sites, cands) for fx in fixtures
                        for kind, sites, cands in fx.kinds), key=lambda p: -p[3])
        groups = [[] for _ in range(CLI_GROUPS)]
        for r, pair in enumerate(pairs):
            lap, pos = divmod(r, CLI_GROUPS)
            groups[pos if lap % 2 == 0 else CLI_GROUPS - 1 - pos].append(pair)
        cycle = [p for g in groups for p in spread(g, lambda p: p[3])]
        self.schedule = [Session(fx, kind, rng.randrange(sites))
                         for _ in range(CLI_CYCLES) for fx, kind, sites, _c in cycle]
        self.trace_units = self.schedule[:len(cycle)]
        self.window = len(cycle) // CLI_GROUPS

    def run_unit(self, s: Session, rec: Recorder, deadline=None):
        fx = s.fixture
        rec.start()
        try:
            results = [run_cli(["validate", fx.complex_path, fx.diagram_path]),
                       run_cli(["inv", fx.complex_path, fx.diagram_path,
                                "--conn", fx.connection_path])]
            moved = run_cli(["move", "apply", fx.complex_path, fx.diagram_path,
                             s.kind.value, "--site", str(s.site),
                             "--conn", fx.connection_path])
            Path(fx.emitted_path).write_text(moved[1])
            results += [moved,
                        run_cli(["validate", fx.complex_path, fx.emitted_path]),
                        run_cli(["inv", fx.complex_path, fx.emitted_path,
                                 "--conn", fx.connection_path])]
        except Exception as exc:   # a failing session is counted, not fatal
            rec.record(rec.stop(), [f"{fx.stem} {s.kind.value}: {exc!r}"])
            return
        dt = rec.stop()
        rec.record(dt, checked(self.check, s, results))

    def check(self, s: Session, results):
        fx = s.fixture
        where = f"{fx.stem} {s.kind.value} --site {s.site}"
        problems = [f"{where}: step {i} exited {code}: {err.strip()}"
                    for i, (code, _out, err) in enumerate(results) if code != 0]
        if problems:
            return problems
        for i in (0, 3):
            if "diagram: ok" not in results[i][1]:
                problems.append(f"{where}: validate printed {results[i][1]!r}")
        before, after = parse_inv(results[1][1]), parse_inv(results[4][1])
        for key, want in fx.expected.items():
            if before.get(key) != want or after.get(key) != want:
                problems.append(f"{where}: {key} is {before.get(key)!r} before "
                                f"and {after.get(key)!r} after, want {want!r}")
        for key in before.keys() - fx.expected.keys() - {"wri", "Wri"}:
            if after.get(key) != before[key]:
                problems.append(f"{where}: {key} changed under the move")
        delta = M1_SIGN.get(s.kind, 0)
        for key in ("wri", "Wri"):
            if int(after[key]) - int(before[key]) != delta:
                problems.append(f"{where}: {key} step is not {delta}")
        text = results[2][1]
        if F.serialize_diagram(F.parse_diagram(text, fx.complex)) != text:
            problems.append(f"{where}: emitted diagram does not round-trip")
        return problems

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (StateSum, FuzzCheck, CliSites)}
