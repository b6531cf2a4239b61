"""The benchmark workloads, their correctness checks and their metrics.

``twin-pg3_2`` and ``twin-sp4_3`` drive the library chain (building,
codistance, lco, lsco, f^op, atlas, twin) on one seed chamber; ``cli-pg2_3``
runs the ``twinbuild`` command line on three seed chambers of pg2(3), one
child process at a time.  Every call into the program goes through a module
attribute (``tb.twinner.atlas_component``), so a traced run sees it.

A pass is one full pipeline on freshly generated inputs.  A run repeats
passes within its time and reports the median of each metric.  Every time is
taken by a ``hostspeed.HostSpeed``: its wall time and its time at the
nominal host speed, which is what the end-to-end metrics report.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import twinbuild.catalog
import twinbuild.chambersys
import twinbuild.cli
import twinbuild.codistance
import twinbuild.homotopy
import twinbuild.twinner
from hostspeed import HostSpeed, Timing

tb = twinbuild

CHILD_TIMEOUT_S = 120
PROBE_PERIOD_S = 0.25
LIBRARY_SETUP_SAMPLES = 15
VERIFY_REPEATS = 5
CLI_SETUP_SAMPLES = 3
CLI_SEED_CHAMBERS = 3

END_TO_END = [
    ("setup_s", "s"), ("verdict_s", "s"), ("twin_s", "s"), ("verify_s", "s"),
    ("total_s", "s"), ("peak_rss_mb", "MB"),
]

MODULES = ("coxeter", "catalog", "chambersys", "codistance", "homotopy",
           "panelcalc", "twinner", "cli", "bench")
SELF_TIMED = [
    "coxeter.enumerate_weyl", "catalog.gen", "chambersys.validate_building",
    "chambersys.residue", "chambersys.proj_chamber",
    "codistance.validate_codistance", "codistance.fop_c", "codistance.proj_f",
    "homotopy.check_lco", "homotopy.check_lsco", "panelcalc.beta", "panelcalc.panels_op_c", "twinner.atlas_component",
    "twinner.adjacent_codistance", "twinner.assemble_twin",
    "twinner.alpha_check", "twinner.residue_members", "cli.parse_building",
    "cli.parse_codistance", "cli.serialize",
]
CALL_COUNTED = [
    "chambersys.validate_building", "chambersys.residue",
    "chambersys.proj_chamber", "codistance.validate_codistance",
    "codistance.fop_c", "codistance.proj_f", "homotopy.simply_2_connected",
    "panelcalc.beta", "panelcalc.beta_w", "panelcalc.panels_op_c",
    "twinner.adjacent_codistance", "twinner.alpha_check",
    "twinner.residue_members", "cli.parse_codistance",
]
COUNTS = [
    "coxeter.group_order", "coxeter.inv.calls", "coxeter.mult.calls",
    "catalog.chambers", "homotopy.verdict.trivial",
    "homotopy.verdict.nontrivial", "homotopy.verdict.inconclusive",
    "twinner.atlas.members", "cli.bytes_written", "cli.bytes_read",
]
PER_LAYER = (
    [(f"{name}.s", "s") for name in SELF_TIMED]
    + [(f"{name}.calls", "count") for name in CALL_COUNTED]
    + [(name, "bytes" if name.startswith("cli.bytes") else "count") for name in COUNTS]
    + [("twinner.atlas.new_member_ratio", "ratio"), ("cli.import_s", "s")]
    + [(f"{module}.self_s", "s") for module in MODULES]
    + [("trace.total_s", "s"), ("trace.spans", "count")]
)


class Checks:
    """The correctness checks of one run.  A failed check is counted and
    described, never raised, so the run still reports."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: object = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass(frozen=True)
class Fixture:
    """A catalog building and the verdicts the program must reach on it."""

    family: str
    q: int
    chambers: int
    lco: bool
    lsco: bool
    fop: str

    def generate(self):
        return getattr(tb.catalog, f"gen_{self.family}")(self.q)


LIBRARY = {
    "twin-pg3_2": Fixture("pg3", 2, 315, lco=True, lsco=False, fop="ProvenNontrivial"),
    "twin-sp4_3": Fixture("sp4", 3, 160, lco=True, lsco=True, fop="ProvenTrivial"),
}
WARMUP = Fixture("pg2", 2, 21, lco=True, lsco=True, fop="ProvenTrivial")
CLI_FIXTURE = Fixture("pg2", 3, 52, lco=True, lsco=True, fop="ProvenTrivial")
WORKLOADS = sorted(LIBRARY) + ["cli-pg2_3"]


def seed_chambers(workload: str, seed: int) -> list[int]:
    """The seed chambers of a run; the only input the seed decides."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in LIBRARY:
        return [rng.randrange(LIBRARY[workload].chambers)]
    return sorted(rng.sample(range(CLI_FIXTURE.chambers), CLI_SEED_CHAMBERS))


# -- library passes ----------------------------------------------------------


def corrupt_one_value(f):
    """The codistance f with the value of one chamber of f^op moved to a
    generator, which breaks the panel axiom on that chamber's panels."""
    values = list(f.values)
    values[f.fop()[0]] = f.building.weyl.gen(0)
    return tb.codistance.Codistance(f.building, values)


# -- command-line passes -----------------------------------------------------


def subprocess_runner(root: str, clock: HostSpeed, probes_file: str):
    """Run the command line as a child on the checkout's sources, as
    ``python -m twinbuild.cli`` does, through ``cli_child.py``, whose probes
    of the host's speed are recorded into ``clock``."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")

    def run(argv: list[str]) -> tuple[int, str]:
        with contextlib.suppress(FileNotFoundError):
            os.remove(probes_file)
        proc = subprocess.run(
            [sys.executable, child, probes_file, *argv], cwd=root, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        with contextlib.suppress(FileNotFoundError), open(probes_file, encoding="ascii") as fh:
            paused, speeds = fh.read().split("\n")[:2]
            clock.record([float(x) for x in speeds.split()], float(paused))
        return proc.returncode, proc.stdout + proc.stderr

    return run


def inprocess_runner(argv: list[str]) -> tuple[int, str]:
    """Run ``twinbuild.cli.main`` in this process, so a tracer sees it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = tb.cli.main(argv)
    return code, out.getvalue()


def cli_expected(fx: Fixture) -> dict:
    """Reference outputs made through the library, before any timing."""
    b = fx.generate()
    cli = tb.cli
    return {
        "building": cli.serialize_building(b),
        "codistances": {
            cli.serialize_codistance(tb.codistance.from_opposite_chamber(b, x))
            for x in range(b.n)
        },
    }


def digest_dir(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read() + b"\0")
    return h.hexdigest()


class CliPass:
    """One pass of the command-line workload, in a scratch directory: ``gen``
    once, then per seed chamber ``codist from-opposite``, ``validate
    building``, ``validate codistance``, ``twin build -o D``, ``twin verify
    D``.  ``run(argv)`` executes one command and returns (exit code, output).
    ``twin build`` outputs are digested and compared across the passes of a
    run and with the digest an earlier run of the same chamber stored."""

    def __init__(self, fx: Fixture, run, work: str, chambers: list[int],
                 checks: Checks, digest_store: str, clock: HostSpeed | None = None) -> None:
        self.fx = fx
        self.run = run
        self.clock = clock or HostSpeed()
        self.work = work
        self.chambers = chambers
        self.checks = checks
        self.digest_store = digest_store
        self.expected = cli_expected(fx)
        self.digests: dict[int, str] = {}
        self.bld = os.path.join(work, f"{fx.family}_{fx.q}.bld")
        os.makedirs(digest_store, exist_ok=True)

    def _child(self, phase, times: dict, key: str, argv: list[str],
               expect_pass: bool = False) -> None:
        with self.clock.timed() as t, phase(key[:-2]):
            code, out = self.run(argv)
        times[key].wall += t.wall
        times[key].seconds += t.seconds
        self.checks.check(f"exit code of {argv[:2]}", code == 0, f"{code}: {out[-300:]}")
        if expect_pass:
            self.checks.check(f"RESULT=pass from {argv[:2]}", "RESULT=pass" in out, out[-300:])

    def _cod(self, c: int) -> str:
        return os.path.join(self.work, f"c{c}.cod")

    def _setup(self, phase, times: dict) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        fx = self.fx
        self._child(phase, times, "setup_s",
                    ["gen", fx.family, "--q", str(fx.q), "-o", self.bld])
        for c in self.chambers:
            self._child(phase, times, "setup_s", ["codist", "from-opposite", "--building",
                                                  self.bld, "--chamber", str(c), "-o", self._cod(c)])

    def setup_time(self) -> Timing:
        times = {"setup_s": Timing()}
        self._setup(_no_phase, times)
        return times["setup_s"]

    def __call__(self, phase=None) -> dict[str, Timing]:
        phase = phase or _no_phase
        times = {key: Timing() for key in ("setup_s", "verdict_s", "twin_s", "verify_s")}
        with self.clock.timed() as total:
            self._setup(phase, times)
            for c in self.chambers:
                out = os.path.join(self.work, f"twin_{c}")
                self._child(phase, times, "verdict_s", ["validate", "building", self.bld],
                            expect_pass=True)
                self._child(phase, times, "verdict_s", ["validate", "codistance",
                                                        self._cod(c), "--building", self.bld],
                            expect_pass=True)
                self._child(phase, times, "twin_s", ["twin", "build", "--building", self.bld,
                                                     "--codistance", self._cod(c), "-o", out],
                            expect_pass=True)
                self._child(phase, times, "verify_s", ["twin", "verify", out],
                            expect_pass=True)
        times["total_s"] = total
        self.check_outputs()
        return times

    def check_outputs(self) -> None:
        checks = self.checks
        with open(self.bld, encoding="utf-8") as fh:
            checks.check("gen output", fh.read() == self.expected["building"])
        for c in self.chambers:
            out = os.path.join(self.work, f"twin_{c}")
            with open(os.path.join(out, "report.txt"), encoding="utf-8") as fh:
                report = fh.read()
            checks.check("report RESULT=pass", "RESULT=pass" in report, report)
            checks.check("report ATLAS_SIZE",
                         f"ATLAS_SIZE={self.fx.chambers}\n" in report, report)
            cods = set()
            for name in os.listdir(out):
                if name.endswith(".cod"):
                    with open(os.path.join(out, name), encoding="utf-8") as fh:
                        cods.add(fh.read())
            checks.check("atlas equals the opposite-chamber oracle",
                         cods == self.expected["codistances"])
            digest = digest_dir(out)
            earlier = self.digests.setdefault(c, digest)
            checks.check("twin build output identical across passes", digest == earlier)
            stored = os.path.join(self.digest_store,
                                  f"{self.fx.family}_{self.fx.q}-c{c}.sha256")
            if os.path.exists(stored):
                with open(stored, encoding="utf-8") as fh:
                    checks.check("twin build output identical across runs",
                                 fh.read() == digest)
            elif not checks.failures:
                with open(stored, "w", encoding="utf-8") as fh:
                    fh.write(digest)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# -- runs --------------------------------------------------------------------


def _no_phase(name: str):
    return contextlib.nullcontext()


class LibraryPass:
    """One pass of a library workload on a seed chamber: set-up, go/no-go
    verdicts, twin construction and re-verification.  The re-verification
    passes B+ and every atlas member through the text formats of
    ``twinbuild.cli`` and validates what comes back, as ``twin verify`` does
    with its files.

    The verdicts and the re-verification take seconds where the twin takes a
    minute, so they are sampled more than once: the re-verification
    ``VERIFY_REPEATS`` times in a row, the verdicts once more on fresh inputs
    after the re-verification.  Each reports its median.  ``total_s`` is one
    pipeline: set-up, verdicts, twin and the first re-verification."""

    def __init__(self, fx: Fixture, chamber: int, checks: Checks,
                 clock: HostSpeed | None = None, corrupt: bool = False) -> None:
        self.fx = fx
        self.chamber = chamber
        self.checks = checks
        self.clock = clock or HostSpeed()
        self.corrupt = corrupt

    def _setup(self):
        b = self.fx.generate()
        f = tb.codistance.from_opposite_chamber(b, self.chamber)
        return b, (corrupt_one_value(f) if self.corrupt else f)

    def setup_time(self) -> Timing:
        with self.clock.timed() as t:
            self._setup()
        return t

    def __call__(self, phase=None) -> dict[str, Timing]:
        phase = phase or _no_phase
        fx, checks, clock = self.fx, self.checks, self.clock
        with clock.timed() as total:
            with clock.timed() as setup, phase("setup"):
                b, f = self._setup()
            verdicts = [self._verdict(b, f, phase)]
            with clock.timed() as twin_t, phase("twin"):
                atlas = tb.twinner.atlas_component(f)
                twin = tb.twinner.assemble_twin(atlas, b, seed=f)
            verify_t, rebuilt = self._verify(b, twin, atlas, phase)
        checks.check("atlas size", len(atlas.members) == fx.chambers, len(atlas.members))
        for flag, ok in vars(twin.report).items():
            checks.check(f"twin report {flag}", ok)
        verifies = [verify_t]
        for _ in range(VERIFY_REPEATS - 1):
            del rebuilt
            verify_t, rebuilt = self._verify(b, twin, atlas, phase)
            verifies.append(verify_t)
        plus, plus_ok, members, members_ok, oracle = rebuilt
        checks.check("B+ building axioms after a round trip", plus_ok)
        checks.check("B+ panels survive a round trip",
                     [sorted(fam) for fam in plus.system.panels]
                     == [sorted(fam) for fam in twin.plus.system.panels])
        checks.check("atlas members are codistances after a round trip", members_ok)
        checks.check("atlas members survive a round trip",
                     [g.values for g in members] == [g.values for g in atlas.members])
        checks.check("atlas equals the opposite-chamber oracle",
                     {g.values for g in atlas.members} == oracle)
        checks.check("seed row of delta*",
                     all(twin.costar(atlas.origin, x) == f(x) for x in range(b.n)))
        del atlas, twin, plus, members, oracle, rebuilt
        with phase("setup"):
            b, f = self._setup()
        verdicts.append(self._verdict(b, f, phase))
        return {"setup_s": setup, "verdict_s": median_timing(verdicts), "twin_s": twin_t,
                "verify_s": median_timing(verifies), "total_s": total}

    def _verify(self, b, twin, atlas, phase) -> tuple[Timing, tuple]:
        """Re-verification of a twin; returns its time and what it rebuilt."""
        with self.clock.timed() as t, phase("verify"):
            plus = tb.cli.parse_building(tb.cli.serialize_building(twin.plus))
            plus_ok = tb.chambersys.validate_building(plus).ok
            members = [tb.cli.parse_codistance(tb.cli.serialize_codistance(g), b)
                       for g in atlas.members]
            members_ok = all(tb.codistance.validate_codistance(g).ok for g in members)
            oracle = {tb.codistance.from_opposite_chamber(b, x).values for x in range(b.n)}
        return t, (plus, plus_ok, members, members_ok, oracle)

    def _verdict(self, b, f, phase) -> Timing:
        """The go/no-go checks before construction; returns their time."""
        fx, checks = self.fx, self.checks
        with self.clock.timed() as t, phase("verdict"):
            building_ok = tb.chambersys.validate_building(b).ok
            codistance_ok = tb.codistance.validate_codistance(f).ok
            lco_ok = tb.homotopy.check_lco(b).ok
            lsco_ok = tb.homotopy.check_lsco(b).ok
            fop = tb.homotopy.simply_2_connected(f.fop(), b).status
        checks.check("building axioms", building_ok)
        checks.check("codistance axiom", codistance_ok)
        checks.check("lco verdict", lco_ok == fx.lco, f"lco ok={lco_ok}")
        checks.check("lsco verdict", lsco_ok == fx.lsco, f"lsco ok={lsco_ok}")
        checks.check("f^op verdict", fop == fx.fop, fop)
        return t

    def close(self) -> None:
        pass


def warm_up() -> None:
    """One small library pass, so lazy imports and first-call set-up inside
    the program and sympy are paid before timing."""
    LibraryPass(WARMUP, 0, Checks())()
    gc.collect()


def repeat(one_pass, seconds: float, checks: Checks) -> list:
    """Run passes while the next one is expected to end within ``seconds``
    (at least one); a pass that raises is counted as a failed check and
    ends the run."""
    results = []
    start = time.perf_counter()
    while True:
        try:
            results.append(one_pass())
        except Exception:
            checks.check("pass completed", False, traceback.format_exc(limit=4))
            break
        gc.collect()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            break
    return results


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def median_metrics(samples: list[dict], names) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) if samples else 0.0
            for name in names}


def median_timing(timings: list[Timing]) -> Timing:
    out = Timing()
    if timings:
        out.wall = statistics.median(t.wall for t in timings)
        out.seconds = statistics.median(t.seconds for t in timings)
    return out


def run_untraced(one, seconds: float, checks: Checks,
                 setup_samples: int) -> tuple[dict, dict, int]:
    """End-to-end metrics: medians over passes of the times at the nominal
    host speed; ``setup_s`` is the median of at least ``setup_samples``
    set-ups, repeated beyond the passes' own.  Also returns the medians of
    the wall times, for the record."""
    passes = repeat(one, seconds, checks)
    setups = [p["setup_s"] for p in passes]
    while passes and len(setups) < setup_samples:
        setups.append(one.setup_time())
    timings = {name: median_timing([p[name] for p in passes])
               for name in ("verdict_s", "twin_s", "verify_s", "total_s")}
    timings["setup_s"] = median_timing(setups)
    metrics = {name: t.seconds for name, t in timings.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, {name: t.wall for name, t in timings.items()}, len(passes)


def layer_metrics(tracer, total_s: float, import_s: float) -> dict[str, float]:
    m: dict[str, float] = {}
    for name in SELF_TIMED:
        m[f"{name}.s"] = tracer.self_time(name)
    for name in CALL_COUNTED:
        m[f"{name}.calls"] = tracer.call_count(name)
    for name in COUNTS:
        m[name] = tracer.count_of(name)
    adjacent = tracer.call_count("twinner.adjacent_codistance")
    new = tracer.count_of("twinner.atlas.new_members")
    m["twinner.atlas.new_member_ratio"] = new / adjacent if adjacent else 0.0
    m["cli.import_s"] = import_s
    module_self = tracer.module_self_times()
    for module in MODULES:
        m[f"{module}.self_s"] = module_self.get(module, 0.0)
    m["trace.total_s"] = total_s
    m["trace.spans"] = len(tracer.span_start)
    return m


def run_traced(one, seconds: float, checks: Checks, tracer, import_s: float,
               spans_path: str) -> tuple[dict, int]:
    """Per-layer metrics: passes with every traced call wrapped, the spans
    of the last pass written to ``spans_path``, medians over passes."""

    def one_pass():
        tracer.reset()
        times = one(lambda name: tracer.span(f"bench.{name}"))
        metrics = layer_metrics(tracer, times["total_s"].seconds, import_s)
        tracer.write_spans(spans_path)
        return metrics

    tracer.install()
    try:
        passes = repeat(one_pass, seconds, checks)
    finally:
        tracer.uninstall()
    return median_metrics(passes, [name for name, _ in PER_LAYER]), len(passes)
