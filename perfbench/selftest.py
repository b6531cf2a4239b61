"""Self-test of the benchmark harness at pg2(2) size (about ten seconds).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, untraced and traced, on both the library and the command-line paths;
that a codistance with one corrupted value raises the error rate above 0
instead of crashing the run; and that the tracer leaves the program as it
found it.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Checks, CliPass, LibraryPass, WARMUP, tb  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, ok: bool, detail: object = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if not ok else ""))
    if not ok:
        FAILURES.append(name)


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    end_to_end = declared("end_to_end")
    per_layer = declared("per_layer")
    expect("end-to-end metrics declared as emitted", end_to_end == dict(workloads.END_TO_END),
           set(end_to_end) ^ set(dict(workloads.END_TO_END)))
    expect("per-layer metrics declared as emitted", per_layer == dict(workloads.PER_LAYER),
           set(per_layer) ^ set(dict(workloads.PER_LAYER)))

    workloads.warm_up()
    checks = Checks()
    handler = signal.getsignal(signal.SIGALRM)
    with HostSpeed(0.05) as clock:
        metrics, walls, _ = workloads.run_untraced(LibraryPass(WARMUP, 0, checks, clock),
                                                   0.1, checks, 3)
    expect("host speed probed during phases", len(clock.speeds) > 2 * 7, len(clock.speeds))
    expect("SIGALRM handler restored", signal.getsignal(signal.SIGALRM) is handler)
    expect("wall times recorded for every time metric",
           set(walls) == set(metrics) - {"peak_rss_mb"} and all(v > 0 for v in walls.values()),
           walls)
    expect("library run emits every end-to-end metric", set(metrics) == set(end_to_end))
    expect("library run passes its checks", checks.failed == 0 and checks.attempted > 0,
           checks.failures)
    expect("end-to-end metrics are positive", all(v > 0 for v in metrics.values()), metrics)

    checks = Checks()
    workloads.run_untraced(LibraryPass(WARMUP, 0, checks, corrupt=True), 0.1, checks, 3)
    expect("corrupted codistance gives error_rate > 0", checks.error_rate > 0,
           checks.error_rate)
    expect("corrupted codistance is caught by the codistance check",
           any(f.startswith("codistance axiom") for f in checks.failures), checks.failures)

    originals = {name: getattr(tb.twinner, name) for name in ("beta", "atlas_component")}
    residue = tb.chambersys.Building.residue
    tracer = Tracer()
    work = os.path.join(ROOT, "perfbench", "out", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        checks = Checks()
        layers, _ = workloads.run_traced(LibraryPass(WARMUP, 0, checks), 0.1, checks, tracer,
                                         0.0, os.path.join(work, "spans"))
        expect("traced run emits every per-layer metric", set(layers) == set(per_layer))
        expect("traced library run passes its checks", checks.failed == 0, checks.failures)
        verdicts = sum(layers[f"homotopy.verdict.{k}"]
                       for k in ("trivial", "nontrivial", "inconclusive"))
        expect("one verdict per simply_2_connected call",
               verdicts == layers["homotopy.simply_2_connected.calls"] > 0, verdicts)
        expect("atlas members counted", layers["twinner.atlas.members"] == WARMUP.chambers)
        expect("Weyl table calls counted", layers["coxeter.inv.calls"] > 0)
        expect("spans written", os.path.getsize(os.path.join(work, "spans.bin")) > 0)
        expect("tracer restores the program",
               all(getattr(tb.twinner, k) is v for k, v in originals.items())
               and tb.chambersys.Building.residue is residue)

        checks = Checks()
        cli = CliPass(WARMUP, workloads.inprocess_runner, os.path.join(work, "cli"), [0, 5],
                      checks, os.path.join(work, "digests"))
        layers, _ = workloads.run_traced(cli, 0.1, checks, Tracer(), 0.0,
                                         os.path.join(work, "cli-spans"))
        expect("traced command-line run passes its checks", checks.failed == 0, checks.failures)
        expect("command line makes no simply_2_connected call",
               layers["homotopy.simply_2_connected.calls"] == 0)
        expect("command-line bytes counted",
               layers["cli.bytes_written"] > 0 and layers["cli.bytes_read"] > 0)

        checks = Checks()
        clock = HostSpeed(edges=False)
        run = workloads.subprocess_runner(ROOT, clock, os.path.join(work, "probes"))
        cli = CliPass(WARMUP, run, os.path.join(work, "cli"), [0], checks,
                      os.path.join(work, "digests"), clock)
        metrics, _, _ = workloads.run_untraced(cli, 0.1, checks, 2)
        expect("command-line children report their probes", len(clock.speeds) >= 7 * 2,
               len(clock.speeds))
        expect("command-line run emits every end-to-end metric", set(metrics) == set(end_to_end))
        expect("command-line run passes its checks", checks.failed == 0, checks.failures)
        expect("twin build digest stored for the next run",
               os.path.exists(os.path.join(work, "digests", "pg2_2-c0.sha256")))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "FAIL" if FAILURES else "pass")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
