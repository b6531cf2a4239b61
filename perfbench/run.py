"""Benchmark of twinbuild: end-to-end and per-layer metrics of its workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-pg2_3 --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the environment and the seed chambers.  A full
record (every pass, every failed check) and, for traced runs, the spans are
written under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def environment(root: str) -> dict:
    """What a result depends on besides the code: versions, cores, load."""
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = None
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            loadavg = fh.read().split()[:3]
    except OSError:
        loadavg = None
    return {
        "python": platform.python_version(),
        "sympy": sympy,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "loadavg": loadavg,
    }


def git_commit(root: str):
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def tracing_overhead(out_dir: str, args, metrics: dict):
    """Traced minus untraced ``total_s`` of this workload and seed, when an
    untraced run of them left its record; None otherwise."""
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace0.json")
    try:
        with open(path, encoding="utf-8") as fh:
            untraced = json.load(fh)["metrics"]["total_s"]
    except (OSError, KeyError, ValueError):
        return None
    return metrics["trace.total_s"] - untraced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "twinbuild", "__init__.py")):
        print(f"no twinbuild sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = environment(root)

    import_s = 0.0
    if args.trace:
        t0 = time.perf_counter()
        importlib.import_module("twinbuild.cli")
        import_s = time.perf_counter() - t0

    import workloads
    from hostspeed import HostSpeed
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    chambers = workloads.seed_chambers(args.workload, args.seed)
    checks = workloads.Checks()
    t0 = time.perf_counter()
    library = args.workload in workloads.LIBRARY
    # Untraced, the library workloads probe the host's speed during their
    # phases and the command-line children probe it in their own processes;
    # traced, only around phases, so that no probe lengthens a span.
    if args.trace:
        clock = HostSpeed()
    elif library:
        clock = HostSpeed(workloads.PROBE_PERIOD_S)
    else:
        clock = HostSpeed(edges=False)
    if library:
        one = workloads.LibraryPass(workloads.LIBRARY[args.workload], chambers[0], checks, clock)
        setup_samples = workloads.LIBRARY_SETUP_SAMPLES
        workloads.warm_up()
    else:
        run = (workloads.inprocess_runner if args.trace else
               workloads.subprocess_runner(root, clock, os.path.join(out_dir, "child-probes")))
        one = workloads.CliPass(workloads.CLI_FIXTURE, run, os.path.join(out_dir, "cli-work"),
                                chambers, checks, os.path.join(out_dir, "digests"), clock)
        setup_samples = workloads.CLI_SETUP_SAMPLES
    walls = None
    try:
        with clock:
            if args.trace:
                spans_path = os.path.join(out_dir, f"spans-{args.workload}")
                metrics, passes = workloads.run_traced(one, args.seconds, checks, Tracer(),
                                                       import_s, spans_path)
                units = dict(workloads.PER_LAYER)
            else:
                metrics, walls, passes = workloads.run_untraced(one, args.seconds, checks,
                                                                setup_samples)
                units = dict(workloads.END_TO_END)
    finally:
        one.close()
    wall = time.perf_counter() - t0

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "chambers": chambers, "passes": passes,
        "wall_s": wall, "env": env, "attempted": checks.attempted,
        "failed": checks.failed, "error_rate": checks.error_rate,
        "failures": checks.failures[:20], "metrics": metrics, "wall_metrics": walls,
        "host_speed": {"probes": len(clock.speeds),
                       "median": statistics.median(clock.speeds) if clock.speeds else None},
    }
    if args.trace:
        record["trace_overhead_s"] = tracing_overhead(out_dir, args, metrics)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: record[k] for k in
                      ("workload", "seed", "chambers", "passes", "error_rate", "env",
                       "trace_overhead_s") if k in record}))
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
