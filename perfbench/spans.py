"""In-memory spans and counters around the public calls of twinbuild.

A ``Tracer`` wraps each traced function once and rebinds the wrapper in every
``twinbuild`` module that binds the original, so a call is seen whichever
namespace it goes through (``twinbuild.twinner.beta``,
``twinbuild.cli.assemble_twin``, ...).  Methods are patched on their class.
Every wrapped call records a span (name, start, end, parent); self time is
the span's duration minus the time covered by its child spans.  The hot
``WeylTable`` methods (about 10^7 calls on pg3(2)) get call counts only.

Nothing here changes what the program computes: wrappers pass arguments and
results through unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

# (module, attribute, span name); "Class.method" patches a method.
SPANNED = [
    ("coxeter", "enumerate_weyl", "coxeter.enumerate_weyl"),
    ("catalog", "gen_pg2", "catalog.gen"),
    ("catalog", "gen_pg3", "catalog.gen"),
    ("catalog", "gen_sp4", "catalog.gen"),
    ("chambersys", "validate_building", "chambersys.validate_building"),
    ("chambersys", "Building.residue", "chambersys.residue"),
    ("chambersys", "Building.proj_chamber", "chambersys.proj_chamber"),
    ("codistance", "from_opposite_chamber", "codistance.from_opposite_chamber"),
    ("codistance", "validate_codistance", "codistance.validate_codistance"),
    ("codistance", "fop_c", "codistance.fop_c"),
    ("codistance", "proj_f", "codistance.proj_f"),
    ("homotopy", "check_lco", "homotopy.check_lco"),
    ("homotopy", "check_lsco", "homotopy.check_lsco"),
    ("homotopy", "simply_2_connected", "homotopy.simply_2_connected"),
    ("panelcalc", "beta", "panelcalc.beta"),
    ("panelcalc", "beta_w", "panelcalc.beta_w"),
    ("panelcalc", "panels_op_c", "panelcalc.panels_op_c"),
    ("twinner", "atlas_component", "twinner.atlas_component"),
    ("twinner", "adjacent_codistance", "twinner.adjacent_codistance"),
    ("twinner", "assemble_twin", "twinner.assemble_twin"),
    ("twinner", "alpha_check", "twinner.alpha_check"),
    ("twinner", "CodistanceAtlas.residue_members", "twinner.residue_members"),
    ("cli", "main", "cli.main"),
    ("cli", "parse_building", "cli.parse_building"),
    ("cli", "parse_codistance", "cli.parse_codistance"),
    ("cli", "serialize_building", "cli.serialize"),
    ("cli", "serialize_codistance", "cli.serialize"),
    ("cli", "_read", "cli.read"),
    ("cli", "_write", "cli.write"),
]

COUNTED = [
    ("coxeter", "WeylTable.inv", "coxeter.inv.calls"),
    ("coxeter", "WeylTable.mult", "coxeter.mult.calls"),
]

VERDICT_KEYS = {
    "ProvenTrivial": "homotopy.verdict.trivial",
    "ProvenNontrivial": "homotopy.verdict.nontrivial",
    "Inconclusive": "homotopy.verdict.inconclusive",
}


class Tracer:
    """Spans and counters for one process; ``reset`` starts a new pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, float] = {}
        self._cells: dict[str, list[int]] = {}
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.self_s[:] = [0.0] * len(self.names)
        self.calls[:] = [0] * len(self.names)
        self.counts.clear()
        for cell in self._cells.values():
            cell[0] = 0
        self._stack.clear()

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- spans ------------------------------------------------------------

    def _enter(self, nid: int) -> list:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0, nid]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        idx, child, nid = frame
        dur = t1 - t0
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        self.self_s[nid] += dur - child
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def span(self, name: str) -> "_SpanContext":
        """A span opened by the harness itself, around a phase."""
        return _SpanContext(self, self._nid(name))

    def wrap(self, fn, name: str, observe=None):
        nid = self._nid(name)
        enter, exit_, clock = self._enter, self._exit, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame, t0, clock())
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def counter(self, fn, key: str):
        cell = self._cells.setdefault(key, [0])

        @functools.wraps(fn)
        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    # -- installation -----------------------------------------------------

    def _observers(self) -> dict[str, object]:
        def verdict(result, args):
            self.count(VERDICT_KEYS[result.status])

        def weyl(result, args):
            self.counts["coxeter.group_order"] = max(
                self.counts.get("coxeter.group_order", 0), result.size)

        def building(result, args):
            self.counts["catalog.chambers"] = max(
                self.counts.get("catalog.chambers", 0), result.n)

        def atlas(result, args):
            self.count("twinner.atlas.members", len(result.members))
            self.count("twinner.atlas.new_members", len(result.members) - 1)

        return {
            "homotopy.simply_2_connected": verdict,
            "coxeter.enumerate_weyl": weyl,
            "catalog.gen": building,
            "twinner.atlas_component": atlas,
            "cli.read": lambda result, args: self.count("cli.bytes_read", len(result.encode())),
            "cli.write": lambda result, args: self.count("cli.bytes_written", len(args[1].encode())),
        }

    def install(self) -> None:
        """Wrap every traced callable; ``uninstall`` undoes it."""
        modules = [
            importlib.import_module(f"twinbuild.{m}")
            for m in ("coxeter", "catalog", "chambersys", "codistance",
                      "homotopy", "panelcalc", "twinner", "cli")
        ]
        observers = self._observers()
        for module, attr, name in SPANNED:
            self._patch(module, attr, lambda fn, n=name: self.wrap(fn, n, observers.get(n)), modules)
        for module, attr, key in COUNTED:
            self._patch(module, attr, lambda fn, k=key: self.counter(fn, k), modules)
        self.reset()

    def _patch(self, module: str, attr: str, make, modules) -> None:
        owner = importlib.import_module(f"twinbuild.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def module_self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, t in zip(self.names, self.self_s):
            module = name.split(".")[0]
            out[module] = out.get(module, 0.0) + t
        return out

    def count_of(self, key: str) -> float:
        """A count from an observer or from a counted method; 0 if none."""
        cell = self._cells.get(key)
        return cell[0] if cell is not None else self.counts.get(key, 0)

    def write_spans(self, path: str) -> None:
        """Write this pass's spans as a name table plus four binary arrays:
        name id (int32), parent span index (int64, -1 for a root), start and
        end (float64 seconds of ``time.perf_counter``)."""
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.span_start),
                       "arrays": ["name:i", "parent:q", "start:d", "end:d"]}, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


class _SpanContext:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.frame = self.tracer._enter(self.nid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._exit(self.frame, self.t0, time.perf_counter())
