"""Command line surface: generators, validators, sweeps, and twin builds.

Exit codes: 0 = pass, 1 = violation found, 2 = inconclusive, 3 = input
error.  All output orderings are deterministic so that repeated runs on
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from operator import add
from typing import Iterable, Optional, Sequence

from .catalog import (
    gen_digon,
    gen_pg2,
    gen_pg3,
    gen_sp4,
    gen_thin,
    matrix_A1,
    matrix_A2,
    matrix_A3,
    matrix_B2,
    matrix_B4,
    matrix_I2,
)
from .chambersys import Building, ChamberSystem, validate_building
from .codistance import Codistance, from_opposite_chamber, validate_codistance
from .coxeter import CoxeterMatrix, enumerate_weyl
from .errors import CapExceeded, FormatError, NotConnected, TwinbuildError, UnsupportedQ
from .homotopy import INCONCLUSIVE, PROVEN_TRIVIAL, check_lco, check_lsco, simply_2_connected
from .twinner import CodistanceAtlas, assemble_twin, atlas_component

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
# the key-line word (LCO=, LSCO=, fop's RESULT=) of each ``_verdict_exit`` code
LOCAL_WORDS = {EXIT_PASS: "pass", EXIT_VIOLATION: "fail", EXIT_INCONCLUSIVE: "inconclusive"}

THIN_TYPES = {
    "a1": matrix_A1,
    "a2": matrix_A2,
    "b2": matrix_B2,
    "g2": lambda: matrix_I2(6),
    "a3": matrix_A3,
    "b4": matrix_B4,
}

# family -> building from the parsed `gen` arguments
GENERATORS = {
    "pg2": lambda args: gen_pg2(args.q),
    "pg3": lambda args: gen_pg3(args.q),
    "sp4": lambda args: gen_sp4(args.q),
    "digon": lambda args: gen_digon(args.a, args.b),
    "thin": lambda args: gen_thin(THIN_TYPES[args.type]()),
}


# -- serialization ------------------------------------------------------------


def serialize_building(b: Building) -> str:
    matrix = b.weyl.matrix
    lines = ["%building 1", f"name {b.name}", f"rank {matrix.rank}",
             "gens " + " ".join(matrix.gens), "matrix"]
    for row in matrix.m:
        lines.append(" ".join(str(e) for e in row))
    lines.append(f"chambers {b.n}")
    for s, gname in enumerate(matrix.gens):
        lines.append(f"panels {gname}")
        for panel in sorted(tuple(sorted(p)) for p in b.system.panels[s]):
            lines.append(" ".join(str(c) for c in panel))
    lines.append("end")
    return "\n".join(lines) + "\n"


class _Cursor:
    def __init__(self, text: str) -> None:
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise FormatError("unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect_prefix(self, prefix: str) -> str:
        line = self.next()
        if not line.startswith(prefix + " ") and line != prefix:
            raise FormatError(f"expected {prefix!r}, got {line!r}")
        return line[len(prefix):].strip()

    def expect_end(self) -> None:
        """The end marker, which must be the last line."""
        if self.next() != "end":
            raise FormatError("missing end marker")
        if self.pos < len(self.lines):
            raise FormatError(f"line after end marker: {self.lines[self.pos]!r}")


def _parse_bundle(text: str) -> tuple[str, CoxeterMatrix, int, list]:
    """The name, diagram, chamber count and panels of a building bundle,
    after every syntax check; W is not enumerated."""
    cur = _Cursor(text)
    try:
        header = cur.next()
        if header != "%building 1":
            raise FormatError(f"unsupported building format: {header!r}")
        name = cur.expect_prefix("name")
        rank = int(cur.expect_prefix("rank"))
        gens = tuple(cur.expect_prefix("gens").split())
        if len(gens) != rank:
            raise FormatError("generator count does not match rank")
        if cur.next() != "matrix":
            raise FormatError("expected matrix block")
        rows = [tuple(int(e) for e in cur.next().split()) for _ in range(rank)]
        n = int(cur.expect_prefix("chambers"))
        matrix = CoxeterMatrix(gens, tuple(rows))
        panels: list[list[tuple[int, ...]]] = []
        for gname in gens:
            tag = cur.expect_prefix("panels")
            if tag != gname:
                raise FormatError(f"expected panels for {gname!r}, got {tag!r}")
            fam: list[tuple[int, ...]] = []
            while cur.pos < len(cur.lines):
                line = cur.lines[cur.pos]
                if line.startswith("panels ") or line == "end":
                    break
                cur.pos += 1
                ids = tuple(int(x) for x in line.split())
                if list(ids) != sorted(set(ids)):
                    raise FormatError(f"panel ids not strictly ascending: {line!r}")
                fam.append(ids)
            panels.append(fam)
        cur.expect_end()
        return name, matrix, n, panels
    except (TwinbuildError, ValueError) as e:
        raise FormatError(str(e))


def parse_chamber_system(text: str) -> tuple[str, ChamberSystem]:
    """The name and chamber system of a building bundle, after every syntax
    and panel-partition check; no distance row is computed."""
    name, matrix, n, panels = _parse_bundle(text)
    try:
        return name, ChamberSystem(enumerate_weyl(matrix), n, panels)
    except (TwinbuildError, ValueError) as e:
        raise FormatError(str(e))


def parse_building(text: str) -> Building:
    name, system = parse_chamber_system(text)
    try:
        return Building(system, name=name)
    except NotConnected as e:
        raise FormatError(str(e))


@cache
def _heads(n: int) -> tuple[str, ...]:
    """The line heads f"{c} " of 0..n-1, built once per count."""
    return tuple(f"{c} " for c in range(n))


def _codistance_text(b: Building, values: Sequence[int]) -> str:
    """The canonical text of the codistance on b with these values."""
    lines = map(add, _heads(b.n), map(b.weyl.word_lines.__getitem__, values))
    return f"%codistance 1\nbuilding {b.name}\nvalues\n" + "".join(lines) + "end\n"


def serialize_codistance(f: Codistance) -> str:
    return _codistance_text(f.building, f.values)


def parse_codistance(text: str, b: Building) -> Codistance:
    """A canonical text is accepted in one comparison; any other is read
    line by line, which warns of each non-canonical word and names the
    first bad line."""
    try:
        values = list(map(b.weyl.word_ids.__getitem__,
                          text.partition("\nvalues\n")[2].split()[1:-1:2]))
    except KeyError:
        values = None
    if values is not None and len(values) == b.n and _codistance_text(b, values) == text:
        return Codistance(b, values)
    cur = _Cursor(text)
    header = cur.next()
    if header != "%codistance 1":
        raise FormatError(f"unsupported codistance format: {header!r}")
    bname = cur.expect_prefix("building")
    if bname != b.name:
        raise FormatError(f"codistance is for building {bname!r}, not {b.name!r}")
    if cur.next() != "values":
        raise FormatError("expected values block")
    table = b.weyl
    values = [0] * b.n
    seen = [False] * b.n
    for _ in range(b.n):
        parts = cur.next().split()
        if len(parts) != 2:
            raise FormatError(f"bad value line: {' '.join(parts)!r}")
        try:
            c = int(parts[0])
            if not 0 <= c < b.n or seen[c]:
                raise FormatError(f"bad or repeated chamber id {parts[0]}")
            w = table.word_ids.get(parts[1])
            if w is None:
                w = table.parse_word(parts[1])
                print(
                    f"warning: word {parts[1]!r} canonicalized to {table.word_str(w)!r}",
                    file=sys.stderr,
                )
        except ValueError as e:
            raise FormatError(str(e))
        seen[c] = True
        values[c] = w
    cur.expect_end()
    return Codistance(b, values)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise FormatError(str(e))
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: {e}")


def _read_building(path: str) -> Building:
    """Parse a building bundle, rejecting one that fails Bu1-Bu3."""
    b = parse_building(_read(path))
    v = validate_building(b).violation
    if v is not None:
        raise FormatError(f"not a building: {v.axiom} {v.witness}: {v.detail}")
    return b


def _read_codistance(path: str, b: Building) -> Codistance:
    """Parse a codistance file, rejecting a map that fails the panel axiom."""
    f = parse_codistance(_read(path), b)
    v = validate_codistance(f).violation
    if v is not None:
        raise FormatError(
            f"not a codistance: type {v.generator} panel {v.panel}: {v.detail}"
        )
    return f


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise FormatError(str(e))


# -- subcommands --------------------------------------------------------------


def _cmd_gen(args) -> int:
    try:
        b = GENERATORS[args.family](args)
    except (UnsupportedQ, ValueError) as e:
        raise FormatError(str(e))
    _write(args.output, serialize_building(b))
    print(f"wrote {b.name}: {b.n} chambers, rank {b.system.rank}")
    return EXIT_PASS


def _cmd_validate_building(args) -> int:
    text = _read(args.file)
    b = parse_building(text)
    report = validate_building(b)
    if serialize_building(b) != text:
        print("note: input was not in canonical form", file=sys.stderr)
    if report.ok:
        print(f"{b.name}: {b.n} chambers, thick={b.system.is_thick()}")
        print("RESULT=pass")
        return EXIT_PASS
    v = report.violation
    print(f"violation {v.axiom}: {v.witness} ({v.detail})")
    print("RESULT=fail")
    return EXIT_VIOLATION


def _cmd_validate_codistance(args) -> int:
    b = _read_building(args.building)
    f = parse_codistance(_read(args.file), b)
    report = validate_codistance(f)
    if report.ok:
        print(f"codistance on {b.name}: ok, FOP_SIZE={f.values.count(0)}")
        print("RESULT=pass")
        return EXIT_PASS
    v = report.violation
    print(f"panel violation: type {v.generator} panel {v.panel}: {v.detail}")
    print("RESULT=fail")
    return EXIT_VIOLATION


def _cmd_from_opposite(args) -> int:
    b = _read_building(args.building)
    if not 0 <= args.chamber < b.n:
        raise FormatError(f"chamber {args.chamber} out of range")
    f = from_opposite_chamber(b, args.chamber)
    _write(args.output, serialize_codistance(f))
    print(f"wrote codistance opposite chamber {args.chamber}, FOP_SIZE={f.values.count(0)}")
    return EXIT_PASS


def _cmd_check(args) -> int:
    b = _read_building(args.building)
    if args.condition == "lco":
        report = check_lco(b)
        key = "LCO"
    else:
        report = check_lsco(b)
        key = "LSCO"
    for e in report.entries:
        print(
            f"residue type {e.J} at {e.residue_base}, chamber {e.chamber}: "
            f"{e.verdict.status}"
        )
    code = _local_exit(report)
    print(f"{key}={LOCAL_WORDS[code]}")
    return code


def _local_exit(*reports) -> int:
    """The exit code of the verdicts of the reports' entries."""
    return _verdict_exit(e.verdict.status for r in reports for e in r.entries)


def _verdict_exit(statuses: Iterable[str]) -> int:
    """A proven violation exits 1; otherwise an inconclusive verdict exits 2,
    and ProvenTrivial alone, or no verdict at all, exits 0."""
    statuses = set(statuses) - {PROVEN_TRIVIAL}
    if not statuses:
        return EXIT_PASS
    return EXIT_INCONCLUSIVE if statuses == {INCONCLUSIVE} else EXIT_VIOLATION


def _cmd_fop(args) -> int:
    b = _read_building(args.building)
    f = _read_codistance(args.codistance, b)
    fop = f.fop()
    print("fop " + " ".join(str(c) for c in fop))
    print(f"FOP_SIZE={len(fop)}")
    try:
        verdict = simply_2_connected(fop, b)
    except NotConnected:
        print("connected=no")
        print("RESULT=fail")
        return EXIT_VIOLATION
    print("connected=yes")
    print(f"simply_2_connected={verdict.status}")
    code = _verdict_exit([verdict.status])
    print(f"RESULT={LOCAL_WORDS[code]}")
    return code


def _twin_report(b: Building, atlas: CodistanceAtlas, report, local: str) -> str:
    seed_match = {True: "pass", False: "fail", None: "n/a"}[report.seed_ok]
    lines = [
        f"twin building over {b.name} with {b.n} chambers",
        f"atlas members: {len(atlas.members)}",
        "",
        f"RESULT={'pass' if report.ok else 'fail'}",
        f"ATLAS_SIZE={len(atlas.members)}",
        f"FOP_SIZE={atlas.members[atlas.origin].values.count(0)}",
        f"LCO={local}",
        f"LSCO={local}",
        f"TW_AXIOMS={'pass' if report.tw_axioms_ok else 'fail'}",
    ]
    for key, ok in (
        ("BUILDING", report.building_ok),
        ("OPPOSITION", report.opposition_ok),
        ("PLUS_STAR", report.plus_star_ok),
        ("DIAGRAM", report.diagram_ok),
    ):
        if not ok:
            lines.append(f"{key}=fail")
    lines.append(f"SEED_MATCH={seed_match}")
    return "\n".join(lines) + "\n"


def _cmd_twin_build(args) -> int:
    b = _read_building(args.building)
    f = _read_codistance(args.codistance, b)
    try:
        os.makedirs(args.output, exist_ok=True)
    except OSError as e:
        raise FormatError(str(e))
    code = _local_exit(check_lco(b), check_lsco(b))
    if code == EXIT_VIOLATION:
        print("building fails lco/lsco; twin construction not attempted")
        print("RESULT=fail")
        return code
    if code == EXIT_INCONCLUSIVE:
        print("RESULT=inconclusive (lco/lsco not decided)")
        return code
    try:
        atlas = atlas_component(f)
    except CapExceeded as e:
        print(f"RESULT=inconclusive ({e})")
        return EXIT_INCONCLUSIVE
    assembly = assemble_twin(atlas, b, seed=f)
    _write(os.path.join(args.output, "minus.bld"), serialize_building(b))
    _write(
        os.path.join(args.output, "plus.bld"),
        serialize_building(assembly.plus),
    )
    for i, g in enumerate(atlas.members):
        _write(
            os.path.join(args.output, f"codistance_{i:04d}.cod"),
            serialize_codistance(g),
        )
    report_text = _twin_report(b, atlas, assembly.report, "pass")
    _write(os.path.join(args.output, "report.txt"), report_text)
    sys.stdout.write(report_text)
    return EXIT_PASS if assembly.report.ok else EXIT_VIOLATION


def read_twin(directory: str) -> tuple[Building, CodistanceAtlas]:
    """B- and its codistance atlas from a ``twin build`` directory: B- from
    minus.bld through ``_read_building``, one member per codistance file,
    and the panels of B+ from plus.bld, whose diagram must be B-'s.  The
    atlas builds B+ on B-'s Weyl table, once, so a plus.bld whose panels
    are no partition or are not gallery-connected is input error there."""
    b = _read_building(os.path.join(directory, "minus.bld"))
    _, matrix, n, panels = _parse_bundle(_read(os.path.join(directory, "plus.bld")))
    if matrix != b.weyl.matrix:
        raise FormatError("plus.bld and minus.bld declare different diagrams")
    members = []
    for i in range(n):
        path = os.path.join(directory, f"codistance_{i:04d}.cod")
        members.append(parse_codistance(_read(path), b))
    try:
        atlas = CodistanceAtlas(b, members, panels)
    except (ValueError, NotConnected) as e:
        raise FormatError(str(e))
    return b, atlas


def _cmd_twin_verify(args) -> int:
    b, atlas = read_twin(args.directory)
    # lco and lsco are facts about B- that no twin verdict reads: n/a here
    assembly = assemble_twin(atlas, b)
    report_text = _twin_report(b, atlas, assembly.report, "n/a")
    sys.stdout.write(report_text)
    return EXIT_PASS if assembly.report.ok else EXIT_VIOLATION


def _cmd_weyl(args) -> int:
    """The order and length histogram of W, which need no distance row."""
    _, system = parse_chamber_system(_read(args.building))
    table = system.weyl
    print(f"order {table.size}")
    hist: dict[int, int] = {}
    for w in range(table.size):
        hist[table.length[w]] = hist.get(table.length[w], 0) + 1
    for l in sorted(hist):
        print(f"length {l}: {hist[l]}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twinbuild")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a catalog building")
    p_gen.add_argument("family", choices=list(GENERATORS))
    p_gen.add_argument("--q", type=int, default=2)
    p_gen.add_argument("--a", type=int, default=3)
    p_gen.add_argument("--b", type=int, default=3)
    p_gen.add_argument("--type", choices=sorted(THIN_TYPES), default="a2")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_val = sub.add_parser("validate", help="validate a file")
    val_sub = p_val.add_subparsers(dest="what", required=True)
    v_b = val_sub.add_parser("building")
    v_b.add_argument("file")
    v_b.set_defaults(func=_cmd_validate_building)
    v_c = val_sub.add_parser("codistance")
    v_c.add_argument("file")
    v_c.add_argument("--building", required=True)
    v_c.set_defaults(func=_cmd_validate_codistance)

    p_cod = sub.add_parser("codist", help="codistance constructions")
    cod_sub = p_cod.add_subparsers(dest="what", required=True)
    c_opp = cod_sub.add_parser("from-opposite")
    c_opp.add_argument("--building", required=True)
    c_opp.add_argument("--chamber", type=int, required=True)
    c_opp.add_argument("-o", "--output", required=True)
    c_opp.set_defaults(func=_cmd_from_opposite)

    p_chk = sub.add_parser("check", help="local conditions")
    p_chk.add_argument("condition", choices=["lco", "lsco"])
    p_chk.add_argument("--building", required=True)
    p_chk.set_defaults(func=_cmd_check)

    p_fop = sub.add_parser("fop", help="opposition set of a codistance")
    p_fop.add_argument("--codistance", required=True)
    p_fop.add_argument("--building", required=True)
    p_fop.set_defaults(func=_cmd_fop)

    p_twin = sub.add_parser("twin", help="twin building construction")
    twin_sub = p_twin.add_subparsers(dest="what", required=True)
    t_b = twin_sub.add_parser("build")
    t_b.add_argument("--building", required=True)
    t_b.add_argument("--codistance", required=True)
    t_b.add_argument("-o", "--output", required=True)
    t_b.set_defaults(func=_cmd_twin_build)
    t_v = twin_sub.add_parser("verify")
    t_v.add_argument("directory")
    t_v.set_defaults(func=_cmd_twin_verify)

    p_weyl = sub.add_parser("weyl", help="Weyl group info")
    weyl_sub = p_weyl.add_subparsers(dest="what", required=True)
    w_e = weyl_sub.add_parser("enumerate")
    w_e.add_argument("--building", required=True)
    w_e.set_defaults(func=_cmd_weyl)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse has printed a usage error and exits 2, meaning inconclusive
        if e.code != 2:
            raise
        return EXIT_INPUT
    try:
        return args.func(args)
    except FormatError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except TwinbuildError as e:
        print(f"violation: {e}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
