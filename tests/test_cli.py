"""Command line interface: file formats, exit codes, and determinism."""

import dataclasses
import filecmp
import gc
import hashlib
import itertools
import os
import re
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twinbuild.catalog import gen_thin, matrix_A2, matrix_I2
from twinbuild.chambersys import Building, ChamberSystem, validate_building
from twinbuild.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_PASS,
    EXIT_VIOLATION,
    main,
    parse_building,
    parse_codistance,
    read_twin,
    serialize_building,
    serialize_codistance,
)
from twinbuild import cli, twinner
from twinbuild.codistance import Codistance, from_opposite_chamber, validate_codistance
from twinbuild.coxeter import WeylTable, enumerate_weyl
from twinbuild.errors import FormatError
from twinbuild.homotopy import (
    INCONCLUSIVE,
    PROVEN_NONTRIVIAL,
    LocalConditionReport,
    OppositeSetEntry,
    TrivialityVerdict,
)


@pytest.fixture
def fano_file(tmp_path, fano):
    path = tmp_path / "fano.bld"
    path.write_text(serialize_building(fano))
    return str(path)


@pytest.fixture
def fano_cod_file(tmp_path, fano):
    f = from_opposite_chamber(fano, 0)
    path = tmp_path / "fano.cod"
    path.write_text(serialize_codistance(f))
    return str(path)


# -- round trips --------------------------------------------------------------


def test_building_round_trip(fano):
    text = serialize_building(fano)
    b2 = parse_building(text)
    assert serialize_building(b2) == text
    assert b2.n == fano.n
    assert b2.name == fano.name
    for x in range(fano.n):
        assert b2.delta(0, x) == fano.delta(0, x)


def test_codistance_round_trip(fano):
    f = from_opposite_chamber(fano, 3)
    text = serialize_codistance(f)
    f2 = parse_codistance(text, fano)
    assert f2.values == f.values
    assert serialize_codistance(f2) == text


def test_non_canonical_word_warns(fano, capsys):
    f = from_opposite_chamber(fano, 0)
    text = serialize_codistance(f)
    # rewrite one entry with a non-reduced word for the same element
    table = fano.weyl
    c = next(x for x in range(fano.n) if f(x) == table.gen(0))
    name = table.matrix.gens[0]
    doubled = name + name + name
    lines = text.splitlines()
    idx = lines.index(f"{c} {name}")
    lines[idx] = f"{c} {doubled}"
    f2 = parse_codistance("\n".join(lines) + "\n", fano)
    assert f2.values == f.values
    assert "canonicalized" in capsys.readouterr().err


@pytest.mark.parametrize("variant", [
    "canonical", "two-lines-swapped", "crlf", "trailing-space", "word-respelled-pp",
    "last-word-changed", "empty-line-after-end",
])
def test_parse_codistance_reads_each_variant_of_a_pg23_member(pg23, capsys, variant):
    # a canonical text is accepted in one comparison; every other text is
    # read line by line, with the same values, warnings and errors
    f = from_opposite_chamber(pg23, 5)
    text = serialize_codistance(f)
    lines = text.splitlines()
    expected, err = list(f.values), ""
    if variant == "two-lines-swapped":
        lines[3], lines[4] = lines[4], lines[3]
    elif variant == "trailing-space":
        lines[10] += " "
    elif variant == "word-respelled-pp":
        c = f.values.index(0)
        lines[3 + c] = f"{c} pp"
        err = "warning: word 'pp' canonicalized to '-'\n"
    elif variant == "last-word-changed":
        expected[-1] = (expected[-1] + 1) % pg23.weyl.size
        lines[-2] = f"{pg23.n - 1} {pg23.weyl.word_strs[expected[-1]]}"
    elif variant == "empty-line-after-end":
        lines.append("")
    newline = "\r\n" if variant == "crlf" else "\n"
    edited = newline.join(lines) + newline
    assert (edited == text) == (variant == "canonical")
    capsys.readouterr()
    if variant == "empty-line-after-end":
        with pytest.raises(FormatError) as excinfo:
            parse_codistance(edited, pg23)
        assert str(excinfo.value) == "line after end marker: ''"
    else:
        assert list(parse_codistance(edited, pg23).values) == expected
    assert capsys.readouterr().err == err


def test_bad_version_rejected(fano, tmp_path):
    text = serialize_building(fano).replace("%building 1", "%building 2", 1)
    path = tmp_path / "bad.bld"
    path.write_text(text)
    assert main(["validate", "building", str(path)]) == EXIT_INPUT


def test_missing_file_is_input_error(tmp_path):
    assert main(["validate", "building", str(tmp_path / "nope.bld")]) == EXIT_INPUT


# -- subcommands --------------------------------------------------------------


def test_gen_and_validate(tmp_path, capsys):
    out = str(tmp_path / "b.bld")
    assert main(["gen", "pg2", "--q", "2", "-o", out]) == EXIT_PASS
    assert main(["validate", "building", out]) == EXIT_PASS
    assert "RESULT=pass" in capsys.readouterr().out


def test_validate_building_reports_first_violation(tmp_path, capsys):
    # the thin G2 panels under the A2 matrix: a chamber system, not a building
    g2 = gen_thin(matrix_I2(6))
    system = ChamberSystem(enumerate_weyl(matrix_A2()), g2.n, g2.system.panels)
    path = tmp_path / "g2_as_a2.bld"
    path.write_text(serialize_building(Building(system, name="g2_as_a2")))
    assert main(["validate", "building", str(path)]) == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert out.splitlines() == ["violation Bu1: (0, 11) (delta=-)", "RESULT=fail"]


def test_gen_unsupported_q(tmp_path):
    out = str(tmp_path / "b.bld")
    assert main(["gen", "pg2", "--q", "6", "-o", out]) == EXIT_INPUT


@pytest.mark.parametrize("argv, code, out, err", [
    (["pg2"], EXIT_PASS, "wrote pg2_2: 21 chambers, rank 2\n", ""),
    (["pg3"], EXIT_PASS, "wrote pg3_2: 315 chambers, rank 3\n", ""),
    (["sp4", "--q", "3"], EXIT_PASS, "wrote sp4_3: 160 chambers, rank 2\n", ""),
    (["digon"], EXIT_PASS, "wrote digon_3_3: 9 chambers, rank 2\n", ""),
    (["thin", "--type", "a3"], EXIT_PASS, "wrote thin_pxlxh: 24 chambers, rank 3\n", ""),
    (["digon", "--a", "1"], EXIT_INPUT, "", "input error: digon sizes must be >= 2\n"),
    (["pg2", "--q", "4"], EXIT_INPUT, "",
     "input error: q=4 not supported (prime q only)\n"),
])
def test_gen_output(tmp_path, capsys, argv, code, out, err):
    assert main(["gen", *argv, "-o", str(tmp_path / "b.bld")]) == code
    assert capsys.readouterr() == (out, err)


def test_gen_unknown_family(tmp_path, capsys):
    assert main(["gen", "foo", "-o", str(tmp_path / "b.bld")]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "{pg2,pg3,sp4,digon,thin}" in captured.err
    assert captured.err.splitlines()[-1].startswith(
        "twinbuild gen: error: argument family: invalid choice: 'foo'"
    )


def test_unknown_option_of_a_subcommand(fano_file, fano_cod_file, capsys):
    argv = ["fop", "--building", fano_file, "--codistance", fano_cod_file, "--chamber", "3"]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "twinbuild: error: unrecognized arguments: --chamber 3"
    )


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fop", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: twinbuild fop")


def test_validate_codistance(fano_file, fano_cod_file, capsys):
    code = main(
        ["validate", "codistance", fano_cod_file, "--building", fano_file]
    )
    assert code == EXIT_PASS
    assert "FOP_SIZE=8" in capsys.readouterr().out


def test_validate_codistance_failure(fano, fano_file, tmp_path, capsys):
    f = from_opposite_chamber(fano, 0)
    text = serialize_codistance(f)
    table = fano.weyl
    name0 = table.matrix.gens[0]
    # give chamber 0 the f-value of a non-adjacent coset: breaks the panel law
    lines = text.splitlines()
    target = f"0 {table.word_str(f(0))}"
    idx = lines.index(target)
    lines[idx] = f"0 {name0}"
    bad = tmp_path / "bad.cod"
    bad.write_text("\n".join(lines) + "\n")
    code = main(["validate", "codistance", str(bad), "--building", fano_file])
    assert code == EXIT_VIOLATION
    assert "RESULT=fail" in capsys.readouterr().out


def test_codist_from_opposite(fano_file, tmp_path, capsys):
    out = str(tmp_path / "f.cod")
    code = main(
        ["codist", "from-opposite", "--building", fano_file,
         "--chamber", "0", "-o", out]
    )
    assert code == EXIT_PASS
    assert main(["validate", "codistance", out, "--building", fano_file]) == EXIT_PASS


def test_codist_from_opposite_bad_chamber(fano_file, tmp_path):
    out = str(tmp_path / "f.cod")
    code = main(
        ["codist", "from-opposite", "--building", fano_file,
         "--chamber", "99", "-o", out]
    )
    assert code == EXIT_INPUT


def test_check_lco_pass(fano_file, capsys):
    assert main(["check", "lco", "--building", fano_file]) == EXIT_PASS
    assert "LCO=pass" in capsys.readouterr().out


def test_check_lco_fail_on_quadrangle(tmp_path, sp42, capsys):
    path = tmp_path / "sp42.bld"
    path.write_text(serialize_building(sp42))
    assert main(["check", "lco", "--building", str(path)]) == EXIT_VIOLATION
    assert "LCO=fail" in capsys.readouterr().out


def crafted_report(*statuses):
    """A local-condition report with one entry per verdict status."""
    return LocalConditionReport([
        OppositeSetEntry(0, (0, 1, 2), c, TrivialityVerdict(status))
        for c, status in enumerate(statuses)
    ])


@pytest.mark.parametrize("condition", ["lco", "lsco"])
def test_check_with_a_proven_violation_exits_1(fano_file, capsys, monkeypatch, condition):
    # a verified violation outweighs an undecided set beside it
    mixed = crafted_report(PROVEN_NONTRIVIAL, INCONCLUSIVE)
    monkeypatch.setattr(cli, f"check_{condition}", lambda b: mixed)
    assert main(["check", condition, "--building", fano_file]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert f"{condition.upper()}=fail" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("condition", ["lco", "lsco"])
def test_check_with_only_undecided_sets_says_inconclusive(
    fano_file, capsys, monkeypatch, condition
):
    # the key line names what the exit code says: nothing is proven to fail
    undecided = crafted_report(INCONCLUSIVE)
    monkeypatch.setattr(cli, f"check_{condition}", lambda b: undecided)
    assert main(["check", condition, "--building", fano_file]) == EXIT_INCONCLUSIVE
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"{condition.upper()}=inconclusive"
    assert not any(line.endswith("=fail") for line in lines)


def test_twin_verify_decides_neither_lco_nor_lsco(
    monkeypatch, tmp_path, fano_file, fano_cod_file, capsys
):
    # lco and lsco are conditions on B-, which ``check`` decides; the twin
    # verdict does not read them, so verify prints n/a for both
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    capsys.readouterr()

    def undecidable(b):
        raise AssertionError("twin verify decided a local condition")

    monkeypatch.setattr(cli, "check_lco", undecidable)
    monkeypatch.setattr(cli, "check_lsco", undecidable)
    assert main(["twin", "verify", out]) == EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    assert "LCO=n/a" in lines and "LSCO=n/a" in lines and "RESULT=pass" in lines


def test_fop_command(fano_file, fano_cod_file, capsys):
    code = main(["fop", "--codistance", fano_cod_file, "--building", fano_file])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert "FOP_SIZE=8" in out
    assert "connected=yes" in out
    assert "simply_2_connected=ProvenTrivial" in out


def test_fop_command_disconnected(tmp_path, sp42, capsys):
    # f^op of sp4(2) opposite chamber 0 is disconnected: the verdict comes
    # from the presentation's spanning tree, with the same output
    bld, cod = tmp_path / "sp42.bld", tmp_path / "sp42.cod"
    bld.write_text(serialize_building(sp42))
    cod.write_text(serialize_codistance(from_opposite_chamber(sp42, 0)))
    assert main(["fop", "--codistance", str(cod), "--building", str(bld)]) == EXIT_VIOLATION
    assert capsys.readouterr().out == (
        "fop 4 5 7 8 16 17 19 20 27 29 30 32 39 41 42 44\n"
        "FOP_SIZE=16\n"
        "connected=no\n"
        "RESULT=fail\n"
    )


def test_fop_command_nontrivial(tmp_path, pg32, capsys):
    # f^op of pg3(2) opposite chamber 0 is connected, and its edge-path
    # group is proven nontrivial
    bld, cod = tmp_path / "pg32.bld", tmp_path / "pg32.cod"
    bld.write_text(serialize_building(pg32))
    cod.write_text(serialize_codistance(from_opposite_chamber(pg32, 0)))
    assert main(["fop", "--codistance", str(cod), "--building", str(bld)]) == EXIT_VIOLATION
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        "connected=yes", "simply_2_connected=ProvenNontrivial", "RESULT=fail",
    ]


def test_fop_command_inconclusive(fano_file, fano_cod_file, capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "simply_2_connected", lambda subset, b: TrivialityVerdict(INCONCLUSIVE)
    )
    code = main(["fop", "--codistance", fano_cod_file, "--building", fano_file])
    assert code == EXIT_INCONCLUSIVE
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        "connected=yes", "simply_2_connected=Inconclusive", "RESULT=inconclusive",
    ]


def test_weyl_enumerate(fano_file, capsys):
    assert main(["weyl", "enumerate", "--building", fano_file]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "order 6" in out
    assert "length 3: 1" in out


def no_delta_rows(self, x):
    raise AssertionError("a delta row was computed")


@pytest.mark.parametrize("fixture, lengths", [
    ("fano", [1, 2, 2, 1]),
    ("sp43", [1, 2, 2, 2, 1]),
    ("pg32", [1, 3, 5, 6, 5, 3, 1]),
])
def test_weyl_enumerate_reads_only_the_diagram_and_panels(
    request, tmp_path, capsys, monkeypatch, fixture, lengths
):
    path = tmp_path / "b.bld"
    path.write_text(serialize_building(request.getfixturevalue(fixture)))
    monkeypatch.setattr(Building, "_compute_row", no_delta_rows)
    assert main(["weyl", "enumerate", "--building", str(path)]) == EXIT_PASS
    assert capsys.readouterr().out == f"order {sum(lengths)}\n" + "".join(
        f"length {l}: {k}\n" for l, k in enumerate(lengths))


# -- twin build ---------------------------------------------------------------


def run_twin_build(tmp_path, fano_file, fano_cod_file, name):
    out = str(tmp_path / name)
    code = main(
        ["twin", "build", "--building", fano_file,
         "--codistance", fano_cod_file, "-o", out]
    )
    return code, out


def test_twin_build_outputs(tmp_path, fano_file, fano_cod_file, capsys):
    code, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    assert code == EXIT_PASS
    stdout = capsys.readouterr().out
    assert "RESULT=pass" in stdout
    assert "ATLAS_SIZE=21" in stdout
    # B-, B+, one file per member of B+ and the report: each fact once
    assert sorted(os.listdir(out)) == [f"codistance_{i:04d}.cod" for i in range(21)] + [
        "minus.bld", "plus.bld", "report.txt"]


def test_twin_build_report_says_lco_and_lsco_pass(tmp_path, fano_file, fano_cod_file, capsys):
    # build reaches its report only after both conditions pass; verify's
    # report differs from it only in the lines a directory cannot show
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    built = capsys.readouterr().out
    with open(os.path.join(out, "report.txt")) as fh:
        assert fh.read() == built
    lines = built.splitlines()
    assert "LCO=pass" in lines and "LSCO=pass" in lines and "SEED_MATCH=pass" in lines
    assert main(["twin", "verify", out]) == EXIT_PASS
    assert capsys.readouterr().out == built.replace("LCO=pass", "LCO=n/a").replace(
        "LSCO=pass", "LSCO=n/a").replace("SEED_MATCH=pass", "SEED_MATCH=n/a")


def test_twin_build_deterministic(tmp_path, fano_file, fano_cod_file):
    _, out1 = run_twin_build(tmp_path, fano_file, fano_cod_file, "t1")
    _, out2 = run_twin_build(tmp_path, fano_file, fano_cod_file, "t2")
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
    assert mismatch == [] and errors == []
    assert match == names


def digest_dir(path):
    """sha256 over each file name and its bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("fixture, chamber, digest", [
    ("fano", 0, "b083c57916f2bcf2424156ce72093a192324971c64584fd013ecb81cf16d50c6"),
    ("pg23", 17, "eac2e37294c167933d464e00fafb02d927b5bed555cf1c3cd86b53b6ea27bf8c"),
])
def test_twin_build_bytes_pinned(request, tmp_path, capsys, fixture, chamber, digest):
    # member order, panels and every written byte are fixed, not just
    # repeatable within one version
    b = request.getfixturevalue(fixture)
    bpath = tmp_path / "b.bld"
    bpath.write_text(serialize_building(b))
    cpath = tmp_path / "f.cod"
    cpath.write_text(serialize_codistance(from_opposite_chamber(b, chamber)))
    out = tmp_path / "twin"
    assert main(["twin", "build", "--building", str(bpath),
                 "--codistance", str(cpath), "-o", str(out)]) == EXIT_PASS
    assert digest_dir(out) == digest


def test_panels_out_of_order(tmp_path, fano, fano_file, fano_cod_file, capsys):
    # with its p panels reversed, ChamberSystem.panel_of and
    # Building.partition number the panels differently; the verdict and the
    # twin's bytes are those of the canonical bundle
    text = serialize_building(fano)
    head, rest = text.split("panels p\n")
    p_lines, tail = rest.split("panels l\n")
    reversed_text = (head + "panels p\n" + "".join(reversed(p_lines.splitlines(True)))
                     + "panels l\n" + tail)
    assert reversed_text != text
    path = tmp_path / "reversed.bld"
    path.write_text(reversed_text)
    assert main(["validate", "building", str(path)]) == EXIT_PASS
    captured = capsys.readouterr()
    assert "RESULT=pass" in captured.out.splitlines()
    assert "note: input was not in canonical form" in captured.err
    _, canonical = run_twin_build(tmp_path, fano_file, fano_cod_file, "canonical")
    _, out = run_twin_build(tmp_path, str(path), fano_cod_file, "reversed")
    assert digest_dir(out) == digest_dir(canonical)


@pytest.mark.parametrize("condition", ["lco", "lsco"])
def test_twin_build_with_undecided_conditions_is_inconclusive(
    monkeypatch, tmp_path, fano_file, fano_cod_file, capsys, condition
):
    undecided = crafted_report(INCONCLUSIVE, INCONCLUSIVE)
    monkeypatch.setattr(cli, f"check_{condition}", lambda b: undecided)
    code, _ = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    assert code == EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    assert captured.out == "RESULT=inconclusive (lco/lsco not decided)\n"
    assert captured.err == ""


def test_twin_build_atlas_cap_is_inconclusive(
    monkeypatch, tmp_path, fano_file, fano_cod_file, capsys
):
    # pg2(2) has 21 members; the cap is read when the atlas is closed
    monkeypatch.setattr(twinner, "DEFAULT_ATLAS_CAP", 10)
    code, _ = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    assert code == EXIT_INCONCLUSIVE
    assert "RESULT=inconclusive (atlas exceeds 10 members)\n" in capsys.readouterr().out


def test_twin_build_reports_member_in_two_panels(
    monkeypatch, tmp_path, fano, fano_file, fano_cod_file, capsys
):
    # a neighbourhood that always contains the seed's row puts the seed into
    # a second panel of one type
    seed = from_opposite_chamber(fano, 0)
    real = twinner._adjacent_rows

    def overlapping(g, s, Ptilde):
        return {**real(g, s, Ptilde), -1: seed.values}

    monkeypatch.setattr(twinner, "_adjacent_rows", overlapping)
    with pytest.raises(twinner.TwinViolation):
        twinner.atlas_component(seed)
    capsys.readouterr()
    code, _ = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    assert code == EXIT_VIOLATION
    assert capsys.readouterr().err.startswith("violation: ")


def test_twin_build_rejects_a_chamber_system_that_is_not_a_building(
    tmp_path, pg23, capsys
):
    # two p-panels of pg2(3) trade chambers 16 and 28: Bu3 fails, while the
    # codistance opposite chamber 0 still passes the panel axiom
    text = serialize_building(pg23)
    assert "\n1 16 20 24\n2 28 32 36\n" in text
    bpath, cpath, out = tmp_path / "bad.bld", tmp_path / "bad.cod", tmp_path / "twin"
    bpath.write_text(text.replace("\n1 16 20 24\n2 28 32 36\n", "\n1 20 24 28\n2 16 32 36\n"))
    # the CLI's own codistance commands refuse the bundle, so f is made here
    f = from_opposite_chamber(parse_building(bpath.read_text()), 0)
    assert validate_codistance(f).ok
    cpath.write_text(serialize_codistance(f))
    assert main(["twin", "build", "--building", str(bpath),
                 "--codistance", str(cpath), "-o", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "RESULT=" not in captured.out
    assert "not a building: Bu3 (1, 9, 0)" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["check", "lco"],
    ["check", "lsco"],
    ["fop", "--codistance", "f.cod"],
    ["codist", "from-opposite", "--chamber", "0", "-o", "out.cod"],
    ["validate", "codistance", "f.cod"],
], ids=["check-lco", "check-lsco", "fop", "from-opposite", "validate-codistance"])
def test_building_commands_reject_a_chamber_system_that_is_not_a_building(
    tmp_path, pg23, capsys, monkeypatch, command
):
    # chambers 4 and 16 trade p-panels: Bu3 fails, and every command that
    # reads a building for its own use says so before printing a verdict
    monkeypatch.chdir(tmp_path)
    text = serialize_building(pg23)
    assert "\n0 4 8 12\n1 16 20 24\n" in text
    (tmp_path / "bad.bld").write_text(
        text.replace("\n0 4 8 12\n1 16 20 24\n", "\n0 8 12 16\n1 4 20 24\n")
    )
    (tmp_path / "f.cod").write_text(serialize_codistance(from_opposite_chamber(pg23, 0)))
    assert main(command + ["--building", "bad.bld"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "=" not in captured.out
    assert "not a building: Bu3 (0, 6, 0)" in captured.err
    assert not (tmp_path / "out.cod").exists()


def test_twin_verify_rejects_a_minus_half_that_is_not_a_building(
    tmp_path, pg23, capsys
):
    # B- is checked before the twin: the Bu3 failure above, copied over a
    # good twin's minus.bld, is malformed input, not a failed twin
    bpath, cpath, out = tmp_path / "b.bld", tmp_path / "f.cod", tmp_path / "twin"
    text = serialize_building(pg23)
    bpath.write_text(text)
    cpath.write_text(serialize_codistance(from_opposite_chamber(pg23, 0)))
    assert main(["twin", "build", "--building", str(bpath),
                 "--codistance", str(cpath), "-o", str(out)]) == EXIT_PASS
    (out / "minus.bld").write_text(
        text.replace("\n1 16 20 24\n2 28 32 36\n", "\n1 20 24 28\n2 16 32 36\n")
    )
    capsys.readouterr()
    assert main(["twin", "verify", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "not a building: Bu3 (1, 9, 0)" in captured.err
    assert "RESULT=" not in captured.out


def test_non_utf8_file_is_input_error(tmp_path, fano_file, fano_cod_file, capsys):
    # bytes that do not decode as UTF-8 are malformed input in every reader
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    runs = [
        (fano_file, ["validate", "building", fano_file]),
        (fano_file, ["validate", "codistance", fano_cod_file, "--building", fano_file]),
        (fano_cod_file, ["validate", "codistance", fano_cod_file, "--building", fano_file]),
        (os.path.join(out, "codistance_0003.cod"), ["twin", "verify", out]),
    ]
    for path, argv in runs:
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(b"\xff\xfe" + data)
        capsys.readouterr()
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {path}: 'utf-8' codec can't decode byte 0xff in"
            " position 0: invalid start byte\n"
        )
        with open(path, "wb") as fh:
            fh.write(data)
    assert main(["twin", "verify", out]) == EXIT_PASS


@pytest.mark.parametrize("extra", ["x", "end"])
def test_line_after_end_is_input_error(tmp_path, fano_file, fano_cod_file, capsys, extra):
    # every file ends at its end line
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    runs = [
        (fano_file, ["validate", "building", fano_file]),
        (fano_cod_file, ["validate", "codistance", fano_cod_file, "--building", fano_file]),
        (os.path.join(out, "plus.bld"), ["twin", "verify", out]),
        (os.path.join(out, "codistance_0003.cod"), ["twin", "verify", out]),
    ]
    for path, argv in runs:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(extra + "\n")
        capsys.readouterr()
        assert main(argv) == EXIT_INPUT
        assert f"line after end marker: {extra!r}" in capsys.readouterr().err
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    assert main(["twin", "verify", out]) == EXIT_PASS


def test_twin_verify(tmp_path, fano_file, fano_cod_file, capsys):
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    assert main(["twin", "verify", out]) == EXIT_PASS
    assert "RESULT=pass" in capsys.readouterr().out


def test_twin_verify_computes_each_delta_row_once(
    tmp_path, fano_file, fano_cod_file, capsys, monkeypatch
):
    # each half is built once, and searches at most its n rows.  A pg2(2)
    # half of 21 chambers searches 6, in either half: row 0; one more
    # chamber of each of chamber 0's two panels, whose third rule (a) of
    # ``Building._derive_rows`` then gives; one of the l-panel of each
    # p-neighbour of 0; one of the p-panel of an l-neighbour.  Rules (a)
    # and (b) derive the other 15 rows
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    built, searched = [], []
    init, compute_row = Building.__init__, Building._compute_row

    def counting_init(self, system, name="building"):
        built.append(system.n)
        init(self, system, name)

    def counting_row(self, x):
        searched.append(x)
        return compute_row(self, x)

    monkeypatch.setattr(Building, "__init__", counting_init)
    monkeypatch.setattr(Building, "_compute_row", counting_row)
    assert main(["twin", "verify", out]) == EXIT_PASS
    assert built == [21, 21]
    assert len(searched) <= sum(built)
    assert len(searched) == 12


def test_twin_verify_enumerates_w_once_and_builds_each_half_once(
    tmp_path, fano_file, fano_cod_file, capsys, monkeypatch
):
    # B+ is built by the atlas on B-'s Weyl table: one W, one system per half
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    capsys.readouterr()
    built = []
    weyl_post_init = WeylTable.__post_init__
    system_post_init = ChamberSystem.__post_init__

    def counting_weyl(self):
        built.append("W")
        weyl_post_init(self)

    def counting_system(self):
        built.append("system")
        system_post_init(self)

    monkeypatch.setattr(WeylTable, "__post_init__", counting_weyl)
    monkeypatch.setattr(ChamberSystem, "__post_init__", counting_system)
    assert main(["twin", "verify", out]) == EXIT_PASS
    assert sorted(built) == ["W", "system", "system"]
    assert capsys.readouterr().out == (
        "twin building over pg2_2 with 21 chambers\n"
        "atlas members: 21\n"
        "\n"
        "RESULT=pass\n"
        "ATLAS_SIZE=21\n"
        "FOP_SIZE=8\n"
        "LCO=n/a\n"
        "LSCO=n/a\n"
        "TW_AXIOMS=pass\n"
        "SEED_MATCH=n/a\n"
    )


def test_twin_verify_rejects_plus_diagram_mismatch(
    tmp_path, fano_file, fano_cod_file, capsys
):
    # plus.bld declaring B2 over A2 panels is a malformed twin directory
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    plus = os.path.join(out, "plus.bld")
    with open(plus) as fh:
        text = fh.read()
    assert "matrix\n1 3\n3 1\n" in text
    with open(plus, "w") as fh:
        fh.write(text.replace("matrix\n1 3\n3 1\n", "matrix\n1 4\n4 1\n", 1))
    capsys.readouterr()
    assert main(["validate", "building", plus]) != EXIT_PASS
    capsys.readouterr()
    assert main(["twin", "verify", out]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "RESULT=" not in captured.out
    assert "diagram" in captured.err


def test_twin_verify_detects_tampering(tmp_path, fano_file, fano_cod_file, capsys):
    # one value of one member changed: that member breaks the panel axiom
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    cod = os.path.join(out, "codistance_0001.cod")
    with open(cod) as fh:
        lines = fh.read().splitlines()
    c, word = lines[-2].split()
    lines[-2] = f"{c} {'l' if word == 'p' else 'p'}"
    with open(cod, "w") as fh:
        fh.write("".join(line + "\n" for line in lines))
    capsys.readouterr()
    assert main(["twin", "verify", out]) == EXIT_VIOLATION
    lines = capsys.readouterr().out.splitlines()
    assert "RESULT=fail" in lines and "TW_AXIOMS=fail" in lines


def test_every_one_value_member_edit_fails_the_twin(tmp_path, fano_file, fano_cod_file):
    # a member is a codistance on B-, so (Tw2) and (Tw3) on it are its panel
    # axiom, and any other value at one chamber breaks that axiom on the
    # chamber's panels: all 21 x 21 x 5 edits of the pg2(2) twin as read
    # from its directory, each assembled as twin verify assembles it
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    b, atlas = read_twin(out)
    table = b.weyl
    edits = 0
    for i, g in enumerate(atlas.members):
        for c, v in enumerate(g.values):
            for w in range(table.size):
                if w == v:
                    continue
                values = list(g.values)
                values[c] = w
                members = list(atlas.members)
                members[i] = Codistance(b, table.pack(values))
                edited = twinner.CodistanceAtlas(b, members, atlas.panels)
                report = twinner.assemble_twin(edited, b).report
                assert not report.tw_axioms_ok and not report.ok, (i, c, w)
                edits += 1
    assert edits == 21 * 21 * 5


# -- directories that earlier versions wrote, with costar.tsv -----------------


@pytest.fixture
def old_twin(tmp_path, fano_file, fano_cod_file, capsys):
    """A pg2(2) twin directory with the costar.tsv that earlier versions of
    ``twin build`` wrote beside the members, the line c<TAB>i<TAB>word for
    member i's value at chamber c, and what ``twin verify`` printed before
    that file was added."""
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    capsys.readouterr()
    assert main(["twin", "verify", out]) == EXIT_PASS
    verified = capsys.readouterr()
    b, atlas = read_twin(out)
    words = b.weyl.word_strs
    with open(os.path.join(out, "costar.tsv"), "w") as fh:
        for c, col in enumerate(zip(*(g.values for g in atlas.members))):
            fh.writelines(f"{c}\t{i}\t{words[w]}\n" for i, w in enumerate(col))
    return out, verified


def assert_verify_ignores_costar(old_twin, capsys, edit):
    """``twin verify`` exits and prints as it did before costar.tsv was
    added, whatever ``edit`` makes of that file's lines (a surrogate escape
    stands for a byte that is not UTF-8)."""
    out, verified = old_twin
    costar = os.path.join(out, "costar.tsv")
    with open(costar) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 441
    text = "".join(line + "\n" for line in edit(lines))
    with open(costar, "wb") as fh:
        fh.write(text.encode("utf-8", "surrogateescape"))
    assert main(["twin", "verify", out]) == EXIT_PASS
    assert capsys.readouterr() == verified


def _first_line(edit):
    """A costar.tsv edit that applies ``edit`` to the fields of line 0."""
    return lambda lines: ["\t".join(edit(lines[0].split("\t")))] + lines[1:]


@pytest.mark.parametrize("fields", [
    lambda f: f[:2], lambda f: f + ["x"],
], ids=["two-fields", "four-fields"])
def test_twin_verify_costar_line_with_wrong_field_count(old_twin, capsys, fields):
    assert_verify_ignores_costar(old_twin, capsys, _first_line(fields))


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: lines,
        _first_line(lambda f: ["x", f[1], f[2]]),
        _first_line(lambda f: [f[0], "1.5", f[2]]),
        _first_line(lambda f: ["21", f[1], f[2]]),
        _first_line(lambda f: [f[0], "-1", f[2]]),
        _first_line(lambda f: [f[0], "21", f[2]]),
        _first_line(lambda f: [f[0], f[1], "pxq"]),
        lambda lines: lines[:-1],
        lambda lines: [],
        lambda lines: lines + lines[:1],
        lambda lines: ["\udcff\udcfe"] + lines,
    ],
    ids=["unedited", "chamber-not-int", "member-not-int", "chamber-out-of-range",
         "member-negative", "member-out-of-range", "bad-word",
         "entry-missing", "empty", "entry-repeated", "not-utf8"],
)
def test_twin_verify_ignores_malformed_costar(old_twin, capsys, edit):
    assert_verify_ignores_costar(old_twin, capsys, edit)


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: lines[::-1],
        lambda lines: [line.replace("\t-", "\tpp") for line in lines],
    ],
    ids=["lines-reversed", "identity-spelled-pp"],
)
def test_twin_verify_accepts_costar_in_any_order_and_spelling(old_twin, capsys, edit):
    assert_verify_ignores_costar(old_twin, capsys, edit)


def _last_word_changed(lines):
    c, i, word = lines[-1].split("\t")
    return lines[:-1] + [f"{c}\t{i}\t{'l' if word == 'p' else 'p'}"]


@pytest.mark.parametrize(
    "edit",
    [
        _last_word_changed,
        lambda lines: lines[:-1],
        lambda lines: lines[21:42] + lines[:21] + lines[42:],
    ],
    ids=["last-word-changed", "last-line-removed", "chamber-rows-0-1-swapped"],
)
def test_twin_verify_costar_edits_past_the_first_row(old_twin, capsys, edit):
    # the members are the twin: a table that disagrees with them changes nothing
    assert_verify_ignores_costar(old_twin, capsys, edit)


def test_twin_build_and_verify_peak_memory_on_pg2_5(tmp_path, capsys):
    # the directory holds the members and no transposed copy of them; with
    # the free lists emptied first, build peaked at 0.81 MiB on pg2(5) and
    # verify at 0.71-0.72 MiB (CPython 3.11), and at 0.93 and 0.89 MiB
    # while the opposition check kept an f^op tuple on every member, and at
    # 1.57 and 1.18 MiB while they wrote and read costar.tsv
    bpath, cpath, out = (str(tmp_path / name) for name in ("b.bld", "f.cod", "twin"))
    assert main(["gen", "pg2", "--q", "5", "-o", bpath]) == EXIT_PASS
    assert main(["codist", "from-opposite", "--building", bpath,
                 "--chamber", "0", "-o", cpath]) == EXIT_PASS
    for argv, bound in (
        (["twin", "build", "--building", bpath, "--codistance", cpath, "-o", out],
         1.125 * 2**20),
        (["twin", "verify", out], 0.875 * 2**20),
    ):
        # a full collection empties the free lists, whose objects, made
        # before tracing starts, would otherwise be reused untraced
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_PASS
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (argv[1], peak)


def test_validate_building_rejects_infinite_bond_quickly(fano, tmp_path, capsys):
    text = serialize_building(fano).replace("matrix\n1 3\n3 1\n", "matrix\n1 0\n0 1\n", 1)
    assert "1 0" in text
    path = tmp_path / "inf.bld"
    path.write_text(text)
    start = time.perf_counter()
    assert main(["validate", "building", str(path)]) == EXIT_INPUT
    assert time.perf_counter() - start < 5
    assert "infinite" in capsys.readouterr().err


def test_validate_building_rejects_affine_a2_quickly(pg32, tmp_path, capsys):
    # every bond m = 3: all bonds finite, but the type is affine (W infinite)
    text = serialize_building(pg32).replace(
        "matrix\n1 3 2\n3 1 3\n2 3 1\n", "matrix\n1 3 3\n3 1 3\n3 3 1\n", 1
    )
    assert "1 3 3\n3 1 3\n3 3 1" in text
    path = tmp_path / "affine.bld"
    path.write_text(text)
    start = time.perf_counter()
    assert main(["validate", "building", str(path)]) == EXIT_INPUT
    assert time.perf_counter() - start < 5
    assert "infinite" in capsys.readouterr().err


def test_validate_building_rejects_affine_a3_quickly(tmp_path, capsys):
    # Ã3 is 3-spherical and infinite: only the enumeration's cap stops it.
    # The panels are those of the thin A1^4 building, 16 chambers.
    lines = ["%building 1", "name affine_a3", "rank 4", "gens a b c d", "matrix",
             "1 3 2 3", "3 1 3 2", "2 3 1 3", "3 2 3 1", "chambers 16"]
    for s, name in enumerate("abcd"):
        lines.append(f"panels {name}")
        lines += [f"{c} {c | 1 << s}" for c in range(16) if not c & 1 << s]
    path = tmp_path / "affine_a3.bld"
    path.write_text("\n".join(lines + ["end"]) + "\n")
    start = time.perf_counter()
    assert main(["validate", "building", str(path)]) == EXIT_INPUT
    assert time.perf_counter() - start < 10
    assert "infinite" in capsys.readouterr().err


@pytest.mark.parametrize("big", ["p", "l"])
def test_validate_building_rejects_one_huge_panel_quickly(tmp_path, capsys, big):
    # all 20,000 chambers in one panel, the other type paired: each pair is
    # adjacent for both types, found without listing the panel's 2e8 pairs
    n = 20_000
    families = {big: [" ".join(map(str, range(n)))],
                "pl".replace(big, ""): [f"{c} {c + 1}" for c in range(0, n, 2)]}
    lines = ["%building 1", "name one_panel", "rank 2", "gens p l", "matrix", "1 3", "3 1",
             f"chambers {n}"]
    for name in "pl":
        lines += [f"panels {name}"] + families[name]
    path = tmp_path / "one_panel.bld"
    path.write_text("\n".join(lines + ["end"]) + "\n")
    start = time.perf_counter()
    assert main(["validate", "building", str(path)]) == EXIT_INPUT
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == "input error: chambers 0,1 adjacent for types 0 and 1\n"


@pytest.mark.parametrize("count", [-1, 0])
def test_validate_building_rejects_no_chambers(tmp_path, capsys, count):
    text = "".join(f"{line}\n" for line in [
        "%building 1", "name empty", "rank 2", "gens p l", "matrix", "1 3", "3 1",
        f"chambers {count}", "panels p", "panels l", "end",
    ])
    path = tmp_path / "empty.bld"
    path.write_text(text)
    assert main(["validate", "building", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "RESULT=" not in captured.out
    assert "chamber" in captured.err


def test_parse_building_rejects_chamber_count_before_allocating():
    # four chambers listed, ten million declared: refused from the panel
    # counts, before any per-chamber list is built
    text = "".join(f"{line}\n" for line in [
        "%building 1", "name huge", "rank 2", "gens p l", "matrix", "1 2", "2 1",
        "chambers 10000000", "panels p", "0 1", "2 3", "panels l", "0 2", "1 3",
        "end",
    ])
    tracemalloc.start()
    try:
        with pytest.raises(FormatError):
            parse_building(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_twin_verify_rejects_plus_without_chambers(
    tmp_path, fano_file, fano_cod_file, capsys
):
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    plus = os.path.join(out, "plus.bld")
    with open(plus) as fh:
        head = fh.read().split("chambers ")[0]
    with open(plus, "w") as fh:
        fh.write(head + "chambers 0\npanels p\npanels l\nend\n")
    capsys.readouterr()
    assert main(["twin", "verify", out]) == EXIT_INPUT
    assert "RESULT=" not in capsys.readouterr().out


@pytest.fixture
def fano_all_p_file(tmp_path, fano):
    # every value the generator p: breaks the panel axiom on every panel
    lines = ["%codistance 1", f"building {fano.name}", "values"]
    lines += [f"{c} p" for c in range(fano.n)] + ["end"]
    path = tmp_path / "all_p.cod"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_validate_codistance_rejects_all_p(fano_file, fano_all_p_file, capsys):
    assert main(["validate", "codistance", fano_all_p_file,
                 "--building", fano_file]) == EXIT_VIOLATION
    assert "RESULT=fail" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["fop"],
    ["twin", "build", "-o", "twin"],
], ids=["fop", "twin-build"])
def test_invalid_codistance_is_input_error(
    tmp_path, fano_file, fano_all_p_file, capsys, monkeypatch, command
):
    monkeypatch.chdir(tmp_path)
    code = main(command + ["--building", fano_file, "--codistance", fano_all_p_file])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert "RESULT=" not in captured.out
    assert "not a codistance: type 0 panel (0, 3, 6)" in captured.err
    assert not (tmp_path / "twin").exists()


def two_hexagons_bundle(thin_a2):
    """Two disjoint copies of the thin A2 building in one bundle."""
    n = thin_a2.n
    lines = [serialize_building(thin_a2).split("chambers ")[0] + f"chambers {2 * n}"]
    for s, name in enumerate(thin_a2.weyl.matrix.gens):
        lines.append(f"panels {name}")
        for panel in sorted(tuple(sorted(p)) for p in thin_a2.system.panels[s]):
            for shift in (0, n):
                lines.append(" ".join(str(c + shift) for c in panel))
    return "\n".join(lines + ["end"]) + "\n"


@pytest.mark.parametrize("command", [["validate", "building"], ["check", "lco", "--building"]])
def test_disconnected_bundle_is_malformed_input(thin_a2, tmp_path, capsys, command):
    path = tmp_path / "hexagons.bld"
    path.write_text(two_hexagons_bundle(thin_a2))
    assert main(command + [str(path)]) == EXIT_INPUT
    assert "not gallery-connected" in capsys.readouterr().err


def test_weyl_enumerate_on_a_disconnected_bundle(thin_a2, tmp_path, capsys):
    # the order needs the diagram alone, as for a connected bundle failing Bu3
    path = tmp_path / "hexagons.bld"
    path.write_text(two_hexagons_bundle(thin_a2))
    assert main(["weyl", "enumerate", "--building", str(path)]) == EXIT_PASS
    assert capsys.readouterr().out.startswith("order 6\n")


def test_twin_verify_rejects_a_disconnected_plus(
    thin_a2, tmp_path, fano_file, fano_cod_file, capsys
):
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    with open(os.path.join(out, "plus.bld"), "w") as fh:
        fh.write(two_hexagons_bundle(thin_a2))
    capsys.readouterr()
    assert main(["twin", "verify", out]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "RESULT=" not in captured.out
    assert "not gallery-connected" in captured.err


def test_startup_and_fop_import_no_sympy(fano_file, fano_cod_file):
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'sympy')\n"
        "import twinbuild.cli\n"
        "assert not loaded(), loaded()\n"
        "rc = twinbuild.cli.main(['fop', '--building', sys.argv[1],"
        " '--codistance', sys.argv[2]])\n"
        "assert rc == 0, rc\n"
        "assert not loaded(), loaded()\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code, fano_file, fano_cod_file],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "RESULT=pass" in done.stdout


def test_twin_verify_reports_failing_twin(tmp_path, fano_file, fano_cod_file, capsys):
    # swap members 1 and 2 consistently: every file parses, the twin fails
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    one = os.path.join(out, "codistance_0001.cod")
    two = os.path.join(out, "codistance_0002.cod")
    tmp = os.path.join(out, "swap.tmp")
    os.rename(one, tmp)
    os.rename(two, one)
    os.rename(tmp, two)
    capsys.readouterr()
    assert main(["twin", "verify", out]) == EXIT_VIOLATION
    stdout = capsys.readouterr().out
    assert "RESULT=fail" in stdout
    assert "TW_AXIOMS=fail" in stdout


def test_twin_build_refused_without_lco(tmp_path, sp42, capsys):
    bpath = tmp_path / "sp42.bld"
    bpath.write_text(serialize_building(sp42))
    f = from_opposite_chamber(sp42, 0)
    cpath = tmp_path / "sp42.cod"
    cpath.write_text(serialize_codistance(f))
    code = main(
        ["twin", "build", "--building", str(bpath),
         "--codistance", str(cpath), "-o", str(tmp_path / "out")]
    )
    assert code == EXIT_VIOLATION
    assert "RESULT=fail" in capsys.readouterr().out


def write_spherical_twin(b, out):
    """The twin of a spherical building B, written as ``twin build`` would:
    member d is ``from_opposite_chamber(b, d)``, and the s-panels of B+ are
    B's sbar-panels, sbar = r_S s r_S."""
    table = b.weyl
    rank = table.matrix.rank
    r_S = table.longest_element(range(rank))
    bar = [table.gen_index(table.conj_by(r_S, s)) for s in range(rank)]
    plus = Building(ChamberSystem(table, b.n, [b.system.panels[t] for t in bar]), b.name)
    members = [from_opposite_chamber(b, d) for d in range(b.n)]
    os.makedirs(out)
    files = {"minus.bld": serialize_building(b), "plus.bld": serialize_building(plus)}
    for i, g in enumerate(members):
        files[f"codistance_{i:04d}.cod"] = serialize_codistance(g)
    for name, text in files.items():
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text)


@pytest.mark.parametrize("fixture, condition", [("sp42", "lco"), ("pg32", "lsco")])
def test_twin_verify_passes_a_twin_whose_minus_half_fails_a_condition(
    request, tmp_path, capsys, fixture, condition
):
    # a spherical building is half of its own twin, whatever lco and lsco
    # say: verify accepts the twin, check rejects B-, and build refuses it
    b = request.getfixturevalue(fixture)
    out = str(tmp_path / "twin")
    write_spherical_twin(b, out)
    assert main(["twin", "verify", out]) == EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    assert "RESULT=pass" in lines and "LCO=n/a" in lines and "LSCO=n/a" in lines
    assert f"ATLAS_SIZE={b.n}" in lines
    minus = os.path.join(out, "minus.bld")
    assert main(["check", condition, "--building", minus]) == EXIT_VIOLATION
    assert f"{condition.upper()}=fail" in capsys.readouterr().out.splitlines()
    cod = os.path.join(out, "codistance_0000.cod")
    built = tmp_path / "built"
    assert main(["twin", "build", "--building", minus, "--codistance", cod,
                 "-o", str(built)]) == EXIT_VIOLATION
    assert "RESULT=fail" in capsys.readouterr().out.splitlines()
    assert os.listdir(built) == []


# -- output paths and generator arguments ----------------------------------------


def assert_input_error(argv, capsys):
    capsys.readouterr()
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("edit, message", [
    (lambda t: t.replace("rank 2\ngens p l\nmatrix\n1 3\n3 1\n", "rank 0\ngens\nmatrix\n"),
     "empty generator set"),
    (lambda t: t.replace("gens p l\n", "gens p p\n"), "duplicate generator names"),
])
def test_validate_building_rejects_bad_generator_names(fano, tmp_path, capsys, edit, message):
    text = serialize_building(fano)
    assert edit(text) != text
    path = tmp_path / "bad.bld"
    path.write_text(edit(text))
    assert main(["validate", "building", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_gen_digon_too_small_is_input_error(tmp_path, capsys):
    out = tmp_path / "x.bld"
    assert_input_error(["gen", "digon", "--a", "1", "--b", "3", "-o", str(out)], capsys)
    assert not out.exists()


def test_gen_to_missing_directory_is_input_error(tmp_path, capsys):
    out = str(tmp_path / "no" / "such" / "x.bld")
    assert_input_error(["gen", "pg2", "--q", "2", "-o", out], capsys)


def test_from_opposite_to_missing_directory_is_input_error(fano_file, tmp_path, capsys):
    out = str(tmp_path / "no" / "such" / "x.cod")
    assert_input_error(
        ["codist", "from-opposite", "--building", fano_file, "--chamber", "0",
         "-o", out],
        capsys,
    )


def test_twin_build_under_a_file_is_input_error(fano_file, fano_cod_file, capsys):
    out = os.path.join(fano_file, "out")
    assert_input_error(
        ["twin", "build", "--building", fano_file, "--codistance", fano_cod_file,
         "-o", out],
        capsys,
    )


def test_twin_build_checks_output_path_before_computing(
    fano_file, fano_cod_file, capsys, monkeypatch
):
    # the output directory is made before lco is decided, so a bad path
    # costs no computation
    def refuse(b):
        raise AssertionError("check_lco ran before the output path was made")

    monkeypatch.setattr("twinbuild.cli.check_lco", refuse)
    out = os.path.join(fano_file, "out")
    assert_input_error(
        ["twin", "build", "--building", fano_file, "--codistance", fano_cod_file,
         "-o", out],
        capsys,
    )


def test_twin_verify_has_no_seed_to_match(tmp_path, fano_file, fano_cod_file, capsys):
    # the directory records no seed apart from member 0, so there is nothing
    # to compare member 0 with
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    capsys.readouterr()
    assert main(["twin", "verify", out]) == EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    assert "SEED_MATCH=n/a" in lines and "RESULT=pass" in lines


def _plus_panel_swaps(text):
    """Each plus.bld text with one chamber of a p-panel exchanged with one of
    a later p-panel, the two panels re-sorted, in a fixed order."""
    lines = text.splitlines()
    start = lines.index("panels p") + 1
    stop = lines.index("panels l")
    fam = [tuple(map(int, line.split())) for line in lines[start:stop]]
    for i, j in itertools.combinations(range(len(fam)), 2):
        for a, b in itertools.product(fam[i], fam[j]):
            swapped = list(fam)
            swapped[i] = tuple(sorted(set(fam[i]) - {a} | {b}))
            swapped[j] = tuple(sorted(set(fam[j]) - {b} | {a}))
            body = [" ".join(map(str, p)) for p in swapped]
            yield "\n".join(lines[:start] + body + lines[stop:]) + "\n"


def test_twin_verify_runs_the_plus_building_check(
    tmp_path, fano_file, fano_cod_file, capsys
):
    # a plus.bld that parses but is no building: every other file is intact,
    # so the B+ building check is what fails the twin
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    path = os.path.join(out, "plus.bld")
    with open(path) as fh:
        text = fh.read()
    for tampered in _plus_panel_swaps(text):
        try:
            plus = parse_building(tampered)
        except FormatError:
            continue
        if not validate_building(plus).ok:
            break
    else:
        pytest.fail("no p-panel swap parses and fails validation")
    with open(path, "w") as fh:
        fh.write(tampered)
    capsys.readouterr()
    assert main(["twin", "verify", out]) == EXIT_VIOLATION
    assert "RESULT=fail" in capsys.readouterr().out.splitlines()

    b, atlas = read_twin(out)
    assert twinner.assemble_twin(atlas, b).report.building_ok is False


def _first_failing_plus_swap(text):
    """The first p-panel swap of a plus.bld text that parses but is no
    building."""
    for tampered in _plus_panel_swaps(text):
        try:
            plus = parse_building(tampered)
        except FormatError:
            continue
        if not validate_building(plus).ok:
            return tampered
    pytest.fail("no p-panel swap parses and fails validation")


def test_twin_report_names_each_failed_check(
    tmp_path, fano_file, fano_cod_file, capsys
):
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    path = os.path.join(out, "plus.bld")
    with open(path) as fh:
        tampered = _first_failing_plus_swap(fh.read())
    with open(path, "w") as fh:
        fh.write(tampered)
    b, atlas = read_twin(out)
    assert twinner.assemble_twin(atlas, b).report == twinner.TwinReport(
        building_ok=False, tw_axioms_ok=False, opposition_ok=False,
        plus_star_ok=False, diagram_ok=False, seed_ok=None,
    )
    capsys.readouterr()
    assert main(["twin", "verify", out]) == EXIT_VIOLATION
    lines = capsys.readouterr().out.splitlines()
    assert lines[lines.index("TW_AXIOMS=fail"):] == [
        "TW_AXIOMS=fail",
        "BUILDING=fail",
        "OPPOSITION=fail",
        "PLUS_STAR=fail",
        "DIAGRAM=fail",
        "SEED_MATCH=n/a",
    ]


@pytest.mark.parametrize("flag, line", [
    ("building_ok", "BUILDING=fail"),
    ("opposition_ok", "OPPOSITION=fail"),
    ("plus_star_ok", "PLUS_STAR=fail"),
    ("diagram_ok", "DIAGRAM=fail"),
])
def test_twin_report_line_only_for_a_false_flag(
    tmp_path, fano_file, fano_cod_file, capsys, monkeypatch, flag, line
):
    # one flag of a passing twin turned false: the report gains exactly its
    # line, before SEED_MATCH, and RESULT turns to fail
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    capsys.readouterr()
    assert main(["twin", "verify", out]) == EXIT_PASS
    passing = capsys.readouterr().out
    assert "=fail" not in passing
    assemble = cli.assemble_twin

    def one_flag_false(atlas, b, seed=None):
        assembly = assemble(atlas, b, seed=seed)
        assembly.report = dataclasses.replace(assembly.report, **{flag: False})
        return assembly

    monkeypatch.setattr(cli, "assemble_twin", one_flag_false)
    assert main(["twin", "verify", out]) == EXIT_VIOLATION
    assert capsys.readouterr().out == passing.replace(
        "RESULT=pass", "RESULT=fail"
    ).replace("SEED_MATCH", line + "\nSEED_MATCH")


# -- readers under malformed input ----------------------------------------------


def test_validate_building_reads_its_file_once(fano_file, capsys, monkeypatch):
    reads = []
    read = cli._read

    def counting_read(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(cli, "_read", counting_read)
    assert main(["validate", "building", fano_file]) == EXIT_PASS
    assert reads == [fano_file]


@pytest.mark.parametrize("line, message", [
    ("21 x", "bad or repeated chamber id 21"),
    ("0 x", "cannot parse word 'x' at position 0"),
    ("z x", "invalid literal for int() with base 10: 'z'"),
])
def test_codistance_value_line_faults_in_order(fano, line, message):
    # the chamber id is read, then range-checked, then the word is parsed
    lines = serialize_codistance(from_opposite_chamber(fano, 0)).splitlines()
    lines[3] = line
    with pytest.raises(FormatError) as exc:
        parse_codistance("\n".join(lines) + "\n", fano)
    assert str(exc.value) == message


def _line_edits(text):
    """Every single-line deletion of text, then every replacement of one
    line by ``x``."""
    lines = text.splitlines(keepends=True)
    for i in range(len(lines)):
        yield "".join(lines[:i] + lines[i + 1:])
        yield "".join(lines[:i] + ["x\n"] + lines[i + 1:])


def test_reader_outcomes_on_line_edits_pinned(fano, fano_file, tmp_path, capsys):
    # exit code, stdout and stderr of both validators on every line edit of
    # the pg2(2) bundle and of its codistance file, fixed byte for byte
    bad_bld = tmp_path / "bad.bld"
    bad_cod = tmp_path / "bad.cod"
    h = hashlib.sha256()
    runs = [
        (bad_bld, serialize_building(fano), ["validate", "building", str(bad_bld)]),
        (bad_cod, serialize_codistance(from_opposite_chamber(fano, 0)),
         ["validate", "codistance", str(bad_cod), "--building", fano_file]),
    ]
    codes = []
    for path, text, argv in runs:
        for edited in _line_edits(text):
            path.write_text(edited)
            codes.append(main(argv))
            out = capsys.readouterr()
            h.update(f"{codes[-1]}\0{out.out}\0{out.err}\0".encode())
    assert len(codes) == 100
    assert set(codes) <= {EXIT_VIOLATION, EXIT_INPUT}
    assert h.hexdigest() == (
        "50780fe5f33e491c3c5811984ed89e27f386a50844d1f6c9f8394a3f601fd9d2"
    )


@st.composite
def one_edit(draw, text, tokens):
    """text changed by one edit: a line deleted, duplicated or replaced by
    another of its lines, or one whitespace-separated token replaced."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["delete", "duplicate", "replace", "token"]))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "replace":
        lines[i] = lines[draw(st.integers(0, len(lines) - 1))]
    else:
        parts = re.split(r"(\s+)", lines[i])
        parts[2 * draw(st.integers(0, len(parts) // 2))] = draw(st.sampled_from(tokens))
        lines[i] = "".join(parts)
    edited = "\n".join(lines) + "\n"
    assume(edited != text)
    return edited


def fuzz_tokens(b):
    return ["x", "-1", "0", str(2**64), "-", *b.weyl.matrix.gens]


FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def test_building_reader_raises_only_format_error(fano):
    @FUZZ
    @given(one_edit(serialize_building(fano), fuzz_tokens(fano)))
    def check(text):
        try:
            parse_building(text)
        except FormatError:
            pass

    check()


def test_codistance_reader_raises_only_format_error(fano):
    text = serialize_codistance(from_opposite_chamber(fano, 0))

    @FUZZ
    @given(one_edit(text, fuzz_tokens(fano)))
    def check(edited):
        try:
            parse_codistance(edited, fano)
        except FormatError:
            pass

    check()


def test_twin_verify_on_one_edited_file(tmp_path, fano_file, fano_cod_file):
    # an edited file of a twin directory is a violation or malformed input,
    # unless the directory still holds the same twin (the name in plus.bld
    # is a label)
    _, out = run_twin_build(tmp_path, fano_file, fano_cod_file, "twin")
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            files[name] = fh.read()
    del files["report.txt"]
    b, atlas = read_twin(out)
    twin = (serialize_building(b), [g.values for g in atlas.members], atlas.panels)
    tokens = fuzz_tokens(b)

    members = sorted(name for name in files if name.endswith(".cod"))

    @settings(FUZZ, max_examples=200)
    @given(st.sampled_from(["plus.bld", "minus.bld", "member"]), st.data())
    def check(name, data):
        if name == "member":
            name = data.draw(st.sampled_from(members))
        path = os.path.join(out, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data.draw(one_edit(files[name], tokens)))
        try:
            code = main(["twin", "verify", out])
            if code == EXIT_PASS:
                b, atlas = read_twin(out)
                assert (serialize_building(b), [g.values for g in atlas.members],
                        atlas.panels) == twin
            else:
                assert code in (EXIT_VIOLATION, EXIT_INPUT)
        finally:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(files[name])

    check()
