"""The benchmark's tracer still finds every name it wraps.

``perfbench/spans.py`` patches functions and methods of twinbuild by name,
and ``perfbench/selftest.py`` reads ``twinbuild.twinner.beta``.  Deleting or
renaming one of those names breaks the traced benchmark; this test makes it
fail here first.  A caller that binds a traced function before the tracer is
installed (a default argument, a module-level alias) hides its calls from the
counters, so the verdict counts are checked too.
"""

import importlib.util
import os

import twinbuild.homotopy as homotopy
from twinbuild.codistance import from_opposite_chamber
import twinbuild.twinner as twinner

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_name():
    originals = {name: getattr(twinner, name) for name in ("beta", "atlas_component")}
    residue_members = twinner.CodistanceAtlas.residue_members
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert twinner.atlas_component is not originals["atlas_component"]
    finally:
        tracer.uninstall()
    assert all(getattr(twinner, k) is v for k, v in originals.items())
    assert twinner.CodistanceAtlas.residue_members is residue_members


def test_tracer_counts_local_condition_verdicts(fano, thin_a3):
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert homotopy.check_lsco(thin_a3).ok
        assert tracer.call_count("homotopy.simply_2_connected") == 24
        assert tracer.count_of("homotopy.verdict.trivial") == 24
        assert tracer.call_count("homotopy.check_lsco") == 1
        tracer.reset()
        assert homotopy.check_lco(fano).ok
        assert tracer.call_count("homotopy.check_lco") == 1
    finally:
        tracer.uninstall()


def test_twin_step_runs_every_check(pg23, monkeypatch):
    # the twin step of pg2(3) from chamber 0 makes exactly these checks; a
    # speed-up that drops a validation changes a count here.  Adjacent
    # codistances are read off beta-orbits and project no chamber.  The atlas
    # validates each of its 51 members beyond the seed once, as it joins, and
    # the (Tw2)/(Tw3) check hands one row per chamber of either half, 52 +
    # 52, to the table kernel ``panel_table``, which the tracer does not see:
    # its rows are counted by wrapping it, and must be every row of each
    # half, each on the other half's chamber system.  Alpha on J = {s} is
    # decided per member from gap counts, with no pair and no projection; on
    # J = {0, 1} it is decided per pair by ``twinner._alpha_kernel``, which
    # the tracer does not see either: its pairs are counted by wrapping it,
    # each (tilde, R) once, with one projection onto R per member of tilde.
    # pg2(3) has rank 2, so the one pair is B+ against B, 52 members and 52
    # projections.
    pairs = []
    kernel = twinner._alpha_kernel

    def counting_kernel(atlas, J, fop_masks):
        pair = kernel(atlas, J, fop_masks)

        def counting_pair(tilde, R):
            pairs.append((tuple(tilde), R))
            return pair(tilde, R)

        return counting_pair

    tables = []
    panel_table = twinner.panel_table

    def counting_table(system, rows, longer):
        rows = list(rows)
        tables.append((system, rows, longer))
        return panel_table(system, rows, longer)

    monkeypatch.setattr(twinner, "_alpha_kernel", counting_kernel)
    monkeypatch.setattr(twinner, "panel_table", counting_table)
    f = from_opposite_chamber(pg23, 0)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        atlas = twinner.atlas_component(f)
        assert twinner.assemble_twin(atlas, pg23, seed=f).report.ok
        assert tracer.call_count("codistance.validate_codistance") == 51
        halves = [(pg23.system, [g.values for g in atlas.members]),
                  (atlas.plus.system, atlas.minus_rows)]
        assert len(tables) == len(halves)
        for (system, rows, longer), (other, half) in zip(tables, halves):
            assert system is other and rows == half and longer
        assert sum(len(rows) for _, rows, _ in tables) == 104
        assert len(pairs) == len(set(pairs)) == 1
        assert sum(len(tilde) for tilde, _ in pairs) == 52
        assert tracer.call_count("codistance.proj_f") == 52
        assert tracer.call_count("chambersys.proj_chamber") == 2704
        assert tracer.call_count("chambersys.validate_building") == 1
        assert tracer.call_count("panelcalc.panels_op_c") == 0
        assert tracer.call_count("codistance.fop_c") == 0
    finally:
        tracer.uninstall()
