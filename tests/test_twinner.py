"""Adjacent codistances, atlas closure, and exhaustive twin verification."""

import hashlib
import itertools
import random
import re
import tracemalloc
from collections import Counter, deque

import pytest

from conftest import fop_masks
from twinbuild.catalog import (
    gen_digon,
    gen_pg2,
    gen_sp4,
    gen_thin,
    matrix_A1,
    matrix_A2,
    matrix_B2,
    matrix_B4,
    matrix_I2,
    product,
)
from twinbuild.chambersys import Building, ChamberSystem, validate_building
from twinbuild.cli import parse_codistance, serialize_codistance
from twinbuild.codistance import (
    Codistance,
    fop_c,
    from_opposite_chamber,
    proj_f,
    validate_codistance,
)
from twinbuild.coxeter import CoxeterMatrix, WeylTable, enumerate_weyl
from twinbuild.errors import (
    NotOpposite,
    PreconditionFailed,
    TwinbuildError,
)
from twinbuild.panelcalc import beta, panel_key, panels_op, panels_op_c
import twinbuild.codistance as codistance
import twinbuild.panelcalc as panelcalc
import twinbuild.twinner as twinner
from twinbuild.twinner import (
    CodistanceAtlas,
    _check_plus_star,
    _check_tw_axioms,
    _gonality,
    adjacent_codistance,
    alpha_check,
    assemble_twin,
    atlas_component,
    beta_maps,
)


@pytest.fixture(scope="session")
def fano_atlas(fano):
    f = from_opposite_chamber(fano, 0)
    return f, atlas_component(f)


@pytest.fixture(scope="session")
def digon_atlas(digon33):
    f = from_opposite_chamber(digon33, 0)
    return f, atlas_component(f)


@pytest.fixture(scope="session")
def fano_twin(fano, fano_atlas):
    f, atlas = fano_atlas
    return assemble_twin(atlas, fano, seed=f)


@pytest.fixture(scope="session")
def digon_twin(digon33, digon_atlas):
    f, atlas = digon_atlas
    return assemble_twin(atlas, digon33, seed=f)


# -- adjacency ----------------------------------------------------------------


def test_adjacent_codistance_basic_properties(fano):
    b = fano
    table = b.weyl
    f = from_opposite_chamber(b, 0)
    for s in range(2):
        Ptilde = panels_op(f, s)[0]
        results = set()
        for p in Ptilde.members:
            if f(p) != 0:
                continue
            g = adjacent_codistance(f, s, Ptilde, p)
            results.add(g)
            assert panels_op(g, s) == panels_op(f, s)
            for c in range(b.n):
                assert g(c) in (f(c), table.left[f(c)][s])
        # one distinct panel mate per fop chamber of the base panel, and
        # none of them reproduces f (whose marked chamber is the gap)
        assert f not in results
        assert len(results) == len(
            [p for p in Ptilde.members if f(p) == 0]
        )


def test_adjacent_codistance_marks_beta_orbit(fano):
    b = fano
    f = from_opposite_chamber(b, 0)
    s = 0
    Ptilde = panels_op(f, s)[0]
    p = next(x for x in Ptilde.members if f(x) == 0)
    maps = beta_maps(f, Ptilde)
    g = adjacent_codistance(f, s, Ptilde, p)
    # the new projections of g on the panels of P_s^op are the orbit chambers
    for Q, mapping in maps.items():
        q = mapping[p]
        assert g(q) == b.weyl.gen(s)
        assert sum(1 for x in Q.members if g(x) == 0) == len(Q) - 1


def test_adjacent_codistance_alternate_base_panel(fano):
    # transporting the marked chamber to another base panel gives the same
    # neighbour
    b = fano
    f = from_opposite_chamber(b, 0)
    for s in range(2):
        ps = panels_op(f, s)
        Ptilde, P2 = ps[0], ps[1]
        for p in Ptilde.members:
            if f(p) != 0:
                continue
            p2 = beta(f, Ptilde, P2)(p)
            g1 = adjacent_codistance(f, s, Ptilde, p)
            g2 = adjacent_codistance(f, s, P2, p2)
            assert g1 == g2


def test_adjacent_codistance_preconditions(fano):
    b = fano
    f = from_opposite_chamber(b, 0)
    s = 0
    Ptilde = panels_op(f, s)[0]
    gap = next(x for x in Ptilde.members if f(x) != 0)
    with pytest.raises(PreconditionFailed):
        adjacent_codistance(f, s, Ptilde, gap)
    outside = next(
        P for P in b.residues_of_type((s,)) if P not in panels_op(f, s)
    )
    with pytest.raises(PreconditionFailed, match=r"^Ptilde does not meet f\^op$"):
        adjacent_codistance(f, s, outside, outside.base)


# -- atlas --------------------------------------------------------------------


def test_atlas_rejects_seed_with_empty_fop():
    # digon(2,3)'s panels under the A2 table: the chamber system is fine, but
    # r_S * delta(0, -) is never 1, so no panel meets f^op
    b = gen_digon(2, 3)
    mistyped = Building(ChamberSystem(enumerate_weyl(matrix_A2()), b.n, b.system.panels))
    f = from_opposite_chamber(mistyped, 0)
    assert tuple(f.values) == (5, 4, 4, 3, 1, 1) and not f.fop()
    with pytest.raises(PreconditionFailed, match="member 0 .* 0-panel"):
        atlas_component(f)


def test_fano_atlas_is_the_chamber_set(fano, fano_atlas):
    f, atlas = fano_atlas
    assert len(atlas.members) == 21
    oracle = {from_opposite_chamber(fano, c).values for c in range(fano.n)}
    assert {g.values for g in atlas.members} == oracle


def test_digon_atlas_size(digon33, digon_atlas):
    f, atlas = digon_atlas
    assert len(atlas.members) == 9
    oracle = {from_opposite_chamber(digon33, c).values for c in range(digon33.n)}
    assert {g.values for g in atlas.members} == oracle


def test_atlas_panels_partition(fano_atlas):
    f, atlas = fano_atlas
    n = len(atlas.members)
    for fam in atlas.panels:
        covered = sorted(m for pan in fam for m in pan)
        assert covered == list(range(n))
        assert all(len(pan) >= 2 for pan in fam)


def test_atlas_panel_mates_are_adjacent(fano_atlas):
    f, atlas = fano_atlas
    # s-adjacent members are those with the same s-panels meeting f^op
    for s, fam in enumerate(atlas.panels):
        for pan in fam:
            for i, j in itertools.combinations(pan, 2):
                assert panels_op(atlas.members[i], s) == panels_op(atlas.members[j], s)
        # members in different panels are not s-adjacent
        for pan1, pan2 in itertools.combinations(fam, 2):
            assert panels_op(atlas.members[pan1[0]], s) != panels_op(
                atlas.members[pan2[0]], s
            )


def test_atlas_is_chamber_system(fano_atlas):
    # two distinct members are panel mates for at most one type
    f, atlas = fano_atlas
    n = len(atlas.members)
    mates = [
        [
            {m for pan in fam for m in pan if i in pan} - {i}
            for fam in atlas.panels
        ]
        for i in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            types = [s for s in range(2) if j in mates[i][s]]
            assert len(types) <= 1


# -- the projection lemmas across an adjacency --------------------------------


def fop_residues(b, g, J):
    seen = set()
    for x in g.fop():
        R = b.residue(x, J)
        if R not in seen:
            seen.add(R)
            yield R


def test_projections_of_adjacent_codistances_are_adjacent(fano, fano_atlas):
    b = fano
    table = b.weyl
    f, atlas = fano_atlas
    for s, fam in enumerate(atlas.panels):
        for pan in fam:
            for i, j in itertools.combinations(pan, 2):
                g, h = atlas.members[i], atlas.members[j]
                for J in (frozenset((s,)), frozenset((0, 1))):
                    rJ = table.longest_element(J)
                    sbar = table.gen_index(
                        table.mult(table.mult(rJ, table.gen(s)), rJ)
                    )
                    for R in fop_residues(b, g, J):
                        pg, ph = proj_f(g, R), proj_f(h, R)
                        assert b.system.panel_of[sbar][pg] == \
                            b.system.panel_of[sbar][ph]


def test_residues_in_fop_are_shared(fano, fano_atlas):
    b = fano
    f, atlas = fano_atlas
    for s, fam in enumerate(atlas.panels):
        for pan in fam:
            for i, j in itertools.combinations(pan, 2):
                g, h = atlas.members[i], atlas.members[j]
                for J in (frozenset((s,)), frozenset((0, 1))):
                    for R in fop_residues(b, g, J):
                        assert any(h(x) == 0 for x in R.members)


def test_projection_determines_the_neighbour(fano, fano_atlas):
    b = fano
    f, atlas = fano_atlas
    for s, fam in enumerate(atlas.panels):
        for pan in fam:
            g = atlas.members[pan[0]]
            for R in fop_residues(b, g, frozenset((s,))):
                projections = [
                    proj_f(atlas.members[j], R) for j in pan
                ]
                assert len(set(projections)) == len(pan)


# -- alpha and assembly -------------------------------------------------------


def test_alpha_check_all_types(fano_atlas):
    f, atlas = fano_atlas
    for i in range(len(atlas.members)):
        for J in (frozenset(), frozenset((0,)), frozenset((1,)), frozenset((0, 1))):
            R = atlas.building.residue(min(atlas.members[i].fop()), J)
            assert alpha_check(atlas, i, R) == []


def test_alpha_check_refuses_a_residue_of_another_building(fano_atlas):
    # a second, separately generated pg2(2) numbers its chambers alike
    f, atlas = fano_atlas
    other = gen_pg2(2)
    for J in (frozenset(), frozenset((0,)), frozenset((0, 1))):
        R = atlas.building.residue(min(f.fop()), J)
        assert alpha_check(atlas, 0, R) == []
        with pytest.raises(PreconditionFailed):
            alpha_check(atlas, 0, other.residue(R.base, J))


def test_alpha_check_refuses_a_residue_outside_the_members_fop(fano_atlas):
    # chamber 0's residues of rank < 2 hold no chamber opposite chamber 0
    f, atlas = fano_atlas
    for J in (frozenset(), frozenset((0,)), frozenset((1,))):
        R = atlas.building.residue(0, J)
        assert not set(R) & set(f.fop())
        with pytest.raises(PreconditionFailed, match="does not meet the member's f\\^op"):
            alpha_check(atlas, 0, R)


def test_alpha_check_builds_the_opposite_set_of_each_image_only(monkeypatch, pg32):
    # one alpha_check builds the opposite set of each image alpha_j as it
    # first appears, not those of all 315 chambers: a call costs
    # O(|tilde| |R|), not O(n |R|)
    f = from_opposite_chamber(pg32, 0)
    atlas = atlas_component(f)
    calls = []
    opposite_set = twinner.opposite_set

    def counting_opposite_set(b, R, a):
        calls.append(a)
        return opposite_set(b, R, a)

    monkeypatch.setattr(twinner, "opposite_set", counting_opposite_set)
    c = min(f.fop())
    for J in (frozenset(), frozenset((0,)), frozenset((0, 1)), frozenset((0, 2))):
        calls.clear()
        assert alpha_check(atlas, 0, pg32.residue(c, J)) == []
        assert 0 < len(calls) <= len(atlas.residue_members(0, J)) < pg32.n


def alpha_adjacency_reference(atlas, i, J, R):
    """The adjacency failures (s, j1, j2) of alpha on the atlas J-residue of
    member i, by the definition: every ordered pair of members, per s in J,
    lies in one s-panel exactly when its images lie in one sbar-panel of R,
    sbar = r_J s r_J."""
    b = atlas.building
    table = b.weyl
    rJ = table.longest_element(J)
    tilde = atlas.residue_members(i, J)
    alpha = {j: proj_f(atlas.members[j], R) for j in tilde}
    panel_of = atlas.plus.system.panel_of
    failures = []
    for s in sorted(J):
        sbar = table.gen_index(table.conj_by(rJ, s))
        for j1 in tilde:
            for j2 in tilde:
                lhs = panel_of[s][j1] == panel_of[s][j2]
                rhs = (
                    b.system.panel_of[sbar][alpha[j1]]
                    == b.system.panel_of[sbar][alpha[j2]]
                )
                if lhs != rhs:
                    failures.append((s, j1, j2))
    return failures


def assert_alpha_matches_reference(atlas, i, R, witnesses=None):
    if witnesses is None:
        witnesses = alpha_check(atlas, i, R)
    failures = alpha_adjacency_reference(atlas, i, R.J, R)
    found = [w[1:] for w in witnesses if w[0] == "adjacency"]
    # one witness per failing type, each a pair the definition reports
    assert set(found) <= set(failures)
    assert sorted(s for s, _, _ in found) == sorted({s for s, _, _ in failures})
    return witnesses


def record_alpha_pairs(monkeypatch):
    """Wrap the per-type alpha kernel of ``assemble_twin``: the list it
    returns gains (tilde, R, witnesses) for every pair the kernel checks."""
    pairs = []
    kernel = twinner._alpha_kernel

    def recording_kernel(atlas, J, fop_masks):
        pair = kernel(atlas, J, fop_masks)

        def recording_pair(tilde, R):
            witnesses = pair(tilde, R)
            pairs.append((tilde, R, witnesses))
            return witnesses

        return recording_pair

    monkeypatch.setattr(twinner, "_alpha_kernel", recording_kernel)
    return pairs


@pytest.mark.parametrize("fixture", ["pg23", "sp43"])
def test_alpha_check_matches_reference_in_assembly(request, monkeypatch, fixture):
    # every (tilde, R) pair that assemble_twin checks per pair, |J| = 2; the
    # pairs of |J| = 1, decided per member, are checked one by one here
    b = request.getfixturevalue(fixture)
    f = from_opposite_chamber(b, 0)
    atlas = atlas_component(f)
    pairs = record_alpha_pairs(monkeypatch)
    assert assemble_twin(atlas, b, seed=f).report.ok
    assert pairs
    checked = {}
    for tilde, R, witnesses in pairs:
        # the first member of tilde with R in its f^op, as alpha_check takes it
        i = next(j for j in tilde if any(atlas.members[j](c) == 0 for c in R))
        assert assert_alpha_matches_reference(atlas, i, R, witnesses) == []
        checked[(atlas.plus.residue(i, R.J), R)] = i
    # one pair of the definition each, for its first member: tilde the atlas
    # J-residue of member i, R the J-residue of a chamber of its f^op, over
    # every member, f^op chamber and J with |J| in {1, 2}
    gens = range(b.weyl.rank)
    small_J = [frozenset(J) for k in (1, 2) for J in itertools.combinations(gens, k)]
    expected = {}
    for i, g in enumerate(atlas.members):
        for c in g.fop():
            for J in small_J:
                expected.setdefault((atlas.plus.residue(i, J), b.residue(c, J)), i)
    rank2 = {key: i for key, i in expected.items() if len(key[1].J) == 2}
    assert len(checked) == len(pairs) and checked == rank2
    rank1 = [(i, R) for (_, R), i in expected.items() if len(R.J) == 1]
    for i, R in rank1:
        witnesses = alpha_check(atlas, i, R)
        assert witnesses == loop_alpha_check(atlas, i, R)
        assert assert_alpha_matches_reference(atlas, i, R, witnesses) == []


def corrupt_panels(rng, fam):
    """One seeded change to a family of member panels: two members swapped
    between panels, two panels merged, or one panel split in two."""
    fam = list(fam)
    kind = rng.choice(("swap", "merge", "split"))
    p1, p2 = rng.sample(range(len(fam)), 2)
    if kind == "swap":
        a, c = rng.choice(fam[p1]), rng.choice(fam[p2])
        swap = {a: c, c: a}
        for p in (p1, p2):
            fam[p] = tuple(sorted(swap.get(j, j) for j in fam[p]))
    elif kind == "merge":
        fam[p1] = tuple(sorted(fam[p1] + fam[p2]))
        del fam[p2]
    else:
        members = rng.sample(fam[p1], len(fam[p1]))
        half = len(members) // 2
        fam[p1] = tuple(sorted(members[:half]))
        fam.append(tuple(sorted(members[half:])))
    return kind, fam


@pytest.mark.parametrize("fixture, kinds", [
    # two lines of a projective plane meet, so merging two panels of pg2(3)
    # always makes two members adjacent for both types
    ("pg23", {"swap", "split"}),
    ("sp43", {"swap", "merge", "split"}),
], ids=["pg23", "sp43"])
def test_alpha_check_rejects_corrupted_atlas_panels(request, fixture, kinds):
    # a swap changes both partitions' classes, a merge makes the members'
    # s-panels coarser than their images' panels and a split makes them
    # finer; each breaks adjacency on the whole building, the one rank-2
    # residue, and alpha_check says so
    b = request.getfixturevalue(fixture)
    f = from_opposite_chamber(b, 0)
    atlas = atlas_component(f)
    J = frozenset((0, 1))
    rng = random.Random(fixture)
    seen = Counter()
    for _ in range(30):
        s = rng.randrange(2)
        kind, fam = corrupt_panels(rng, atlas.panels[s])
        panels = [fam if t == s else atlas.panels[t] for t in range(2)]
        try:
            bad = CodistanceAtlas(b, atlas.members, panels)
        except ValueError:
            continue  # two members would share panels of both types
        seen[kind] += 1
        witnesses = assert_alpha_matches_reference(bad, 0, b.residue(0, J))
        found = {w[0] for w in witnesses}
        assert "bijection" not in found and "adjacency" in found
    assert set(seen) == kinds


def test_twin_report_all_green(fano_twin, digon_twin):
    for tw in (fano_twin, digon_twin):
        r = tw.report
        assert r.building_ok and r.tw_axioms_ok and r.opposition_ok
        assert r.plus_star_ok and r.diagram_ok and r.seed_ok
        assert r.ok


def test_twin_costar_extends_seed(fano, fano_twin):
    tw = fano_twin
    f = tw.atlas.members[tw.atlas.origin]
    for c in range(fano.n):
        assert tw.costar(tw.atlas.origin, c) == f(c)


def test_twin_opposition_relation(fano, fano_twin):
    # member i and chamber c are opposite when delta*(i, c) = 1
    tw = fano_twin
    O = {
        (i, c)
        for i in range(len(tw.atlas.members))
        for c in range(fano.n)
        if tw.costar(i, c) == 0
    }
    for i, g in enumerate(tw.atlas.members):
        assert {c for j, c in O if j == i} == frozenset(g.fop())
    # every chamber on either side has an opposite
    assert {i for i, _ in O} == set(range(len(tw.atlas.members)))
    assert {c for _, c in O} == set(range(fano.n))


def test_twin_costar_rev_is_inverse_value(fano, fano_twin):
    tw = fano_twin
    table = fano.weyl
    for i in range(len(tw.atlas.members)):
        for c in range(fano.n):
            assert tw.atlas.minus_rows[c][i] == table.inv(tw.costar(i, c))


def test_twin_checks_read_the_costar_tables(monkeypatch, fano, fano_atlas):
    # both halves read delta* off the value tables: no per-entry codistance
    # call, and the B- rows invert through the table's inverse list
    f, atlas = fano_atlas
    fresh = CodistanceAtlas(fano, atlas.members, atlas.panels)
    calls = {"call": 0, "inv": 0}
    call, inv = Codistance.__call__, WeylTable.inv

    def counting_call(self, c):
        calls["call"] += 1
        return call(self, c)

    def counting_inv(self, w):
        calls["inv"] += 1
        return inv(self, w)

    monkeypatch.setattr(Codistance, "__call__", counting_call)
    monkeypatch.setattr(WeylTable, "inv", counting_inv)
    assert _check_tw_axioms(fresh)
    assert _check_plus_star(fresh, fop_masks(fresh))
    assert calls == {"call": 0, "inv": 0}
    monkeypatch.undo()
    for c in range(fano.n):
        for i, g in enumerate(atlas.members):
            assert fresh.minus_rows[c][i] == fano.weyl.inv(g(c))


def test_twin_plus_half_is_isomorphic_size(fano, fano_twin):
    plus = fano_twin.plus
    assert plus.n == fano.n
    assert plus.system.is_thick()


def test_assemble_rejects_wrong_seed(fano, fano_atlas):
    f, atlas = fano_atlas
    wrong = from_opposite_chamber(fano, 1)
    assert wrong != f
    report = assemble_twin(atlas, fano, seed=wrong).report
    assert not report.seed_ok and not report.ok


def test_assemble_without_seed_checks_no_seed(fano, fano_atlas):
    report = assemble_twin(fano_atlas[1], fano).report
    assert report.seed_ok is None and report.ok


def test_assemble_rejects_another_building():
    # a second pg2(2), generated separately, has the same tables, but the
    # checks read one building only: the atlas's
    b = gen_pg2(2)
    atlas = atlas_component(from_opposite_chamber(b, 0))
    with pytest.raises(PreconditionFailed):
        assemble_twin(atlas, gen_pg2(2))


def test_assemble_rejects_corrupted_atlas(fano, fano_atlas):
    f, atlas = fano_atlas
    members = list(atlas.members)
    members[1], members[2] = members[2], members[1]
    bad = CodistanceAtlas(
        building=atlas.building,
        members=members,
        panels=atlas.panels,
    )
    assert not assemble_twin(bad, fano, seed=f).report.ok


def test_assemble_reports_member_without_projection(fano, fano_atlas):
    # a member that is no codistance has no projection onto some residue
    f, atlas = fano_atlas
    members = list(atlas.members)
    values = list(members[3].values)
    values[0] = fano.weyl.longest_element(range(2))
    members[3] = Codistance(fano, values)
    bad = CodistanceAtlas(
        building=atlas.building,
        members=members,
        panels=atlas.panels,
    )
    report = assemble_twin(bad, fano, seed=f).report
    assert not report.opposition_ok and not report.ok


# -- differential tests of the indexed verifiers -------------------------------


def plus_star_reference(minus, plus, atlas):
    """The plus-star check as a plain loop over every triple, the innermost
    one over z a scan of delta*(x, z) over the z not opposite y."""
    nplus = len(atlas.members)
    rows = [g.values for g in atlas.members]
    for x in range(nplus):
        for y in range(nplus):
            d = plus.delta(x, y)
            if d in itertools.compress(rows[x], rows[y]):
                return False
    fops = [frozenset(g.fop()) for g in atlas.members]
    if len(set(fops)) != nplus:
        return False
    chamber_ops = {}
    for c in range(minus.n):
        key = frozenset(i for i in range(nplus) if atlas.members[i](c) == 0)
        if key in chamber_ops.values():
            return False
        chamber_ops[c] = key
    inverse = minus.weyl.inverse
    cols = list(zip(*rows))   # cols[c][z] = delta*(z, c), so delta*(c, z) is its inverse
    for x in range(minus.n):
        for y in range(minus.n):
            d = minus.delta(x, y)
            if d in itertools.compress(map(inverse.__getitem__, cols[x]), cols[y]):
                return False
    return True


def corrupted_atlases(atlas):
    """Atlases with one member value changed to another nonzero value, two
    members' value vectors swapped, or two chambers' values swapped in every
    member; the panels, and so B+, stay those of ``atlas``.  Only the B-
    half of the check catches the last kind."""
    b = atlas.building
    n = len(atlas.members)

    def with_members(members):
        return CodistanceAtlas(b, members, atlas.panels)

    for k, c in ((0, 0), (1, b.n - 1), (n - 1, b.n // 2)):
        values = list(atlas.members[k].values)
        values[c] = values[c] % (b.weyl.size - 1) + 1
        members = list(atlas.members)
        members[k] = Codistance(b, values)
        yield with_members(members)
    for i, j in ((0, 1), (1, n - 1)):
        members = list(atlas.members)
        members[i], members[j] = members[j], members[i]
        yield with_members(members)
    for c1, c2 in ((0, 1), (2, b.n - 1)):
        members = []
        for g in atlas.members:
            values = list(g.values)
            values[c1], values[c2] = values[c2], values[c1]
            members.append(Codistance(b, values))
        yield with_members(members)


@pytest.mark.parametrize("fixture", ["fano", "pg23", "sp43", "digon33"])
def test_plus_star_matches_reference(request, fixture):
    b = request.getfixturevalue(fixture)
    f = from_opposite_chamber(b, 0)
    atlas = atlas_component(f)
    plus = assemble_twin(atlas, b, seed=f).plus
    assert plus_star_reference(b, plus, atlas)
    assert _check_plus_star(atlas, fop_masks(atlas))
    for bad in corrupted_atlases(atlas):
        assert not plus_star_reference(b, plus, bad)
        assert not _check_plus_star(bad, fop_masks(bad))


def loop_alpha_check(atlas, i, R):
    """``alpha_check`` as it was before the per-type kernel, verbatim: one
    ``proj_f`` per member of tilde and one ``b.delta`` per member of tilde
    and chamber of R."""
    b = atlas.building
    if R.building is not b:
        raise PreconditionFailed("R is not a residue of the atlas's building")
    table = b.weyl
    J = R.J
    g = atlas.members[i]
    if not any(g.values[x] == 0 for x in R.members):
        raise PreconditionFailed("residue does not meet the member's f^op")
    rJ = table.longest_element(J)
    tilde = atlas.residue_members(i, J)
    alpha = {j: proj_f(atlas.members[j], R) for j in tilde}
    witnesses = []
    if sorted(alpha.values()) != sorted(R.members):
        witnesses.append(("bijection", sorted(alpha.values())))
    for s in sorted(J):
        plus_panel = atlas.plus.system.panel_of[s]
        minus_panel = b.system.panel_of[table.gen_index(table.conj_by(rJ, s))]
        first_plus = {}
        first_minus = {}
        for j in tilde:
            lp, lm = plus_panel[j], minus_panel[alpha[j]]
            jp = first_plus.setdefault(lp, j)
            jm = first_minus.setdefault(lm, j)
            if minus_panel[alpha[jp]] != lm:
                j0 = jp
            elif plus_panel[jm] != lp:
                j0 = jm
            else:
                continue
            witnesses.append(("adjacency", s, j0, j))
            break
    for j in tilde:
        values = atlas.members[j].values
        for c in R.members:
            if (values[c] == 0) != (b.delta(alpha[j], c) == rJ):
                witnesses.append(("opposition", j, c))
    return witnesses


def loop_opposition_ok(atlas):
    """``assemble_twin``'s opposition flag as it was before the per-type
    kernel, verbatim: ``loop_alpha_check`` once per (tilde, R) pair, for
    the first member i whose f^op meets R."""
    b = atlas.building
    plus = atlas.plus
    opposition_ok = True
    checked = set()
    rank = b.system.rank
    small_J = [frozenset((s,)) for s in range(rank)] + [
        frozenset((s, t)) for s in range(rank) for t in range(s + 1, rank)
    ]
    partitions = [(J, *b.partition(J)) for J in small_J]
    for i, g in enumerate(atlas.members):
        for J, residues, index in partitions:
            tilde = plus.residue(i, J)
            for R in map(residues.__getitem__, sorted(set(map(index.__getitem__, g.fop())))):
                key = (tilde, R)
                if key in checked:
                    continue
                checked.add(key)
                try:
                    if loop_alpha_check(atlas, i, R):
                        opposition_ok = False
                except PreconditionFailed:
                    opposition_ok = False
    return opposition_ok


def seeded_corruptions(atlas, rng, k):
    """(kind, atlas) for k seeded corruptions of each kind: one member value
    changed to any other Weyl id, two members swapped, two chambers swapped
    in every member, and a ``corrupt_panels`` change to one type's member
    panels (skipped where no chamber system results)."""
    b = atlas.building
    n = len(atlas.members)
    rank = b.system.rank
    for _ in range(k):
        members = list(atlas.members)
        j, c = rng.randrange(n), rng.randrange(b.n)
        values = list(members[j].values)
        values[c] = rng.choice([w for w in range(b.weyl.size) if w != values[c]])
        members[j] = Codistance(b, values)
        yield "value", CodistanceAtlas(b, members, atlas.panels)
        members = list(atlas.members)
        i, j = rng.sample(range(n), 2)
        members[i], members[j] = members[j], members[i]
        yield "members", CodistanceAtlas(b, members, atlas.panels)
        c1, c2 = rng.sample(range(b.n), 2)
        members = []
        for g in atlas.members:
            values = list(g.values)
            values[c1], values[c2] = values[c2], values[c1]
            members.append(Codistance(b, values))
        yield "chambers", CodistanceAtlas(b, members, atlas.panels)
        s = rng.randrange(rank)
        kind, fam = corrupt_panels(rng, atlas.panels[s])
        panels = [fam if t == s else atlas.panels[t] for t in range(rank)]
        try:
            yield kind, CodistanceAtlas(b, atlas.members, panels)
        except (ValueError, TwinbuildError):
            pass  # two members adjacent for two types, or B+ disconnected


def alpha_outcome(check, *args):
    """The witnesses of an alpha check, or the type of what it raised."""
    try:
        return check(*args)
    except TwinbuildError as e:
        return type(e)


# the seeded corruptions of each kind per building: the loop is slow on pg3(2)
CORRUPTIONS = {"pg32": 1, "sp43": 1, "a2_x_fano": 1}


@pytest.mark.parametrize("name", [
    "fano", "pg23", "sp43", "digon33", "thin_a2", "thin_a3", "a2_x_fano", "pg32",
])
def test_opposition_matches_the_per_pair_loop(reference_buildings, name):
    # the opposition flag and alpha_check's witnesses, on the atlas from
    # chamber 0 and on seeded corruptions of it, against the loop they replace
    b = reference_buildings[name]
    atlas = atlas_component(from_opposite_chamber(b, 0))
    assert twinner._check_opposition(atlas, fop_masks(atlas)) and loop_opposition_ok(atlas)
    rng = random.Random(name)
    outcomes = Counter()
    for kind, bad in seeded_corruptions(atlas, rng, CORRUPTIONS.get(name, 4)):
        flag = twinner._check_opposition(bad, fop_masks(bad))
        assert flag == loop_opposition_ok(bad), kind
        outcomes[flag] += 1
        i = rng.randrange(len(bad.members))
        c = rng.choice(bad.members[i].fop() or (0,))
        for J in (frozenset((0,)), frozenset((0, 1))):
            R = b.residue(c, J)
            assert alpha_outcome(alpha_check, bad, i, R) == alpha_outcome(
                loop_alpha_check, bad, i, R)
    assert outcomes[False]


def gap_corruptions(atlas, s):
    """(kind, atlas) for one change to the f^op of members j1, j2 of the
    first s-panel of B+ within the s-panel R of B that meets j1's f^op at
    its least chamber, one per way the per-member rank-1 test can fail.  A
    gap of member j in R is a chamber of R outside its f^op."""
    b = atlas.building
    j1, j2 = atlas.panels[s][0][:2]
    g1, g2 = atlas.members[j1], atlas.members[j2]
    R = b.panel(min(g1.fop()), s)
    (gap1,) = [c for c in R if g1(c)]
    (gap2,) = [c for c in R if g2(c)]
    held = [c for c in R if c != gap1]

    def changed(j, g, changes):
        values = list(g.values)
        for c, v in changes.items():
            values[c] = v
        members = list(atlas.members)
        members[j] = Codistance(b, values)
        return CodistanceAtlas(b, members, atlas.panels)

    yield "same gap", changed(j2, g2, {gap1: g2(gap2), gap2: 0})
    yield "no gap", changed(j1, g1, {gap1: 0})
    yield "two gaps", changed(j1, g1, {held[0]: g1(gap1)})
    yield "misses R", changed(j1, g1, dict.fromkeys(held, g1(gap1)))


@pytest.mark.parametrize("name", ["fano", "pg23", "fano_tuple"])
def test_opposition_refuses_each_way_a_gap_count_fails(request, name):
    # each targeted change breaks alpha on one pair of s-panels; the
    # per-member test of that type alone refuses it, as does the flag and
    # the loop it replaces
    b = request.getfixturevalue(name)
    atlas = atlas_component(from_opposite_chamber(b, 0))
    for s in range(b.system.rank):
        for kind, bad in gap_corruptions(atlas, s):
            assert not twinner._panel_opposition(bad, s, fop_masks(bad))
            flag = twinner._check_opposition(bad, fop_masks(bad))
            assert flag is loop_opposition_ok(bad) is False, kind


@pytest.mark.parametrize("s", [0, 1])
def test_opposition_refuses_a_tilde_smaller_than_its_panels(fano, pg23, s):
    # B+ is the chamber system of pg2(2), panels of 3, over pg2(3), panels of
    # 4.  Three members of one s-panel hold two chambers each of one s-panel
    # R of B, and no chamber of R is held by all three: every count reads
    # k - 1 and the f^op meet in nothing, yet each member has two gaps in R,
    # and only |R| != k says so.  Every other f^op is empty.
    R = pg23.panel(0, s)
    held = dict(zip(fano.system.panels[s][0], ((0, 1), (2, 3), (0, 2))))
    members = [
        Codistance(pg23, [0 if c in R and R.members.index(c) in held.get(j, ()) else 1
                          for c in range(pg23.n)])
        for j in range(fano.n)
    ]
    bad = CodistanceAtlas(pg23, members, fano.system.panels)
    assert not twinner._panel_opposition(bad, s, fop_masks(bad))
    assert twinner._check_opposition(bad, fop_masks(bad)) is loop_opposition_ok(bad) is False


def test_assembly_keeps_no_fop_tuple_on_its_members(fano, fano_atlas):
    # the opposition and plus-star checks read f^op off the masks and the
    # value rows: members read from files, as ``twin verify`` reads them,
    # keep their building and their value row alone
    _, atlas = fano_atlas
    fresh = CodistanceAtlas(fano, [Codistance(fano, g.values) for g in atlas.members],
                            atlas.panels)
    assert assemble_twin(fresh, fano).report.ok
    assert all(vars(g).keys() == {"building", "values"} for g in fresh.members)


def test_atlas_keeps_no_fop_tuple_and_panels_op_is_unchanged(pg23):
    # ``panels_op`` reads the s-partition index through the identity marks
    # of a member's row; the panels are those read off the f^op tuple, and
    # a member keeps its building and its value row alone
    atlas = atlas_component(from_opposite_chamber(pg23, 0))
    for g in atlas.members:
        fop = g.fop()
        for s in range(pg23.system.rank):
            panels, index = pg23.partition((s,))
            assert panels_op(g, s) == tuple(
                map(panels.__getitem__, sorted(set(map(index.__getitem__, fop)))))
    assert all(vars(g).keys() == {"building", "values"} for g in atlas.members)


def test_atlas_lists_panels_op_twice_per_plus_panel(pg23, monkeypatch):
    # P_s^op(g) is listed once by the atlas step and once by ``beta_maps``;
    # the f^op search and ``_adjacent_rows`` do not test it again
    calls = []
    original = codistance.panels_op

    def counted(f, s):
        calls.append(s)
        return original(f, s)

    for module in (codistance, panelcalc, twinner):
        monkeypatch.setattr(module, "panels_op", counted)
    atlas = atlas_component(from_opposite_chamber(pg23, 0))
    assert sum(map(len, atlas.panels)) == 26
    assert len(calls) == 52


def tw_axioms_reference(minus, plus, atlas):
    """(Tw2) and (Tw3) as plain loops over every member, chamber and type,
    on both halves."""
    table = minus.weyl
    length = table.length
    nplus = len(atlas.members)
    for i in range(nplus):
        g = atlas.members[i]
        for c in range(minus.n):
            w = g(c)
            # side +: y = c in B-, moves z within B-
            for s in range(minus.system.rank):
                ws = table.right[w][s]
                extended = length[ws] == length[w] + 1
                found = False
                for z in minus.system.panel_members(c, s):
                    if z == c:
                        continue
                    if not extended and g(z) != ws:
                        return False            # Tw2
                    if g(z) == ws:
                        found = True
                if not found:
                    return False                # Tw3
            # side -: x = c, y = member i, w' = w^{-1}; z ranges in B+
            winv = table.inv(w)
            for s in range(plus.system.rank):
                ws = table.right[winv][s]
                extended = length[ws] == length[winv] + 1
                found = False
                for j in plus.system.panel_members(i, s):
                    if j == i:
                        continue
                    zval = table.inv(atlas.members[j](c))
                    if not extended and zval != ws:
                        return False            # Tw2
                    if zval == ws:
                        found = True
                if not found:
                    return False                # Tw3
    return True


@pytest.mark.parametrize("fixture", ["fano", "pg23", "digon33"])
def test_tw_axioms_match_reference(request, fixture):
    # the member-swapping corruptions keep every member a codistance, so
    # only the B+ half of the check can reject them
    b = request.getfixturevalue(fixture)
    atlas = atlas_component(from_opposite_chamber(b, 0))
    assert tw_axioms_reference(b, atlas.plus, atlas)
    assert _check_tw_axioms(atlas)
    for bad in corrupted_atlases(atlas):
        expected = tw_axioms_reference(b, atlas.plus, bad)
        assert _check_tw_axioms(bad) == expected


@pytest.mark.parametrize("fixture", ["pg23", "sp43", "pg32"])
def test_beta_orbit_matches_beta(request, fixture):
    b = request.getfixturevalue(fixture)
    f = from_opposite_chamber(b, 0)
    for s in range(b.system.rank):
        for Ptilde in panels_op(f, s)[:2]:
            assert beta_maps(f, Ptilde) == {
                Q: beta(f, Ptilde, Q).mapping for Q in panels_op(f, s)
            }


def each_neighbour(f, s, Ptilde):
    """The s-neighbours of f, one ``adjacent_codistance`` per chamber p of
    Ptilde in f^op, in ascending p."""
    marks = [p for p in sorted(Ptilde.members) if f(p) == 0]
    return {p: adjacent_codistance(f, s, Ptilde, p) for p in marks}


def neighbours_reference(f, s, Ptilde):
    """The s-neighbours of f by projection: per p, g_p(c) = s f(c) when the
    projection of c to a panel P of ``panels_op_c(f, s, c)`` is the gap of
    P (its one chamber outside f^op, of f-value s) or beta_P(p), with every
    such P agreeing."""
    b = f.building
    table = b.weyl
    if Ptilde not in panels_op(f, s):
        raise PreconditionFailed("Ptilde does not meet f^op")
    maps = beta_maps(f, Ptilde)
    gaps = {}
    for P in maps:
        outside = [x for x in P.members if f(x) != 0]
        if len(outside) != 1 or f(outside[0]) != table.gen(s):
            raise PreconditionFailed("panel does not meet f^op correctly")
        gaps[P] = outside[0]
    projections = []
    for c in range(b.n):
        choices = panels_op_c(f, s, c)
        if not choices:
            raise PreconditionFailed(f"no panel of f^op_{c} of type {s}")
        projections.append([(P, b.proj_chamber(P, c)) for P in choices])
    neighbours = {}
    for p in sorted(Ptilde.members):
        if f(p) != 0:
            continue
        values = []
        for c, projs in enumerate(projections):
            w = f(c)
            vals = {
                table.left[w][s] if m in (gaps[P], maps[P][p]) else w
                for P, m in projs
            }
            if len(vals) != 1:
                raise PreconditionFailed(
                    f"panel choice changes the value at chamber {c}"
                )
            values.append(vals.pop())
        g = Codistance(b, values)
        if not validate_codistance(g).ok:
            raise PreconditionFailed("constructed map is not a codistance")
        neighbours[p] = g
    return neighbours


def first_members(b, k=20):
    """Up to k atlas members of the codistance from chamber 0, breadth
    first; just the seed where beta is undefined."""
    f = from_opposite_chamber(b, 0)
    members = [f]
    queue = deque(members)
    while queue and len(members) < k:
        g = queue.popleft()
        for s in range(b.system.rank):
            try:
                found = each_neighbour(g, s, panels_op(g, s)[0]).values()
            except NotOpposite:
                continue
            for h in found:
                if h not in members:
                    members.append(h)
                    queue.append(h)
    return members[:k]


def outcome(kernel, *args):
    """The kernel's neighbours in order, or the type of what it raised."""
    try:
        return list(kernel(*args).items())
    except TwinbuildError as e:
        return type(e)


KERNELS = (each_neighbour, neighbours_reference)


def kernel_outcomes(*args):
    return [outcome(kernel, *args) for kernel in KERNELS]


def raised_message(kernel, *args):
    with pytest.raises(PreconditionFailed) as info:
        kernel(*args)
    return str(info.value)


def named_chamber(message):
    """The chamber a kernel's refusal names, its first number."""
    return int(re.search(r"\d+", message).group())


# the members drawn per building: the rank-3 pg3(2) reference is slow
FIRST_MEMBERS = {"pg32": 5}


@pytest.fixture(scope="module")
def reference_buildings(fano, pg23, sp43, sp42, thin_a2, thin_a3, digon33, pg32):
    return {
        "fano": fano, "pg23": pg23, "sp43": sp43, "sp42": sp42, "thin_a2": thin_a2,
        "thin_a3": thin_a3, "digon33": digon33, "pg32": pg32,
        "a2_x_fano": product(
            gen_thin(CoxeterMatrix(("a", "b"), ((1, 3), (3, 1)))), gen_pg2(2)),
    }


@pytest.mark.parametrize("name", [
    "fano", "pg23", "sp43", "sp42", "thin_a3", "digon33", "a2_x_fano", "pg32",
])
def test_adjacent_codistances_match_reference(reference_buildings, name):
    b = reference_buildings[name]
    raised = set()
    for g in first_members(b, FIRST_MEMBERS.get(name, 20)):
        for s in range(b.system.rank):
            for Ptilde in panels_op(g, s)[:2]:
                new, ref = kernel_outcomes(g, s, Ptilde)
                assert new == ref
                if isinstance(new, type):
                    raised.add(new)
    # sp4(2) has no beta: its f^op joins no two panels of one type
    assert raised == ({NotOpposite} if name == "sp42" else set())


@pytest.mark.parametrize("name", ["fano", "pg23", "thin_a3", "pg32"])
def test_adjacent_codistances_match_reference_on_corruptions(
    reference_buildings, name
):
    # one or two values changed; two can break two chambers at once
    b = reference_buildings[name]
    members = first_members(b, FIRST_MEMBERS.get(name, 20))
    rng = random.Random(name)
    kinds = set()
    named = 0
    for _ in range(100):
        values = list(rng.choice(members).values)
        changed = rng.sample(range(b.n), rng.randint(1, 2))
        for c in changed:
            values[c] = rng.randrange(b.weyl.size)
        g = Codistance(b, values)
        s = rng.randrange(b.system.rank)
        ops = panels_op(g, s)
        if not ops:
            continue
        args = (g, s, rng.choice(ops))
        rng.random()   # a spare draw: each corruption takes five, as seeded
        new, ref = kernel_outcomes(*args)
        assert new == ref
        kinds.add((len(changed), new if isinstance(new, type) else "result"))
        if new is PreconditionFailed and not any(fop_c(g, c) for c in changed):
            # every chamber changed has lost its panels; where the reference
            # names the least, the kernel names it too, or a smaller chamber
            # in the beta-orbits of two marks
            messages = [raised_message(kernel, *args) for kernel in KERNELS]
            if messages[1].startswith("no panel of"):
                if messages[0].startswith("panel choice"):
                    assert named_chamber(messages[0]) < named_chamber(messages[1])
                else:
                    assert messages[0] == messages[1]
                named += 1
    assert {(1, "result"), (1, PreconditionFailed), (2, PreconditionFailed)} <= kinds
    assert named


@pytest.mark.parametrize("name, base, changes, s, i", [
    ("fano", 10, ((1, 3), (2, 1), (0, 3)), 1, 0),
    ("pg32", 109, ((182, 10), (39, 14)), 1, 10),
], ids=["fano", "pg32"])
def test_panel_choice_conflict_is_refused(reference_buildings, name, base, changes, s, i):
    # corruptions that put a chamber no shorter under s into the beta-orbits
    # of two marks: both kernels name it
    b = reference_buildings[name]
    values = list(from_opposite_chamber(b, base).values)
    for c, v in changes:
        values[c] = v
    g = Codistance(b, values)
    args = (g, s, panels_op(g, s)[i])
    messages = [raised_message(kernel, *args) for kernel in KERNELS]
    assert messages[0] == messages[1]
    assert messages[0].startswith("panel choice changes the value at chamber ")


# -- the same differentials on tuple rows: 16-bit lanes -------------------------


@pytest.fixture(scope="module")
def tuple_buildings(fano_tuple, pg32_tuple):
    # no thick fixture has more than 256 Weyl elements, and thin B4 has one
    # mark per panel: copies on tuple rows run the 16-bit lanes thickly
    assert fano_tuple.weyl.lane_bits == pg32_tuple.weyl.lane_bits == 16
    return {"fano": fano_tuple, "pg32": pg32_tuple}


@pytest.mark.parametrize("name", ["fano", "pg32"])
def test_adjacent_codistances_match_reference_on_tuple_rows(tuple_buildings, name):
    test_adjacent_codistances_match_reference(tuple_buildings, name)


@pytest.mark.parametrize("name", ["fano", "pg32"])
def test_adjacent_codistances_match_reference_on_tuple_row_corruptions(
    tuple_buildings, name
):
    test_adjacent_codistances_match_reference_on_corruptions(tuple_buildings, name)


@pytest.mark.parametrize("name, base, changes, s, i", [
    ("fano", 10, ((1, 3), (2, 1), (0, 3)), 1, 0),
    ("pg32", 109, ((182, 10), (39, 14)), 1, 10),
], ids=["fano", "pg32"])
def test_panel_choice_conflict_is_refused_on_tuple_rows(
    tuple_buildings, name, base, changes, s, i
):
    test_panel_choice_conflict_is_refused(tuple_buildings, name, base, changes, s, i)


def test_pg32_atlas_on_tuple_rows(pg32_tuple):
    # the digest reads the values as tuples: the same atlas, in the same order,
    # as on bytes rows
    atlas = atlas_component(from_opposite_chamber(pg32_tuple, 0))
    assert type(atlas.members[-1].values) is tuple
    assert atlas_digest(atlas) == "4c9372cbd3e26955"


# -- each atlas member validated once -------------------------------------------


def test_atlas_validates_each_new_row_once(monkeypatch, fano):
    # a row the kernel repeats is a member validated when it joined, or the
    # seed, so only new rows are validated
    validated, returned = [], []
    validate, rows = twinner.validate_codistance, twinner._adjacent_rows

    def counting_validate(g):
        validated.append(g.values)
        return validate(g)

    def recording_rows(*args):
        got = rows(*args)
        returned.extend(got.values())
        return got

    monkeypatch.setattr(twinner, "validate_codistance", counting_validate)
    monkeypatch.setattr(twinner, "_adjacent_rows", recording_rows)
    atlas = atlas_component(from_opposite_chamber(fano, 0))
    assert validated == [g.values for g in atlas.members[1:]]
    assert set(returned) <= {g.values for g in atlas.members}
    assert len(returned) > len(validated)


def test_atlas_refuses_a_corrupted_new_row(monkeypatch, fano):
    # the kernel's rows are not validated; the atlas validates a new one
    seed = from_opposite_chamber(fano, 0)
    rows = twinner._adjacent_rows
    corrupted = []

    def corrupting(g, s, Ptilde):
        got = rows(g, s, Ptilde)
        if not corrupted:
            p = max(got)
            values = list(got[p])
            values[0] = (values[0] + 1) % fano.weyl.size
            got[p] = fano.weyl.pack(values)
            corrupted.append(got[p])
        return got

    monkeypatch.setattr(twinner, "_adjacent_rows", corrupting)
    with pytest.raises(PreconditionFailed) as info:
        atlas_component(seed)
    report = validate_codistance(Codistance(fano, corrupted[0]))
    assert not report.ok
    assert str(info.value) == f"constructed map is not a codistance: {report}"


# -- every atlas step refuses a panel choice that changes a neighbour ----------


CATALOG = {
    "pg2_5": lambda: gen_pg2(5),
    "digon_2_2": lambda: gen_digon(2, 2),
    "digon_2_3": lambda: gen_digon(2, 3),
    "digon_2_4": lambda: gen_digon(2, 4),
    "digon_3_4": lambda: gen_digon(3, 4),
    "thin_a1": lambda: gen_thin(matrix_A1()),
    "thin_b2": lambda: gen_thin(matrix_B2()),
    "thin_b4": lambda: gen_thin(matrix_B4()),
    "thin_i2_4": lambda: gen_thin(matrix_I2(4)),
    "thin_i2_6": lambda: gen_thin(matrix_I2(6)),
    "a2_x_fano": lambda: product(
        gen_thin(CoxeterMatrix(("a", "b"), ((1, 3), (3, 1)))), gen_pg2(2)),
    "sp42_x_a1": lambda: product(gen_sp4(2), gen_thin(matrix_A1())),
}


@pytest.mark.parametrize("name", [
    "fano", "pg23", "pg32", "sp42", "sp43", "digon33", "thin_a2", "thin_a3",
    *CATALOG,
])
def test_atlas_from_three_chambers_of_every_catalog_building(request, name):
    # each step of atlas_component checks that its neighbours do not depend on
    # the panel of P_s^op chosen; the closure reaches every chamber of B and
    # the twin passes, or f^op joins no two panels of a type and beta fails
    b = CATALOG[name]() if name in CATALOG else request.getfixturevalue(name)
    for c in sorted({0, b.n // 2, b.n - 1}):
        f = from_opposite_chamber(b, c)
        if name.startswith("sp42"):
            with pytest.raises(NotOpposite):
                atlas_component(f)
            continue
        atlas = atlas_component(f)
        assert len(atlas.members) == b.n
        assert all(vars(assemble_twin(atlas, b, seed=f).report).values())


def gonality_reference(b, R):
    """Reference gonality: the incidence graph has an edge for each pair of
    an s-panel and a t-panel of R that share a chamber."""
    s, t = sorted(R.J)
    cs = R.members
    spanels = sorted({b.panel(c, s) for c in cs}, key=panel_key)
    tpanels = sorted({b.panel(c, t) for c in cs}, key=panel_key)
    nodes = spanels + tpanels
    idx = {P: k for k, P in enumerate(nodes)}
    adj = [set() for _ in nodes]
    for P in spanels:
        for Q in tpanels:
            if set(P.members) & set(Q.members):
                adj[idx[P]].add(idx[Q])
                adj[idx[Q]].add(idx[P])
    girth = None
    diameter = 0
    for src in range(len(nodes)):
        dist = {src: 0}
        parent = {src: -1}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    cyc = dist[u] + dist[v] + 1
                    if girth is None or cyc < girth:
                        girth = cyc
        if len(dist) != len(nodes):
            return None
        diameter = max(diameter, max(dist.values()))
    if girth is None or girth != 2 * diameter:
        return None
    return diameter


@pytest.mark.parametrize("fixture", [
    "fano", "pg23", "sp42", "sp43", "digon33", "pg32", "thin_a3",
    "fano_atlas", "digon_atlas",
])
def test_gonality_matches_reference(request, fixture):
    b = request.getfixturevalue(fixture)
    if fixture.endswith("_atlas"):
        b = b[1].plus
    for R in b.rank2_residues():
        expected = gonality_reference(b, R)
        s, t = sorted(R.J)
        assert expected == b.weyl.matrix.m[s][t]
        assert _gonality(b, R) == expected


def test_gonality_rejects_two_squares_sharing_a_vertex():
    # incidence graph: two 4-cycles through the s-panel (0,3,4,7), so the
    # girth is 4 and the diameter 4; no generalized polygon
    panels = [
        [(0, 3, 4, 7), (1, 2), (5, 6)],
        [(0, 1), (2, 3), (4, 5), (6, 7)],
    ]
    b = Building(ChamberSystem(enumerate_weyl(matrix_I2(2)), 8, panels))
    R = b.residue(0, {0, 1})
    assert len(R) == 8
    assert gonality_reference(b, R) is None
    assert _gonality(b, R) is None


# -- the rank-3 twin ----------------------------------------------------------


def atlas_digest(atlas):
    """The first 16 hex digits of the SHA-256 of the members' value vectors
    in atlas order and of the member-index panels."""
    data = ([tuple(g.values) for g in atlas.members], atlas.panels)
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name, digest", [
    ("pg23", "1441e1ec36dd98bb"),
    ("sp43", "d72e365e390ed427"),
])
def test_atlas_order_from_chamber_0(request, name, digest):
    # the order of the members and panels, not only their set, is output:
    # `twin build` writes B+ in atlas order
    atlas = atlas_component(from_opposite_chamber(request.getfixturevalue(name), 0))
    assert atlas_digest(atlas) == digest


def test_pg32_twin_from_chamber_0(pg32):
    f = from_opposite_chamber(pg32, 0)
    atlas = atlas_component(f)
    assert len(atlas.members) == 315
    # pg3(2) fails lsco, so no theorem covers its atlas: every step refuses a
    # panel choice that changes a neighbour, and none does; pin the order,
    # not only the set
    assert atlas_digest(atlas) == "4c9372cbd3e26955"
    oracle = {from_opposite_chamber(pg32, c).values for c in range(pg32.n)}
    assert {g.values for g in atlas.members} == oracle
    twin = assemble_twin(atlas, pg32, seed=f)
    r = twin.report
    assert r.building_ok and r.tw_axioms_ok and r.opposition_ok
    assert r.plus_star_ok and r.diagram_ok and r.seed_ok
    assert all(
        twin.costar(atlas.origin, c) == f(c) for c in range(pg32.n)
    )


def test_pg32_rows_are_bytes_and_twin_step_peak_memory(pg32):
    # |W| = 24 for A3, so every row of Weyl ids is stored one byte per value;
    # with rows of 8-byte pointers to ints this step peaks at about 3.5 MiB
    f = from_opposite_chamber(pg32, 0)
    tracemalloc.start()
    try:
        atlas = atlas_component(f)
        twin = assemble_twin(atlas, pg32, seed=f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert twin.report.ok
    assert peak < 2.5 * 2**20, peak
    assert all(type(row) is bytes for row in pg32.rows + twin.plus.rows + atlas.minus_rows)
    assert all(type(g.values) is bytes for g in atlas.members)


def test_thin_b4_twin_keeps_tuple_rows():
    # |W| = 384 does not fit in a byte, so every row stays a tuple of ids
    b = gen_thin(matrix_B4())
    assert b.weyl.size == b.n == 384 and b.weyl.pack is tuple
    assert validate_building(b).ok
    f = from_opposite_chamber(b, 0)
    assert validate_codistance(f).ok
    atlas = atlas_component(f)
    assert len(atlas.members) == 384
    r = assemble_twin(atlas, b, seed=f).report
    assert r.building_ok and r.tw_axioms_ok and r.opposition_ok
    assert r.plus_star_ok and r.diagram_ok and r.seed_ok
    assert all(type(row) is tuple for row in b.rows + atlas.plus.rows + atlas.minus_rows)
    g = atlas.members[-1]
    assert type(g.values) is tuple
    assert parse_codistance(serialize_codistance(g), b) == g
