import copy
import itertools
import os
import random
import sys
import time
import tracemalloc
from collections import deque
from itertools import combinations

import pytest

from conftest import TupleRowTable, fop_masks, opposite_chambers, opposite_residues, tuple_rows

from twinbuild.catalog import (
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
    product,
)
from twinbuild.chambersys import (
    AxiomViolation,
    Building,
    BuildingReport,
    ChamberSystem,
    panel_axiom,
    panel_table,
    validate_building,
)
from twinbuild.codistance import from_opposite_chamber
from twinbuild.coxeter import CoxeterMatrix, enumerate_weyl
from twinbuild.errors import NotConnected, NotInResidue
from twinbuild.twinner import CodistanceAtlas, _check_plus_star, atlas_component


def test_validate_fixtures(fano, digon33, sp42, thin_a3):
    for b in (fano, digon33, sp42):
        report = validate_building(b)
        assert report.ok
        assert b.system.is_thick()
    report = validate_building(thin_a3)
    assert report.ok
    assert all(len(p) == 2 for fam in thin_a3.system.panels for p in fam)


def test_delta_symmetry_and_length(fano):
    table = fano.weyl
    for x in range(fano.n):
        for y in range(fano.n):
            assert fano.delta(y, x) == table.inv(fano.delta(x, y))
    # numerical distance equals graph distance (checked by validator too)
    assert fano.delta(0, 0) == 0


def test_gate_property(fano):
    """delta(c, y) = delta(c, proj) * delta(proj, y) for every residue."""
    table = fano.weyl
    for J in [frozenset({0}), frozenset({1}), frozenset({0, 1})]:
        seen = set()
        for c0 in range(fano.n):
            R = fano.residue(c0, J)
            if (R.J, R.base) in seen:
                continue
            seen.add((R.J, R.base))
            for c in range(fano.n):
                gate = fano.proj_chamber(R, c)
                for y in R.members:
                    assert fano.delta(c, y) == table.mult(
                        fano.delta(c, gate), fano.delta(gate, y)
                    )
                    if y != gate:
                        assert table.length[fano.delta(c, y)] > table.length[fano.delta(c, gate)]


def test_singleton_panel_rejected(fano):
    panels = [list(map(tuple, fam)) for fam in fano.system.panels]
    # split one panel into a singleton and the rest
    victim = panels[0][0]
    panels[0][0] = victim[:1]
    panels[0].append(victim[1:])
    with pytest.raises(ValueError):
        ChamberSystem(fano.weyl, fano.n, panels)


def double_adjacency_reference(rank, panels):
    """The message of the first pair of chambers adjacent for two types, or
    None: ``ChamberSystem``'s check before it read ``panel_of``, verbatim
    (every chamber pair of every panel in one dict)."""
    seen: dict[tuple[int, int], int] = {}
    for s in range(rank):
        for p in panels[s]:
            for i, a in enumerate(p):
                for b in p[i + 1:]:
                    prev = seen.setdefault((a, b), s)
                    if prev != s:
                        return f"chambers {a},{b} adjacent for types {prev} and {s}"
    return None


def random_partition(rng, n):
    """The chambers 0..n-1 in ascending panels of 2 to 4, panels shuffled."""
    order = rng.sample(range(n), n)
    panels, k = [], 0
    while k < n:
        size = rng.choice([2, 3, 4])
        if n - k - size == 1 or size > n - k:
            size = n - k
        panels.append(tuple(sorted(order[k:k + size])))
        k += size
    return panels


@pytest.mark.parametrize("matrix", [matrix_A2, matrix_A3], ids=["rank2", "rank3"])
def test_double_adjacency_witness_matches_reference(matrix):
    # crafted partitions, most of them with doubly adjacent chambers, and
    # panel swaps of pg2(3): the same verdict and the same first witness
    table = enumerate_weyl(matrix())
    rank = table.rank
    rng = random.Random(rank)
    systems = [(n, [random_partition(rng, n) for _ in range(rank)])
               for n in rng.choices(range(4, 16), k=400)]
    if rank == 2:
        pg = gen_pg2(3)
        for _ in range(50):
            panels = [list(fam) for fam in pg.system.panels]
            s = rng.randrange(rank)
            i, j = rng.sample(range(len(panels[s])), 2)
            a, b = rng.choice(panels[s][i]), rng.choice(panels[s][j])
            swap = {a: b, b: a}
            panels[s][i], panels[s][j] = (
                tuple(sorted(swap.get(c, c) for c in panels[s][k])) for k in (i, j))
            systems.append((pg.n, panels))
    messages = set()
    for n, panels in systems:
        expected = double_adjacency_reference(rank, panels)
        if expected is None:
            ChamberSystem(table, n, panels)
        else:
            with pytest.raises(ValueError) as info:
                ChamberSystem(table, n, panels)
            assert str(info.value) == expected
            messages.add(expected.split(" for ")[1])
    # every pair of types gave a witness somewhere
    assert messages == {f"types {t} and {s}" for s in range(rank) for t in range(s)}


def test_moved_chamber_fails_validation(fano):
    panels = [sorted(tuple(p) for p in fam) for fam in fano.system.panels]
    a = list(panels[0][0])
    b = list(panels[0][1])
    b.append(a.pop())
    panels[0][0] = tuple(sorted(a))
    panels[0][1] = tuple(sorted(b))
    try:
        system = ChamberSystem(fano.weyl, fano.n, panels)
        building = Building(system, name="mutated")
        report = validate_building(building)
        assert not report.ok
    except (ValueError, NotConnected):
        pass  # the mutation may already break the chamber system


@pytest.mark.parametrize("make, matrix, axiom, witness", [
    (lambda: gen_thin(matrix_I2(6)), matrix_A2, "Bu1", (0, 11)),
    (lambda: gen_thin(matrix_I2(4)), lambda: matrix_I2(2), "Bu1", (0, 7)),
    (lambda: gen_pg2(2), matrix_B2, "Bu2", (0, 9, 10, 1)),
    (lambda: gen_digon(2, 3), matrix_A2, "Bu2", (0, 1, 4, 0)),
], ids=["thin_g2_as_a2", "thin_b2_as_i2_2", "pg22_as_b2", "digon23_as_a2"])
def test_wrong_coxeter_type_fails_validation(make, matrix, axiom, witness):
    """Valid panels under the wrong Weyl group: the chamber system is fine,
    so the checker itself must report the one violation."""
    b = make()
    system = ChamberSystem(enumerate_weyl(matrix()), b.n, b.system.panels)
    report = validate_building(Building(system, name="mistyped"))
    assert not report.ok
    assert (report.violation.axiom, report.violation.witness) == (axiom, witness)


# -- the one-pass validator against the three-pass one ---------------------------


def validate_building_reference(b: Building) -> BuildingReport:
    """Three passes: Bu1-Bu3, then delta symmetry, then gallery distance =
    l(delta) by one BFS per chamber.  Bu1-Bu3 imply what the last two test,
    so its report must equal that of ``validate_building``."""
    table = b.weyl
    lengths = table.length
    right = table.right
    rows = b.rows

    def fail(axiom, witness, detail):
        return BuildingReport(AxiomViolation(axiom, witness, detail))

    for x, row in enumerate(rows):
        for y in range(b.n):
            w = row[y]
            if (w == 0) != (x == y):
                return fail("Bu1", (x, y), f"delta={table.word_str(w)}")
            for s in range(b.system.rank):
                ws = right[w][s]
                up = lengths[ws] == lengths[w] + 1
                found_ws = False
                for z in b.system.panel_members(y, s):
                    if z == y:
                        continue
                    d = row[z]
                    if d == ws:
                        found_ws = True
                    elif d != w:
                        return fail(
                            "Bu2", (x, y, z, s),
                            f"delta(x,z)={table.word_str(d)} not in "
                            f"{{{table.word_str(w)}, {table.word_str(ws)}}}",
                        )
                    elif up:
                        return fail(
                            "Bu2", (x, y, z, s), "l(ws)=l(w)+1 but delta(x,z)=w"
                        )
                if not found_ws:
                    return fail("Bu3", (x, y, s), "no z with delta(x,z)=ws")
    for x, row in enumerate(rows):
        for y in range(x + 1, b.n):
            if table.inv(row[y]) != rows[y][x]:
                return fail("delta-symmetry", (x, y), "delta(x,y) != delta(y,x)^-1")
    for x, row in enumerate(rows):
        dist = [-1] * b.n
        dist[x] = 0
        queue = deque([x])
        while queue:
            y = queue.popleft()
            for _, z in b.system.adjacency[y]:
                if dist[z] == -1:
                    dist[z] = dist[y] + 1
                    queue.append(z)
        for y in range(b.n):
            if dist[y] != lengths[row[y]]:
                return fail("gallery-distance", (x, y), "numerical distance != l(delta)")
    return BuildingReport(None)


@pytest.mark.parametrize("name", [
    "fano", "pg23", "sp42", "sp43", "digon33", "thin_a3", "pg32",
])
def test_validator_matches_reference_on_fixtures(request, name):
    b = request.getfixturevalue(name)
    assert validate_building(b) == validate_building_reference(b)


@pytest.mark.parametrize("make, matrix", [
    (lambda: gen_thin(matrix_I2(6)), matrix_A2),
    (lambda: gen_thin(matrix_I2(4)), lambda: matrix_I2(2)),
    (lambda: gen_pg2(2), matrix_B2),
    (lambda: gen_digon(2, 3), matrix_A2),
], ids=["thin_g2_as_a2", "thin_b2_as_i2_2", "pg22_as_b2", "digon23_as_a2"])
def test_validator_matches_reference_mistyped(make, matrix):
    b = make()
    mistyped = Building(ChamberSystem(enumerate_weyl(matrix()), b.n, b.system.panels))
    assert validate_building(mistyped) == validate_building_reference(mistyped)


def panel_swaps(b: Building, rng: random.Random, count: int):
    """``count`` chamber systems on b's Weyl table, each b's panels with one
    to three exchanges of two chambers between two panels of one type; those
    that fail to construct or to stay connected are skipped."""
    for _ in range(count):
        panels = [[list(p) for p in fam] for fam in b.system.panels]
        for _ in range(rng.randint(1, 3)):
            fam = rng.choice([fam for fam in panels if len(fam) > 1])
            P, Q = rng.sample(fam, 2)
            i, j = rng.randrange(len(P)), rng.randrange(len(Q))
            P[i], Q[j] = Q[j], P[i]
        try:
            system = ChamberSystem(
                b.weyl, b.n, [[tuple(sorted(p)) for p in fam] for fam in panels]
            )
            yield Building(system, name="swapped")
        except (ValueError, NotConnected):
            continue


@pytest.mark.parametrize("name", [
    "fano", "pg23", "sp42", "digon33",
    "thin_a1cubed", "thin_a2", "thin_a3",
])
def test_validator_matches_reference_on_panel_swaps(request, name):
    b = request.getfixturevalue(name)
    rng = random.Random(f"swap-{name}")
    for mutated in panel_swaps(b, rng, 100):
        assert validate_building(mutated) == validate_building_reference(mutated)


MORE_FIXTURES = {
    "pg2_5": lambda: gen_pg2(5),
    "digon_2_4": lambda: gen_digon(2, 4),
    "thin_a2_x_pg2_2": lambda: product(
        gen_thin(CoxeterMatrix(("a", "b"), ((1, 3), (3, 1)))), gen_pg2(2)),
}


@pytest.mark.parametrize("name", ["thin_a2", "thin_a1cubed", *MORE_FIXTURES])
def test_validator_matches_reference_on_more_fixtures(request, name):
    make = MORE_FIXTURES.get(name)
    b = make() if make else request.getfixturevalue(name)
    report = validate_building(b)
    assert report.ok
    assert report == validate_building_reference(b)


def delta_changes(b: Building, rng: random.Random, count: int):
    """``count`` copies of b, each with one delta entry changed: to a random
    other Weyl id, or to its product with a random generator, which keeps
    the value in the panel axiom's pair {w, ws}."""
    table = b.weyl
    for _ in range(count):
        x, y = rng.randrange(b.n), rng.randrange(b.n)
        w = b.rows[x][y]
        if rng.random() < 0.5:
            new = rng.choice([v for v in range(table.size) if v != w])
        else:
            new = table.right[w][rng.randrange(table.rank)]
        mutated = copy.copy(b)
        mutated.rows = [list(row) for row in b.rows]
        mutated.rows[x][y] = new
        yield mutated


@pytest.mark.parametrize("name, count", [
    ("fano", 200), ("pg23", 200), ("sp42", 200), ("sp43", 30), ("pg32", 10),
    ("digon33", 100), ("thin_a1cubed", 100), ("thin_a2", 100), ("thin_a3", 100),
])
def test_validator_matches_reference_on_delta_changes(request, name, count):
    b = request.getfixturevalue(name)
    for mutated in delta_changes(b, random.Random(f"delta-{name}"), count):
        report = validate_building(mutated)
        assert not report.ok
        assert report == validate_building_reference(mutated)


@pytest.mark.parametrize("name", ["fano", "pg32", "pg32_tuple"])
def test_validator_reads_bu1_off_the_diagonal(request, name):
    # row x replaced by row y != x: every row still holds the panel axiom
    # and one identity, so only the table's diagonal refuses it
    b = request.getfixturevalue(name)
    rng = random.Random(f"diagonal-{name}")
    for _ in range(10):
        x, y = rng.sample(range(b.n), 2)
        mutated = copy.copy(b)
        mutated.rows = b.rows[:x] + [b.rows[y]] + b.rows[x + 1:]
        report = validate_building(mutated)
        assert report.violation.axiom == "Bu1"
        assert report == validate_building_reference(mutated)


@pytest.mark.parametrize("name, count", [("sp43", 20), ("pg32", 10)])
def test_validator_matches_reference_on_large_panel_swaps(request, name, count):
    b = request.getfixturevalue(name)
    rng = random.Random(f"swap-{name}")
    checked = 0
    for mutated in panel_swaps(b, rng, count):
        assert validate_building(mutated) == validate_building_reference(mutated)
        checked += 1
    assert checked >= count // 2


def test_disconnected_raises():
    table = enumerate_weyl(CoxeterMatrix(("a",), ((1,),)))
    system = ChamberSystem(table, 4, [[(0, 1), (2, 3)]])
    with pytest.raises(NotConnected):
        Building(system, name="twopieces")


def test_residue_views(fano):
    R = fano.residue(0, {0})
    assert 0 in R
    assert len(R) == 3
    assert R == fano.residue(min(R.members), {0})
    far = max(range(fano.n), key=lambda c: fano.weyl.length[fano.delta(0, c)])
    with pytest.raises(NotInResidue):
        opposite_chambers(fano, R, 0, far)


def test_opposite_chambers_and_residues(fano):
    table = fano.weyl
    rS = table.longest_element((0, 1))
    whole = fano.residue(0, {0, 1})
    opp = [y for y in range(fano.n) if fano.delta(0, y) == rS]
    assert opp
    for y in opp:
        assert opposite_chambers(fano, whole, 0, y)
    # opposite panels inside the whole (rank-2) building
    P = fano.panel(0, 0)
    y = opp[0]
    Q = fano.panel(y, 1)
    assert opposite_residues(fano, whole, P, Q) == (
        fano.weyl.gen_index(
            table.mult(table.mult(rS, table.gen(1)), rS)
        ) == 0
        and any(fano.delta(a, c) == rS for a in P.members for c in Q.members)
    )


def test_parallel_panels(fano):
    # an s-panel is parallel to itself and to any opposite panel
    P = fano.panel(0, 0)
    assert fano.are_parallel(P, P)
    rS = fano.weyl.longest_element((0, 1))
    y = next(y for y in range(fano.n) if fano.delta(0, y) == rS)
    Q = fano.panel(y, 1)
    if opposite_residues(fano, fano.residue(0, {0, 1}), P, Q):
        assert fano.are_parallel(P, Q)
    # panels of equal type through adjacent chambers are not parallel here
    z = next(z for z in range(fano.n) if fano.delta(0, z) == fano.weyl.gen(1))
    assert not fano.are_parallel(P, fano.panel(z, 0))


def are_parallel_reference(b: Building, R1, R2) -> bool:
    """Parallelism checked in full: mutually inverse projections between R1
    and R2 that carry adjacent chambers to adjacent chambers both ways."""
    c1, c2 = R1.members, R2.members
    if len(c1) != len(c2):
        return False
    fwd = {x: b.proj_chamber(R2, x) for x in c1}
    bwd = {y: b.proj_chamber(R1, y) for y in c2}
    if sorted(fwd.values()) != list(c2) or sorted(bwd.values()) != list(c1):
        return False
    if any(bwd[fwd[x]] != x for x in c1):
        return False

    def adjacent_pairs(chambers):
        return {(x, z) for x in chambers for _, z in b.system.adjacency[x]
                if z in chambers and x < z}

    adj1, adj2 = adjacent_pairs(c1), adjacent_pairs(c2)
    for adj, other, proj in ((adj1, adj2, fwd), (adj2, adj1, bwd)):
        for x, y in adj:
            if proj[x] != proj[y] and tuple(sorted((proj[x], proj[y]))) not in other:
                return False
    return True


@pytest.mark.parametrize("make, pairs", [
    (lambda: gen_pg2(3), 676),
    (lambda: gen_sp4(2), 900),
    (lambda: gen_digon(3, 4), 49),
], ids=["pg2_3", "sp4_2", "digon_3_4"])
def test_parallel_panels_match_reference(make, pairs):
    b = make()
    panels = [P for s in range(b.system.rank) for P in b.residues_of_type((s,))]
    assert len(panels) ** 2 == pairs
    for P, Q in itertools.product(panels, panels):
        assert b.are_parallel(P, Q) == are_parallel_reference(b, P, Q)


def test_parallel_residues_match_reference_on_pg32(pg32):
    residues = [P for s in range(3) for P in pg32.residues_of_type((s,))] + pg32.rank2_residues()
    rng = random.Random(7)
    parallel = 0
    for _ in range(10_000):
        R1, R2 = rng.choice(residues), rng.choice(residues)
        verdict = pg32.are_parallel(R1, R2)
        assert verdict == are_parallel_reference(pg32, R1, R2)
        parallel += verdict
    assert parallel > 100


def test_proj_residue_panel(fano):
    rS = fano.weyl.longest_element((0, 1))
    y = next(y for y in range(fano.n) if fano.delta(0, y) == rS)
    P = fano.panel(0, 0)
    Q = fano.panel(y, 1)
    img = fano.proj_residue(Q, P)
    assert img.J == Q.J and set(img.members) <= set(Q.members) or img == Q


def proj_residue_reference(b: Building, R, Q):
    """proj_R Q with the image's type read off its adjacency: the oracle
    for ``Building.proj_residue``, which reads it off a delta row."""
    image = sorted({b.proj_chamber(R, x) for x in Q.members})
    # determine the type of the image residue from its adjacency
    base = image[0]
    J: set[int] = set()
    img = frozenset(image)
    for x in image:
        for s, z in b.system.adjacency[x]:
            if z in img:
                J.add(s)
    ref = b.residue(base, J)
    if frozenset(ref.members) != img:
        raise NotInResidue(
            f"projection image {image} is not a single {sorted(J)}-residue"
        )
    return ref


@pytest.mark.parametrize("fixture", ["fano", "thin_a3", "sp42", "pg23"])
def test_proj_residue_matches_the_adjacency_scan(request, fixture):
    """Every ordered pair of residues of rank at most 2, chambers included:
    the type read off delta(image[0], -) finds the residue, by identity,
    that the adjacency scan of the image found."""
    b = request.getfixturevalue(fixture)
    rank = b.weyl.rank
    residues = [R for k in range(min(rank, 2) + 1)
                for J in combinations(range(rank), k) for R in b.residues_of_type(J)]
    for R in residues:
        for Q in residues:
            assert b.proj_residue(R, Q) is proj_residue_reference(b, R, Q)


# -- interned residues ----------------------------------------------------------


@pytest.mark.parametrize("fixture", ["fano", "sp42", "thin_a3", "pg32"])
def test_one_ref_per_residue(request, fixture):
    """Identity equality of ResidueRef is sound only because the store hands
    out one object per (J, residue), whatever chamber asks for it."""
    b = request.getfixturevalue(fixture)
    rank = b.weyl.rank
    refs = {}
    for k in range(1, rank + 1):
        for J in map(frozenset, combinations(range(rank), k)):
            W_J = set(b.weyl.subgroup(J))
            for c in range(b.n):
                R = b.residue(c, J)
                assert R is b.residue(R.base, J)
                closure = tuple(x for x in range(b.n) if b.delta(c, x) in W_J)
                assert R.members == closure and R.base == closure[0]
                assert R.J == J
                assert refs.setdefault((J, closure), R) is R
    assert len({id(R) for R in refs.values()}) == len(refs)


def test_residues_of_separate_buildings_differ():
    b1, b2 = gen_pg2(2), gen_pg2(2)
    R1, R2 = b1.residue(0, {0}), b2.residue(0, {0})
    assert R1.members == R2.members and R1.J == R2.J
    assert R1 != R2
    assert len({R1, R2}) == 2


def closure_reference(b: Building, c: int, J) -> tuple[int, ...]:
    """The chambers of c's J-residue, sorted: a breadth-first search over
    the J-panels from c alone, one search per chamber."""
    seen = {c}
    queue = deque([c])
    while queue:
        y = queue.popleft()
        for s in J:
            for z in b.system.panel_members(y, s):
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
    return tuple(sorted(seen))


@pytest.mark.parametrize("make", [
    lambda: gen_thin(matrix_A2()),
    lambda: gen_pg2(2),
    lambda: gen_sp4(2),
    lambda: gen_pg3(2),
    lambda: product(gen_thin(CoxeterMatrix(("a", "b"), ((1, 3), (3, 1)))), gen_pg2(2)),
    lambda: atlas_component(from_opposite_chamber(gen_pg2(3), 0)).plus,
], ids=["thin_a2", "pg2_2", "sp4_2", "pg3_2", "thin_a2_x_pg2_2", "pg2_3_plus"])
def test_partition_matches_closure_reference(make):
    """Every J, the empty set and S included: the partition's residues are
    the per-chamber closures, each once, by ascending base, and every
    chamber of a residue gets that same object back."""
    b = make()
    rank = b.weyl.rank
    for J in (frozenset(J) for k in range(rank + 1) for J in combinations(range(rank), k)):
        closures = [closure_reference(b, c, J) for c in range(b.n)]
        residues = b.residues_of_type(J)
        assert [R.members for R in residues] == sorted(set(closures))
        bases = [R.base for R in residues]
        assert bases == sorted(bases) and len(set(bases)) == len(bases)
        for R in residues:
            assert R.J == J and R.base == min(R.members)
            assert list(R.members) == sorted(R.members)
            # a residue stores its defining data alone
            assert vars(R).keys() == {"building", "J", "members"}
            for x in R:
                assert b.residue(x, J) is R and b.residue(x, sorted(J)) is R
        for c, closure in enumerate(closures):
            assert b.residue(c, J).members == closure


def test_opposite_residues_rejects_residue_outside(fano):
    R = fano.panel(0, 0)
    with pytest.raises(NotInResidue):
        opposite_residues(fano, R, fano.panel(0, 1), R)
    with pytest.raises(NotInResidue):
        opposite_residues(fano, R, R, fano.panel(0, 1))


def test_residue_ref_made_in_one_place():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    count = 0
    for root, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    count += fh.read().count("ResidueRef(")
    assert count == 1


def neighbors_reference(system: ChamberSystem, c: int):
    """The adjacency of c read off the panel partitions: (s, d) for every
    d != c in c's s-panel, by type, then in panel order."""
    for s in range(system.rank):
        for d in system.panel_members(c, s):
            if d != c:
                yield s, d


@pytest.mark.parametrize("name", [
    "fano", "pg23", "pg32", "sp42", "sp43", "digon33",
    "thin_a1cubed", "thin_a2", "thin_a3",
])
def test_adjacency_list_is_the_panel_scan(request, name):
    system = request.getfixturevalue(name).system
    for c in range(system.n):
        assert system.adjacency[c] == tuple(neighbors_reference(system, c))


# -- derived delta rows against one breadth-first search per row -------------


def rows_reference(system: ChamberSystem) -> list:
    """Every delta row by its own breadth-first search: ``Building``'s row
    loop before rows were derived, verbatim."""
    right = system.weyl.right
    rows = []
    for x in range(system.n):
        row = [-1] * system.n
        row[x] = 0
        queue = deque([x])
        while queue:
            y = queue.popleft()
            w = row[y]
            for s, z in system.adjacency[y]:
                if row[z] == -1:
                    row[z] = right[w][s]
                    queue.append(z)
        rows.append(system.weyl.pack(row))
    return rows


def on_reference_rows(b: Building) -> Building:
    """A copy of b whose delta rows are ``rows_reference``'s."""
    ref = copy.copy(b)
    ref.rows = rows_reference(b.system)
    return ref


def rank_1_bundle(n: int) -> Building:
    """The rank-1 building of one panel of n chambers."""
    return Building(ChamberSystem(enumerate_weyl(matrix_A1()), n, [[tuple(range(n))]]))


CATALOG = {
    "thin_a1": lambda: gen_thin(matrix_A1()),
    "rank_1_50": lambda: rank_1_bundle(50),
    "thin_a2": lambda: gen_thin(matrix_A2()),
    "thin_b2": lambda: gen_thin(matrix_B2()),
    "thin_g2": lambda: gen_thin(matrix_I2(6)),
    "thin_a3": lambda: gen_thin(matrix_A3()),
    "thin_b4": lambda: gen_thin(matrix_B4()),
    "digon_2_3": lambda: gen_digon(2, 3),
    "digon_3_3": lambda: gen_digon(3, 3),
    "pg2_2": lambda: gen_pg2(2),
    "pg2_3": lambda: gen_pg2(3),
    "pg2_5": lambda: gen_pg2(5),
    "sp4_2": lambda: gen_sp4(2),
    "sp4_3": lambda: gen_sp4(3),
    "pg3_2": lambda: gen_pg3(2),
    "thin_a2_x_pg2_2": MORE_FIXTURES["thin_a2_x_pg2_2"],
    "pg3_2_tuple_rows": lambda: tuple_rows(gen_pg3(2)),
}


@pytest.mark.parametrize("name", CATALOG)
def test_derived_rows_are_the_breadth_first_rows(name):
    b = CATALOG[name]()
    assert type(b.rows[0]) is b.weyl.pack
    assert Building(b.system).rows == b.rows == rows_reference(b.system)


@pytest.mark.parametrize("make, matrix", [
    (lambda: gen_thin(matrix_I2(6)), matrix_A2),
    (lambda: gen_thin(matrix_I2(4)), lambda: matrix_I2(2)),
    (lambda: gen_pg2(2), matrix_B2),
    (lambda: gen_digon(2, 3), matrix_A2),
], ids=["thin_g2_as_a2", "thin_b2_as_i2_2", "pg22_as_b2", "digon23_as_a2"])
def test_mistyped_report_is_the_reference_rows_report(make, matrix):
    b = make()
    mistyped = Building(ChamberSystem(enumerate_weyl(matrix()), b.n, b.system.panels))
    assert validate_building(mistyped) == validate_building(on_reference_rows(mistyped))


@pytest.mark.parametrize("name, count", [("pg23", 100), ("sp43", 40), ("pg32", 20)])
def test_panel_swap_report_is_the_reference_rows_report(request, name, count):
    b = request.getfixturevalue(name)
    checked = 0
    for mutated in panel_swaps(b, random.Random(f"derive-{name}"), count):
        ref = on_reference_rows(mutated)
        report = validate_building(mutated)
        assert report == validate_building(ref)
        if report.ok:   # an exchange that leaves a building
            assert mutated.rows == ref.rows
        checked += 1
    assert checked >= count // 3


def test_plus_star_verdict_on_reference_rows_of_plus_panel_swaps(pg23):
    # B+ of the pg2(3) twin, and B+ with chambers exchanged between p-panels:
    # plus-star reads the same verdict off the derived and the searched rows
    atlas = atlas_component(from_opposite_chamber(pg23, 0))
    rng = random.Random("plus-swap")
    verdicts = []
    for k in range(60):
        panels = [[list(p) for p in fam] for fam in atlas.panels]
        for _ in range(rng.randint(1, 2) if k else 0):
            P, Q = rng.sample(panels[0], 2)
            i, j = rng.randrange(len(P)), rng.randrange(len(Q))
            P[i], Q[j] = Q[j], P[i]
        try:
            swapped = CodistanceAtlas(
                pg23, atlas.members, [[tuple(sorted(p)) for p in fam] for fam in panels])
        except (ValueError, NotConnected):
            continue
        ref = copy.copy(swapped)
        ref.plus = on_reference_rows(swapped.plus)
        verdicts.append(_check_plus_star(swapped, fop_masks(swapped)))
        assert verdicts[-1] == _check_plus_star(ref, fop_masks(ref))
    assert verdicts[0] and len(verdicts) >= 20


def test_derived_rows_peak_memory(pg33):
    # one search per row peaked at the rows it keeps, 2,080 of 2,080 bytes,
    # plus one row in flight (4.45 MB against 4.41 MB); deriving them keeps
    # its work in flat lists and lane ints, within 15% of the rows
    tracemalloc.start()
    try:
        b = Building(pg33.system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sys.getsizeof(b.rows) + sum(map(sys.getsizeof, b.rows))
    assert peak <= 1.15 * held, (peak, held)


# -- the table form of the panel axiom ------------------------------------------


def row_verdicts(system: ChamberSystem, row) -> dict[bool, bool]:
    """Per ``longer``, whether ``panel_axiom`` holds on row for every type."""
    return {longer: all(panel_axiom(system, row, s, longer) for s in range(system.rank))
            for longer in (False, True)}


def assert_table_verdicts(system, tuple_system, rows, expected):
    """``panel_table`` on rows, as bytes, tuple and list rows, gives
    ``expected[longer]``."""
    for longer in (False, True):
        for on, packed in ((system, rows), (tuple_system, [tuple(row) for row in rows]),
                           (system, [list(row) for row in rows]),
                           (tuple_system, [list(row) for row in rows])):
            assert panel_table(on, packed, longer) == expected[longer], (on, longer)


def table_cases(b: Building, t: Building):
    """The tables of b's twin from chamber 0, each with its chamber system
    on bytes and tuple rows: b's delta rows, the atlas members' rows, and
    ``minus_rows`` on B+."""
    atlas = atlas_component(from_opposite_chamber(b, 0))
    return [
        ("delta", b.system, t.system, b.rows),
        ("members", b.system, t.system, [g.values for g in atlas.members]),
        ("minus", atlas.plus.system, tuple_rows(atlas.plus).system, atlas.minus_rows),
    ]


@pytest.mark.parametrize("name, count", [("fano", 40), ("pg32", 12)])
def test_panel_table_matches_the_row_form_on_corruptions(request, name, count):
    # the verdict on a table is all(panel_axiom(row, s, longer)) over its
    # rows and types, for each ``longer``; each table is corrupted in one
    # row at one or two values, seeded.  pg3(2)'s tables of 315 rows span
    # three blocks of the kernel
    b, t = request.getfixturevalue(name), request.getfixturevalue(name + "_tuple")
    rng = random.Random(f"table-{name}")
    size = b.weyl.size
    for kind, system, tuple_system, rows in table_cases(b, t):
        clean = [row_verdicts(system, row) for row in rows]
        expected = {longer: all(v[longer] for v in clean) for longer in (False, True)}
        # delta rows mark the shorter value, the codistance rows the longer
        assert expected == {False: kind == "delta", True: kind != "delta"}
        assert_table_verdicts(system, tuple_system, rows, expected)
        refused = set()
        for _ in range(count):
            x = rng.randrange(len(rows))
            row = list(rows[x])
            for c in rng.sample(range(len(row)), rng.randint(1, 2)):
                row[c] = rng.choice([w for w in range(size) if w != row[c]])
            got = row_verdicts(system, row)
            others = clean[:x] + clean[x + 1:]
            expected = {longer: got[longer] and all(v[longer] for v in others)
                        for longer in (False, True)}
            refused |= {longer for longer in expected if not expected[longer]}
            table = list(rows)
            table[x] = system.weyl.pack(row)
            assert_table_verdicts(system, tuple_system, table, expected)
        assert refused == {False, True}


@pytest.mark.parametrize("longer", [False, True])
def test_panel_table_refuses_one_broken_panel_in_the_last_row(longer):
    # a rank-1 system of 100 panels of 3, on 300 rows of 3 blocks: every
    # row marks one chamber per panel, and the last row loses the mark of
    # its last panel alone, or holds two there
    table = enumerate_weyl(matrix_A1())
    n, s = 300, table.gen(0)
    system = ChamberSystem(table, n, [[(c, c + 1, c + 2) for c in range(0, n, 3)]])
    tuple_system = ChamberSystem(TupleRowTable(table.matrix, table.size, table.length,
                                               table.right, table.left, table.word),
                                 n, system.panels)
    marked, plain = (s, 0) if longer else (0, s)
    rng = random.Random("last-row")
    rows = [table.pack([marked if c % 3 == k else plain for c in range(n)])
            for k in (rng.randrange(3) for _ in range(300))]
    assert panel_table(system, rows, longer) and not panel_table(system, rows, not longer)
    for last in ([plain] * 3, [marked] * 2 + [plain]):
        broken = rows[:-1] + [rows[-1][:-3] + table.pack(last)]
        assert [row_verdicts(system, row)[longer] for row in broken] == [True] * 299 + [False]
        assert_table_verdicts(system, tuple_system, broken, {longer: False, not longer: False})


@pytest.mark.parametrize("marks", [257, 2])
def test_panel_table_reads_panels_wider_than_a_lane(marks):
    # one panel of 600 chambers, two rows: row 0 holds the identity at
    # ``marks`` chambers, row 1 at none.  Summed byte lanes alone would
    # carry 256 of 257 marks into row 1's lane and read one mark per row;
    # the count refuses 257 marks, and the OR refuses row 1's empty lane
    # when the count of 2 is right
    table = enumerate_weyl(matrix_A1())
    n, s = 600, table.gen(0)
    system = ChamberSystem(table, n, [[tuple(range(n))]])
    rows = [table.pack([0] * marks + [s] * (n - marks)), table.pack([s] * n)]
    assert not any(row_verdicts(system, row)[False] for row in rows)
    assert not panel_table(system, rows, longer=False)
    assert panel_table(system, [table.pack([0] + [s] * (n - 1))] * 2, longer=False)


def test_rank_1_bundle_of_1000_chambers_builds_and_validates_quickly():
    # rows are written down, not searched: the search took 2.76 s at 400
    # chambers and grew eightfold per doubling
    start = time.perf_counter()
    assert validate_building(rank_1_bundle(1000)).ok
    assert time.perf_counter() - start < 1
