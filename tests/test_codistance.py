"""Codistance axioms and the structure lemmas they imply, checked
exhaustively on small buildings.

The expected values below are produced by independent brute-force scans
(graph BFS, direct set filters) rather than by the library routines under
test.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import opposite_chambers

from twinbuild.chambersys import Building, panel_axiom
from twinbuild.codistance import (
    Codistance,
    CodistanceReport,
    PanelViolation,
    from_opposite_chamber,
    fop_c,
    proj_f,
    residue_profile,
    unique_chamber,
    validate_codistance,
)
from twinbuild.errors import PreconditionFailed
from twinbuild.twinner import atlas_component


def graph_distances(b: Building, sources) -> list:
    """BFS distance from a set of chambers in the adjacency graph."""
    dist = [-1] * b.n
    queue = deque()
    for s in sources:
        dist[s] = 0
        queue.append(s)
    while queue:
        x = queue.popleft()
        for _, y in b.system.adjacency[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def all_residues(b: Building):
    """Every residue of every nonempty type, as (J, residue) pairs."""
    rank = b.system.rank
    out = []
    for mask in range(1, 1 << rank):
        J = frozenset(s for s in range(rank) if mask >> s & 1)
        for R in b.residues_of_type(J):
            out.append((J, R))
    return out


def sample_codistances(b: Building, stride: int = 1):
    return [from_opposite_chamber(b, c) for c in range(0, b.n, stride)]


FIXTURE_STRIDES = {
    "fano": 1,
    "digon33": 1,
    "sp42": 5,
    "thin_a3": 4,
}


@pytest.fixture(params=sorted(FIXTURE_STRIDES))
def bld(request):
    return request.getfixturevalue(request.param), FIXTURE_STRIDES[request.param]


def test_from_opposite_chamber_is_codistance(bld):
    b, stride = bld
    for f in sample_codistances(b, stride):
        assert validate_codistance(f).ok


def test_constant_map_is_not_codistance(fano):
    f = Codistance(fano, [0] * fano.n)
    report = validate_codistance(f)
    assert not report.ok
    assert report.violation is not None


def test_single_wrong_value_is_detected(fano):
    f = from_opposite_chamber(fano, 0)
    values = list(f.values)
    values[5] = fano.weyl.longest_element(range(fano.weyl.rank))
    report = validate_codistance(Codistance(fano, values))
    assert not report.ok


def test_residue_image_is_coset(bld):
    b, stride = bld
    table = b.weyl
    for f in sample_codistances(b, stride):
        for J, R in all_residues(b):
            image = {f(x) for x in R}
            x0 = R.members[0]
            coset = {table.mult(f(x0), w) for w in table.subgroup(J)}
            assert image == coset
            assert residue_profile(f, R).image == frozenset(coset)


def test_projection_of_codistance_on_residue(bld):
    b, stride = bld
    table = b.weyl
    for f in sample_codistances(b, stride):
        for J, R in all_residues(b):
            c = proj_f(f, R)
            for y in R:
                assert f(y) == table.mult(f(c), b.delta(c, y))
                if y != c:
                    assert f.vlen(y) < f.vlen(c)


def test_min_length_chambers_share_value(bld):
    b, stride = bld
    table = b.weyl
    for f in sample_codistances(b, stride):
        for J, R in all_residues(b):
            prof = residue_profile(f, R)
            vals = {f(x) for x in prof.A_f}
            assert len(vals) == 1
            (w_J,) = vals
            assert table.min_coset_rep(w_J, J) == w_J
            # membership criterion: x is in A_f iff f(x) is the minimal
            # coset representative
            for x in R:
                in_A = table.min_coset_rep(f(x), J) == f(x)
                assert (x in prof.A_f) == in_A


def test_every_value_reached_from_min_chamber(bld):
    b, stride = bld
    table = b.weyl
    for f in sample_codistances(b, stride):
        for J, R in all_residues(b):
            prof = residue_profile(f, R)
            for y in R:
                assert any(
                    f(y) == table.mult(f(x), b.delta(x, y)) for x in prof.A_f
                )


def test_min_chambers_are_opposite_projection(bld):
    b, stride = bld
    for f in sample_codistances(b, stride):
        for J, R in all_residues(b):
            prof = residue_profile(f, R)
            c = proj_f(f, R)
            for x in R:
                assert (x in prof.A_f) == opposite_chambers(b, R, c, x)


def test_gallery_distance_to_fop(bld):
    b, stride = bld
    for f in sample_codistances(b, stride):
        dist = graph_distances(b, f.fop())
        for c in range(b.n):
            assert dist[c] == f.vlen(c)


def test_closest_fop_chambers(bld):
    b, stride = bld
    for f in sample_codistances(b, stride):
        dist = graph_distances(b, f.fop())
        for c in range(b.n):
            close = fop_c(f, c)
            assert close
            expected = tuple(
                x for x in f.fop() if b.weyl.length[b.delta(x, c)] == f.vlen(c)
            )
            assert close == expected
            for x in close:
                assert b.delta(x, c) == f(c)
            assert dist[c] == f.vlen(c)


def test_fop_chamber_gallery_characterization(fano):
    # a chamber x in fop lies in fop_c exactly when some minimal gallery
    # from x to c lengthens f at each step; checked by scanning all
    # galleries of length l(f(c))
    b = fano
    f = from_opposite_chamber(b, 0)
    for c in range(b.n):
        n = f.vlen(c)
        close = set(fop_c(f, c))
        stack = [(c, n)]
        reached = set()
        # walk backwards from c along strictly f-decreasing edges
        while stack:
            y, k = stack.pop()
            if k == 0:
                reached.add(y)
                continue
            for _, z in b.system.adjacency[y]:
                if f.vlen(z) == k - 1 and b.weyl.length[b.delta(z, c)] == n - (k - 1):
                    stack.append((z, k - 1))
        assert close == {x for x in reached if f(x) == 0}


def test_unique_chamber_existence_and_uniqueness(bld):
    b, stride = bld
    table = b.weyl
    for f in sample_codistances(b, max(stride, 3)):
        for x in range(0, b.n, max(stride, 3)):
            for w in range(table.size):
                fx = f(x)
                if table.length[table.mult(fx, w)] != table.length[fx] + table.length[w]:
                    continue
                c = unique_chamber(f, x, w)
                assert f(c) == table.mult(fx, w)
                assert b.delta(x, c) == w
                matches = [
                    z
                    for z in range(b.n)
                    if f(z) == table.mult(fx, w) and b.delta(x, z) == w
                ]
                assert matches == [c]


def test_unique_chamber_requires_additive_lengths(fano):
    f = from_opposite_chamber(fano, 0)
    table = fano.weyl
    r = table.longest_element(range(table.rank))
    c = next(x for x in range(fano.n) if f(x) == r)
    with pytest.raises(PreconditionFailed):
        unique_chamber(f, c, table.gen(0))


def test_projection_of_closest_fop_chamber(bld):
    b, stride = bld
    for f in sample_codistances(b, stride):
        for J, R in all_residues(b):
            prof = residue_profile(f, R)
            for c in R:
                for x in fop_c(f, c):
                    p = b.proj_chamber(R, x)
                    assert p in prof.A_f
                    assert b.weyl.length[b.delta(x, p)] == prof.l_f


def test_fop_determines_codistance(bld):
    b, stride = bld
    seen = {}
    for f in sample_codistances(b, 1):
        key = frozenset(f.fop())
        if key in seen:
            assert seen[key] == f.values
        seen[key] = f.values
    # distinct base chambers give distinct opposite sets here
    assert len(seen) == b.n


def test_fop_sizes(fano, sp42, thin_a3, digon33):
    expected = {fano: 8, sp42: 16, thin_a3: 1, digon33: 4}
    for b, size in expected.items():
        f = from_opposite_chamber(b, 0)
        assert len(f.fop()) == size


def test_fano_fop_ids(fano):
    f = from_opposite_chamber(fano, 0)
    assert f.fop() == (10, 11, 13, 14, 16, 17, 19, 20)


def test_codistance_equality_and_hash(fano):
    f = from_opposite_chamber(fano, 0)
    g = Codistance(fano, list(f.values))
    assert f == g and hash(f) == hash(g)
    h = from_opposite_chamber(fano, 1)
    assert f != h


def test_value_count_rejected(fano):
    with pytest.raises(ValueError):
        Codistance(fano, [0] * (fano.n - 1))


@pytest.mark.parametrize("bad", [-6, -1, 6, 255, 256])
def test_non_weyl_values_rejected(fano, bad):
    # |W| = 6 for A2: a negative value or one of 6 or more is no Weyl id,
    # whether or not it fits in a byte; the first bad chamber is named
    values = [0] * fano.n
    values[3] = values[7] = bad
    with pytest.raises(ValueError, match=f"^value {bad} at chamber 3 is not a Weyl id$"):
        Codistance(fano, values)


# -- the panel axiom's fast accept against its test-by-test definition --------


def validate_codistance_reference(f: Codistance) -> CodistanceReport:
    """The panel axiom tested one condition at a time on every panel: the
    definition the fast accept of ``validate_codistance`` must agree with,
    down to the violation it reports."""
    b = f.building
    table = b.weyl
    for s in range(b.system.rank):
        for panel in b.system.panels[s]:
            vals = tuple(f(c) for c in panel)
            distinct = sorted(set(vals), key=lambda v: table.length[v])
            if len(distinct) != 2:
                return CodistanceReport(PanelViolation(
                    s, panel, vals,
                    f"{len(distinct)} distinct values on panel, need exactly 2",
                ))
            short, long_ = distinct
            if table.right[short][s] != long_:
                return CodistanceReport(PanelViolation(
                    s, panel, vals,
                    "values are not of the form {w, ws}",
                ))
            if table.length[long_] != table.length[short] + 1:
                return CodistanceReport(PanelViolation(
                    s, panel, vals, "value lengths do not differ by 1",
                ))
            if sum(1 for v in vals if v == long_) != 1:
                return CodistanceReport(PanelViolation(
                    s, panel, vals, "longest value not attained by a unique chamber",
                ))
    return CodistanceReport(None)


def assert_same_report(f: Codistance) -> None:
    # dataclass equality compares every violation field
    assert validate_codistance(f) == validate_codistance_reference(f)


@pytest.mark.parametrize("name", ["fano", "pg23", "sp42", "digon33"])
def test_panel_axiom_matches_reference_on_codistances(request, name):
    b = request.getfixturevalue(name)
    for c in range(b.n):
        assert_same_report(from_opposite_chamber(b, c))


def test_panel_axiom_matches_reference_on_single_changes(fano):
    f = from_opposite_chamber(fano, 0)
    failures = 0
    for c in range(fano.n):
        for w in range(fano.weyl.size):
            if w == f(c):
                continue
            values = list(f.values)
            values[c] = w
            g = Codistance(fano, values)
            assert_same_report(g)
            failures += not validate_codistance(g).ok
    # every single change breaks the axiom on some panel
    assert failures == fano.n * (fano.weyl.size - 1)


def vectors_near_codistances(b):
    """Value vectors of b: uniform random ones, and codistances with a few
    values overwritten, which fail on a panel deep into the scan."""
    size = b.weyl.size
    uniform = st.lists(st.integers(0, size - 1), min_size=b.n, max_size=b.n)
    changes = st.lists(
        st.tuples(st.integers(0, b.n - 1), st.integers(0, size - 1)), max_size=3
    )

    def overwrite(args):
        c, edits = args
        values = list(from_opposite_chamber(b, c).values)
        for x, w in edits:
            values[x] = w
        return values

    near = st.tuples(st.integers(0, b.n - 1), changes).map(overwrite)
    return st.one_of(uniform, near)


@pytest.mark.parametrize("name", ["fano", "digon33"])
def test_panel_axiom_matches_reference_on_random_vectors(request, name):
    b = request.getfixturevalue(name)

    @settings(max_examples=300, deadline=None)
    @given(vectors_near_codistances(b))
    def check(values):
        assert_same_report(Codistance(b, values))

    check()


def test_panel_axiom_matches_reference_on_atlas_members(pg32):
    atlas = atlas_component(from_opposite_chamber(pg32, 0))
    assert len(atlas.members) == 315
    for g in atlas.members:
        assert_same_report(g)


def seeded_corruptions(b: Building, rng: random.Random, count: int):
    """``count`` codistances of b from random chambers, each with one or two
    values changed to other random Weyl ids."""
    size = b.weyl.size
    for _ in range(count):
        values = list(from_opposite_chamber(b, rng.randrange(b.n)).values)
        for c in rng.sample(range(b.n), rng.randint(1, 2)):
            values[c] = rng.choice([w for w in range(size) if w != values[c]])
        yield Codistance(b, values)


@pytest.mark.parametrize("name", ["pg32", "sp43"])
def test_panel_axiom_matches_reference_on_seeded_corruptions(request, name):
    b = request.getfixturevalue(name)
    failures = 0
    for g in seeded_corruptions(b, random.Random(f"corrupt-{name}"), 200):
        assert_same_report(g)
        failures += not validate_codistance(g).ok
    assert failures == 200


def panel_axiom_reference(b: Building, values, s: int, longer: bool) -> bool:
    """Every s-panel holds two values u and us, with us longer and the
    marked one, us if ``longer`` else u, attained once."""
    table = b.weyl
    for panel in b.system.panels[s]:
        vals = [values[c] for c in panel]
        short = min(vals, key=table.length.__getitem__)
        long_ = table.right[short][s]
        if set(vals) != {short, long_} or vals.count(long_ if longer else short) != 1:
            return False
    return True


@pytest.mark.parametrize("name", ["fano", "pg32"])
def test_panel_axiom_agrees_on_bytes_tuple_and_list_rows(request, name):
    # a packed row is mapped whole: translated when bytes, gathered when a
    # tuple; a list is packed first.  Delta rows pass with the shorter value
    # marked, codistances with the longer, and corruptions fail both
    b = request.getfixturevalue(name)
    t = request.getfixturevalue(name + "_tuple")
    rng = random.Random(f"rows-{name}")
    rows = [g.values for g in seeded_corruptions(b, rng, 40)]
    rows += b.rows[:10] + [from_opposite_chamber(b, c).values for c in range(10)]
    outcomes = set()
    for row in rows:
        for s in range(b.system.rank):
            for longer in (False, True):
                got = {
                    panel_axiom(b.system, row, s, longer),
                    panel_axiom(t.system, tuple(row), s, longer),
                    panel_axiom(b.system, list(row), s, longer),
                    panel_axiom(t.system, list(row), s, longer),
                }
                assert got == {panel_axiom_reference(b, row, s, longer)}
                outcomes |= got
    assert outcomes == {False, True}


# -- proj_f against the residue profile ----------------------------------------


def rank_1_and_2_residues(b: Building):
    return [R for J, R in all_residues(b) if len(J) <= 2]


@pytest.mark.parametrize("name", ["fano", "sp42", "pg32"])
def test_proj_f_matches_residue_profile(request, name):
    b = request.getfixturevalue(name)
    f = from_opposite_chamber(b, 0)
    length = b.weyl.length
    raised = 0
    for R in rank_1_and_2_residues(b):
        # the projection chamber carries the longest value of the coset
        longest = max(residue_profile(f, R).image, key=length.__getitem__)
        assert f(proj_f(f, R)) == longest
        # a copy of the longest value onto another chamber of R leaves no
        # unique longest chamber there
        top = proj_f(f, R)
        for x in R.members[:2]:
            if x == top:
                continue
            values = list(f.values)
            values[x] = f(top)
            g = Codistance(b, values)
            with pytest.raises(PreconditionFailed):
                proj_f(g, R)
            raised += 1
    assert raised >= len(rank_1_and_2_residues(b))
