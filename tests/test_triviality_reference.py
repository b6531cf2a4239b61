"""The in-house triviality decision against sympy's, kept here as reference.

``simply_2_connected`` decides with a kill closure, an integer Smith normal
form and a bounded coset enumeration. ``sympy_decide`` below is the
decision it replaced, which ran on the same presentations through sympy's
``smith_normal_form`` and ``coset_enumeration_r``. Every input must get the
same status from both, and the same abelianization invariants when it is
nontrivial.

``reference_presentation`` is the edge-path presentation as it was built
residue by residue: a generator for each edge off a breadth-first spanning
tree of the subset, and a relator for each rank <= 2 cell. ``_presentation``
presents the group of the same 2-complex after Tietze moves that contract
the components of the two least edge types, so its generators and relators
differ on purpose; the two must reach the same decision: both raise
NotConnected, or both get the same status and, when it is nontrivial, the
same abelianization. The reference builds its graphs with its own copy of
the edge-list helpers that ``_presentation`` used before it read the chamber
system's adjacency, so it shares no graph code with what it checks.
"""

import random
from collections import deque
from itertools import combinations
from typing import Iterable, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.combinatorics.fp_groups import FpGroup, coset_enumeration_r
from sympy.combinatorics.free_groups import free_group
from sympy.matrices.normalforms import smith_normal_form

from twinbuild.chambersys import Building, opposite_set
from twinbuild.codistance import from_opposite_chamber
from twinbuild.errors import NotConnected
import twinbuild.homotopy as homotopy
from twinbuild.homotopy import (
    DEFAULT_COSET_CAP,
    INCONCLUSIVE,
    PROVEN_NONTRIVIAL,
    PROVEN_TRIVIAL,
    TrivialityVerdict,
    _closure,
    _decide,
    _presentation,
    _smith_invariants,
    connected,
    residual_filtration,
    simply_2_connected,
)

from test_homotopy import coxeter_cycle


def pairs(word):
    """A word of ``_presentation``'s int letters as (generator, exponent)
    pairs: letter 2i + 1 crosses edge i forward, 2i backward."""
    return tuple((a >> 1, 1 if a & 1 else -1) for a in word)


def presentation(b, subset):
    """``_presentation`` with each relator decoded by ``pairs``."""
    non_tree, relators = _presentation(b, subset)
    return non_tree, list(map(pairs, relators))


def sympy_decide(g, relators, coset_cap=DEFAULT_COSET_CAP):
    """The sympy decision of a presentation with g > 0 generators."""
    rows = []
    for rel in relators:
        row = [0] * g
        for gen, exp in rel:
            row[gen] += exp
        rows.append(row)
    if not rows:
        return TrivialityVerdict(PROVEN_NONTRIVIAL, certificate=("free", g))
    snf = smith_normal_form(Matrix(rows))
    diag = [snf[i, i] for i in range(min(snf.shape))]
    nonzero = [d for d in diag if d != 0]
    if len(nonzero) < g or any(abs(d) != 1 for d in nonzero):
        invariants = [abs(d) for d in nonzero if abs(d) != 1]
        invariants += [0] * (g - len(nonzero))
        return TrivialityVerdict(
            PROVEN_NONTRIVIAL, certificate=("abelianization", invariants)
        )
    F = free_group(" ".join(f"e{i}" for i in range(g)))[0]
    fgens = F.generators
    rel_words = []
    for rel in relators:
        wexpr = F.identity
        for gen, exp in rel:
            wexpr = wexpr * fgens[gen] ** exp
        if wexpr != F.identity:
            rel_words.append(wexpr)
    grp = FpGroup(F, rel_words)
    try:
        table = coset_enumeration_r(grp, [], max_cosets=coset_cap)
        table.compress()
        n = table.n
    except ValueError:
        return TrivialityVerdict(INCONCLUSIVE, certificate=("coset-cap", coset_cap))
    if n == 1:
        return TrivialityVerdict(PROVEN_TRIVIAL, certificate=("cosets", 1))
    return TrivialityVerdict(PROVEN_NONTRIVIAL, certificate=("order", n))


def invariants(verdict):
    kind, value = verdict.certificate
    return [0] * value if kind == "free" else value


def assert_same_decision(b, subset):
    subset = frozenset(subset)
    ours = simply_2_connected(subset, b)
    non_tree, relators = presentation(b, subset)
    if not non_tree:
        assert ours.certificate == "forest"
        return ours
    theirs = sympy_decide(len(non_tree), relators)
    assert ours.status == theirs.status
    if ours.status == PROVEN_NONTRIVIAL:
        assert invariants(ours) == invariants(theirs)
    return ours


def test_pg32_lsco_opposite_sets(pg32):
    R = pg32.residue(0, (0, 1, 2))
    assert len(R.members) == pg32.n
    for x in R.members:
        verdict = assert_same_decision(pg32, opposite_set(pg32, R, x))
        assert verdict.status == PROVEN_NONTRIVIAL


def test_pg32_fop(pg32):
    fop = from_opposite_chamber(pg32, 0).fop()
    assert assert_same_decision(pg32, fop).status == PROVEN_NONTRIVIAL


def test_pg22_fop_from_every_chamber(fano):
    for c in range(fano.n):
        fop = from_opposite_chamber(fano, c).fop()
        assert assert_same_decision(fano, fop).status == PROVEN_TRIVIAL


def test_pg22_whole_building_and_filtration(fano):
    assert assert_same_decision(fano, range(fano.n)).status == PROVEN_TRIVIAL
    for level in residual_filtration(from_opposite_chamber(fano, 0)).levels:
        assert assert_same_decision(fano, level).status == PROVEN_TRIVIAL


def test_pg23_fop(pg23):
    fop = from_opposite_chamber(pg23, 0).fop()
    assert assert_same_decision(pg23, fop).status == PROVEN_TRIVIAL


def test_thin_a3_whole_and_coxeter_cycle(thin_a3):
    assert assert_same_decision(thin_a3, range(thin_a3.n)).status == PROVEN_TRIVIAL
    cycle = assert_same_decision(thin_a3, coxeter_cycle(thin_a3))
    assert cycle.status == PROVEN_NONTRIVIAL


def replayed_kills(b, subset):
    """The number of kills in the elimination certificate of ``subset``,
    replayed one pass per kill against the presentation's own relators:
    each relator names its generator once and only generators killed
    before it otherwise, and every generator is killed in the end."""
    subset = frozenset(subset)
    non_tree, relators = presentation(b, subset)
    kind, order = simply_2_connected(subset, b).certificate
    assert kind == "elimination"
    relators = set(relators)
    killed = set()
    for g, relator in order:
        assert relator in relators
        gens = [gen for gen, _ in relator]
        assert gens.count(g) == 1
        assert set(gens) - {g} <= killed
        killed.add(g)
    assert len(order) == len(killed) == len(non_tree)
    return len(order)


def test_elimination_certificate_uses_each_generator_once(thin_a3):
    assert replayed_kills(thin_a3, range(thin_a3.n)) == 9


@pytest.mark.parametrize("name, subset, kills", [
    ("pg33", "fop", 703), ("pg32", "whole", 301),
])
def test_elimination_certificate_replays(request, name, subset, kills):
    # sympy needs seconds for the pg3(3) f^op, so only the in-house path runs
    b = request.getfixturevalue(name)
    chambers = range(b.n) if subset == "whole" else from_opposite_chamber(b, 0).fop()
    assert replayed_kills(b, chambers) == kills


def stops_short(b):
    """Four fifths of the chambers of ``b``, drawn with seed 26."""
    rng = random.Random(26)
    return frozenset(c for c in range(b.n) if rng.random() < 0.8)


def test_closure_stops_short_and_cosets_decide(pg32):
    # the kill closure stops short on these 259 chambers (107 of 197
    # generators), and coset enumeration over what is left proves the group
    # trivial
    subset = stops_short(pg32)
    assert len(subset) == 259
    verdict = simply_2_connected(subset, pg32)
    assert verdict == TrivialityVerdict(PROVEN_TRIVIAL, ("cosets", 1))


def test_closure_kills_replay_where_it_stops_short(pg32):
    # each kill of a closure that stops short is sound: its relator names the
    # generator once and, apart from it, only generators killed before
    non_tree, words = _presentation(pg32, stops_short(pg32))
    killed = set()
    for g, i in _closure(words).items():
        gens = [a >> 1 for a in words[i]]
        assert gens.count(g) == 1
        assert set(gens) - {g} <= killed
        killed.add(g)
    assert len(killed) == 107 < len(non_tree) == 197


def galleries(b):
    """The chamber sets of galleries in ``b``: a start and some steps, each
    to another chamber of a panel."""
    steps = st.lists(st.tuples(st.integers(0, b.system.rank - 1), st.integers(0, 2)),
                     min_size=b.n // 4, max_size=b.n)

    def walk(c, steps):
        chambers = {c}
        for s, k in steps:
            others = [z for z in b.system.panel_members(c, s) if z != c]
            c = others[k % len(others)]
            chambers.add(c)
        return frozenset(chambers)

    return st.builds(walk, st.integers(0, b.n - 1), steps)


def punctured(b):
    """The gallery-connected sets left when a few chambers are dropped."""
    drops = st.frozensets(st.integers(0, b.n - 1), min_size=2, max_size=b.n // 3)
    return drops.map(lambda d: frozenset(range(b.n)) - d).filter(
        lambda s: connected(s, range(b.system.rank), b))


@pytest.mark.parametrize("name, draw", [
    ("fano", galleries), ("sp42", galleries), ("thin_a3", punctured),
], ids=["fano", "sp42", "thin_a3"])
def test_random_connected_subsets_match_sympy(request, name, draw):
    # a connected subset of a rank-2 building is simply 2-connected, and
    # sympy's cost grows fast with the generators of a trivial group, so the
    # rank-2 draws are galleries; the thin A3 sphere loses a few chambers,
    # which leaves holes
    b = request.getfixturevalue(name)
    statuses = set()

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(draw(b))
    def check(subset):
        statuses.add(assert_same_decision(b, subset).status)

    check()
    assert PROVEN_TRIVIAL in statuses
    assert (PROVEN_NONTRIVIAL in statuses) == (name == "thin_a3")


A5 = [((0, 1),) * 2, ((1, 1),) * 3, ((0, 1), (1, 1)) * 5]
TRIVIAL_PERFECT = [
    ((0, 1), (1, 1), (0, -1), (1, -1), (1, -1)),
    ((1, 1), (0, 1), (1, -1), (0, -1), (0, -1)),
]
TRIANGLE_237 = [((0, 1),) * 2, ((1, 1),) * 3, ((2, 1),) * 7, ((0, 1), (1, 1), (2, 1))]


@pytest.mark.parametrize("g, relators, cap, expected", [
    (2, A5, DEFAULT_COSET_CAP, TrivialityVerdict(PROVEN_NONTRIVIAL, ("order", 60))),
    (2, TRIVIAL_PERFECT, DEFAULT_COSET_CAP, TrivialityVerdict(PROVEN_TRIVIAL, ("cosets", 1))),
    (3, TRIANGLE_237, 2000, TrivialityVerdict(INCONCLUSIVE, ("coset-cap", 2000))),
], ids=["A5", "trivial-perfect", "triangle-237"])
def test_coset_enumeration(g, relators, cap, expected, monkeypatch):
    words = [tuple(2 * gen + (exp > 0) for gen, exp in rel) for rel in relators]
    assert list(map(pairs, words)) == relators
    monkeypatch.setattr(homotopy, "DEFAULT_COSET_CAP", cap)
    assert _decide(g, words) == expected
    assert sympy_decide(g, relators, cap) == expected


@settings(max_examples=200, deadline=None)
@example([[2, 4], [4, 2]])            # no unit entry: the least |entry| pivots
@example([[2, 4, 6], [4, -2, -1]])    # the one unit ends the last row
@given(st.integers(1, 5).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols),
    min_size=1, max_size=5,
)))
def test_smith_invariants_match_sympy(rows):
    snf = smith_normal_form(Matrix(rows))
    diag = [abs(snf[i, i]) for i in range(min(snf.shape))]
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    assert _smith_invariants(sparse) == [d for d in diag if d]


# -- the presentation against its per-residue construction -------------------


def _bfs_forest(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Breadth-first spanning forest as parent pointers.

    Roots are taken in ascending order and are their own parents; each
    vertex visits its neighbours in ascending order.
    """
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b2 in edges:
        adj[a].append(b2)
        adj[b2].append(a)
    parent: dict[int, int] = {}
    for root in sorted(adj):
        if root in parent:
            continue
        parent[root] = root
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in sorted(adj[x]):
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
    return parent


def _forest_edges(parent: dict[int, int]) -> frozenset:
    return frozenset((min(x, p), max(x, p)) for x, p in parent.items() if x != p)


def _subset_edges(b: Building, subset: frozenset, gens: Iterable[int]):
    """Undirected edges (a < b) with their type, within subset."""
    edges = {}
    for x in subset:
        for s in gens:
            for z in b.system.panel_members(x, s):
                if z != x and z in subset and x < z:
                    edges[(x, z)] = s
    return edges


def _spanning_tree(vertices: Sequence[int], edges: dict) -> dict[int, int]:
    """BFS tree as parent pointers; edges is {(a,b): type} with a < b."""
    parent = _bfs_forest(vertices, edges)
    if sum(x == p for x, p in parent.items()) > 1:
        raise NotConnected("subset is not gallery-connected")
    return parent


def _tree_path(parent: dict[int, int], x: int) -> list[int]:
    path = [x]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
    return path


def _cycle_word(
    cycle: Sequence[int],
    tree_edges: frozenset,
    gen_index: dict[tuple[int, int], int],
) -> tuple[tuple[int, int], ...]:
    """Relator of a closed vertex path as (generator, exponent) pairs."""
    word: list[tuple[int, int]] = []
    for a, b2 in zip(cycle, cycle[1:]):
        key = (min(a, b2), max(a, b2))
        if key in tree_edges:
            continue
        exp = 1 if a < b2 else -1
        if word and word[-1][0] == gen_index[key] and word[-1][1] == -exp:
            word.pop()
        else:
            word.append((gen_index[key], exp))
    return tuple(word)


def reference_presentation(b, subset):
    """Edge-path group presentation of the 2-complex on ``subset``.

    1-skeleton: the adjacency graph; 2-cells: fundamental cycles of each
    rank <= 2 residue's restriction to the subset.
    """
    vertices = sorted(subset)
    all_gens = tuple(range(b.system.rank))
    edges = _subset_edges(b, subset, all_gens)
    parent = _spanning_tree(vertices, edges)
    tree_edges = _forest_edges(parent)
    non_tree = sorted(e for e in edges if e not in tree_edges)
    gen_index = {e: i for i, e in enumerate(non_tree)}

    relators = set()
    rank = b.system.rank
    type_sets = [(s,) for s in range(rank)]
    type_sets += [
        (a, c) for a in range(rank) for c in range(a + 1, rank)
    ]
    for J in type_sets:
        seen_residues = set()
        for v in vertices:
            R = b.residue(v, frozenset(J))
            key = (R.J, R.base)
            if key in seen_residues:
                continue
            seen_residues.add(key)
            rset = subset & set(R.members)
            if len(rset) < 3:
                continue
            redges = _subset_edges(b, frozenset(rset), J)
            if not redges:
                continue
            comp_parent = _bfs_forest(rset, redges)
            local_tree = _forest_edges(comp_parent)
            for e in redges:
                if e in local_tree:
                    continue
                a, b2 = e
                pa = _tree_path(comp_parent, a)
                pb = _tree_path(comp_parent, b2)
                if pa[-1] != pb[-1]:
                    continue
                # fundamental cycle: root -> a, edge (a, b2), b2 -> root
                cyc = list(reversed(pa)) + pb
                rel = _cycle_word(cyc, tree_edges, gen_index)
                if rel:
                    relators.add(rel)
    return non_tree, sorted(relators)


def reference_decision(b, subset):
    """``_decide`` on ``reference_presentation``, or the forest verdict when
    it has no generator."""
    non_tree, relators = reference_presentation(b, subset)
    if not non_tree:
        return TrivialityVerdict(PROVEN_TRIVIAL, certificate="forest")
    words = [tuple(2 * gen + (exp > 0) for gen, exp in rel) for rel in relators]
    return _decide(len(non_tree), words)


def assert_same_decision_as_reference(b, subset):
    """Both presentations of ``subset`` raise NotConnected, or they reach the
    same status and, when it is nontrivial, the same abelian group (free
    rank g reads as g zero invariants); returns the verdict, None when
    ``subset`` is not connected."""
    subset = frozenset(subset)
    try:
        expected = reference_decision(b, subset)
    except NotConnected:
        with pytest.raises(NotConnected):
            _presentation(b, subset)
        return None
    verdict = simply_2_connected(subset, b)
    assert verdict.status == expected.status
    if verdict.status == PROVEN_NONTRIVIAL:
        assert invariants(verdict) == invariants(expected)
    return verdict


def test_presentation_matches_reference_on_pg32_lsco_opposite_sets(pg32):
    R = pg32.residue(0, (0, 1, 2))
    for x in R.members:
        verdict = assert_same_decision_as_reference(pg32, opposite_set(pg32, R, x))
        assert verdict.status == PROVEN_NONTRIVIAL


def test_presentation_matches_reference_on_pg33_lsco_opposite_sets(pg33):
    # q = 3: the s-panels cut cliques of three chambers out of each set, the
    # only rank-1 cells with a relator among the fixtures' lsco sets, which
    # the Tietze moves drop; 1,459 generators become 703
    R = pg33.residue(0, (0, 1, 2))
    for x in random.Random(33).sample(R.members, 8):
        opp = opposite_set(pg33, R, x)
        assert len(opp) == 729
        assert any(sum(c in opp for c in p) == 3 for fam in pg33.system.panels for p in fam)
        assert assert_same_decision_as_reference(pg33, opp).status == PROVEN_TRIVIAL
        assert len(reference_presentation(pg33, opp)[0]) == 1459
        assert replayed_kills(pg33, opp) == 703


def test_presentation_matches_reference_on_pg33_random_subsets(pg33):
    # seeded dense and sparse draws: trivial and nontrivial groups, and
    # disconnected sets
    rng = random.Random(40)
    outcomes = set()
    for p in (0.97, 0.9, 0.8, 0.6, 0.5, 0.3):
        subset = frozenset(c for c in range(pg33.n) if rng.random() < p)
        verdict = assert_same_decision_as_reference(pg33, subset)
        outcomes.add(verdict and verdict.status)
    assert outcomes == {PROVEN_TRIVIAL, PROVEN_NONTRIVIAL, None}


def test_presentation_matches_reference_on_pg22_fop_from_every_chamber(fano):
    for c in range(fano.n):
        verdict = assert_same_decision_as_reference(fano, from_opposite_chamber(fano, c).fop())
        assert verdict.status == PROVEN_TRIVIAL


@pytest.mark.parametrize("name, connected", [
    ("pg23", True), ("sp42", False), ("sp43", True), ("pg32", True),
])
def test_presentation_matches_reference_on_fop(request, name, connected):
    b = request.getfixturevalue(name)
    fop = from_opposite_chamber(b, 0).fop()
    assert (assert_same_decision_as_reference(b, fop) is not None) == connected


def test_presentation_matches_reference_on_whole_buildings(fano, thin_a3):
    for b in (fano, thin_a3):
        non_tree, relators = reference_presentation(b, frozenset(range(b.n)))
        assert non_tree and relators
        assert assert_same_decision_as_reference(b, range(b.n)).status == PROVEN_TRIVIAL


@pytest.mark.parametrize("name", ["fano", "pg23", "sp42", "sp43", "digon33", "thin_a2"])
def test_rank2_connected_subsets_keep_no_generator(request, name):
    # J0 holds both types, so every cycle of a connected subset is a J0 cell
    b = request.getfixturevalue(name)
    rng = random.Random(2)
    subsets = [range(b.n), from_opposite_chamber(b, 0).fop()]
    subsets += [[c for c in range(b.n) if rng.random() < p] for p in (0.5, 0.8, 0.9) * 4]
    for subset in filter(None, map(frozenset, subsets)):
        if not connected(subset, range(2), b):
            with pytest.raises(NotConnected):
                _presentation(b, subset)
            continue
        assert _presentation(b, subset) == ([], [])
        assert simply_2_connected(subset, b) == TrivialityVerdict(PROVEN_TRIVIAL, "forest")
        assert reference_decision(b, subset).status == PROVEN_TRIVIAL


def test_presentation_looks_up_no_residue(thin_a3, monkeypatch):
    def no_residue(self, c, J):
        raise AssertionError("residue lookup")

    monkeypatch.setattr(Building, "residue", no_residue)
    assert _presentation(thin_a3, frozenset(range(thin_a3.n)))[1]


# -- arbitrary subsets ---------------------------------------------------------


def bfs_connected(b, subset, J):
    """Whether ``subset`` is J-connected, by a breadth-first search over
    panel members."""
    subset = set(subset)
    if not subset:
        return True
    start = min(subset)
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for s in J:
            for y in b.system.panel_members(x, s):
                if y in subset and y not in seen:
                    seen.add(y)
                    queue.append(y)
    return seen == subset


@pytest.mark.parametrize("name", ["pg23", "sp42", "thin_a3"])
def test_graph_layer_on_arbitrary_subsets(request, name):
    # sparse draws are mostly disconnected, complements of sparse draws
    # mostly connected with many cycles; both kinds must occur
    b = request.getfixturevalue(name)
    rank = b.system.rank
    type_sets = [J for k in (1, 2) for J in combinations(range(rank), k)]
    sparse = st.frozensets(st.integers(0, b.n - 1))
    kinds = set()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.one_of(sparse, sparse.map(lambda s: frozenset(range(b.n)) - s)))
    @example(frozenset())
    def check(subset):
        kinds.add(assert_same_decision_as_reference(b, subset) is not None)
        for J in type_sets:
            assert connected(subset, J, b) == bfs_connected(b, subset, J), J

    check()
    assert kinds == {True, False}


@pytest.mark.parametrize("name", ["fano", "sp42", "pg32"])
def test_connected_matches_breadth_first_search(request, name):
    # the one search of ``connected`` against the panel-member search, on
    # every type set: the empty set, singletons, the whole building, the lco
    # opposite sets (sp4(2) has disconnected ones) and seeded draws
    b = request.getfixturevalue(name)
    rank = b.system.rank
    type_sets = [J for k in range(1, rank + 1) for J in combinations(range(rank), k)]
    rng = random.Random(41)
    subsets = [(), (0,), (b.n - 1,), range(b.n)]
    subsets += [opposite_set(b, R, x) for J in combinations(range(rank), 2)
                for R in b.residues_of_type(J)[:3] for x in R.members]
    subsets += [[c for c in range(b.n) if rng.random() < p] for p in (0.05, 0.2, 0.5, 0.8, 0.95) * 4]
    answers = set()
    for subset in subsets:
        for J in type_sets:
            answers.add(bfs_connected(b, subset, J))
            assert connected(subset, J, b) == bfs_connected(b, subset, J), (sorted(subset), J)
    assert answers == {True, False}
