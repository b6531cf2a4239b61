"""Panel parallelism, compatible paths, and the projection bijections
between panels meeting the opposite set of a codistance.

Larger fixtures are sampled; the rank-2 and thin rank-3 fixtures are run
exhaustively. Oracles are direct definition scans (mutual projections,
panel filters), not the routines under test.
"""

import itertools
import random
from collections import Counter, deque

import pytest

from conftest import opposite_residues

from twinbuild.chambersys import Building
from twinbuild import panelcalc
from twinbuild.codistance import Codistance, from_opposite_chamber, proj_f
from twinbuild.errors import (
    NotEquivalent,
    NotOpposite,
    NotParallel,
    PreconditionFailed,
    TwinbuildError,
)
from twinbuild.panelcalc import (
    PanelBijection,
    all_compatible_paths,
    beta,
    beta_w,
    compatible_path,
    delta_panels,
    is_compatible_path,
    l_c,
    panel_key,
    panel_type,
    panels_op,
    panels_op_c,
    pi,
)
from twinbuild.twinner import adjacent_codistance, beta_maps


def every_panel(b: Building):
    return [P for s in range(b.system.rank) for P in b.residues_of_type((s,))]


def mutually_projecting(b: Building, P, Q) -> bool:
    """Definitional parallelism: the projections between P and Q are
    mutually inverse bijections."""
    fwd = {p: b.proj_chamber(Q, p) for p in P.members}
    bwd = {q: b.proj_chamber(P, q) for q in Q.members}
    if set(fwd.values()) != set(Q.members):
        return False
    return all(bwd[v] == p for p, v in fwd.items())


# -- parallelism --------------------------------------------------------------


@pytest.mark.parametrize("name", ["fano", "digon33", "thin_a3"])
def test_parallel_iff_projection_covers(request, name):
    b = request.getfixturevalue(name)
    panels = every_panel(b)
    for P, Q in itertools.product(panels, panels):
        oracle = mutually_projecting(b, P, Q)
        assert b.are_parallel(P, Q) == oracle
        assert (b.proj_residue(Q, P) == Q) == oracle


def test_parallel_projection_sampled_pg32(pg32):
    b = pg32
    panels = every_panel(b)
    for P in (b.panel(0, 0), b.panel(0, 1), b.panel(0, 2)):
        for Q in panels:
            oracle = mutually_projecting(b, P, Q)
            assert b.are_parallel(P, Q) == oracle
            assert (b.proj_residue(Q, P) == Q) == oracle


def test_parallel_panel_distances(thin_a3):
    b = thin_a3
    table = b.weyl
    panels = every_panel(b)
    for P, Q in itertools.product(panels, panels):
        if not b.are_parallel(P, Q):
            with pytest.raises(NotParallel):
                delta_panels(b, P, Q)
            continue
        w = delta_panels(b, P, Q)
        s1, s2 = panel_type(P), panel_type(Q)
        assert table.conj_by(w, s1) == table.gen(s2)
        assert table.length[table.mult(table.gen(s1), w)] == table.length[w] + 1
        # the distance is attained by every chamber of P
        for x in P.members:
            assert b.delta(x, b.proj_chamber(Q, x)) == w


def test_panels_at_prescribed_distance_are_parallel(thin_a3):
    b = thin_a3
    table = b.weyl
    for x in range(b.n):
        for y in range(b.n):
            w = b.delta(x, y)
            for s1 in range(3):
                if table.length[table.mult(table.gen(s1), w)] != table.length[w] + 1:
                    continue
                s2 = table.gen_index(table.conj_by(w, s1))
                if s2 is None:
                    continue
                assert b.are_parallel(b.panel(x, s1), b.panel(y, s2))


def test_every_Xs_distance_is_realized(thin_a3):
    # from the s-panel of chamber 0, a parallel panel lies at every w in X_s
    b = thin_a3
    table = b.weyl
    for s in range(3):
        P = b.panel(0, s)
        for w in table.X_s(s):
            t = table.gen_index(table.conj_by(w, s))
            Q = next(
                b.panel(y, t) for y in range(b.n)
                if b.are_parallel(P, b.panel(y, t))
                and delta_panels(b, P, b.panel(y, t)) == w
            )
            assert l_c(b, P, Q) >= 0


def test_projection_of_parallel_panel_on_residue(thin_a3):
    b = thin_a3
    panels = every_panel(b)
    pairs = [
        (P, Q) for P, Q in itertools.product(panels, panels)
        if P != Q and b.are_parallel(P, Q)
    ]
    for P, Q in pairs[::7]:
        for J in (frozenset((0, 1)), frozenset((1, 2)), frozenset((0, 2))):
            if not frozenset(Q.J) <= J:
                continue
            R = b.residue(Q.base, J)
            T = b.proj_residue(R, P)
            if len(T.J) != 1:
                continue
            assert b.are_parallel(T, P)
            assert b.are_parallel(T, Q)


# -- compatible paths ---------------------------------------------------------


@pytest.mark.parametrize("name", ["fano", "digon33", "thin_a3", "thin_a1cubed"])
def test_parallel_iff_compatible_path(request, name):
    b = request.getfixturevalue(name)
    panels = every_panel(b)
    for P, Q in itertools.product(panels, panels):
        if b.are_parallel(P, Q):
            path = compatible_path(b, P, Q)
            assert path[0] == P and path[-1] == Q
            assert is_compatible_path(b, path)
        else:
            with pytest.raises(NotParallel):
                compatible_path(b, P, Q)


@pytest.mark.parametrize("name", ["thin_a3", "thin_a1cubed"])
def test_rank3_compatible_path_counts(request, name):
    b = request.getfixturevalue(name)
    R = b.residue(0, range(3))
    panels = every_panel(b)
    for P, Q in itertools.product(panels, panels):
        if P == Q or not b.are_parallel(P, Q):
            continue
        paths = all_compatible_paths(b, P, Q)
        assert paths
        lengths = {len(p) for p in paths}
        assert len(lengths) == 1
        opposite = opposite_residues(b, R, P, Q)
        if opposite:
            assert len(paths) == 2
        else:
            assert len(paths) == 1


@pytest.mark.parametrize("name", ["fano", "digon33", "thin_a3"])
def test_all_compatible_paths_same_length(request, name):
    b = request.getfixturevalue(name)
    panels = every_panel(b)
    for P, Q in itertools.product(panels, panels):
        if not b.are_parallel(P, Q) or P == Q:
            continue
        lengths = {len(p) - 1 for p in all_compatible_paths(b, P, Q)}
        assert lengths == {l_c(b, P, Q)}


@pytest.mark.parametrize("name", ["fano", "digon33", "thin_a3"])
def test_compatible_length_depends_only_on_distance(request, name):
    b = request.getfixturevalue(name)
    panels = every_panel(b)
    by_distance = {}
    for P, Q in itertools.product(panels, panels):
        if not b.are_parallel(P, Q):
            continue
        key = (panel_type(P), delta_panels(b, P, Q))
        by_distance.setdefault(key, set()).add(l_c(b, P, Q))
    assert by_distance
    for key, lengths in by_distance.items():
        assert len(lengths) == 1


def test_compatible_length_sampled_pg32(pg32):
    b = pg32
    by_distance = {}
    for s in range(3):
        P = b.panel(0, s)
        for Q in every_panel(b):
            if not b.are_parallel(P, Q):
                continue
            key = (s, delta_panels(b, P, Q))
            by_distance.setdefault(key, set()).add(l_c(b, P, Q))
    for key, lengths in by_distance.items():
        assert len(lengths) == 1


def test_step_between_panels_opposite_nowhere_is_not_compatible(fano):
    # two panels through chamber 0 are opposite in no rank-2 residue
    P, Q = fano.panel(0, 0), fano.panel(0, 1)
    assert not opposite_residues(fano, fano.residue(0, (0, 1)), P, Q)
    assert not is_compatible_path(fano, [P, Q])
    assert not is_compatible_path(fano, [Q, P])


def test_step_failing_the_projection_condition_is_not_compatible(fano):
    # in a projective plane R(L, N) is the whole building, onto which P0
    # projects to P0 itself: each step is compatible from its own start, but
    # the second step of P0, L, N is not, as proj_R P0 = P0 != L
    R = fano.residue(0, (0, 1))
    P0 = fano.panel(0, 0)
    L = next(Q for Q in every_panel(fano) if opposite_residues(fano, R, P0, Q))
    N = next(Q for Q in every_panel(fano) if Q != P0 and opposite_residues(fano, R, L, Q))
    assert is_compatible_path(fano, [P0, L])
    assert is_compatible_path(fano, [L, N])
    assert not is_compatible_path(fano, [P0, L, N])


def test_path_with_repetition_is_not_compatible(thin_a3):
    b = thin_a3
    P = b.panel(0, 0)
    assert not is_compatible_path(b, [P, P])


# -- pi and the bijections ----------------------------------------------------


def test_beta_refuses_a_panel_outside_fop(fano):
    # no chamber of a panel through chamber 0 is opposite chamber 0
    f = from_opposite_chamber(fano, 0)
    outside = fano.panel(0, 0)
    inside = panels_op(f, 0)[0]
    assert outside not in panels_op(f, 0)
    for P, Q in ((outside, inside), (inside, outside)):
        with pytest.raises(NotOpposite, match="panel does not meet f\\^op"):
            beta(f, P, Q)
    with pytest.raises(NotOpposite, match="panel does not meet f\\^op"):
        beta_maps(f, outside)


def codistances(b):
    return [from_opposite_chamber(b, c) for c in (0, b.n // 2)]


@pytest.mark.parametrize("name", ["fano", "digon33"])
def test_pi_characterizations(request, name):
    b = request.getfixturevalue(name)
    table = b.weyl
    for f in codistances(b):
        for s in range(b.system.rank):
            for P in panels_op(f, s):
                for w in table.X_s(s):
                    t = table.gen_index(table.conj_by(w, s))
                    Pp = pi(f, P, w)
                    assert panel_type(Pp) == t
                    assert delta_panels(b, P, Pp) == w
                    wt = table.right[w][t]
                    # exhaustive filter: conditions a)-d) hold for pi and
                    # for no other t-panel at distance w
                    for Q in b.residues_of_type((t,)):
                        if not b.are_parallel(P, Q) or delta_panels(b, P, Q) != w:
                            continue
                        a = any(f(x) == w for x in Q.members)
                        vals = [f(x) for x in Q.members]
                        bb = (
                            set(vals) <= {w, wt}
                            and vals.count(wt) == 1
                        )
                        c = all(
                            P in panels_op_c(f, s, x) for x in Q.members
                        )
                        d = any(
                            P in panels_op_c(f, s, x) for x in Q.members
                        )
                        assert a == bb == c == d
                        assert a == (Q == Pp)


def test_pi_of_identity_is_the_panel(fano):
    f = from_opposite_chamber(fano, 0)
    for s in range(2):
        for P in panels_op(f, s):
            assert pi(f, P, 0) == P


def test_pi_rejects_foreign_panel(fano):
    f = from_opposite_chamber(fano, 0)
    s = 0
    outside = next(
        P for P in fano.residues_of_type((s,)) if P not in panels_op(f, s)
    )
    with pytest.raises(PreconditionFailed, match=r"^panel does not meet f\^op$"):
        pi(f, outside, 0)


def test_pi_and_beta_w_keep_their_checks(fano):
    f = from_opposite_chamber(fano, 0)
    table = fano.weyl
    P, *others = panels_op(f, 0)
    with pytest.raises(PreconditionFailed, match="not in X_0"):
        pi(f, P, table.gen(0))
    w = next(w for w in table.X_s(0) if len({pi(f, Q, w) for Q in others}) > 1)
    Q = next(Q for Q in others if pi(f, Q, w) != pi(f, P, w))
    with pytest.raises(NotEquivalent, match=r"pi\(P, w\) != pi\(Q, w\)"):
        beta_w(f, P, Q, w)


@pytest.mark.parametrize("name", ["fano", "digon33"])
def test_beta_group_laws(request, name):
    b = request.getfixturevalue(name)
    for f in codistances(b):
        for s in range(b.system.rank):
            ps = panels_op(f, s)
            for P in ps:
                assert beta(f, P, P).is_identity()
            for P, Q in itertools.product(ps, ps):
                bq = beta(f, P, Q)
                assert beta(f, Q, P).compose(bq).is_identity()
                gap_p = proj_f(f, P)
                assert bq(gap_p) == proj_f(f, Q)
            for P, Q, R in itertools.product(ps, ps, ps):
                assert beta(f, Q, R).compose(beta(f, P, Q)).mapping == beta(
                    f, P, R
                ).mapping


def test_beta_maps_fop_to_fop(fano):
    f = from_opposite_chamber(fano, 0)
    for s in range(2):
        ps = panels_op(f, s)
        for P, Q in itertools.product(ps, ps):
            bq = beta(f, P, Q)
            for x in P.members:
                assert (f(x) == 0) == (f(bq(x)) == 0)


def test_extension_of_equivalence(fano):
    b = fano
    table = b.weyl
    f = from_opposite_chamber(b, 0)
    for s in range(2):
        ps = panels_op(f, s)
        xs = table.X_s(s)
        for w1, w2 in itertools.product(xs, xs):
            if w1 == w2 or not table.prec(w1, w2):
                continue
            for P, Q in itertools.product(ps, ps):
                if pi(f, P, w1) != pi(f, Q, w1):
                    continue
                assert pi(f, P, w2) == pi(f, Q, w2)
                if P != Q:
                    assert (
                        beta_w(f, P, Q, w1).mapping
                        == beta_w(f, P, Q, w2).mapping
                    )


@pytest.mark.parametrize("name", ["fano", "digon33"])
def test_beta_agrees_with_any_equivalence(request, name):
    b = request.getfixturevalue(name)
    table = b.weyl
    for f in codistances(b):
        for s in range(b.system.rank):
            ps = panels_op(f, s)
            for w in table.X_s(s):
                for P, Q in itertools.product(ps, ps):
                    if P == Q or pi(f, P, w) != pi(f, Q, w):
                        continue
                    assert beta(f, P, Q).mapping == beta_w(f, P, Q, w).mapping


@pytest.mark.parametrize("name", ["fano", "digon33"])
def test_rank2_min_value_projection_compatibility(request, name):
    # in a rank-2 residue whose minimal f-value w satisfies w in X_s with
    # w^-1 s w in the residue type, the panel bijections respect projections
    b = request.getfixturevalue(name)
    table = b.weyl
    R = b.residue(0, range(b.system.rank))
    for f in codistances(b):
        for s in range(b.system.rank):
            w_min = min((f(x) for x in R), key=lambda v: table.length[v])
            ok, t = table.in_X_s(w_min, s)
            if not ok or t not in R.J:
                continue
            for c in R:
                pcs = panels_op_c(f, s, c)
                for P, Pp in itertools.product(pcs, pcs):
                    assert beta(f, P, Pp)(
                        b.proj_chamber(P, c)
                    ) == b.proj_chamber(Pp, c)


@pytest.mark.parametrize("name", ["fano", "digon33"])
def test_projection_compatibility_everywhere(request, name):
    b = request.getfixturevalue(name)
    for f in codistances(b):
        for c in range(b.n):
            for s in range(b.system.rank):
                pcs = panels_op_c(f, s, c)
                for P, Pp in itertools.product(pcs, pcs):
                    assert beta(f, P, Pp)(
                        b.proj_chamber(P, c)
                    ) == b.proj_chamber(Pp, c)


def test_beta_requires_matching_types(fano):
    f = from_opposite_chamber(fano, 0)
    P = panels_op(f, 0)[0]
    Q = panels_op(f, 1)[0]
    with pytest.raises(NotOpposite):
        beta(f, P, Q)


def test_panel_bijection_validation(fano):
    P = fano.panel(0, 0)
    Q = fano.panel(0, 1)
    with pytest.raises(ValueError):
        PanelBijection(P, Q, {c: c for c in P.members})
    assert PanelBijection(P, P, {c: c for c in P.members}).is_identity()


# -- beta against step-by-step composition --------------------------------------


def beta_reference(f, P, Q):
    """beta composed step by step: the breadth-first gallery inside f^op from
    the least f^op chamber of P to the first f^op chamber of Q it reaches
    (neighbours by type, then by id), one beta_w per change of s-panel,
    joined with PanelBijection.compose."""
    b = f.building
    table = b.weyl
    s = panel_type(P)
    inside = frozenset(f.fop())
    start = min(x for x in P.members if x in inside)
    parent = {start: start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        if x in Q:
            break
        for t in range(b.system.rank):
            for z in b.system.panel_members(x, t):
                if z in inside and z not in parent:
                    parent[z] = x
                    queue.append(z)
    else:
        raise NotOpposite("no gallery in f^op joins the panels")
    gallery = [x]
    while parent[gallery[-1]] != gallery[-1]:
        gallery.append(parent[gallery[-1]])
    gallery.reverse()
    current = PanelBijection(P, P, {c: c for c in P.members})
    for x, y in zip(gallery, gallery[1:]):
        here, there = b.panel(x, s), b.panel(y, s)
        if here != there:
            t = next(tt for tt, z in b.system.adjacency[x] if z == y)
            xJ = table.mult(table.gen(s), table.longest_element((s, t)))
            current = beta_w(f, here, there, xJ).compose(current)
    return current


@pytest.mark.parametrize("name, sources", [("pg23", None), ("sp43", None), ("pg32", 2)])
def test_beta_matches_step_by_step_composition(request, name, sources):
    # every ordered pair of f^op panels on the rank-2 fixtures; the first
    # two sources of each type on pg3(2)
    b = request.getfixturevalue(name)
    f = from_opposite_chamber(b, 0)
    for s in range(b.system.rank):
        ps = panels_op(f, s)
        for P in ps[:sources]:
            for Q in ps:
                assert beta(f, P, Q).mapping == beta_reference(f, P, Q).mapping


@pytest.mark.parametrize("chamber", [0, 9, 18, 27, 36])
def test_beta_on_disconnected_fop_matches_step_by_step_composition(sp42, chamber):
    # f^op of the generalized quadrangle sp4(2) is not connected: pairs in
    # different components have no beta, and the atlas step refuses
    f = from_opposite_chamber(sp42, chamber)
    outcomes = Counter()
    for s in range(2):
        ps = panels_op(f, s)
        for P, Q in itertools.product(ps, ps):
            try:
                expected = beta_reference(f, P, Q).mapping
            except NotOpposite:
                with pytest.raises(NotOpposite, match="no gallery in f\\^op joins"):
                    beta(f, P, Q)
                outcomes["NotOpposite"] += 1
            else:
                assert beta(f, P, Q).mapping == expected
                outcomes["bijection"] += 1
        with pytest.raises(NotOpposite, match="no gallery in f\\^op joins"):
            beta_maps(f, ps[0])
    assert outcomes == {"bijection": 64, "NotOpposite": 64}
    P = panels_op(f, 0)[0]
    p = next(x for x in P.members if f(x) == 0)
    with pytest.raises(NotOpposite, match="no gallery in f\\^op joins the panels"):
        adjacent_codistance(f, 0, P, p)


# -- the search behind beta_maps against per-edge beta_w ---------------------


def fop_search_reference(f, Ptilde):
    """``panelcalc._fop_search`` with each tree edge of type t != s moved by
    the public beta_w, w = s r_{st}, and its map composed with the path's."""
    b = f.building
    table = b.weyl
    s = panel_type(Ptilde)
    inside = frozenset(f.fop())
    start = min(x for x in Ptilde.members if x in inside)
    image = {start: {c: c for c in Ptilde.members}}
    yield Ptilde, image[start]
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for t, y in b.system.adjacency[x]:
            if y not in inside or y in image:
                continue
            mapping = image[x]
            if t != s:
                xJ = table.left[table.longest_element((s, t))][s]
                step = beta_w(f, b.panel(x, s), b.panel(y, s), xJ).mapping
                mapping = {c: step[v] for c, v in mapping.items()}
            image[y] = mapping
            queue.append(y)
            yield b.panel(y, s), mapping


def beta_maps_outcome(f, Ptilde):
    """The maps of beta_maps, or the type and message of what it raised."""
    try:
        return beta_maps(f, Ptilde)
    except (TwinbuildError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("name", ["pg23", "pg32"])
def test_beta_maps_match_reference_search_on_corruptions(request, monkeypatch, name):
    b = request.getfixturevalue(name)
    rng = random.Random(name)
    kinds = Counter()
    for _ in range(100):
        values = list(from_opposite_chamber(b, rng.randrange(b.n)).values)
        for c in rng.sample(range(b.n), rng.randint(1, 2)):
            values[c] = rng.randrange(b.weyl.size)
        f = Codistance(b, values)
        ops = panels_op(f, rng.randrange(b.system.rank))
        if not ops:
            continue
        Ptilde = rng.choice(ops)
        new = beta_maps_outcome(f, Ptilde)
        with monkeypatch.context() as m:
            m.setattr(panelcalc, "_fop_search", fop_search_reference)
            assert beta_maps_outcome(f, Ptilde) == new
        kinds[new if isinstance(new, tuple) else "maps"] += 1
    assert kinds["maps"] and len(kinds) >= 4


@pytest.mark.parametrize(
    "search", [panelcalc._fop_search, fop_search_reference], ids=["search", "reference"]
)
def test_beta_maps_keeps_the_equivalence_check(fano, monkeypatch, search):
    # three values changed: the search meets a tree edge whose two panels
    # pi sends to different panels
    values = list(from_opposite_chamber(fano, 19).values)
    for c, v in ((11, 4), (20, 3), (10, 5)):
        values[c] = v
    f = Codistance(fano, values)
    monkeypatch.setattr(panelcalc, "_fop_search", search)
    with pytest.raises(NotEquivalent, match=r"pi\(P, w\) != pi\(Q, w\)"):
        beta_maps(f, panels_op(f, 1)[3])
