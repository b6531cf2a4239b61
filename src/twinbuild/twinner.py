"""Adjacent codistances, the codistance atlas, and twin assembly.

From one codistance f the adjacent-codistance construction produces the
s-neighbours of f among codistances; closing under it yields the atlas,
the chamber set of the "other half" B+ of the twin.  Everything claimed
about the result (building axioms for B+, the twinning axioms for
delta*(g, c) = g(c), local opposition, the seed identity) is verified
exhaustively rather than assumed.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import combinations, compress
from operator import and_, or_
from typing import ClassVar, Iterable, Optional, Sequence

from .chambersys import (
    Building, ChamberSystem, ResidueRef, opposite_set, panel_table, validate_building,
)
from .codistance import Codistance, panels_op, proj_f, validate_codistance
from .coxeter import WeylTable
from .errors import (
    CapExceeded,
    PreconditionFailed,
    TwinbuildError,
)
from .panelcalc import (
    beta,  # re-exported: perfbench/selftest.py checks twinner.beta
    beta_maps,
)

DEFAULT_ATLAS_CAP = 50_000


class TwinViolation(TwinbuildError):
    """The atlas closure put one member into two distinct s-panels."""


def adjacent_codistance(f: Codistance, s: int, Ptilde: ResidueRef, p: int) -> Codistance:
    """The s-neighbour g_p of f for a chamber p of Ptilde in f^op: f with its
    trace on each panel of P_s^op(f) moved to the beta-orbit of p.  g_p is f
    or s f at every chamber c.

    Take an s-panel P meeting f^op and a chamber x of P in f^op with
    delta(x, c) = f(c); g_p moves c exactly when proj_P(c) is the gap of P
    (its chamber outside f^op) or beta_P(p).  (i) If s shortens f(c), then
    y = proj_P(c) is the gap: delta(c, y) = f(c)^-1 s has length
    l(f(c)) - 1, and along a minimal gallery from c to y the panel axiom
    lowers f one letter per step, so f(y) = s.  (ii) Otherwise x is the
    projection, delta(x, c) = f(c) being the shorter distance in P.  So
    g_p(c) = s f(c) exactly when s shortens f(c) or x lies in the beta-orbit
    of p, and no chamber is projected.  That the orbit does not depend on
    the panel P (AC8) is checked on every call: the delta rows at the
    chambers beta_P(p), over every panel P and mark p, are compared with f's
    row whole (``_adjacent_rows``), and a chamber outside case (i) that lies
    in the orbits of two marks is refused.  Only g_p is validated, and a
    Ptilde outside P_s^op(f) is refused first.
    """
    if Ptilde not in panels_op(f, s):
        raise PreconditionFailed("Ptilde does not meet f^op")
    rows = _adjacent_rows(f, s, Ptilde)
    if p not in rows:
        raise PreconditionFailed("p must be a chamber of Ptilde inside f^op")
    return _member(f.building, rows[p])


def _member(b: Building, row: Sequence[int]) -> Codistance:
    """The codistance of b with value row ``row``, validated."""
    report = validate_codistance(g := Codistance(b, row))
    if not report.ok:
        raise PreconditionFailed(f"constructed map is not a codistance: {report}")
    return g


def _adjacent_rows(f: Codistance, s: int, Ptilde: ResidueRef) -> dict[int, Sequence[int]]:
    """The value rows of the s-neighbours of f, one per chamber p of Ptilde
    in f^op, in ascending p (``adjacent_codistance``), packed and not
    validated.  Ptilde is in P_s^op(f): the public callers test or ensure it.

    Rows are ints of ``WeylTable.lanes``, lane c for chamber c; the zero
    lanes of the XOR of a delta row and f's (``WeylTable.lane_masks``) mark
    the chambers where the two agree."""
    b = f.building
    table = b.weyl
    row, bits, lanes = f.values, table.lane_bits, table.lanes
    full, hi, zero = table.lane_masks(b.n)
    values = lanes(row)
    down = lanes(table.down_rows[s](row)) << bits - 1   # where s shortens f(c)
    marks = [p for p in Ptilde.members if row[p] == 0]
    owned = dict.fromkeys(marks, 0)   # per mark, the lanes it matches
    assigned = clash = 0              # the lanes matched, and matched by two marks
    for mapping in beta_maps(f, Ptilde).values():
        for p in marks:
            eq = zero(lanes(b.rows[mapping[p]]) ^ values)
            clash |= eq & assigned & ~owned[p]
            owned[p] |= eq
            assigned |= eq
    # the first failing chamber is the lowest failing lane
    bad = hi & ~assigned | clash & ~down
    if bad:
        c = ((bad & -bad).bit_length() - 1) // bits
        if assigned >> c * bits + bits - 1 & 1:
            raise PreconditionFailed(f"panel choice changes the value at chamber {c}")
        raise PreconditionFailed(f"no panel of f^op_{c} of type {s}")
    moved = lanes(table.left_rows[s](row))
    sel = {p: ((owned[p] | down) >> bits - 1) * full for p in marks}   # whole lanes
    return {p: table.unlanes(moved & S | values & ~S, b.n) for p, S in sel.items()}


@dataclass
class CodistanceAtlas:
    """The atlas of a codistance: its members are the chambers of B+, and
    ``panels`` holds, per generator, the member indices of each s-panel.
    ``plus`` is B+ itself, built once from ``panels``, and row c of
    ``minus_rows`` is delta*(c, member i) = g_i(c)^-1 over the members i."""

    building: Building
    members: list[Codistance]
    panels: list[list[tuple[int, ...]]]   # per generator, member-index panels
    origin: ClassVar[int] = 0             # the member index of the seed
    plus: Building = field(init=False, repr=False, compare=False)
    minus_rows: list[Sequence[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        table = self.building.weyl
        system = ChamberSystem(table, len(self.members), [sorted(fam) for fam in self.panels])
        self.plus = Building(system, name=self.building.name + "_plus")
        self.minus_rows = [table.pack(map(table.inverse.__getitem__, col))
                           for col in zip(*(g.values for g in self.members))]

    def residue_members(self, i: int, J: Iterable[int]) -> tuple[int, ...]:
        """Member indices J-connected to member i."""
        return self.plus.residue(i, J).members


def atlas_component(f: Codistance) -> CodistanceAtlas:
    """Close the seed codistance under the adjacent-codistance construction.

    For each member g and type s the s-panel is enumerated from the
    smallest-id panel of P_s^op(g); members are deduplicated by their value
    rows, and a row is validated only when it is new: a repeated row is a
    member validated when it joined, or the seed.  More than
    ``DEFAULT_ATLAS_CAP`` members raise ``CapExceeded``.
    """
    b = f.building
    rank = b.system.rank
    members: list[Codistance] = [f]
    index: dict[Sequence[int], int] = {f.values: 0}
    # per type s, the members already placed in an s-panel
    placed: list[set[int]] = [set() for _ in range(rank)]
    panels: list[list[tuple[int, ...]]] = [[] for _ in range(rank)]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        g = members[i]
        for s in range(rank):
            if i in placed[s]:
                continue
            ops = panels_op(g, s)
            if not ops:
                raise PreconditionFailed(
                    f"member {i} has an empty f^op: no {s}-panel meets it"
                )
            group = [i]
            for row in _adjacent_rows(g, s, ops[0]).values():
                j = index.get(row)
                if j is None:
                    h = _member(b, row)
                    j = len(members)
                    if j >= DEFAULT_ATLAS_CAP:
                        raise CapExceeded(f"atlas exceeds {DEFAULT_ATLAS_CAP} members")
                    members.append(h)
                    index[row] = j
                    queue.append(j)
                if j not in group:
                    group.append(j)
            group_t = tuple(sorted(group))
            panels[s].append(group_t)
            for j in group_t:
                # i has no s-panel yet and lies in group_t, so a j that has
                # one lies in a different panel
                if j in placed[s]:
                    raise TwinViolation(
                        f"member {j} falls into two distinct {s}-panels"
                    )
                placed[s].add(j)
    return CodistanceAtlas(building=b, members=members, panels=panels)


# -- alpha bijections ---------------------------------------------------------


def _mask(chambers: Iterable[int]) -> int:
    return sum(1 << c for c in chambers)


def _identity_masks(table: WeylTable, rows: Iterable[Sequence[int]]) -> list[int]:
    """Per row of Weyl ids, the bit mask of its positions holding the
    identity, read as binary digits off the row mapped to "1" and "0"."""
    digits = table.row_map(b"1".ljust(table.size, b"0"))
    return [int(bytes(digits(row))[::-1], 2) for row in rows]


def _fop_labels(atlas: CodistanceAtlas, J: Iterable[int]):
    """The map of member j to the J-residue index of each chamber of g_j^op,
    in ascending chamber order: the building's ``partition(J)`` index
    compressed by g_j's row mapped to 1 at the identity and 0 elsewhere
    (``WeylTable.identity_marks``)."""
    b = atlas.building
    index = b.partition(J)[1]
    marks = b.weyl.identity_marks
    members = atlas.members
    return lambda j: compress(index, marks(members[j].values))


def _alpha_kernel(atlas: CodistanceAtlas, J: frozenset, fop_masks: Sequence[int]):
    """The alpha test of type J, built once per J: ``pair(tilde, R)`` lists
    the witnesses of ``alpha_check`` for the atlas J-residue ``tilde`` and a
    J-residue R of B, the atlas's building, with ``fop_masks[j]`` member j's
    f^op as a bit mask.  alpha_j is ``proj_f(g_j, R)``, the unique chamber
    of R of longest g_j-value; opposition compares the masks of g_j^op
    within R and of ``opposite_set(b, R, alpha_j)``, built when alpha_j is
    first an image, so one pair costs O(|tilde| |R|).  For J = {s}, tilde
    and R are s-panels and sbar = s, so adjacency holds; it is compared for
    |J| > 1 only."""
    b = atlas.building
    table = b.weyl
    rJ = table.longest_element(J)
    members = atlas.members
    residue_mask = cache(_mask)
    opposite = [0] * b.n
    labels = [
        (s, atlas.plus.system.panel_of[s],
         b.system.panel_of[table.gen_index(table.conj_by(rJ, s))])
        for s in sorted(J)
    ] if len(J) > 1 else []

    def pair(tilde: tuple[int, ...], R: ResidueRef) -> list[tuple]:
        mask = residue_mask(R)
        images, wrong = [], []
        for j in tilde:
            a = proj_f(members[j], R)
            images.append(a)
            opp = opposite[a]
            if not opp:
                opp = opposite[a] = _mask(opposite_set(b, R, a))
            diff = fop_masks[j] & mask ^ opp
            if diff:
                wrong += [("opposition", j, c) for c in R.members if diff >> c & 1]
        witnesses: list[tuple] = []
        if sorted(images) != list(R.members):
            witnesses.append(("bijection", sorted(images)))
        # alpha matches adjacency when the s-panels of the members and the
        # sbar-panels of their images partition tilde alike: every member's
        # label of one kind agrees with that of the first member sharing its
        # label of the other kind
        for s, plus_panel, minus_panel in labels:
            first_plus: dict[int, tuple[int, int]] = {}
            first_minus: dict[int, tuple[int, int]] = {}
            for j, a in zip(tilde, images):
                lp, lm = plus_panel[j], minus_panel[a]
                jp, mp = first_plus.setdefault(lp, (j, lm))
                jm, pm = first_minus.setdefault(lm, (j, lp))
                if mp != lm:
                    j0 = jp
                elif pm != lp:
                    j0 = jm
                else:
                    continue
                witnesses.append(("adjacency", s, j0, j))
                break
        return witnesses + wrong

    return pair


def alpha_check(atlas: CodistanceAtlas, i: int, R: ResidueRef) -> list[tuple]:
    """Verify that h -> proj_R h is a bijection from the atlas J-residue of
    member i, J the type of R, onto R, a residue of the atlas's building in
    member i's f^op, matching adjacency through conjugation by r_J and
    opposition through distance r_J.

    Returns the witnesses of failure, empty when alpha passes: a
    ("bijection", images), one ("adjacency", s, j0, j) per failing type s,
    and each ("opposition", j, c).  An R of another building raises
    ``PreconditionFailed``."""
    if R.building is not atlas.building:
        raise PreconditionFailed("R is not a residue of the atlas's building")
    g = atlas.members[i]
    if not any(g.values[x] == 0 for x in R.members):
        raise PreconditionFailed("residue does not meet the member's f^op")
    tilde = atlas.residue_members(i, R.J)
    masks = _identity_masks(atlas.building.weyl, (atlas.members[j].values for j in tilde))
    return _alpha_kernel(atlas, R.J, dict(zip(tilde, masks)))(tilde, R)


def _panel_opposition(atlas: CodistanceAtlas, s: int, fop_masks: Sequence[int]) -> bool:
    """Whether alpha passes on every pair of an s-panel tilde of B+ and an
    s-panel R of B meeting the f^op of a member of tilde, decided per member.

    A gap of member j in R is a chamber of R outside g_j^op.  As delta(a, y)
    = s = r_{s} for a != y in R, ``opposite_set(b, R, a)`` is R minus {a}:
    ``pair(tilde, R)`` passes j exactly when R holds one gap of j, which is
    then ``proj_f(g_j, R)``, the one chamber of positive length; with none
    or two (as when g_j^op misses R), ``proj_f`` raises or the masks differ.
    The bijection needs the gaps of tilde's members distinct and covering R.
    With k = |tilde|: their f^op meet one set P of s-panels, each of k
    chambers; each f^op holds k - 1 chambers of each; and no chamber lies
    in every f^op (k gaps in k chambers are distinct iff they cover them)."""
    residues = atlas.building.partition((s,))[0]
    labels = _fop_labels(atlas, (s,))
    for tilde in atlas.panels[s]:
        k = len(tilde)
        counts = [Counter(labels(j)) for j in tilde]
        P = counts[0].keys()
        if (any(c.keys() != P or not set(c.values()) <= {k - 1} for c in counts)
                or not {len(residues[r]) for r in P} <= {k}
                or reduce(and_, map(fop_masks.__getitem__, tilde))):
            return False
    return True


def _check_opposition(atlas: CodistanceAtlas, fop_masks: Sequence[int]) -> bool:
    """Whether alpha passes on every pair of a J-residue tilde of B+ and a
    J-residue R of B meeting g^op for a member g of tilde, |J| in {1, 2}
    (|J| = 1 per member by ``_panel_opposition``), ``fop_masks[i]`` member
    i's f^op mask.  J = {} is not checked: R = {c} meets member i only, the
    bijection is i -> c, and opposition reduces to g(c) = 1, true as c is in g^op."""
    b = atlas.building
    rank = b.system.rank
    if not all(_panel_opposition(atlas, s, fop_masks) for s in range(rank)):
        return False
    try:
        for J in map(frozenset, combinations(range(rank), 2)):
            pair = _alpha_kernel(atlas, J, fop_masks)
            residues, labels = b.partition(J)[0], _fop_labels(atlas, J)
            if any(
                pair(tilde.members, residues[r])
                for tilde in atlas.plus.partition(J)[0]
                for r in set().union(*map(labels, tilde))
            ):
                return False
    except PreconditionFailed:
        return False  # a member of some tilde has no projection onto R
    return True


# -- twin assembly ------------------------------------------------------------


@dataclass
class TwinReport:
    building_ok: bool
    tw_axioms_ok: bool
    opposition_ok: bool
    plus_star_ok: bool
    diagram_ok: bool
    seed_ok: Optional[bool]   # None: no seed was given to compare with

    @property
    def ok(self) -> bool:
        return (
            self.building_ok and self.tw_axioms_ok and self.opposition_ok
            and self.plus_star_ok and self.diagram_ok and self.seed_ok is not False
        )


@dataclass
class TwinAssembly:
    atlas: CodistanceAtlas
    report: TwinReport

    @property
    def plus(self) -> Building:
        return self.atlas.plus

    def costar(self, i: int, c: int) -> int:
        """delta*(member i of B+, chamber c of B-)."""
        return self.atlas.members[i](c)


def _halves(atlas: CodistanceAtlas):
    """Each half X of the twin, the other half Y, and for every chamber x of
    X the row of Weyl ids delta*(x, -) on Y: the members' values for B+, and
    ``atlas.minus_rows`` for B-, the atlas's building."""
    return (
        (atlas.plus, atlas.building, [g.values for g in atlas.members]),
        (atlas.building, atlas.plus, atlas.minus_rows),
    )


def _check_tw_axioms(atlas: CodistanceAtlas) -> bool:
    """The twinning axioms (Tw2) and (Tw3) for delta*(g, c) = g(c), on both
    halves: every row of each half, as a map on the other half, must hold
    the panel axiom of ``validate_codistance``, the longer value marked.
    Each half is one table of rows, decided at once by ``panel_table``; only
    the verdict is reported, so no row is searched for its violation.  The
    row form, ``validate_codistance``, stays for a single codistance, as an
    atlas member when it joins: on one row the table form costs about ten
    times as much.

    On one s-panel, (Tw2) and (Tw3) at every chamber y are the panel axiom.
    Take y with the longest value u: (Tw3) gives another chamber at us, and
    maximality forces l(us) < l(u); (Tw2) at y then puts every other
    chamber at us.  So the values are u once and us elsewhere.  Conversely,
    if they are, (Tw2) at y holds, (Tw3) at y has a witness in any other
    chamber, and at every other chamber (Tw2) is void, since (us)s = u is
    longer, while y is the (Tw3) witness.
    """
    return all(panel_table(Y.system, rows, longer=True) for _, Y, rows in _halves(atlas))


def _check_plus_star(atlas: CodistanceAtlas, fop_masks: Sequence[int]) -> bool:
    """delta(x,y) = delta*(x,z) forces y, z opposite; equal opposition sets
    force equality.  Checked on both halves, x and y in one half X, z in the
    other; on B+, op(y) is member y's f^op mask, ``fop_masks[y]``.

    The first condition reads: for all x, y in X and z in the other half,
    delta*(x, z) = delta(x, y) implies delta*(y, z) = 1.  With Z_x(d) the
    bit mask of the z with delta*(x, z) = d, and op(y) = Z_y(1) that of the
    z opposite y, it says Z_x(delta(x, y)) <= op(y) for all x and y, which
    holds exactly when, for every y, the union over x of Z_x(delta(x, y))
    lies in op(y).  One pass over x builds that union for every y at once;
    every (x, y, z) triple is still covered, not a sample of them.
    """
    ops = (fop_masks, _identity_masks(atlas.building.weyl, atlas.minus_rows))
    for (X, Y, rows), op in zip(_halves(atlas), ops):
        size = X.weyl.size
        bits = [1 << z for z in range(Y.n)]
        need = [0] * X.n
        for row, dist in zip(rows, X.rows):
            Z = [0] * size
            for v, bit in zip(row, bits):
                Z[v] |= bit
            need = list(map(or_, need, map(Z.__getitem__, dist)))
        if len(set(op)) != len(op) or any(u & ~o for u, o in zip(need, op)):
            return False
    return True


def _gonality(b: Building, R: ResidueRef) -> Optional[int]:
    """Half the girth of the panel incidence graph of a rank-2 residue; its
    diameter must agree for a generalized m-gon.  Each chamber of R is the
    edge joining its s-panel and its t-panel; no two chambers share both.
    R is gallery-connected, so the graph is connected."""
    s, t = sorted(R.J)
    adj: dict[ResidueRef, list[ResidueRef]] = {}
    for c in R.members:
        P, Q = b.panel(c, s), b.panel(c, t)
        adj.setdefault(P, []).append(Q)
        adj.setdefault(Q, []).append(P)
    girth = None
    diameter = 0
    for src in adj:
        dist = {src: 0}
        parent = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] is not v:
                    cyc = dist[u] + dist[v] + 1
                    if girth is None or cyc < girth:
                        girth = cyc
        diameter = max(diameter, max(dist.values()))
    if girth is None or girth != 2 * diameter:
        return None
    return diameter


def assemble_twin(
    atlas: CodistanceAtlas, b: Building, seed: Optional[Codistance] = None
) -> TwinAssembly:
    """Verify the twinning of b, the atlas's building, and the atlas's B+
    exhaustively; a b that is not the atlas's building raises
    ``PreconditionFailed``.

    The assembly is returned whether or not its report passes; a failing
    check shows as a false flag of ``report``.
    """
    if b is not atlas.building:
        raise PreconditionFailed("b is not the atlas's building")
    fop_masks = _identity_masks(b.weyl, (g.values for g in atlas.members))
    report = TwinReport(
        building_ok=validate_building(atlas.plus).ok,
        tw_axioms_ok=_check_tw_axioms(atlas),
        opposition_ok=_check_opposition(atlas, fop_masks),
        plus_star_ok=_check_plus_star(atlas, fop_masks),
        diagram_ok=all(
            _gonality(X, R) == X.weyl.matrix.m[min(R.J)][max(R.J)]
            for X in (atlas.plus, b)
            for R in X.rank2_residues()
        ),
        seed_ok=None if seed is None else atlas.members[atlas.origin].values == seed.values,
    )
    return TwinAssembly(atlas=atlas, report=report)
