"""Finite chamber systems and W-metric buildings.

A Building wraps a ChamberSystem together with the Weyl-valued distance
delta computed from minimal galleries.  Each residue is one interned
ResidueRef of three fields, its building, its type J and its chambers in
ascending order (``members``, whose first is its ``base``), kept in the
partition of its type J: the J-residues by least chamber and a chamber ->
residue-index list, built in one sweep when J is first asked for.  The
delta table is computed eagerly, as validation reads every row, one row
per chamber packed by ``WeylTable.pack``: row 0 by breadth-first search,
which checks that the chamber system is gallery-connected, the rest from
two known rows by WD2 (``Building._derive_rows``), or by a search where no
rule applies: 21 rows of 315 on pg3(2), 83 of 2,080 on pg3(3), row 0 alone
on a thin building; a chamber system that row 0 does not reach throughout
raises ``NotConnected``.  The opposite set of a chamber x in a J-residue R,
the chambers of R at distance r_J from x, is read off x's delta row
(``opposite_set``): the local conditions, the panel calculus and the alpha
test all read it there.
Building validation is the Bu1-Bu3 pass of ``validate_building``; those
axioms imply that delta is symmetric and that its length is the gallery distance.

The panel axiom has two forms.  ``panel_axiom`` decides it on one row of
Weyl ids; ``panel_table`` decides it on a table of rows at once, reading
the table by column slices, a bounded block of rows at a time.  The table
form serves where every row of a table is checked: the accept path of
``validate_building`` and the twin's (Tw2)/(Tw3) check on each half.  The
row form stays for a single codistance (``validate_codistance``): on one
row the table form costs about ten times as much.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations, compress, islice, repeat
from operator import getitem, itemgetter, methodcaller, or_
from typing import Iterable, Optional, Sequence

from .coxeter import WeylTable
from .errors import NotConnected, NotInResidue


@dataclass
class ChamberSystem:
    """Chambers 0..n-1 with one panel partition per generator."""

    weyl: WeylTable
    n: int
    panels: list[list[tuple[int, ...]]]       # per generator: panels, in input order
    panel_of: list[list[int]] = field(init=False)  # per generator: chamber -> panel idx
    # per chamber: (s, d) for every d != c adjacent to c, by type, then by panel order
    adjacency: list[tuple[tuple[int, int], ...]] = field(init=False, repr=False)
    # per generator: gathers, for each chamber, the next chamber of its panel,
    # cyclically (a tuple, as a panel has at least 2 chambers)
    successors: list[itemgetter] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rank = self.weyl.rank
        if self.n < 1:
            raise ValueError(f"a chamber system needs a chamber, got {self.n}")
        if len(self.panels) != rank:
            raise ValueError("one panel family per generator required")
        self.panel_of = []
        for s in range(rank):
            # a partition lists n ids, and n distinct ids in range cover every
            # chamber; counting first allocates nothing for a huge declared n
            count = sum(len(p) for p in self.panels[s])
            if count != self.n:
                raise ValueError(f"panels of type {s} hold {count} chamber ids, not {self.n}")
            owner = [-1] * self.n
            for idx, p in enumerate(self.panels[s]):
                if len(p) < 2:
                    raise ValueError(f"panel {p} of type {s} has fewer than 2 chambers")
                for c in p:
                    if not 0 <= c < self.n:
                        raise ValueError(f"chamber id {c} out of range")
                    if owner[c] != -1:
                        raise ValueError(f"chamber {c} in two panels of type {s}")
                    owner[c] = idx
            self.panel_of.append(owner)
        # chamber-system axiom: distinct chambers adjacent for one type only,
        # that is, no two share an s-panel and a t-panel, t < s.  The witness
        # is the least pair of places (i, j), i < j, in the first s-panel p
        # that has one; p[i] is then the first of its t-panel in p, so one
        # pass over p per t lists every candidate.
        for s in range(1, rank):
            for p in self.panels[s]:
                pairs = []
                for owner in self.panel_of[:s]:
                    first: dict[int, int] = {}
                    for j, c in enumerate(p):
                        i = first.setdefault(owner[c], j)
                        if i != j:
                            pairs.append((i, j))
                if pairs:
                    i, j = min(pairs)
                    a, b = p[i], p[j]
                    prev = next(t for t in range(s)
                                if self.panel_of[t][a] == self.panel_of[t][b])
                    raise ValueError(f"chambers {a},{b} adjacent for types {prev} and {s}")
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        nxt = [[0] * self.n for _ in range(rank)]
        for s in range(rank):
            for p in self.panels[s]:
                for c, d in zip(p, p[1:] + p[:1]):
                    adjacency[c].extend((s, e) for e in p if e != c)
                    nxt[s][c] = d
        self.adjacency = [tuple(a) for a in adjacency]
        self.successors = [itemgetter(*row) for row in nxt]

    @property
    def rank(self) -> int:
        return self.weyl.rank

    def panel_members(self, c: int, s: int) -> tuple[int, ...]:
        return self.panels[s][self.panel_of[s][c]]

    def is_thick(self) -> bool:
        return all(len(p) >= 3 for fam in self.panels for p in fam)


@dataclass(frozen=True, eq=False)
class ResidueRef:
    """A J-residue of ``building``: its fields are the building, the type J
    and its chambers in ascending order, ``members``; ``base``, its least
    chamber, is ``members[0]``.

    ``Building.partition`` is the only place a ResidueRef is made, and it
    makes one per residue, returned for every chamber of it.  So a
    ResidueRef is the residue's interned id: equality and hashing are object
    identity, and refs of different Building objects are never equal.
    """

    building: "Building"
    J: frozenset[int]
    members: tuple[int, ...] = field(repr=False)

    @property
    def base(self) -> int:
        return self.members[0]

    def __contains__(self, c: int) -> bool:
        return c in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


@dataclass
class AxiomViolation:
    axiom: str
    witness: tuple
    detail: str


@dataclass
class BuildingReport:
    violation: Optional[AxiomViolation]   # the first violation found, if any

    @property
    def ok(self) -> bool:
        return self.violation is None


class Building:
    """A finite building: chamber system plus W-valued distance."""

    def __init__(self, system: ChamberSystem, name: str = "building") -> None:
        self.system = system
        self.weyl = system.weyl
        self.name = name
        self.n = system.n
        # J -> (the J-residues by base, chamber -> index of its J-residue)
        self._partitions: dict[frozenset, tuple[list[ResidueRef], list[int]]] = {}
        # rows[x][y] = delta(x, y); every row reaches every chamber once row 0
        # does, so connectivity is checked on row 0 alone, before packing
        row0 = self._compute_row(0)
        if -1 in row0:
            raise NotConnected("chamber system not gallery-connected from 0")
        self.rows = self._derive_rows(row0)

    # -- distance ----------------------------------------------------------

    def _derive_rows(self, row0: list[int]) -> list[Sequence[int]]:
        """Every delta row, row 0 given, each from two known rows by a rule
        of WD2 (Abramenko-Brown, *Buildings*, 5.1): for y ~s x, delta(y, z)
        is w = delta(x, z) or sw, and sw if s does not shorten w.  (a) If all
        of y's s-panel x1, x2, ... but y have rows, delta(y, z) = s.w1 where
        they agree at z or s does not shorten w1 = delta(x1, z), else w1.
        (b) If y ~s x and y ~t x' have rows, t != s, delta(y, z) = w where w
        is w' or tw', else sw: it lies in {w, sw} and in {w', tw'}, which
        meet once, as equal sets would force s = t or ts = 1.  Each rule is
        one lane blend; where neither applies, ``_compute_row`` searches.

        Rows that pass Bu1-Bu3 are the gallery distance (``validate_building``,
        (i)-(ii)), as searched rows are on a building; so ``validate_building``
        accepts these rows exactly when it accepts searched ones, and on a
        building the two are equal.

        Neither rule applies in rank 1, where row 0 reaching every chamber
        makes the system one panel: there delta(y, z) = s for z != y, and
        each row is written down directly."""
        table, system = self.weyl, self.system
        n, bits, lanes, rank = self.n, table.lane_bits, table.lanes, table.rank
        if rank == 1:
            line, one = table.pack([table.gen(0)] * n), table.pack([0])
            return [line[:y] + one + line[y + 1:] for y in range(n)]
        full, hi, zero = table.lane_masks(n)
        rows: list = [None] * n
        first = [-1] * n          # per chamber: rank * (a neighbour with a row) + its type
        waiting = bytearray(n)    # 1 where first is set and the row is not

        c = 0   # derive each row as soon as a rule applies; else search the least waiting
        while c >= 0:
            rows[c], waiting[c] = table.pack(self._compute_row(c) if c else row0), 0
            for x in (queue := [c]):
                for s, y in system.adjacency[x]:
                    if rows[y] is not None:
                        continue
                    near = [rows[z] for z in system.panels[s][system.panel_of[s][y]] if z != y]
                    if None not in near:   # (a), near[0] = delta(x1, -)
                        row, w = near[0], lanes(near[0])
                        apart = reduce(or_, [w ^ lanes(r) for r in near[1:]], 0)
                        sel = zero(apart) | hi & ~(lanes(table.down_rows[s](row)) << bits - 1)
                    elif first[y] >= 0 and first[y] % rank != s:   # (b)
                        row, w, (x2, t) = rows[x], lanes(rows[x]), divmod(first[y], rank)
                        moved2 = lanes(table.left_rows[t](rows[x2]))
                        sel = hi & ~(zero(w ^ lanes(rows[x2])) | zero(w ^ moved2))
                    else:
                        first[y], waiting[y] = rank * x + s, 1
                        continue
                    S, moved = (sel >> bits - 1) * full, lanes(table.left_rows[s](row))
                    rows[y], waiting[y] = table.unlanes(moved & S | w & ~S, n), 0
                    queue.append(y)
            c = waiting.find(1)
        return rows

    def _compute_row(self, x: int) -> list[int]:
        right = self.weyl.right
        adjacency = self.system.adjacency
        row = [-1] * self.n
        row[x] = 0
        queue = deque([x])
        while queue:
            y = queue.popleft()
            w = row[y]
            for s, z in adjacency[y]:
                if row[z] == -1:
                    row[z] = right[w][s]
                    queue.append(z)
        return row

    def delta(self, x: int, y: int) -> int:
        return self.rows[x][y]

    # -- residues ----------------------------------------------------------

    def partition(self, J: Iterable[int]) -> tuple[list[ResidueRef], list[int]]:
        """The J-residues in ascending order of their least chamber, and for
        each chamber the index of its J-residue; built once per J.

        The sweep meets each residue first at its least chamber, which no
        earlier residue has labelled, and labels the rest of it from there."""
        J = frozenset(J)
        part = self._partitions.get(J)
        if part is None:
            residues: list[ResidueRef] = []
            index = [-1] * self.n
            for c in range(self.n):
                if index[c] == -1:
                    index[c] = len(residues)
                    members = [c]
                    for y in members:
                        for s, z in self.system.adjacency[y]:
                            if s in J and index[z] == -1:
                                index[z] = index[c]
                                members.append(z)
                    members.sort()
                    residues.append(ResidueRef(self, J, tuple(members)))
            part = self._partitions[J] = (residues, index)
        return part

    def residue(self, c: int, J: Iterable[int]) -> ResidueRef:
        residues, index = self.partition(J)
        return residues[index[c]]

    def panel(self, c: int, s: int) -> ResidueRef:
        return self.residue(c, (s,))

    def rank2_residues(self) -> list[ResidueRef]:
        return [
            R for J in combinations(range(self.weyl.rank), 2)
            for R in self.residues_of_type(J)
        ]

    def residues_of_type(self, J: Iterable[int]) -> list[ResidueRef]:
        """The J-residues in ascending order of their least chamber."""
        return list(self.partition(J)[0])

    # -- projections -------------------------------------------------------

    def proj_chamber(self, R: ResidueRef, c: int) -> int:
        lengths = self.weyl.length
        row = self.rows[c]
        best = -1
        best_l = None
        for x in R.members:
            l = lengths[row[x]]
            if best_l is None or l < best_l:
                best, best_l = x, l
        return best

    def proj_residue(self, R: ResidueRef, Q: ResidueRef) -> ResidueRef:
        """The residue proj_R Q; its type is the set of letters of
        delta(image[0], y) over the image, as y lies in the J-residue of x
        exactly when delta(x, y) is in W_J."""
        image = tuple(sorted({self.proj_chamber(R, x) for x in Q.members}))
        row, word = self.rows[image[0]], self.weyl.word
        J = set().union(*[word[row[y]] for y in image])
        ref = self.residue(image[0], J)
        if ref.members != image:
            raise NotInResidue(
                f"projection image {list(image)} is not a single {sorted(J)}-residue"
            )
        return ref

    def are_parallel(self, R1: ResidueRef, R2: ResidueRef) -> bool:
        """Whether R1 and R2 are parallel: proj_R2 maps R1 bijectively onto
        R2, with inverse proj_R1.

        proj_R1 . proj_R2 = id on R1 makes proj_R2 injective on R1, so with
        equal sizes it is a bijection onto R2 whose inverse is proj_R1.
        Adjacency needs no check: a projection maps each panel onto a panel
        or onto one chamber (Abramenko-Brown, *Buildings*, Ch. 5), and an
        injective one onto a panel.
        """
        return len(R1) == len(R2) and all(
            self.proj_chamber(R1, self.proj_chamber(R2, x)) == x for x in R1
        )


def opposite_set(b: Building, R: ResidueRef, x: int) -> frozenset:
    """The chambers of R at distance r_J from x, J the type of R."""
    rJ, row = b.weyl.longest_element(R.J), b.rows[x]
    return frozenset(y for y in R.members if row[y] == rJ)


def panel_axiom(
    system: ChamberSystem, values: Sequence[int], s: int, longer: bool
) -> bool:
    """Whether every s-panel holds exactly two values u and us, one of them
    attained once: the longer if ``longer``, else the shorter.

    The successor gather fixes the floors (the shorter of v and vs) exactly
    when they are constant on each panel, which puts each panel's values in
    {u, us} for its floor u.  The marked chambers, those holding the longer
    (or the shorter) value, meet each panel once exactly when they are as
    many as the panels and lie in distinct ones.  A panel has at least 2
    chambers, so it then holds both values; the converse is plain.  Both
    rows are whole-row maps of the packed row (``WeylTable.row_map``)."""
    table = system.weyl
    values = table.pack(values)
    floors = table.floor_rows[s](values)
    if table.pack(system.successors[s](floors)) != floors:
        return False
    marked = list(compress(system.panel_of[s], table.mark_rows[s][longer](values)))
    return len(marked) == len(system.panels[s]) == len(set(marked))


_TABLE_ROWS = 128   # rows ``panel_table`` joins at once


def panel_table(system: ChamberSystem, rows: Iterable[Sequence[int]], longer: bool) -> bool:
    """Whether ``panel_axiom`` holds on every row of ``rows`` for every type,
    decided on the table at once: per type and block of at most
    ``_TABLE_ROWS`` rows, O(n) C-level operations, not O(n) Python steps
    per row.

    The packed rows of a block are joined, and column c, chamber c's values
    down the block, is the slice ``joined[c::n]``.  The floors are constant
    on each panel in every row exactly when each floor column equals its
    successor's.  The marks are 0 or 1, so a mark column read as one int of
    byte lanes, lane x for row x, holds row x's mark at chamber c.  A panel
    holds one mark per row exactly when its mark columns OR to a 1 in every
    lane, given that the block holds one mark per row and panel in all: at
    least one in each, as many as there are pairs.  An OR carries nothing
    from lane to lane, so panels of any size are read alike.

    At most ``_TABLE_ROWS`` rows are joined at once, so the transient memory
    is O(n) per row whatever the table's length.  On one row the table form
    costs about ten times ``panel_axiom`` on every type, which stays the
    form that ``validate_codistance`` calls on a single codistance."""
    table, n = system.weyl, system.n
    join = b"".join if table.pack is bytes else lambda block: tuple(chain.from_iterable(block))
    columns = [slice(c, None, n) for c in range(n)]
    rows = map(table.pack, rows)
    while block := list(islice(rows, _TABLE_ROWS)):
        joined, ones = join(block), int.from_bytes(b"\1" * len(block), "little")
        for s, panels in enumerate(system.panels):
            floors = tuple(map(table.floor_rows[s](joined).__getitem__, columns))
            if system.successors[s](floors) != floors:
                return False
            del floors   # one set of columns at a time: about half the peak
            marks = bytes(table.mark_rows[s][longer](joined))
            lanes = list(map(int.from_bytes, map(marks.__getitem__, columns), repeat("little")))
            if marks.count(1) != len(block) * len(panels) or any(
                    reduce(or_, map(lanes.__getitem__, p)) != ones for p in panels):
                return False
            del marks, lanes
    return True


def validate_building(b: Building) -> BuildingReport:
    """Exhaustively verify axioms Bu1-Bu3 on every (x, y, s); the report
    carries the first violation found.

    The whole table passes at once when its diagonal is the identity and it
    holds n identities in all, which is Bu1, and ``panel_table`` accepts its
    rows, the shorter value marked.  A table refused is searched row by row,
    as the table form gives a verdict and no witness, and the report names
    the first violation in row order: a row x passes at once when
    delta(x, -) is 1 at x alone and ``panel_axiom`` holds on it for every
    s; any other row is searched test by test, in order, for the violation.
    On an s-panel P either accept is Bu2 and Bu3 at every y in P: at y of
    shortest value u, Bu3 gives a chamber at us, longer by minimality, and
    Bu2 puts us at every other chamber.  Conversely, if P holds u at y alone
    and us elsewhere, Bu2 and Bu3 hold at y, and at any other chamber every
    value is w = us or ws = u, with y the Bu3 witness.

    These W-metric axioms imply that delta is symmetric and that l(delta)
    is the gallery distance d, so neither is checked apart:
    (i) by Bu2, l(delta(x, -)) changes by at most 1 across an edge; if
    w = delta(x, y) != 1 has a descent s, Bu3 gives an s-neighbour of y one
    shorter; Bu1 says delta(x, y) = 1 only at y = x; so l(delta(x, y)) = d(x, y).
    (ii) along a minimal gallery of types s1...sk from x to y, (i) and Bu2
    give delta(x, y) = s1...sk; the reversed gallery is minimal from y, so
    delta(y, x) = delta(x, y)^-1.
    """
    table = b.weyl
    lengths = table.length
    right = table.right
    rows = b.rows
    gens = range(b.system.rank)
    panels = b.system.panels
    panel_of = b.system.panel_of

    def fail(axiom: str, witness: tuple, detail: str) -> BuildingReport:
        return BuildingReport(AxiomViolation(axiom, witness, detail))

    if (not any(map(getitem, rows, range(b.n)))
            and sum(map(methodcaller("count", 0), rows)) == b.n
            and panel_table(b.system, rows, longer=False)):
        return BuildingReport(None)
    for x, row in enumerate(rows):
        if row[x] == 0 and row.count(0) == 1 and all(
            panel_axiom(b.system, row, s, longer=False) for s in gens
        ):
            continue
        for y, w in enumerate(row):
            if (w == 0) != (x == y):
                return fail("Bu1", (x, y), f"delta={table.word_str(w)}")
            for s in gens:
                ws = right[w][s]
                up = lengths[ws] == lengths[w] + 1
                found_ws = False
                for z in panels[s][panel_of[s][y]]:
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
    return BuildingReport(None)
