"""Galleries, 2-homotopy, connectivity verdicts, and residual filtrations.

Simple 2-connectivity is decided, never assumed: a nonzero abelianization
of the edge-path group is a sound Nontrivial certificate, a completed coset
enumeration is a sound order certificate, and anything else is reported as
Inconclusive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from sympy import Matrix
from sympy.combinatorics.fp_groups import FpGroup, coset_enumeration_r
from sympy.combinatorics.free_groups import free_group

from .chambersys import Building, ResidueRef
from .codistance import Codistance
from .errors import EndpointMismatch, NotConnected, TwinbuildError

PROVEN_TRIVIAL = "ProvenTrivial"
PROVEN_NONTRIVIAL = "ProvenNontrivial"
INCONCLUSIVE = "Inconclusive"

DEFAULT_COSET_CAP = 100_000


class FiltrationViolation(TwinbuildError):
    """A filtration axiom failed; carries (axiom, level, residue witness)."""

    def __init__(self, axiom: str, level: int, witness) -> None:
        super().__init__(f"{axiom} fails at level {level}: {witness}")
        self.axiom = axiom
        self.level = level
        self.witness = witness


@dataclass(frozen=True)
class Gallery:
    chambers: tuple[int, ...]
    types: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.chambers) != len(self.types) + 1:
            raise ValueError("need one type per step")

    @staticmethod
    def check(b: Building, chambers: Sequence[int], types: Sequence[int]) -> "Gallery":
        g = Gallery(tuple(chambers), tuple(types))
        for (x, y), s in zip(zip(chambers, chambers[1:]), types):
            if x != y and b.system.panel_of[s][x] != b.system.panel_of[s][y]:
                raise ValueError(f"{x} and {y} are not {s}-adjacent")
        return g

    @property
    def start(self) -> int:
        return self.chambers[0]

    @property
    def end(self) -> int:
        return self.chambers[-1]

    def __len__(self) -> int:
        return len(self.types)


@dataclass
class TrivialityVerdict:
    status: str
    certificate: Optional[object] = None

    @property
    def proven_trivial(self) -> bool:
        return self.status == PROVEN_TRIVIAL


def elementary_2_homotopic(G: Gallery, H: Gallery) -> bool:
    """Whether G = X G0 Y and H = X H0 Y with G0, H0 J-galleries, |J| <= 2,
    sharing endpoints."""
    kg, kh = len(G), len(H)
    for p in range(min(kg, kh) + 1):
        if G.chambers[:p + 1] != H.chambers[:p + 1] or G.types[:p] != H.types[:p]:
            break
        for q in range(min(kg, kh) - p + 1):
            if q and (
                G.chambers[kg - q:] != H.chambers[kh - q:]
                or G.types[kg - q:] != H.types[kh - q:]
            ):
                break
            if G.chambers[kg - q] != H.chambers[kh - q]:
                continue
            mid_types = set(G.types[p:kg - q]) | set(H.types[p:kh - q])
            if len(mid_types) <= 2:
                return True
    return False


def _j_galleries(b: Building, start: int, end: int, J: tuple[int, ...], maxlen: int):
    """All stutter-free J-galleries from start to end of length <= maxlen."""
    out = []
    stack = [((start,), ())]
    while stack:
        chambers, types = stack.pop()
        if chambers[-1] == end:
            out.append((chambers, types))
        if len(types) == maxlen:
            continue
        cur = chambers[-1]
        for s in J:
            for z in b.system.panel_members(cur, s):
                if z != cur:
                    stack.append((chambers + (z,), types + (s,)))
    return out


def two_homotopic(
    G: Gallery, H: Gallery, bound: int = 2000, b: Optional[Building] = None,
    max_replace: int = 6,
) -> TrivialityVerdict:
    """Bounded BFS over elementary 2-homotopies from G towards H."""
    if b is None:
        raise ValueError("building required")
    if (G.start, G.end) != (H.start, H.end):
        raise EndpointMismatch("galleries must share endpoints")
    gens = list(range(b.system.rank))
    start = (G.chambers, G.types)
    target = (H.chambers, H.types)
    if start == target:
        return TrivialityVerdict(PROVEN_TRIVIAL, certificate=0)
    seen = {start}
    queue = deque([start])
    while queue and len(seen) <= bound:
        chambers, types = queue.popleft()
        k = len(types)
        for p in range(k + 1):
            for r in range(p, k + 1):
                seg_types = set(types[p:r])
                if len(seg_types) > 2:
                    continue
                js: list[tuple[int, ...]] = []
                if len(seg_types) == 2:
                    js = [tuple(sorted(seg_types))]
                else:
                    base = tuple(seg_types)
                    js = [tuple(sorted(set(base) | {t})) for t in gens]
                    js = sorted(set(js))
                for J in js:
                    for rc, rt in _j_galleries(
                        b, chambers[p], chambers[r], J, max_replace
                    ):
                        cand = (
                            chambers[:p] + rc + chambers[r + 1:],
                            types[:p] + rt + types[r:],
                        )
                        if cand == target:
                            return TrivialityVerdict(
                                PROVEN_TRIVIAL, certificate=len(seen)
                            )
                        if cand not in seen:
                            seen.add(cand)
                            queue.append(cand)
    return TrivialityVerdict(INCONCLUSIVE, certificate=len(seen))


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


def connected(subset: Iterable[int], gens: Iterable[int], b: Building) -> bool:
    subset = frozenset(subset)
    parent = _bfs_forest(subset, _subset_edges(b, subset, gens))
    return sum(x == p for x, p in parent.items()) <= 1


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


def _presentation(b: Building, subset: frozenset):
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

    relators: set[tuple[tuple[int, int], ...]] = set()
    rank = b.system.rank
    type_sets: list[tuple[int, ...]] = [(s,) for s in range(rank)]
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
            rset = subset & set(R.chambers())
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


def simply_2_connected(
    subset: Iterable[int], b: Building, coset_cap: int = DEFAULT_COSET_CAP
) -> TrivialityVerdict:
    subset = frozenset(subset)
    if not subset:
        return TrivialityVerdict(PROVEN_TRIVIAL, certificate="empty")
    non_tree, relators = _presentation(b, subset)
    g = len(non_tree)
    if g == 0:
        return TrivialityVerdict(PROVEN_TRIVIAL, certificate="forest")
    # abelianization: cokernel of the exponent matrix
    rows = []
    for rel in relators:
        row = [0] * g
        for gen, exp in rel:
            row[gen] += exp
        rows.append(row)
    if not rows:
        return TrivialityVerdict(PROVEN_NONTRIVIAL, certificate=("free", g))
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(Matrix(rows))
    diag = [snf[i, i] for i in range(min(snf.shape))]
    nonzero = [d for d in diag if d != 0]
    if len(nonzero) < g or any(abs(d) != 1 for d in nonzero):
        invariants = [abs(d) for d in nonzero if abs(d) != 1]
        invariants += [0] * (g - len(nonzero))
        return TrivialityVerdict(
            PROVEN_NONTRIVIAL, certificate=("abelianization", invariants)
        )
    # abelianization trivial; attempt to certify triviality by coset enumeration
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


@dataclass
class OppositeSetEntry:
    residue_base: int
    J: tuple[int, ...]
    chamber: int
    verdict: TrivialityVerdict


@dataclass
class LocalConditionReport:
    ok: bool
    entries: list[OppositeSetEntry]

    def first_failure(self) -> Optional[OppositeSetEntry]:
        for e in self.entries:
            if not e.verdict.proven_trivial:
                return e
        return None


def opposite_set(b: Building, R: ResidueRef, x: int) -> frozenset:
    rJ = b.weyl.longest_element(R.J)
    return frozenset(y for y in R.chambers() if b.delta(x, y) == rJ)


def check_lco(b: Building) -> LocalConditionReport:
    """Condition (lco): opposite sets in rank-2 residues are connected."""
    entries: list[OppositeSetEntry] = []
    ok = True
    for R in b.rank2_residues():
        for x in R.chambers():
            opp = opposite_set(b, R, x)
            conn = connected(opp, R.J, b)
            verdict = TrivialityVerdict(
                PROVEN_TRIVIAL if conn else PROVEN_NONTRIVIAL,
                certificate=tuple(sorted(opp)),
            )
            if not conn:
                ok = False
                entries.append(OppositeSetEntry(R.base, tuple(sorted(R.J)), x, verdict))
    return LocalConditionReport(ok=ok, entries=sorted(
        entries, key=lambda e: (e.J, e.residue_base, e.chamber)
    ))


def check_lsco(b: Building, coset_cap: int = DEFAULT_COSET_CAP) -> LocalConditionReport:
    """Condition (lsco): opposite sets in rank-3 residues are simply
    2-connected."""
    entries: list[OppositeSetEntry] = []
    ok = True
    rank = b.system.rank
    triples = [
        frozenset((a, c, d))
        for a in range(rank)
        for c in range(a + 1, rank)
        for d in range(c + 1, rank)
    ]
    for J in triples:
        for R in b.residues_of_type(J):
            for x in R.chambers():
                opp = opposite_set(b, R, x)
                verdict = _simply_2_connected_within(b, R, opp, coset_cap)
                if not verdict.proven_trivial:
                    ok = False
                    entries.append(
                        OppositeSetEntry(R.base, tuple(sorted(R.J)), x, verdict)
                    )
    return LocalConditionReport(ok=ok, entries=sorted(
        entries, key=lambda e: (e.J, e.residue_base, e.chamber)
    ))


def _simply_2_connected_within(
    b: Building, R: ResidueRef, subset: frozenset, coset_cap: int
) -> TrivialityVerdict:
    """Simple 2-connectivity of ``subset`` as a chamber system over typ(R)."""
    if not subset:
        return TrivialityVerdict(PROVEN_NONTRIVIAL, certificate="empty")
    if not connected(subset, R.J, b):
        return TrivialityVerdict(
            PROVEN_NONTRIVIAL, certificate=("disconnected", tuple(sorted(subset)))
        )
    return simply_2_connected(subset, b, coset_cap=coset_cap)


# -- residual filtration -----------------------------------------------------


@dataclass
class Filtration:
    codistance: Codistance
    levels: list[frozenset]                  # C_0 .. C_max (C_max = all chambers)
    witnesses: dict[int, int] = field(default_factory=dict)  # level -> generator

    def level_of(self, c: int) -> int:
        return self.codistance(c)  # ShortLex id doubles as the injection value


def residual_filtration(f: Codistance, validate: bool = True) -> Filtration:
    """The level sets C_n = {x : |f(x)| <= n} for the ShortLex injection.

    Validates (F1)-(F3) globally and residually and the identities
    C_0 = f^op and aff(R) = A_f(R) when ``validate`` is set.
    """
    b = f.building
    table = b.weyl
    top = max(f.values)
    levels = [
        frozenset(c for c, v in enumerate(f.values) if v <= n)
        for n in range(top + 1)
    ]
    filt = Filtration(codistance=f, levels=levels)
    if not validate:
        return filt
    if set(f.fop()) != levels[0]:
        raise FiltrationViolation("C0=fop", 0, tuple(sorted(levels[0])))
    for n in range(1, len(levels)):
        if not levels[n - 1] <= levels[n]:
            raise FiltrationViolation("F1", n, None)
    if levels[-1] != frozenset(range(b.n)):
        raise FiltrationViolation("F2", len(levels) - 1, None)

    rank = b.system.rank
    subsets = []
    for mask in range(1, 1 << rank):
        subsets.append(frozenset(s for s in range(rank) if mask & (1 << s)))

    def f3_witness(chambers: tuple[int, ...], J: frozenset, n: int) -> Optional[int]:
        cur = [c for c in chambers if f.values[c] <= n]
        prev = {c for c in chambers if f.values[c] <= n - 1}
        for t in sorted(J):
            if all(
                any(z in prev for z in b.system.panel_members(c, t))
                for c in cur
            ):
                return t
        return None

    for J in subsets:
        for R in b.residues_of_type(J):
            chambers = R.chambers()
            ids = sorted(f.values[c] for c in chambers)
            minlevel = ids[0]
            # aff(R) = A_f(R): minimal-level chambers are the minimal-f-length ones
            aff = {c for c in chambers if f.values[c] == minlevel}
            lmin = min(table.length[f.values[c]] for c in chambers)
            afr = {c for c in chambers if table.length[f.values[c]] == lmin}
            if aff != afr:
                raise FiltrationViolation("aff=A_f", minlevel, (tuple(J), R.base))
            for n in range(1, len(levels)):
                prev = [c for c in chambers if f.values[c] <= n - 1]
                cur = [c for c in chambers if f.values[c] <= n]
                if not prev:
                    continue
                if not cur:
                    continue
                t = f3_witness(chambers, J, n)
                if t is None:
                    raise FiltrationViolation("F3", n, (tuple(sorted(J)), R.base))
                if J == frozenset(range(rank)):
                    filt.witnesses[n] = t
    return filt
