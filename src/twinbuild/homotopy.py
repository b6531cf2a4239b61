"""Connectivity verdicts, the local conditions (lco) and (lsco), and residual
filtrations.

Simple 2-connectivity is decided, never assumed, on the edge-path group
presentation of a chamber subset with each component of its two least edge
types contracted by Tietze moves (``_presentation``; a connected subset of
rank <= 2 keeps no generator), in three steps that each certify only what
they prove: a kill closure that kills every generator proves the group
trivial (certificate: the kill order, each kill with its original relator);
otherwise, with the killed letters deleted, a nonzero abelianization, read
off an integer Smith normal form, proves it nontrivial (certificate: the
abelianization invariants); otherwise a completed coset enumeration over the
trivial subgroup gives its order (certificate: the coset count). An
enumeration that reaches its cap is reported as Inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import gcd
from typing import Container, Iterable, Optional, Sequence

from .chambersys import Building, ResidueRef
from .codistance import Codistance
from .coxeter import coset_table
from .errors import CapExceeded, NotConnected, TwinbuildError

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


@dataclass
class TrivialityVerdict:
    status: str
    certificate: Optional[object] = None


def _neighbours(b: Building, subset: frozenset) -> dict[int, list[tuple[int, int]]]:
    """For each chamber of ``subset``, in ascending order, its (neighbour,
    type) pairs inside ``subset`` in ascending id, read off the chamber
    system's adjacency (two chambers are adjacent for one type only): each
    chamber of the sorted subset is appended to the lists of its neighbours."""
    adj = b.system.adjacency
    nbrs: dict[int, list[tuple[int, int]]] = {x: [] for x in sorted(subset)}
    for x in nbrs:
        for s, y in adj[x]:
            if y in subset:
                nbrs[y].append((x, s))
    return nbrs


def _components(nbrs: dict[int, list[tuple[int, int]]], J: Container[int]) -> dict[int, list[int]]:
    """The components of the J-typed edges, each under its least chamber and
    in breadth-first order, roots and neighbours taken in ascending order."""
    seen: set[int] = set()
    comps: dict[int, list[int]] = {}
    for root in nbrs:
        if root in seen:
            continue
        seen.add(root)
        queue = comps[root] = [root]
        for x in queue:
            for y, s in nbrs[x]:
                if s in J and y not in seen:
                    seen.add(y)
                    queue.append(y)
    return comps


def connected(subset: Iterable[int], gens: Iterable[int], b: Building) -> bool:
    return len(_components(_neighbours(b, frozenset(subset)), frozenset(gens))) <= 1


def _cycles(nbrs: dict[int, list[tuple[int, int]]], J: Container[int], letter: dict):
    """The words of the fundamental cycles root -> a, (a, c), c -> root of the
    breadth-first J-forest (as ``_components`` grows it), one per edge a < c
    off it, built from each chamber's path word from its root (pot).  A word
    is w C w^-1, w the letters of the path from the root to the cycle and C
    those of the cycle, which passes each edge once; each letter names its
    own edge, so no letters cancel unless C is empty, that is when a and c
    have equal pot words and (a, c) reads empty: such a word is skipped."""
    pot: dict[int, tuple] = {}
    for root in nbrs:
        if root in pot:
            continue
        pot[root] = ()
        queue = [(root, root)]
        for x, up in queue:
            px = pot[x]
            for y, s in nbrs[x]:
                if s not in J:
                    continue
                if y not in pot:
                    pot[y] = px + letter.get((x, y), ())
                    queue.append((y, x))
                elif x < y and y != up and ((x, y) in letter or px != pot[y]):
                    yield px + letter.get((x, y), ()) + tuple(a ^ 1 for a in reversed(pot[y]))


def _presentation(b: Building, subset: frozenset):
    """Edge-path group presentation of the 2-complex on ``subset``, after
    Tietze moves.

    1-skeleton: the adjacency graph; 2-cells: for each type set J with
    |J| <= 2, the fundamental cycles of a BFS forest of the J-typed edges,
    the cycles of each rank <= 2 residue's restriction to the subset.  Let
    J0 be the two least types that label an edge, and let the spanning tree
    T extend the J0-forest by a breadth-first tree of the quotient graph
    (the J0-components, joined by the other edges).  Against T, the J0 cell
    of a J0 edge off T is that edge's letter alone, so a Tietze move deletes
    the two; then every J0 edge reads empty and the J0 cells drop out, as do
    the rank-1 cells, each a cycle of a pair holding its type.  Left: the
    other edges off T, and the ``_cycles`` words of each pair not inside J0.
    In rank <= 2, J0 holds every type: a connected subset keeps no generator.

    Relators are words of int letters: the non-tree edge i is the generator
    i, crossed forward (from its smaller chamber) as 2i + 1 and backward as
    2i, so ``a >> 1`` is the generator of letter a and ``a ^ 1`` its inverse.
    """
    nbrs = _neighbours(b, subset)
    J0 = sorted({s for row in nbrs.values() for _, s in row})[:2]
    members = _components(nbrs, J0)
    comp = {x: r for r, xs in members.items() for x in xs}
    # T's other edges: the first edge into each component not yet reached
    tree: set[tuple[int, int]] = set()
    queue = members.pop(min(subset)) if subset else []
    for x in queue:
        for y, _ in nbrs[x]:
            if comp[y] in members:
                tree.add((min(x, y), max(x, y)))
                queue.extend(members.pop(comp[y]))
    if members:
        raise NotConnected("subset is not gallery-connected")
    # letter[x, y]: the word of an edge x -> y off T of no type in J0
    non_tree: list[tuple[int, int]] = []
    letter: dict[tuple[int, int], tuple] = {}
    for x, row in nbrs.items():
        for y, s in row:
            if x < y and s not in J0 and (x, y) not in tree:
                letter[x, y] = (2 * len(non_tree) + 1,)
                letter[y, x] = (2 * len(non_tree),)
                non_tree.append((x, y))
    pairs = [J for J in combinations(range(b.system.rank), 2) if not set(J) <= set(J0)]
    return non_tree, sorted({w for J in pairs for w in _cycles(nbrs, J, letter)})


def simply_2_connected(subset: Iterable[int], b: Building) -> TrivialityVerdict:
    subset = frozenset(subset)
    if not subset:
        return TrivialityVerdict(PROVEN_TRIVIAL, certificate="empty")
    non_tree, relators = _presentation(b, subset)
    if not non_tree:
        return TrivialityVerdict(PROVEN_TRIVIAL, certificate="forest")
    return _decide(len(non_tree), relators, DEFAULT_COSET_CAP)


def _decide(ngens: int, words: Sequence[tuple[int, ...]], coset_cap: int) -> TrivialityVerdict:
    """Whether the group on ``ngens`` generators with the relators ``words``,
    in ``_presentation``'s letters, is trivial: the kill closure, then Smith
    and coset enumeration on the words left once the killed letters, trivial
    in the group, are deleted.  An elimination certificate names each kill's
    relator as (generator, exponent) pairs."""
    killed = _closure(words)
    if len(killed) == ngens:
        certificate = tuple((g, tuple((a >> 1, 1 if a & 1 else -1) for a in words[i]))
                            for g, i in killed.items())
        return TrivialityVerdict(PROVEN_TRIVIAL, certificate=("elimination", certificate))
    gens = [g for g in range(ngens) if g not in killed]
    words = [w for w in (
        _cyclic_reduce(a for a in word if a >> 1 not in killed) for word in words
    ) if w]
    if not words:
        return TrivialityVerdict(PROVEN_NONTRIVIAL, certificate=("free", len(gens)))
    rows = []
    for word in words:
        row: dict[int, int] = {}
        for a in word:
            row[a >> 1] = row.get(a >> 1, 0) + (1 if a & 1 else -1)
        rows.append({g: v for g, v in row.items() if v})
    factors = _smith_invariants(rows)
    if len(factors) < len(gens) or factors[-1] != 1:
        invariants = [d for d in factors if d != 1]
        invariants += [0] * (len(gens) - len(factors))
        return TrivialityVerdict(
            PROVEN_NONTRIVIAL, certificate=("abelianization", invariants)
        )
    # coset_table writes generator g as 2g and its inverse as 2g + 1
    column = {g: i for i, g in enumerate(gens)}
    words = [tuple(2 * column[a >> 1] + (~a & 1) for a in word) for word in words]
    try:
        n = len(coset_table(len(gens), words, coset_cap))
    except CapExceeded:
        return TrivialityVerdict(INCONCLUSIVE, certificate=("coset-cap", coset_cap))
    if n == 1:
        return TrivialityVerdict(PROVEN_TRIVIAL, certificate=("cosets", 1))
    return TrivialityVerdict(PROVEN_NONTRIVIAL, certificate=("order", n))


def _closure(words: Sequence[tuple[int, ...]]) -> dict[int, int]:
    """The generators the relators ``words`` kill, in kill order, each with
    the index of the relator that kills it.

    A letter is live while its generator is not killed. A relator whose
    only live letter is a single occurrence of g proves g = 1, so g is
    killed. One pass: a live-letter count per relator, the relators holding
    each generator (once per occurrence), and a first-in first-out queue of
    the relators whose count has reached 1, starting in relator order.
    """
    live = [len(w) for w in words]
    holders: dict[int, list[int]] = {}
    for i, word in enumerate(words):
        for a in word:
            holders.setdefault(a >> 1, []).append(i)
    killed: dict[int, int] = {}
    queue = [i for i, n in enumerate(live) if n == 1]
    for i in queue:
        if live[i] != 1:
            continue
        g = next(a >> 1 for a in words[i] if a >> 1 not in killed)
        killed[g] = i
        for j in holders[g]:
            live[j] -= 1
            if live[j] == 1:
                queue.append(j)
    return killed


def _cyclic_reduce(word: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for a in word:
        if out and out[-1] == a ^ 1:
            out.pop()
        else:
            out.append(a)
    i, j = 0, len(out) - 1
    while i < j and out[i] == out[j] ^ 1:
        i += 1
        j -= 1
    return tuple(out[i:j + 1])


def _smith_invariants(rows: Sequence[dict[int, int]]) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix given as
    sparse rows {column: entry}; their number is its rank."""
    rows = [dict(r) for r in rows if r]
    diag = []
    while rows:
        # the first unit entry, else the least in absolute value
        i, j = next(((i, j) for i, r in enumerate(rows) for j, v in r.items()
                     if v == 1 or v == -1), None) or min(
            ((i, j) for i, r in enumerate(rows) for j in r),
            key=lambda ij: abs(rows[ij[0]][ij[1]]),
        )
        pivot = rows[i]
        p = pivot[j]
        clean = True
        for k, r in enumerate(rows):
            if k != i and j in r:
                q = r[j] // p
                for c, v in pivot.items():
                    w = r.get(c, 0) - q * v
                    if w:
                        r[c] = w
                    else:
                        del r[c]
                clean = clean and j not in r
        if clean:
            # column j is zero off the pivot row, so column operations
            # reduce the rest of the pivot row modulo p
            rest = {c: v % p for c, v in pivot.items() if c != j and v % p}
            if rest:
                rows[i] = {j: p, **rest}
            else:
                diag.append(abs(p))
                del rows[i]
        rows = [r for r in rows if r]
    for a in range(len(diag)):
        for c in range(a + 1, len(diag)):
            g = gcd(diag[a], diag[c])
            diag[a], diag[c] = g, diag[a] * diag[c] // g
    return diag


@dataclass
class OppositeSetEntry:
    residue_base: int
    J: tuple[int, ...]
    chamber: int
    verdict: TrivialityVerdict


@dataclass
class LocalConditionReport:
    entries: list[OppositeSetEntry]   # the opposite sets not proven trivial

    @property
    def ok(self) -> bool:
        return not self.entries


def opposite_set(b: Building, R: ResidueRef, x: int) -> frozenset:
    """The chambers of R at distance r_J from x, J the type of R."""
    rJ, row = b.weyl.longest_element(R.J), b.rows[x]
    return frozenset(y for y in R.members if row[y] == rJ)


def _opposite_sets(b: Building, k: int, decide) -> LocalConditionReport:
    """One entry per opposite set of a rank-k residue that ``decide(R, opp)``
    does not prove trivial."""
    entries: list[OppositeSetEntry] = []
    for J in combinations(range(b.system.rank), k):
        for R in b.residues_of_type(J):
            for x in R.members:
                verdict = decide(R, opposite_set(b, R, x))
                if verdict.status != PROVEN_TRIVIAL:
                    entries.append(OppositeSetEntry(R.base, J, x, verdict))
    entries.sort(key=lambda e: (e.J, e.residue_base, e.chamber))
    return LocalConditionReport(entries)


def check_lco(b: Building) -> LocalConditionReport:
    """Condition (lco): opposite sets in rank-2 residues are connected."""

    def decide(R: ResidueRef, opp: frozenset) -> TrivialityVerdict:
        conn = connected(opp, R.J, b)
        return TrivialityVerdict(
            PROVEN_TRIVIAL if conn else PROVEN_NONTRIVIAL,
            certificate=tuple(sorted(opp)),
        )

    return _opposite_sets(b, 2, decide)


def check_lsco(b: Building) -> LocalConditionReport:
    """Condition (lsco): opposite sets in rank-3 residues are simply
    2-connected as chamber systems over typ(R)."""

    def decide(R: ResidueRef, opp: frozenset) -> TrivialityVerdict:
        if not opp:
            return TrivialityVerdict(PROVEN_NONTRIVIAL, certificate="empty")
        # opp lies in R: the presentation's spanning tree tests R.J-connectivity
        try:
            return simply_2_connected(opp, b)
        except NotConnected:
            return TrivialityVerdict(
                PROVEN_NONTRIVIAL, certificate=("disconnected", tuple(sorted(opp)))
            )

    return _opposite_sets(b, 3, decide)


# -- residual filtration -----------------------------------------------------


@dataclass
class Filtration:
    levels: list[frozenset]                  # C_0 .. C_max (C_max = all chambers)
    witnesses: dict[int, int] = field(init=False, default_factory=dict)  # level -> generator


def residual_filtration(f: Codistance) -> Filtration:
    """The level sets C_n = {x : |f(x)| <= n} for the ShortLex injection.

    The levels are nested, start at C_0 = f^op (value id 0 is the identity)
    and end at every chamber by construction.  Each J-residue R, J
    nonempty, is checked for aff(R) = A_f(R) and then for (F3) at each
    level above R's lowest; the (F3) generator of the whole building at
    level n is recorded as ``witnesses[n]``.
    """
    b = f.building
    length = b.weyl.length
    values = f.values
    top = max(values)
    levels = [
        frozenset(c for c, v in enumerate(values) if v <= n)
        for n in range(top + 1)
    ]
    filt = Filtration(levels)
    rank = b.system.rank
    panel_members = b.system.panel_members
    for mask in range(1, 1 << rank):
        J = tuple(s for s in range(rank) if mask & (1 << s))
        for R in b.residues_of_type(J):
            chambers = R.members
            # aff(R) = A_f(R): minimal-level chambers are the minimal-f-length ones
            minlevel = min(values[c] for c in chambers)
            lmin = min(length[values[c]] for c in chambers)
            aff = {c for c in chambers if values[c] == minlevel}
            afr = {c for c in chambers if length[values[c]] == lmin}
            if aff != afr:
                raise FiltrationViolation("aff=A_f", minlevel, (J, R.base))
            # (F3): the first t in J that gives each chamber of R at level n
            # a t-neighbour below level n; a chamber below level n is in its
            # own t-panel, so only those at level n are tested
            for n in range(minlevel + 1, top + 1):
                entering = [c for c in chambers if values[c] == n]
                t = next((
                    t for t in J
                    if all(min(values[z] for z in panel_members(c, t)) < n
                           for c in entering)
                ), None)
                if t is None:
                    raise FiltrationViolation("F3", n, (J, R.base))
                if len(J) == rank:
                    filt.witnesses[n] = t
    return filt
