"""Connectivity verdicts, the local conditions (lco) and (lsco), and residual
filtrations.

Simple 2-connectivity is decided, never assumed, on the edge-path group
presentation of a chamber subset with each component of its two least edge
types contracted by Tietze moves (``_presentation``; a connected subset of
rank <= 2 keeps no generator), in three steps that each certify only what
they prove: a kill closure that kills every generator proves the group
trivial (certificate: the kill order, each kill with its original relator,
written out as (generator, exponent) pairs only when read); otherwise, with
the killed letters deleted, a nonzero abelianization, read off an integer
Smith normal form, proves it nontrivial (certificate: the abelianization
invariants); otherwise a completed coset enumeration over the trivial
subgroup gives its order (certificate: the coset count). An enumeration
that reaches its cap is reported as Inconclusive.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from math import gcd
from typing import Container, Iterable, Optional, Sequence

from .chambersys import Building, ResidueRef, opposite_set
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


# a certificate stored as a function is computed each time it is read
TrivialityVerdict.certificate = property(  # type: ignore[assignment]
    lambda self: self._certificate() if callable(self._certificate) else self._certificate,
    lambda self, certificate: setattr(self, "_certificate", certificate))


def connected(subset: Iterable[int], gens: Iterable[int], b: Building) -> bool:
    """Whether ``subset`` is connected by edges of the types ``gens``: one
    breadth-first search from its least chamber over the chamber adjacency."""
    adj, gens, left = b.system.adjacency, frozenset(gens), set(subset)
    queue = [min(left)] if left else []
    left.difference_update(queue)
    for x in queue:
        for s, y in adj[x]:
            if y in left and s in gens:
                left.remove(y)
                queue.append(y)
    return not left


def _cycles(nbrs: list[list[tuple[int, int]]], J: Container[int], letter: dict[int, tuple]):
    """The words of the fundamental cycles root -> a, (a, c), c -> root of the
    breadth-first J-forest, roots and neighbours taken in ascending order,
    one per edge a < c off it, built from each position's path word from
    its root (pot) and that word's inverse (top).  A word is w C w^-1, w the
    letters of the path from the root to the cycle and C those of the cycle,
    which passes each edge once; each letter names its own edge, so no
    letters cancel unless C is empty, that is when a and c have equal pot
    words and (a, c) reads empty: such a word is skipped."""
    k = len(nbrs)
    pot: list = [None] * k   # path words from the root, and their inverses
    top: list = [None] * k
    for root in range(k):
        if pot[root] is not None:
            continue
        pot[root] = top[root] = ()
        queue = [(root, root)]
        for x, up in queue:
            px = pot[x]
            for y, s in nbrs[x]:
                if s not in J:
                    continue
                py = pot[y]
                if py is None:
                    pot[y] = px + letter.get(x * k + y, ())
                    top[y] = letter.get(y * k + x, ()) + top[x]
                    queue.append((y, x))
                elif x < y and y != up and (x * k + y in letter or px != py):
                    yield px + letter.get(x * k + y, ()) + top[y]


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
    other edges off T, and the ``_cycles`` words of each pair with a type
    above J0 (the edges of any other pair are J0 edges, and read empty).
    In rank <= 2, J0 holds every type: a connected subset keeps no generator.

    All lists are on positions 0..k-1 of the sorted subset, the edge i -> j
    keyed ``i * k + j``; ``nbrs[i]``, i's (neighbour, type) pairs in ascending
    order, comes from one walk of the adjacency (one type per adjacent pair).
    Relators are words of int letters: the non-tree edge i is the generator
    i, crossed forward (from its smaller chamber) as 2i + 1 and backward as
    2i, so ``a >> 1`` is the generator of letter a and ``a ^ 1`` its inverse.
    """
    chambers = sorted(subset)
    k = len(chambers)
    adj, at = b.system.adjacency, [-1] * b.n
    for i, x in enumerate(chambers):
        at[x] = i
    nbrs: list[list[tuple[int, int]]] = [[] for _ in chambers]
    types: set[int] = set()
    for i, x in enumerate(chambers):
        for s, y in adj[x]:
            j = at[y]
            if j >= 0:
                nbrs[j].append((i, s))
                types.add(s)
    last = max(sorted(types)[:2], default=-1)   # J0: the types present up to last
    # comp[i]: the J0-component of position i, named by its least position
    comp, members = [-1] * k, {}
    for root in range(k):
        if comp[root] < 0:
            comp[root] = root
            queue = members[root] = [root]
            for x in queue:
                for y, s in nbrs[x]:
                    if s <= last and comp[y] < 0:
                        comp[y] = root
                        queue.append(y)
    # T's other edges: the first edge into each component not yet reached
    tree: set[int] = set()
    queue = members.pop(0) if k else []
    for x in queue:
        for y, _ in nbrs[x]:
            if comp[y] in members:
                tree.add(x * k + y if x < y else y * k + x)
                queue.extend(members.pop(comp[y]))
    if members:
        raise NotConnected("subset is not gallery-connected")
    # letter[x * k + y]: the word of an edge x -> y off T of no type in J0
    non_tree: list[tuple[int, int]] = []
    letter: dict[int, tuple] = {}
    for x, row in enumerate(nbrs):
        for y, s in row:
            if x < y and s > last and x * k + y not in tree:
                letter[x * k + y] = (2 * len(non_tree) + 1,)
                letter[y * k + x] = (2 * len(non_tree),)
                non_tree.append((chambers[x], chambers[y]))
    pairs = [J for J in combinations(range(b.system.rank), 2) if J[1] > last]
    return non_tree, sorted({w for J in pairs for w in _cycles(nbrs, J, letter)})


def simply_2_connected(subset: Iterable[int], b: Building) -> TrivialityVerdict:
    subset = frozenset(subset)
    if not subset:
        return TrivialityVerdict(PROVEN_TRIVIAL, certificate="empty")
    non_tree, relators = _presentation(b, subset)
    if not non_tree:
        return TrivialityVerdict(PROVEN_TRIVIAL, certificate="forest")
    return _decide(len(non_tree), relators)


def _decide(ngens: int, words: Sequence[tuple[int, ...]]) -> TrivialityVerdict:
    """Whether the group on ``ngens`` generators with the relators ``words``,
    in ``_presentation``'s letters, is trivial: the kill closure, then Smith
    and coset enumeration on the words left once the killed letters, trivial
    in the group, are deleted.  An elimination certificate keeps its kill
    order with relator indices, decoded to (generator, exponent) pairs when read.
    ``DEFAULT_COSET_CAP``, read at each call, bounds the coset enumeration."""
    killed = _closure(words)
    if len(killed) == ngens:
        return TrivialityVerdict(PROVEN_TRIVIAL, certificate=lambda: ("elimination", tuple(
            (g, tuple((a >> 1, 1 if a & 1 else -1) for a in words[i])) for g, i in killed.items()
        )))
    # per word, one pass: delete killed letters, reduce, sum exponents (a row)
    reduced, rows = [], []
    for word in words:
        out: list[int] = []
        for a in word:
            if a >> 1 not in killed:
                if out and out[-1] == a ^ 1:
                    out.pop()
                else:
                    out.append(a)
        while len(out) > 1 and out[0] == out[-1] ^ 1:
            del out[0], out[-1]
        if out:
            reduced.append(out)
            row: dict[int, int] = {}
            for a in out:
                v = row.get(a >> 1, 0) + (a & 1) * 2 - 1
                if v:
                    row[a >> 1] = v
                else:
                    del row[a >> 1]
            rows.append(row)
    left = ngens - len(killed)
    if not reduced:
        return TrivialityVerdict(PROVEN_NONTRIVIAL, certificate=("free", left))
    factors = _smith_invariants(rows)
    if len(factors) < left or factors[-1] != 1:
        invariants = [d for d in factors if d != 1]
        invariants += [0] * (left - len(factors))
        return TrivialityVerdict(
            PROVEN_NONTRIVIAL, certificate=("abelianization", invariants)
        )
    # coset_table writes generator g as 2g and its inverse as 2g + 1
    column = {g: i for i, g in enumerate(g for g in range(ngens) if g not in killed)}
    reduced = [tuple(2 * column[a >> 1] + (~a & 1) for a in word) for word in reduced]
    try:
        n = len(coset_table(left, reduced, DEFAULT_COSET_CAP))
    except CapExceeded:
        return TrivialityVerdict(INCONCLUSIVE, certificate=("coset-cap", DEFAULT_COSET_CAP))
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
    holders: dict[int, list[int]] = defaultdict(list)
    for i, word in enumerate(words):
        for a in word:
            holders[a >> 1].append(i)
    killed: dict[int, int] = {}
    queue = [i for i, n in enumerate(live) if n == 1]
    for i in queue:
        if live[i] != 1:
            continue
        for a in words[i]:   # stops at the one live letter
            if a >> 1 not in killed:
                break
        g = a >> 1
        killed[g] = i
        for j in holders[g]:
            live[j] -= 1
            if live[j] == 1:
                queue.append(j)
    return killed


def _smith_invariants(rows: Sequence[dict[int, int]]) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix given as
    sparse rows {column: entry}; their number is its rank."""
    rows = [dict(r) for r in rows if r]
    diag = []
    while rows:
        # the first unit entry, else the first of least absolute value
        i = j = p = 0
        for k, r in enumerate(rows):
            for c, v in r.items():
                if not p or abs(v) < abs(p):
                    i, j, p = k, c, v
            if p == 1 or p == -1:
                break
        pivot = rows[i]
        clean, emptied = True, False
        for r in rows:
            if j in r and r is not pivot:
                q = r[j] // p
                for c, v in pivot.items():
                    w = r.get(c, 0) - q * v
                    if w:
                        r[c] = w
                    else:
                        del r[c]
                if not r:
                    emptied = True
                elif j in r:
                    clean = False
        if clean:
            # column j is zero off the pivot row, so column operations
            # reduce the rest of the pivot row modulo p, to nothing if p = ±1
            rest = abs(p) > 1 and {c: v % p for c, v in pivot.items() if c != j and v % p}
            if rest:
                rows[i] = {j: p, **rest}
            else:
                diag.append(abs(p))
                del rows[i]
        if emptied:
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


def _opposite_sets(b: Building, k: int, decide) -> LocalConditionReport:
    """One entry per opposite set of a rank-k residue that ``decide(R, opp)``
    does not prove trivial (it may return None for a set it proves so), in
    (J, residue base, chamber) order: the order the loops append in, as J
    runs through ``combinations``, the residues by ascending base and the
    chambers of each in ascending order."""
    entries: list[OppositeSetEntry] = []
    for J in combinations(range(b.system.rank), k):
        for R in b.residues_of_type(J):
            for x in R.members:
                verdict = decide(R, opposite_set(b, R, x))
                if verdict and verdict.status != PROVEN_TRIVIAL:
                    entries.append(OppositeSetEntry(R.base, J, x, verdict))
    return LocalConditionReport(entries)


def check_lco(b: Building) -> LocalConditionReport:
    """Condition (lco): opposite sets in rank-2 residues are connected."""

    def decide(R: ResidueRef, opp: frozenset) -> Optional[TrivialityVerdict]:
        if not connected(opp, R.J, b):
            return TrivialityVerdict(PROVEN_NONTRIVIAL, certificate=tuple(sorted(opp)))

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
