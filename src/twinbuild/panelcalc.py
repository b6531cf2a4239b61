"""The panel calculus: panels opposite in a rank-2 residue, compatible
paths, the transported panels pi(P, w), and the bijections beta.

Panels are ResidueRef views of rank 1.  The central objects are the sets
of s-panels meeting f^op; between two such panels there is a canonical
bijection obtained by composing projections through rank-2 residues, and
its gallery independence is what the triviality verdicts of the homotopy
module certify.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from .chambersys import Building, ResidueRef, opposite_set
from .codistance import Codistance, fop_c, panels_op, unique_chamber
from .errors import (
    NotEquivalent,
    NotInResidue,
    NotOpposite,
    NotParallel,
    PreconditionFailed,
)

MAX_PATH_LENGTH = 6


def panel_type(P: ResidueRef) -> int:
    if len(P.J) != 1:
        raise ValueError("not a panel")
    return next(iter(P.J))


def panel_key(P: ResidueRef) -> tuple[int, int]:
    return (panel_type(P), P.base)


def delta_panels(b: Building, P: ResidueRef, Q: ResidueRef) -> int:
    """The Weyl distance between two parallel panels, with the independence
    of the defining chamber asserted."""
    if not b.are_parallel(P, Q):
        raise NotParallel("panels are not parallel")
    table = b.weyl
    values = {b.delta(x, b.proj_chamber(Q, x)) for x in P.members}
    if len(values) != 1:
        raise NotParallel(f"distance depends on the chamber: {sorted(values)}")
    w = values.pop()
    s1, s2 = panel_type(P), panel_type(Q)
    if table.conj_by(w, s1) != table.gen(s2):
        raise NotParallel("type relation s2 = w^-1 s1 w fails")
    return w


def is_compatible_path(b: Building, path: Sequence[ResidueRef]) -> bool:
    """Whether the path repeats no panel and each step is compatible
    (``_compatible_neighbors``, P0 the first panel)."""
    steps = zip(path, path[1:])
    return len(set(path)) == len(path) and all(
        cur in _compatible_neighbors(b, path[0], prev) for prev, cur in steps)


def compatible_path(
    b: Building, P: ResidueRef, Q: ResidueRef
) -> tuple[ResidueRef, ...]:
    """A compatible path from P to Q of length l_c(P, Q).

    Breadth-first over compatible extensions; compatibility of an extension
    from L depends only on L and P, so the first path found is shortest,
    and sorted expansion makes the choice deterministic.
    """
    if not b.are_parallel(P, Q):
        raise NotParallel("panels are not parallel")
    if P == Q:
        return (P,)
    paths = {P: (P,)}
    queue = deque([P])
    while queue:
        last = queue.popleft()
        for nxt in _compatible_neighbors(b, P, last):
            if nxt in paths:
                continue
            paths[nxt] = paths[last] + (nxt,)
            if nxt == Q:
                return paths[nxt]
            queue.append(nxt)
    raise NotParallel("no compatible path found")


def _compatible_neighbors(b: Building, P0: ResidueRef, L: ResidueRef):
    """The compatible steps from L on a path from P0, the one definition all
    path routines use: the N opposite L in R(L, N) with proj_{R(L,N)} P0 = L."""
    s = panel_type(L)
    out = []
    for t in range(b.system.rank):
        if t == s:
            continue
        R = b.residue(L.base, frozenset((s, t)))
        try:
            if b.proj_residue(R, P0) != L:
                continue
        except NotInResidue:
            continue
        out += _opposite_panels_in(b, R, L)
    return sorted(out, key=panel_key)


def _opposite_panels_in(b: Building, R: ResidueRef, L: ResidueRef) -> set[ResidueRef]:
    """The panels of R opposite L: the (r_J s r_J)-panels, s the type of L,
    through a chamber of R opposite one of L."""
    table = b.weyl
    tt = table.gen_index(table.conj_by(table.longest_element(R.J), panel_type(L)))
    return {b.panel(y, tt) for x in L.members for y in opposite_set(b, R, x)}


def all_compatible_paths(
    b: Building, P: ResidueRef, Q: ResidueRef
) -> list[tuple[ResidueRef, ...]]:
    """Exhaustive enumeration, for well-definedness checks of l_c, of the
    paths of at most ``MAX_PATH_LENGTH`` steps."""
    out = []
    stack = [(P,)]
    while stack:
        path = stack.pop()
        if path[-1] == Q and (len(path) > 1 or P == Q):
            out.append(path)
            continue
        if len(path) > MAX_PATH_LENGTH:
            continue
        for nxt in _compatible_neighbors(b, P, path[-1]):
            if nxt not in path:
                stack.append(path + (nxt,))
    return out


def l_c(b: Building, P: ResidueRef, Q: ResidueRef) -> int:
    return len(compatible_path(b, P, Q)) - 1


# -- panels in f^op and the bijections ---------------------------------------


def panels_op_c(f: Codistance, s: int, c: int) -> tuple[ResidueRef, ...]:
    """The s-panels of the chambers x of f^op with delta(x, c) = f(c), in
    ascending ``panel_key``."""
    b = f.building
    return tuple(sorted({b.panel(x, s) for x in fop_c(f, c)}, key=panel_key))


def pi(f: Codistance, P: ResidueRef, w: int) -> ResidueRef:
    """The panel of type w^-1 s w at distance w from P characterized by
    containing a chamber with f-value w, seen from the gap of P: its one
    chamber outside f^op, of f-value s.  A w outside X_s is refused first,
    then a P outside P_s^op(f), which ``_transport`` does not test."""
    pi_w = _transport(f, s := panel_type(P), w, {})
    if P not in panels_op(f, s):
        raise PreconditionFailed("panel does not meet f^op")
    return pi_w(P)


def _transport(
    f: Codistance, s: int, w: int, gaps: dict[ResidueRef, int]
) -> Callable[[ResidueRef], ResidueRef]:
    """P -> pi(P, w) on the panels of P_s^op(f), with w tested for X_s once,
    each image found once, and each gap tested (an atlas seed is never
    validated) and kept in ``gaps``; ``pi`` tests that P meets f^op."""
    b = f.building
    table = b.weyl
    ok, t = table.in_X_s(w, s)
    if not ok:
        raise PreconditionFailed(f"{table.word_str(w)} not in X_{s}")
    values = f.values
    images: dict[ResidueRef, ResidueRef] = {}

    def pi_w(P: ResidueRef) -> ResidueRef:
        if P not in images:
            if P not in gaps:
                gap = [x for x in P.members if values[x] != 0]
                if len(gap) != 1 or values[gap[0]] != table.gen(s):
                    raise PreconditionFailed("panel does not meet f^op correctly")
                gaps[P] = gap[0]
            images[P] = b.panel(unique_chamber(f, gaps[P], w), t)
        return images[P]

    return pi_w


@dataclass
class PanelBijection:
    source: ResidueRef
    target: ResidueRef
    mapping: dict[int, int]

    def __post_init__(self) -> None:
        src = set(self.source.members)
        tgt = set(self.target.members)
        if set(self.mapping) != src or set(self.mapping.values()) != tgt:
            raise ValueError("mapping is not a bijection between the panels")

    def __call__(self, c: int) -> int:
        return self.mapping[c]

    def compose(self, other: "PanelBijection") -> "PanelBijection":
        """self after other."""
        if other.target != self.source:
            raise ValueError("panels do not match for composition")
        return PanelBijection(
            other.source, self.target,
            {c: self.mapping[v] for c, v in other.mapping.items()},
        )

    def is_identity(self) -> bool:
        return self.source == self.target and all(
            c == v for c, v in self.mapping.items()
        )


def beta_w(f: Codistance, P: ResidueRef, Q: ResidueRef, w: int) -> PanelBijection:
    """proj_Q proj_{pi(P,w)} restricted to P, defined when pi(P,w) = pi(Q,w)."""
    step = _follow(f.building, pi(f, P, w), pi(f, Q, w), Q, {c: c for c in P.members})
    return PanelBijection(P, Q, step)


def _follow(b: Building, M: ResidueRef, N: ResidueRef, Q: ResidueRef, mapping: dict) -> dict:
    """``mapping``, a chamber map onto an s-panel P, followed by beta_w(P, Q),
    given M = pi(P, w) and N = pi(Q, w)."""
    if N != M:
        raise NotEquivalent("pi(P, w) != pi(Q, w)")
    out = {c: b.proj_chamber(Q, b.proj_chamber(M, v)) for c, v in mapping.items()}
    if len(set(out.values())) != len(Q):
        raise ValueError("mapping is not a bijection between the panels")
    return out


def _fop_search(f: Codistance, Ptilde: ResidueRef):
    """Breadth-first search inside f^op from the least f^op chamber of
    Ptilde, an s-panel.

    Yields, for each chamber reached and in the order reached, its s-panel
    and the chamber map of Ptilde composed along the path in the search
    tree.  A tree edge of type t != s moves the map by beta_w from the
    s-panel of one end to that of the other, w = s r_{st}; an edge of type s
    stays in one s-panel and maps nothing.  The word of each t, its X_s
    test, each panel's gap and each pi are found once per search.
    Neighbours are read off the chamber system's adjacency, by type and then
    by ascending id, so the order and the maps depend only on f and Ptilde.
    """
    b = f.building
    table = b.weyl
    s = panel_type(Ptilde)
    panels, index = b.partition((s,))
    gaps: dict[ResidueRef, int] = {}
    transports = {
        t: _transport(f, s, table.left[table.longest_element((s, t))][s], gaps)
        for t in range(b.system.rank) if t != s
    }
    values = f.values
    start = min(x for x in Ptilde.members if values[x] == 0)
    image = {start: {c: c for c in Ptilde.members}}
    yield Ptilde, image[start]
    queue = deque([start])
    while queue:
        x = queue.popleft()
        P = panels[index[x]]
        for t, y in b.system.adjacency[x]:
            if values[y] != 0 or y in image:
                continue
            Q = panels[index[y]]
            mapping = image[x]
            if t != s:
                pi_w = transports[t]
                mapping = _follow(b, pi_w(P), pi_w(Q), Q, mapping)
            image[y] = mapping
            queue.append(y)
            yield Q, mapping


def beta(f: Codistance, P: ResidueRef, Q: ResidueRef) -> PanelBijection:
    """The canonical bijection between two s-panels meeting f^op, composed
    along a gallery in f^op; independence of the gallery is a theorem whose
    hypotheses (f^op connected and simply 2-connected) the caller
    certifies."""
    s = panel_type(P)
    if panel_type(Q) != s:
        raise NotOpposite("panels have different types")
    ps = panels_op(f, s)
    if P not in ps or Q not in ps:
        raise NotOpposite("panel does not meet f^op")
    for R, mapping in _fop_search(f, P):
        if R == Q:
            return PanelBijection(P, Q, mapping)
    raise NotOpposite("no gallery in f^op joins the panels")


def beta_maps(f: Codistance, Ptilde: ResidueRef) -> dict[ResidueRef, dict[int, int]]:
    """The chamber map of beta(Ptilde, Q) for every panel Q of P_s^op(f), in
    ``panels_op`` order, from one search: the first map it brings to Q."""
    ps = panels_op(f, panel_type(Ptilde))
    if Ptilde not in ps:
        raise NotOpposite("panel does not meet f^op")
    maps: dict[ResidueRef, dict[int, int]] = {}
    for Q, mapping in _fop_search(f, Ptilde):
        maps.setdefault(Q, mapping)
    if len(maps) != len(ps):
        raise NotOpposite("no gallery in f^op joins the panels")
    return {Q: maps[Q] for Q in ps}
