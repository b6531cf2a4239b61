"""Codistances: W-valued maps on chambers satisfying the panel axiom.

A codistance holds its building and its value row alone, the row packed one
byte per Weyl id while they fit (``WeylTable.pack``).  The atlas deduplicates
its members on these rows; ``Codistance.__eq__`` serves AC8.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence

from .chambersys import Building, ResidueRef, panel_axiom
from .coxeter import WeylTable
from .errors import PreconditionFailed


class Codistance:
    def __init__(self, building: Building, values: Sequence[int]) -> None:
        table = building.weyl
        if len(values) != building.n:
            raise ValueError("one value per chamber required")
        ids = set(values)
        if not 0 <= min(ids) <= max(ids) < table.size:
            c = next(c for c, v in enumerate(values) if not 0 <= v < table.size)
            raise ValueError(f"value {values[c]} at chamber {c} is not a Weyl id")
        self.building = building
        self.values = table.pack(values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Codistance)
            and self.building is other.building
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash(self.values)

    def __call__(self, c: int) -> int:
        return self.values[c]

    def vlen(self, c: int) -> int:
        return self.building.weyl.length[self.values[c]]

    def fop(self) -> tuple[int, ...]:
        """The chambers c with f(c) = 1, ascending, found on each call."""
        b = self.building
        return tuple(compress(range(b.n), b.weyl.identity_marks(self.values)))


@dataclass
class PanelViolation:
    generator: int
    panel: tuple[int, ...]
    values: tuple[int, ...]
    detail: str


@dataclass
class CodistanceReport:
    violation: Optional[PanelViolation]   # the first violation found, if any

    @property
    def ok(self) -> bool:
        return self.violation is None


def validate_codistance(f: Codistance) -> CodistanceReport:
    """Check the panel axiom on every panel of the building.

    A type s is accepted at once by ``panel_axiom`` with the longer value
    marked: every s-panel then holds its longest value once and that value
    times s, one shorter, everywhere else.  A type it rejects is examined
    panel by panel, in order, for the violation to report."""
    b = f.building
    system = b.system
    values = f.values
    for s in range(system.rank):
        if panel_axiom(system, values, s, longer=True):
            continue
        for panel in system.panels[s]:
            vals = tuple(values[c] for c in panel)
            violation = _panel_violation(b.weyl, s, panel, vals)
            if violation is not None:
                return CodistanceReport(violation)
    return CodistanceReport(None)


def _panel_violation(
    table: WeylTable, s: int, panel: tuple[int, ...], vals: tuple[int, ...]
) -> Optional[PanelViolation]:
    """The first of the panel axiom's tests that ``vals`` fails on an
    s-panel, or None.

    Once the panel holds exactly two values w and ws = w*s, ws is the
    longer one, by exactly one, so only the count of ws is left to test."""
    distinct = sorted(set(vals), key=lambda v: table.length[v])
    if len(distinct) != 2:
        return PanelViolation(
            s, panel, vals,
            f"{len(distinct)} distinct values on panel, need exactly 2",
        )
    short, long_ = distinct
    if table.right[short][s] != long_:
        return PanelViolation(s, panel, vals, "values are not of the form {w, ws}")
    if vals.count(long_) != 1:
        return PanelViolation(
            s, panel, vals, "longest value not attained by a unique chamber",
        )
    return None


def from_opposite_chamber(b: Building, c: int) -> Codistance:
    """The self-twinning of a spherical building seen from chamber c:
    f(x) = r_S * delta(c, x)."""
    table = b.weyl
    r = table.longest_element(range(table.rank))
    products = table.row_map([table.mult(r, w) for w in range(table.size)])
    return Codistance(b, products(b.rows[c]))


@dataclass
class ResidueProfile:
    image: frozenset[int]          # the coset f(x) W_J as a set of Weyl ids
    l_f: int
    A_f: tuple[int, ...]


def residue_profile(f: Codistance, R: ResidueRef) -> ResidueProfile:
    b = f.building
    table = b.weyl
    chambers = R.members
    x0 = chambers[0]
    coset = frozenset(table.mult(f(x0), w) for w in table.subgroup(R.J))
    lengths = [f.vlen(x) for x in chambers]
    l_f = min(lengths)
    A_f = tuple(x for x, l in zip(chambers, lengths) if l == l_f)
    return ResidueProfile(image=coset, l_f=l_f, A_f=A_f)


def proj_f(f: Codistance, R: ResidueRef) -> int:
    """The unique chamber of maximal f-length in R; ``PreconditionFailed``
    when the maximum is attained twice."""
    length = f.building.weyl.length
    values = f.values
    chambers = R.members
    lengths = [length[values[x]] for x in chambers]
    l_max = max(lengths)
    if lengths.count(l_max) != 1:
        raise PreconditionFailed("no unique chamber of maximal f-length in residue")
    return chambers[lengths.index(l_max)]


def fop_c(f: Codistance, c: int) -> tuple[int, ...]:
    """The chambers x of f^op with delta(x, c) = f(c)."""
    rows = f.building.rows
    w = f(c)
    return tuple(x for x in f.fop() if rows[x][c] == w)


def panels_op(f: Codistance, s: int) -> tuple[ResidueRef, ...]:
    """P_s^op(f) in ascending base (s-partition index, read through f's
    identity marks), listed on each call.  ``pi``, ``beta``, ``beta_maps``
    and ``adjacent_codistance`` test a panel they are handed against it."""
    b = f.building
    panels, index = b.partition((s,))
    met = set(compress(index, b.weyl.identity_marks(f.values)))
    return tuple(map(panels.__getitem__, sorted(met)))


def unique_chamber(f: Codistance, x: int, w: int) -> int:
    """The unique chamber c with f(c) = f(x) w and delta(x, c) = w, found by
    the greedy panel walk: each step moves to the single chamber whose
    f-value extends by the next letter."""
    b = f.building
    table = b.weyl
    values = f.values
    fx = values[x]
    if table.length[table.mult(fx, w)] != table.length[fx] + table.length[w]:
        raise PreconditionFailed("l(f(x) w) != l(f(x)) + l(w)")
    cur = x
    val = fx
    for s in table.word[w]:
        val = table.right[val][s]
        nxt = None
        for z in b.system.panel_members(cur, s):
            if z != cur and values[z] == val:
                if nxt is not None:
                    raise PreconditionFailed("panel axiom broken: two extensions")
                nxt = z
        if nxt is None:
            raise PreconditionFailed("panel axiom broken: no extension chamber")
        cur = nxt
    return cur
