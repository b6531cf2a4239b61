"""Generators for the concrete finite buildings used as fixtures.

The thick fixtures, pg2(q), pg3(q) and sp4(q) for a prime q and the
generalized digons, are flag complexes: each generator lists its flags and
``_flag_building`` is the one constructor that turns them into a building.
Flags are ordered by lexicographic coordinate vectors, so repeated runs emit
byte-identical bundles.  Field arithmetic is plain modular arithmetic over
the prime field F_q; prime powers would need field tables and are not
supported.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import isqrt
from typing import Iterable, Sequence

from .chambersys import Building, ChamberSystem
from .coxeter import CoxeterMatrix, enumerate_weyl
from .errors import NameClash, UnsupportedQ


def matrix_A1() -> CoxeterMatrix:
    return CoxeterMatrix(("a",), ((1,),))


def matrix_A2() -> CoxeterMatrix:
    return CoxeterMatrix(("p", "l"), ((1, 3), (3, 1)))


def matrix_B2() -> CoxeterMatrix:
    return CoxeterMatrix(("p", "l"), ((1, 4), (4, 1)))


def matrix_I2(m: int) -> CoxeterMatrix:
    return CoxeterMatrix(("p", "l"), ((1, m), (m, 1)))


def matrix_A3() -> CoxeterMatrix:
    return CoxeterMatrix(("p", "l", "h"), ((1, 3, 2), (3, 1, 3), (2, 3, 1)))


def matrix_B4() -> CoxeterMatrix:
    m = ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 4), (2, 2, 4, 1))
    return CoxeterMatrix(("a", "b", "c", "d"), m)


def gen_thin(matrix: CoxeterMatrix) -> Building:
    """Coxeter complex: chambers are group elements, delta(x,y) = x^-1 y."""
    table = enumerate_weyl(matrix)
    n = table.size
    panels = []
    for s in range(table.rank):
        fam = set()
        for w in range(n):
            fam.add(tuple(sorted((w, table.right[w][s]))))
        panels.append(sorted(fam))
    system = ChamberSystem(weyl=table, n=n, panels=panels)
    return Building(system, name=f"thin_{'x'.join(table.matrix.gens)}")


def _flag_building(flags: Iterable[tuple], matrix: CoxeterMatrix, name: str) -> Building:
    """The flag complex of type ``matrix``: the chambers are the flags, one
    coordinate per type, numbered in sorted order, and the panel of type i
    groups the flags that agree at every coordinate except i."""
    flags = sorted(flags)
    panels = []
    for i in range(matrix.rank):
        groups: dict = {}
        for idx, flag in enumerate(flags):
            groups.setdefault(flag[:i] + flag[i + 1:], []).append(idx)
        panels.append(sorted(tuple(g) for g in groups.values()))
    system = ChamberSystem(weyl=enumerate_weyl(matrix), n=len(flags), panels=panels)
    return Building(system, name=name)


def gen_digon(a: int, b: int) -> Building:
    """Generalized digon: every point incident with every line."""
    if a < 2 or b < 2:
        raise ValueError("digon sizes must be >= 2")
    flags = [(i, j) for i in range(a) for j in range(b)]
    return _flag_building(flags, matrix_I2(2), f"digon_{a}_{b}")


# -- finite-field linear algebra over a prime field F_q --------------------


def _check_q(q: int) -> None:
    if q < 2 or any(q % d == 0 for d in range(2, isqrt(q) + 1)):
        raise UnsupportedQ(f"q={q} not supported (prime q only)")


def _vectors(q: int, dim: int):
    return [v for v in iproduct(range(q), repeat=dim) if any(v)]


def _normalize(v: Sequence[int], q: int) -> tuple[int, ...]:
    for x in v:
        if x:
            inv = pow(x, q - 2, q)
            return tuple((inv * y) % q for y in v)
    raise ValueError("zero vector")


def _points(q: int, dim: int) -> list[tuple[int, ...]]:
    return sorted({_normalize(v, q) for v in _vectors(q, dim)})


def _span2(p1: Sequence[int], p2: Sequence[int], q: int) -> frozenset:
    pts = set()
    for a in range(q):
        for b in range(q):
            v = tuple((a * x + b * y) % q for x, y in zip(p1, p2))
            if any(v):
                pts.add(_normalize(v, q))
    return frozenset(pts)


def _lines(points: list[tuple[int, ...]], q: int) -> list[frozenset]:
    out = set()
    for i, p1 in enumerate(points):
        for p2 in points[i + 1:]:
            out.add(_span2(p1, p2, q))
    return sorted(out, key=lambda l: sorted(l))


def _hyperplanes(q: int, dim: int) -> list[frozenset]:
    """3-dim subspaces of F_q^4 as point sets, via normalized dual vectors."""
    out = []
    points = _points(q, dim)
    for f in points:
        pts = frozenset(
            p for p in points if sum(a * b for a, b in zip(f, p)) % q == 0
        )
        out.append(pts)
    return sorted(set(out), key=lambda h: sorted(h))


def gen_pg2(q: int) -> Building:
    """Flag building of the projective plane PG(2, q), type A2."""
    _check_q(q)
    points = _points(q, 3)
    flags = [(p, tuple(sorted(l))) for l in _lines(points, q) for p in l]
    return _flag_building(flags, matrix_A2(), f"pg2_{q}")


def gen_pg3(q: int) -> Building:
    """Full-flag building of PG(3, q), type A3."""
    _check_q(q)
    points = _points(q, 4)
    lines = _lines(points, q)
    flags = [
        (p, tuple(sorted(l)), tuple(sorted(h)))
        for h in _hyperplanes(q, 4)
        for l in lines
        if l <= h
        for p in l
    ]
    return _flag_building(flags, matrix_A3(), f"pg3_{q}")


def _symplectic(u: Sequence[int], v: Sequence[int], q: int) -> int:
    return (u[0] * v[1] - u[1] * v[0] + u[2] * v[3] - u[3] * v[2]) % q


def gen_sp4(q: int) -> Building:
    """Flag building of the symplectic quadrangle W(q), type B2."""
    _check_q(q)
    points = _points(q, 4)
    # the form is alternating, so a line is totally isotropic when two of
    # its points are orthogonal
    ti_lines = [
        l for l in _lines(points, q) if _symplectic(*sorted(l)[:2], q) == 0
    ]
    flags = [(p, tuple(sorted(l))) for l in ti_lines for p in l]
    return _flag_building(flags, matrix_B2(), f"sp4_{q}")


def product(b1: Building, b2: Building) -> Building:
    """Direct product building of reducible type."""
    m1, m2 = b1.weyl.matrix, b2.weyl.matrix
    if set(m1.gens) & set(m2.gens):
        raise NameClash(f"generator names overlap: {set(m1.gens) & set(m2.gens)}")
    k1, k2 = m1.rank, m2.rank
    gens = m1.gens + m2.gens
    rows = []
    for i in range(k1):
        rows.append(tuple(m1.m[i]) + tuple(2 for _ in range(k2)))
    for j in range(k2):
        rows.append(tuple(2 for _ in range(k1)) + tuple(m2.m[j]))
    matrix = CoxeterMatrix(gens, tuple(rows))
    table = enumerate_weyl(matrix)
    n1, n2 = b1.n, b2.n
    def cid(x1: int, x2: int) -> int:
        return x1 * n2 + x2

    panels: list[list[tuple[int, ...]]] = []
    for s in range(k1):
        fam = []
        for p in b1.system.panels[s]:
            for y in range(n2):
                fam.append(tuple(cid(x, y) for x in p))
        panels.append(sorted(fam))
    for s in range(k2):
        fam = []
        for x in range(n1):
            for p in b2.system.panels[s]:
                fam.append(tuple(sorted(cid(x, y) for y in p)))
        panels.append(sorted(fam))
    system = ChamberSystem(weyl=table, n=n1 * n2, panels=panels)
    return Building(system, name=f"{b1.name}_x_{b2.name}")
