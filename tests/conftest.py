import pytest

from twinbuild.catalog import (
    gen_digon,
    gen_pg2,
    gen_pg3,
    gen_sp4,
    gen_thin,
    matrix_A2,
    matrix_A3,
)
from twinbuild.chambersys import Building, ChamberSystem, ResidueRef
from twinbuild.coxeter import CoxeterMatrix, WeylTable
from twinbuild.errors import NotInResidue


def matrix_A1cubed():
    return CoxeterMatrix(
        ("a", "b", "c"),
        ((1, 2, 2), (2, 1, 2), (2, 2, 1)),
    )


class TupleRowTable(WeylTable):
    """A Weyl table that packs rows as tuples, 16-bit lanes, whatever its
    size: the row path of groups of more than 256 elements, on small ones."""

    def __setattr__(self, name, value):
        super().__setattr__(name, tuple if name == "pack" else value)


def tuple_rows(b: Building) -> Building:
    """A copy of b, same chambers and panels, on a ``TupleRowTable``."""
    t = b.weyl
    table = TupleRowTable(t.matrix, t.size, t.length, t.right, t.left, t.word)
    return Building(ChamberSystem(table, b.n, b.system.panels), name=b.name)


def fop_masks(atlas) -> list[int]:
    """Each atlas member's f^op as a bit mask, chamber c in bit c: the masks
    ``twinner.assemble_twin`` hands its opposition and plus-star checks."""
    return [sum(1 << c for c in g.fop()) for g in atlas.members]


# Opposition in a residue R of type J, delta = r_J, read straight off the
# delta rows: the oracles the tests hold ``chambersys.opposite_set`` to.
def opposite_chambers(b: Building, R: ResidueRef, x: int, y: int) -> bool:
    if x not in R or y not in R:
        raise NotInResidue(f"{x} or {y} not in residue")
    return b.delta(x, y) == b.weyl.longest_element(R.J)


def opposite_residues(b: Building, R: ResidueRef, R1: ResidueRef, R2: ResidueRef) -> bool:
    if not set(R1.members) <= set(R.members) or not set(R2.members) <= set(R.members):
        raise NotInResidue("R1 or R2 not contained in R")
    rJ = b.weyl.longest_element(R.J)
    table = b.weyl
    K2conj = frozenset(table.gen_index(table.conj_by(rJ, k)) for k in R2.J)
    if K2conj != R1.J:
        return False
    row_has = any(
        b.delta(a, c) == rJ for a in R1.members for c in R2.members
    )
    return row_has


@pytest.fixture(scope="session")
def fano():
    return gen_pg2(2)


@pytest.fixture(scope="session")
def pg23():
    return gen_pg2(3)


@pytest.fixture(scope="session")
def pg32():
    return gen_pg3(2)


@pytest.fixture(scope="session")
def pg33():
    return gen_pg3(3)


@pytest.fixture(scope="session")
def sp42():
    return gen_sp4(2)


@pytest.fixture(scope="session")
def sp43():
    return gen_sp4(3)


@pytest.fixture(scope="session")
def digon33():
    return gen_digon(3, 3)


@pytest.fixture(scope="session")
def thin_a3():
    return gen_thin(matrix_A3())


@pytest.fixture(scope="session")
def thin_a2():
    return gen_thin(matrix_A2())


@pytest.fixture(scope="session")
def thin_a1cubed():
    return gen_thin(matrix_A1cubed())


@pytest.fixture(scope="session")
def fano_tuple(fano):
    return tuple_rows(fano)


@pytest.fixture(scope="session")
def pg32_tuple(pg32):
    return tuple_rows(pg32)
