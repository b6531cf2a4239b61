import hashlib

import pytest

from twinbuild.catalog import (
    gen_digon,
    gen_pg2,
    gen_pg3,
    gen_sp4,
    gen_thin,
    matrix_A2,
    matrix_A3,
    product,
)
from twinbuild.chambersys import validate_building
from twinbuild.cli import serialize_building
from twinbuild.coxeter import CoxeterMatrix
from twinbuild.codistance import from_opposite_chamber, validate_codistance
from twinbuild.errors import NameClash, UnsupportedQ


def poincare_count(table, q):
    """Sum of q^l(w) over the enumerated group."""
    return sum(q ** l for l in table.length)


COUNTS = [
    ("pg2", 2, 21),
    ("pg2", 3, 52),
    ("pg3", 2, 315),
    ("sp4", 2, 45),
    ("sp4", 3, 160),
]


@pytest.mark.parametrize("family,q,n", COUNTS)
def test_chamber_counts_and_poincare(family, q, n):
    gen = {"pg2": gen_pg2, "pg3": gen_pg3, "sp4": gen_sp4}[family]
    b = gen(q)
    assert b.n == n
    # independent count: sum of q^l(w) over the Weyl group
    assert poincare_count(b.weyl, q) == n
    assert validate_building(b).ok


def test_thin_building(thin_a2, thin_a3):
    assert thin_a2.n == 6
    assert thin_a3.n == 24
    for b in (thin_a2, thin_a3):
        assert all(len(p) == 2 for fam in b.system.panels for p in fam)
        assert validate_building(b).ok
        # delta from the identity chamber enumerates the group
        assert sorted(b.delta(0, y) for y in range(b.n)) == list(range(b.n))


def test_digon(digon33):
    assert digon33.n == 9
    assert validate_building(digon33).ok
    # every point panel meets every line panel in exactly one chamber
    for p in digon33.system.panels[0]:
        for q in digon33.system.panels[1]:
            assert len(set(p) & set(q)) == 1


def test_unsupported_q():
    # every prime q is supported; prime powers and other q are not
    for gen, q in ((gen_pg2, 4), (gen_pg3, 6), (gen_sp4, 9), (gen_pg2, 1), (gen_pg2, 0)):
        with pytest.raises(UnsupportedQ):
            gen(q)


def test_prime_q_beyond_3():
    b = gen_pg2(5)
    assert b.n == 186 == poincare_count(b.weyl, 5)
    assert validate_building(b).ok
    assert validate_codistance(from_opposite_chamber(b, 0)).ok


def test_product():
    b1 = gen_thin(matrix_A2())
    b2 = gen_pg2(2)
    with pytest.raises(NameClash):
        product(b1, b2)  # both use generator names p, l
    b1 = gen_thin(CoxeterMatrix(("a", "b"), ((1, 3), (3, 1))))
    combined = product(b1, b2)
    assert combined.n == b1.n * b2.n
    assert validate_building(combined).ok
    # cross-type bonds are commuting
    m = combined.weyl.matrix.m
    assert all(m[i][j] == 2 for i in range(2) for j in range(2, 4))


def test_sp4_is_generalized_quadrangle(sp42):
    # B2 building: longest element has length 4
    table = sp42.weyl
    assert table.length[table.longest_element((0, 1))] == 4
    assert validate_building(sp42).ok


# sha256 of serialize_building: the chamber numbering and every panel
@pytest.mark.parametrize("gen, args, digest", [
    (gen_pg2, (2,), "d27ea9290f571b7345076a9478fea37980f1c09671d445415a069e54f90a82c1"),
    (gen_pg2, (3,), "191f0c8463b018376de76826b74b000da71a501e45804e0d80e8e832bec6ec57"),
    (gen_pg3, (2,), "e86f4ff60d51c33410b6e98428a165667de7da698af4f9e0a37377eefd0593b8"),
    (gen_sp4, (2,), "0d92dd6475be6332298d0e9848e3e7d4cef4c2ba0bdcbe61c60cf0e20256eb47"),
    (gen_sp4, (3,), "5e9f066e8f62e980173b83b1d421f0cd683fce2517e1ee44b9dfcf93a4799ee8"),
    (gen_digon, (3, 3), "bf3ea12a0f05dea01a548be7d8fe4afaf1a3459c2b06375f3298aa372c31b066"),
    (gen_digon, (2, 4), "1304061f51407236e64a9f890e5b5a15f30f7706286b55a1e356c55c992e97be"),
])
def test_catalog_bytes_pinned(gen, args, digest):
    text = serialize_building(gen(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
