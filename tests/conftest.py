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
from twinbuild.coxeter import CoxeterMatrix


def matrix_A1cubed():
    return CoxeterMatrix(
        ("a", "b", "c"),
        ((1, 2, 2), (2, 1, 2), (2, 2, 1)),
    )


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
