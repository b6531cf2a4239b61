"""The twin-file texts, the opposite-chamber oracle and the f^op masks
against their per-value references, on byte rows and tuple rows alike.

The references are the one-f-string-per-value and one-gather-per-row forms
that ``cli._codistance_text`` and ``codistance.from_opposite_chamber``
replace; every text and row must be the same, value for value and byte for
byte."""

import random

import pytest

from twinbuild import cli, twinner
from twinbuild.catalog import gen_thin, matrix_B4
from twinbuild.codistance import Codistance, from_opposite_chamber

FIXTURES = [
    "fano", "pg23", "pg32", "pg33", "sp42", "sp43", "digon33", "thin_a1cubed",
    "thin_a2", "thin_a3", "fano_tuple", "pg32_tuple", "thin_b4",
]
# seed chambers per building: every chamber, but a spread sample of pg3(3)'s
SAMPLE = 16


@pytest.fixture(scope="module")
def thin_b4():
    return gen_thin(matrix_B4())   # |W| = 384: tuple rows of 16-bit lanes


def codistance_text_reference(b, values):
    words = b.weyl.word_strs
    return (f"%codistance 1\nbuilding {b.name}\nvalues\n"
            + "".join([f"{c} {words[v]}\n" for c, v in enumerate(values)]) + "end\n")


def from_opposite_chamber_reference(b, c):
    table = b.weyl
    r = table.longest_element(range(table.rank))
    products = [table.mult(r, w) for w in range(table.size)]
    return Codistance(b, list(map(products.__getitem__, b.rows[c])))


def seeds(b):
    return range(b.n) if b.n <= 400 else range(0, b.n, b.n // SAMPLE)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_text_kernels_match_the_per_value_references(request, fixture):
    b = request.getfixturevalue(fixture)
    table = b.weyl
    members = [from_opposite_chamber(b, c) for c in seeds(b)]
    for c, g in zip(seeds(b), members):
        assert type(g.values) is table.pack
        assert g.values == from_opposite_chamber_reference(b, c).values
    # every Weyl id in a value row, and the last one at the last chamber
    rng = random.Random(fixture)
    ids = list(range(table.size)) * (b.n // table.size + 1)
    rows = [g.values for g in members] + [
        table.pack(rng.sample(ids, b.n - 1) + [table.size - 1]) for _ in range(3)]
    assert set().union(*rows) == set(range(table.size))
    for values in rows:
        text = cli._codistance_text(b, values)
        assert text == codistance_text_reference(b, values)
        assert cli.parse_codistance(text, b).values == values
    for g in members:
        assert cli.serialize_codistance(g) == codistance_text_reference(b, g.values)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_identity_masks_match_the_chamber_sums(request, fixture):
    # the f^op masks of the opposition and plus-star checks, and plus-star's
    # B- masks over the members, from one pass per row
    b = request.getfixturevalue(fixture)
    members = [from_opposite_chamber(b, c) for c in seeds(b)]
    assert twinner._identity_masks(b.weyl, [g.values for g in members]) == [
        sum(1 << c for c in g.fop()) for g in members]
    columns = [b.weyl.pack(col) for col in zip(*(g.values for g in members))]
    assert twinner._identity_masks(b.weyl, columns) == [
        sum(1 << i for i, v in enumerate(col) if v == 0) for col in columns]
