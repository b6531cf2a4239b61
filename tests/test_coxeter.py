import hashlib
import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from twinbuild import coxeter
from twinbuild.catalog import gen_pg2, gen_thin, product
from twinbuild.coxeter import CoxeterMatrix, WeylTable, enumerate_weyl
from twinbuild.errors import CapExceeded, UnsupportedEntry


def mA(n, names):
    """Type A_n Coxeter matrix (consecutive bonds of order 3)."""
    k = n
    m = [[1 if i == j else (3 if abs(i - j) == 1 else 2) for j in range(k)]
         for i in range(k)]
    return CoxeterMatrix(tuple(names[:k]), tuple(tuple(r) for r in m))


def mB(n, names):
    m = [[1 if i == j else (3 if abs(i - j) == 1 else 2) for j in range(n)]
         for i in range(n)]
    m[0][1] = m[1][0] = 4
    return CoxeterMatrix(tuple(names[:n]), tuple(tuple(r) for r in m))


def mI2(order):
    return CoxeterMatrix(("p", "l"), ((1, order), (order, 1)))


def factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


# oracle group orders from the classical formulas, independent of the
# enumeration: |A_n| = (n+1)!, |B_n| = 2^n n!, |I2(m)| = 2m, products multiply
ORDER_CASES = [
    (mA(1, "a"), 2),
    (mA(2, "ab"), factorial(3)),
    (mB(2, "ab"), 2 ** 2 * factorial(2)),
    (mA(3, "abc"), factorial(4)),
    (mB(3, "abc"), 2 ** 3 * factorial(3)),
    (CoxeterMatrix(("a", "b", "c"), ((1, 2, 2), (2, 1, 2), (2, 2, 1))), 8),
]


@pytest.mark.parametrize("matrix,order", ORDER_CASES)
def test_group_orders(matrix, order):
    table = enumerate_weyl(matrix)
    assert table.size == order


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_dihedral_orders(m):
    table = enumerate_weyl(mI2(m))
    assert table.size == 2 * m
    assert table.length[table.longest_element((0, 1))] == m


def test_a1_cross_dihedral_orders():
    for m in (3, 4, 5, 6):
        matrix = CoxeterMatrix(
            ("a", "p", "l"),
            ((1, 2, 2), (2, 1, m), (2, m, 1)),
        )
        assert enumerate_weyl(matrix).size == 2 * 2 * m


def test_infinite_type_hits_cap():
    with pytest.raises(CapExceeded):
        enumerate_weyl(mI2(0))


AFFINE_A3 = CoxeterMatrix(
    ("a", "b", "c", "d"),
    ((1, 3, 2, 3), (3, 1, 3, 2), (2, 3, 1, 3), (3, 2, 3, 1)),
)


def test_affine_a3_hits_cap_inside_enumeration(monkeypatch):
    # Ã3 is 3-spherical, so only the enumeration itself can stop it
    assert AFFINE_A3.is_3_spherical()
    monkeypatch.setattr(coxeter, "DEFAULT_CAP", 1000)
    with pytest.raises(CapExceeded):
        enumerate_weyl(AFFINE_A3)


def bonds(rank, **m):
    """Matrix of the given rank with bonds ``m["ij"]``, every other entry 2."""
    rows = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for ij, order in m.items():
        i, j = int(ij[1]), int(ij[2])
        rows[i][j] = rows[j][i] = order
    return CoxeterMatrix(tuple("abcd"[:rank]), tuple(tuple(r) for r in rows))


# digests of (size, length, right, left, word) computed independently, by
# BFS over exact reflection matrices with entries in Q(sqrt2, sqrt3, sqrt5)
TABLE_DIGESTS = [
    ("A1", bonds(1), "ddf6ed464d371c04c172513fe76950d29bd98bc274f3067fba8b6531e0db9136"),
    ("A2", bonds(2, m01=3), "12d6600bb88f9ac36cbcdfd053c5f57dc49493bdb57483afaeb1bc2e595d471b"),
    ("B2", bonds(2, m01=4), "f7c3d43cb912bd9bdb73c0bd57bd4e8f9e642ea0e5243947f5546b621131db27"),
    ("I2(5)", bonds(2, m01=5), "e4e3dc8af4266ddd533093a73df0ccf4c452dfe4580a241cdaadc7343bb34d80"),
    ("G2", bonds(2, m01=6), "6d25d824842e84d655d4d9e2b6e49655bc2aa15cdc3d8103f3282b39d6cda0fb"),
    ("A1xA1", bonds(2), "672b9394858e99bd9986ff0e5a6557111bc033be9e0980041a35c77ef02172a7"),
    ("A3", bonds(3, m01=3, m12=3),
     "ede9cd7cd940c186282d3242181bfb8b4d7b5883ed7f136666411f7f5d18b3e4"),
    ("B3", bonds(3, m01=4, m12=3),
     "6c1422b73bedda8f6f9acc831c8e3b8cea31457a8daeee10ca7664eabdbc30d6"),
    ("H3", bonds(3, m01=5, m12=3),
     "7bdcba0a56137e37a954789322f0bcd4307871e463fa8def91fec603e1897776"),
    ("A1xG2", bonds(3, m12=6),
     "00cafb1c042941d77d1fbb0bb0ab2d73dc92b6f5de17ce58e2110a6d6829288d"),
    ("A4", bonds(4, m01=3, m12=3, m23=3),
     "7709b2c27a1af412fdf7850229e96ee9e52dacec893a00927dff50a191ffa6d9"),
    ("D4", bonds(4, m01=3, m12=3, m13=3),
     "a7c57dfd253b3686d62c879829da710b99b4bdc50fa9d992af5e33441240ef0a"),
    ("F4", bonds(4, m01=3, m12=4, m23=3),
     "26cd046ea1fd1b3595cf2f31dee7094acd9b84a6afcfc072d86978c9bfe03b91"),
]


@pytest.mark.parametrize(
    "matrix,digest", [c[1:] for c in TABLE_DIGESTS], ids=[c[0] for c in TABLE_DIGESTS]
)
def test_weyl_table_pinned(matrix, digest):
    t = enumerate_weyl(matrix)
    data = repr((t.size, t.length, t.right, t.left, t.word)).encode()
    assert hashlib.sha256(data).hexdigest() == digest


def test_identity_is_zero_and_ids_refine_length():
    table = enumerate_weyl(mB(3, "abc"))
    assert table.length[0] == 0
    lengths = [table.length[w] for w in range(table.size)]
    assert lengths == sorted(lengths)


def test_shortlex_words_are_minimal():
    """The stored word of each element is the ShortLex-least reduced word."""
    table = enumerate_weyl(mB(2, "ab"))
    for w in range(table.size):
        target_len = table.length[w]
        best = None
        for letters in itertools.product(range(2), repeat=target_len):
            x = 0
            for s in letters:
                x = table.right[x][s]
            if x == w and (best is None or letters < best):
                best = letters
        assert table.word[w] == (best or ())


def test_parse_word_roundtrip_and_canonicalization():
    table = enumerate_weyl(mA(2, ["p", "l"]))
    for w in range(table.size):
        assert table.parse_word(table.word_str(w)) == w
    # non-reduced input is folded to the group element
    assert table.parse_word("pp") == 0
    assert table.parse_word("plp") == table.parse_word("lpl")


def test_parse_word_multi_character_names():
    table = enumerate_weyl(
        CoxeterMatrix(("a", "bc", "def"), ((1, 3, 2), (3, 1, 3), (2, 3, 1)))
    )
    for w in range(table.size):
        assert table.parse_word(table.word_str(w)) == w
    # non-canonical words still parse to the group element
    assert table.parse_word("defa") == table.parse_word("adef")
    assert table.parse_word("bcbc") == 0
    assert table.parse_word("abca") == table.parse_word("bcabc")
    with pytest.raises(ValueError):
        table.parse_word("ab")


def test_prefix_name_rejected():
    with pytest.raises(UnsupportedEntry):
        CoxeterMatrix(("a", "ab"), ((1, 3), (3, 1)))


def test_bad_entries_rejected():
    with pytest.raises(UnsupportedEntry):
        CoxeterMatrix(("a", "b"), ((1, 7), (7, 1)))
    with pytest.raises(UnsupportedEntry):
        CoxeterMatrix(("a", "b"), ((2, 3), (3, 1)))
    with pytest.raises(UnsupportedEntry):
        CoxeterMatrix(("a", "b"), ((1, 3), (4, 1)))


@pytest.fixture(scope="module")
def a3():
    return enumerate_weyl(mA(3, "abc"))


@pytest.fixture(scope="module")
def b2():
    return enumerate_weyl(mB(2, "ab"))


def all_subsets(rank):
    out = []
    for mask in range(1 << rank):
        out.append(tuple(s for s in range(rank) if mask & (1 << s)))
    return out


@pytest.mark.parametrize("tname", ["a3", "b2"])
def test_length_identities(tname, request):
    table = request.getfixturevalue(tname)
    rank = table.rank
    for w in range(table.size):
        lw = table.length[w]
        for s in range(rank):
            # one-step moves change length by exactly one
            assert abs(table.length[table.right[w][s]] - lw) == 1
            assert abs(table.length[table.left[w][s]] - lw) == 1
            for t in range(rank):
                sw = table.left[w][s]
                wt = table.right[w][t]
                if table.length[sw] == lw + 1 == table.length[wt]:
                    swt = table.right[sw][t]
                    assert table.length[swt] == lw + 2 or swt == w


@pytest.mark.parametrize("tname", ["a3", "b2"])
def test_parabolic_lengths_match_subenumeration(tname, request):
    table = request.getfixturevalue(tname)
    for J in all_subsets(table.rank):
        if not J:
            continue
        sub = enumerate_weyl(table.matrix.submatrix(J))
        elems = table.subgroup(J)
        assert len(elems) == sub.size
        assert sorted(table.length[w] for w in elems) == sorted(sub.length)


@pytest.mark.parametrize("tname", ["a3", "b2"])
def test_coset_representatives(tname, request):
    table = request.getfixturevalue(tname)
    for J in all_subsets(table.rank):
        sub = set(table.subgroup(J))
        rJ = table.longest_element(J)
        # the longest element reverses lengths within the parabolic
        for u in sub:
            assert (
                table.length[table.mult(rJ, u)] + table.length[u]
                == table.length[rJ]
            )
        for w in range(table.size):
            wJ = table.min_coset_rep(w, J)
            coset = {table.mult(w, u) for u in sub}
            assert wJ in coset
            for t in J:
                assert table.length[table.right[wJ][t]] == table.length[wJ] + 1
            # length is additive over the coset decomposition
            for x in coset:
                assert table.length[x] == table.length[wJ] + table.length[
                    table.mult(table.inv(wJ), x)
                ]
            wmax = table.max_coset_rep(w, J)
            assert wmax == table.mult(wJ, rJ)
            for t in J:
                assert table.length[table.right[wmax][t]] == table.length[wmax] - 1
            assert table.length[wmax] == table.length[wJ] + table.length[rJ]


def test_X_s_and_prec(b2):
    table = b2
    for s in range(table.rank):
        for w in table.X_s(s):
            t = table.gen_index(table.conj_by(w, s))
            assert t is not None
            assert table.length[table.left[w][s]] == table.length[w] + 1
        # x_J = s * r_J lies in X_s and dominates X_s within W_J
        J = (0, 1)
        xJ = table.mult(table.gen(s), table.longest_element(J))
        assert table.in_X_s(xJ, s)[0]
        for w in table.X_s(s):
            if set(table.word[w]) <= set(J):
                assert table.prec(w, xJ)


def test_three_spherical_detection():
    assert mA(3, "abc").is_3_spherical()
    affine = CoxeterMatrix(
        ("a", "b", "c"),
        ((1, 3, 3), (3, 1, 3), (3, 3, 1)),
    )
    assert not affine.is_3_spherical()


def test_spherical_triples_match_the_reciprocal_sum():
    # W_J on three generators is finite iff no bond is infinite (0) and
    # 1/a + 1/b + 1/c > 1
    for a, b, c in itertools.product((0, 2, 3, 4, 5, 6), repeat=3):
        matrix = CoxeterMatrix(("x", "y", "z"), ((1, a, b), (a, 1, c), (b, c, 1)))
        finite = 0 not in (a, b, c) and sum(Fraction(1, e) for e in (a, b, c)) > 1
        assert matrix.is_spherical_subset((0, 1, 2)) == finite


def test_cli_import_loads_no_fraction_modules():
    code = (
        "import sys\n"
        "import twinbuild.cli\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_equality_ignores_the_caches():
    # two tables (and chamber systems) built from one matrix stay equal after
    # either has answered longest_element and subgroup; the derived fields
    # do not take part in equality
    matrix = mA(3, "abc")
    x, y = enumerate_weyl(matrix), enumerate_weyl(matrix)
    x.longest_element((0, 1))
    y.subgroup((1, 2))
    assert x == y
    bx, by = gen_pg2(2), gen_pg2(2)
    assert bx.system == by.system
    bx.weyl.longest_element((0, 1))
    by.weyl.subgroup((0,))
    assert bx.weyl == by.weyl
    assert bx.system == by.system


TABLES = {
    "A1": lambda: enumerate_weyl(mA(1, "a")),
    "A2": lambda: enumerate_weyl(mA(2, "ab")),
    "B2": lambda: enumerate_weyl(mB(2, "ab")),
    "G2": lambda: enumerate_weyl(mI2(6)),
    "I2(5)": lambda: enumerate_weyl(mI2(5)),
    "A3": lambda: enumerate_weyl(mA(3, "abc")),
    "B3": lambda: enumerate_weyl(mB(3, "abc")),
    "A1^3": lambda: enumerate_weyl(
        CoxeterMatrix(("a", "b", "c"), ((1, 2, 2), (2, 1, 2), (2, 2, 1)))),
    "A2xpg2(2)": lambda: product(
        gen_thin(CoxeterMatrix(("a", "b"), ((1, 3), (3, 1)))), gen_pg2(2)).weyl,
}


def greedy_longest(table, J):
    """r_J by a greedy walk from the identity: right-multiply by the first
    letter of J, ascending, that lengthens, until none does."""
    w = 0
    changed = True
    while changed:
        changed = False
        for t in sorted(J):
            wt = table.right[w][t]
            if table.length[wt] > table.length[w]:
                w = wt
                changed = True
    return w


@pytest.mark.parametrize("name", list(TABLES))
def test_longest_holds_the_greedy_walk_for_every_J(name):
    table = TABLES[name]()
    subsets = all_subsets(table.rank)
    assert len(table.longest) == len(subsets) == 2 ** table.rank
    for J in subsets:
        assert table.longest[frozenset(J)] == greedy_longest(table, J)
        assert table.longest_element(J) == greedy_longest(table, J)


@pytest.mark.parametrize("name", list(TABLES))
def test_word_strings_and_ids_are_inverse(name):
    table = TABLES[name]()
    assert table.word_strs[0] == "-"
    assert len(table.word_ids) == table.size
    gens = table.matrix.gens
    for w in range(table.size):
        if w:
            assert table.word_strs[w] == "".join(gens[s] for s in table.word[w])
        assert table.word_ids[table.word_strs[w]] == w
        assert table.parse_word(table.word_str(w)) == w
