"""Exact finite Coxeter-group arithmetic.

Elements are dense integer ids into a fully enumerated table: the coset
table of the trivial subgroup in the Coxeter presentation
<S | s^2, (st)^m(s,t)>, found by HLT coset enumeration, so the word problem
needs no rewriting machinery.  Ids are assigned in ShortLex order of the
canonical reduced word, which makes id order refine length order (and id 0
the identity).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import combinations
from operator import methodcaller
from typing import Callable, Iterable, Optional, Sequence

from .errors import CapExceeded, UnsupportedEntry

_SUPPORTED = frozenset({0, 2, 3, 4, 5, 6})


@dataclass(frozen=True)
class CoxeterMatrix:
    """A Coxeter diagram: generator names plus the symmetric order matrix.

    Entry 0 encodes an infinite bond.  Finite off-diagonal entries must lie
    in {2,3,4,5,6}.
    """

    gens: tuple[str, ...]
    m: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.gens)
        if k == 0:
            raise UnsupportedEntry("empty generator set")
        if len(set(self.gens)) != k:
            raise UnsupportedEntry("duplicate generator names")
        for a in self.gens:
            if not a or not a.isidentifier():
                raise UnsupportedEntry(f"bad generator name {a!r}")
        for a in self.gens:
            for b in self.gens:
                if a != b and b.startswith(a):
                    raise UnsupportedEntry(
                        f"generator name {a!r} is a prefix of {b!r}; words would be ambiguous"
                    )
        if len(self.m) != k or any(len(row) != k for row in self.m):
            raise UnsupportedEntry("matrix shape does not match generator count")
        for i in range(k):
            if self.m[i][i] != 1:
                raise UnsupportedEntry("diagonal entries must be 1")
            for j in range(k):
                if self.m[i][j] != self.m[j][i]:
                    raise UnsupportedEntry("matrix must be symmetric")
                if i != j:
                    e = self.m[i][j]
                    if e not in _SUPPORTED or e == 1:
                        raise UnsupportedEntry(f"unsupported entry m[{i}][{j}] = {e}")

    @property
    def rank(self) -> int:
        return len(self.gens)

    def submatrix(self, J: Sequence[int]) -> "CoxeterMatrix":
        J = sorted(J)
        return CoxeterMatrix(
            gens=tuple(self.gens[i] for i in J),
            m=tuple(tuple(self.m[i][j] for j in J) for i in J),
        )

    def is_spherical_subset(self, J: Iterable[int]) -> bool:
        """Whether the standard subgroup W_J is finite, for |J| <= 3."""
        J = sorted(set(J))
        if len(J) <= 1:
            return True
        if len(J) == 2:
            return self.m[J[0]][J[1]] != 0
        if len(J) == 3:
            a, b, c = (self.m[x][y] for x, y in
                       ((J[0], J[1]), (J[0], J[2]), (J[1], J[2])))
            # 1/a + 1/b + 1/c > 1 multiplied by abc; an infinite bond (0)
            # makes W_J infinite
            return 0 not in (a, b, c) and b * c + a * c + a * b > a * b * c
        raise ValueError("criterion implemented for |J| <= 3 only")

    def is_3_spherical(self) -> bool:
        return all(self.is_spherical_subset(J)
                   for k in (2, 3) for J in combinations(range(self.rank), k))


DEFAULT_CAP = 200_000


@dataclass
class WeylTable:
    """A fully enumerated finite Coxeter group.

    ``right[w][s]`` and ``left[w][s]`` are the ids of w*s and s*w; ``word[w]``
    is the ShortLex-least reduced word (as generator indices).
    """

    matrix: CoxeterMatrix
    size: int
    length: list[int]
    right: list[list[int]]
    left: list[list[int]]
    word: list[tuple[int, ...]]
    inverse: list[int] = field(init=False, repr=False, compare=False)  # by w: w^-1
    # by w: the canonical word string, ``-`` for the identity; that string
    # ending a text line; and the inverse of the first
    word_strs: list[str] = field(init=False, repr=False, compare=False)
    word_lines: list[str] = field(init=False, repr=False, compare=False)
    word_ids: dict[str, int] = field(init=False, repr=False, compare=False)
    # by J (a frozenset of generator indices, every J of S): r_J
    longest: dict[frozenset, int] = field(init=False, repr=False, compare=False)
    pack: type = field(init=False, repr=False, compare=False)  # a row of ids: bytes if ids fit
    lane_bits: int = field(init=False, repr=False, compare=False)  # per id in ``lanes``
    identity_marks: Callable = field(init=False, repr=False, compare=False)  # w -> whether w is 1
    # by s, ``row_map``s: w -> the floor of w, ws (the smaller id); w -> whether
    # w is the shorter [0] or longer [1] of w, ws; w -> sw; w -> whether sw < w
    floor_rows: list[Callable] = field(init=False, repr=False, compare=False)
    mark_rows: list[list[Callable]] = field(init=False, repr=False, compare=False)
    left_rows: list[Callable] = field(init=False, repr=False, compare=False)
    down_rows: list[Callable] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the inverse of w*s is s*(w^-1), and word[w] minus its last letter
        # is the word of an element with a smaller id
        self.inverse = [0] * self.size
        for w in range(1, self.size):
            s = self.word[w][-1]
            self.inverse[w] = self.left[self.inverse[self.right[w][s]]][s]
        gens = self.matrix.gens
        self.word_strs = ["-"] + ["".join(gens[s] for s in w) for w in self.word[1:]]
        self.word_lines = [text + "\n" for text in self.word_strs]
        self.word_ids = {text: w for w, text in enumerate(self.word_strs)}
        self.pack = bytes if self.size <= 256 else tuple
        self.lane_bits = 8 if self.pack is bytes else 16
        types = range(self.rank)
        self.identity_marks = self.row_map([w == 0 for w in range(self.size)])
        floors = [[min(w, ws[s]) for w, ws in enumerate(self.right)] for s in types]
        self.floor_rows = [self.row_map(fl) for fl in floors]
        self.mark_rows = [[self.row_map([(w != f) == up for w, f in enumerate(fl)])
                           for up in (False, True)] for fl in floors]
        self.left_rows = [self.row_map([sw[s] for sw in self.left]) for s in types]
        self.down_rows = [self.row_map([sw[s] < w for w, sw in enumerate(self.left)])
                          for s in types]
        # r_J for every J: lengthen by a letter of J while one does; a
        # longer element has a larger id
        self.longest = {}
        for k in range(self.rank + 1):
            for J in combinations(range(self.rank), k):
                w = 0
                while (up := max((self.right[w][t] for t in J), default=0)) > w:
                    w = up
                self.longest[frozenset(J)] = w

    @property
    def rank(self) -> int:
        return self.matrix.rank

    def row_map(self, lookup: Sequence[int]) -> Callable[[Sequence[int]], Sequence[int]]:
        """The map of packed rows sending each id w to ``lookup[w]``: one
        ``bytes.translate`` on bytes rows, a gather on tuple rows."""
        if self.pack is bytes:
            return methodcaller("translate", bytes(lookup).ljust(256, b"\0"))
        return lambda row, get=list(lookup).__getitem__: tuple(map(get, row))

    def lanes(self, row: Sequence[int]) -> int:
        """A packed row as one int, id c in the c-th ``lane_bits`` bits; 16 bits
        hold any tuple row, as n >= |W| and n^2 delta values fit in memory."""
        if self.pack is not bytes:
            row = struct.pack(f"<{len(row)}H", *row)
        return int.from_bytes(row, "little")

    def lane_masks(self, n: int) -> tuple[int, int, Callable[[int], int]]:
        """For ``lanes`` of n ids: the ones of one lane, the top bit of every
        lane, and the map of x to the top bit of each lane of x that is 0
        (Warren, *Hacker's Delight*, 6-1; no borrow crosses a lane)."""
        full = (1 << self.lane_bits) - 1
        ones = ((1 << self.lane_bits * n) - 1) // full   # 1 in every lane
        lo, hi = ones * (full >> 1), ones << self.lane_bits - 1
        return full, hi, lambda x: ~(((x & lo) + lo) | x) & hi

    def unlanes(self, x: int, n: int) -> Sequence[int]:
        """The packed row of the n ids in the lanes of x; inverse to ``lanes``."""
        data = x.to_bytes(n * self.lane_bits // 8, "little")
        return data if self.pack is bytes else struct.unpack(f"<{n}H", data)

    def gen(self, s: int) -> int:
        return self.right[0][s]

    def mult(self, a: int, b: int) -> int:
        w = a
        for s in self.word[b]:
            w = self.right[w][s]
        return w

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def word_str(self, w: int) -> str:
        return self.word_strs[w]

    def parse_word(self, text: str) -> int:
        """Parse a word over generator names: a canonical word is one lookup;
        any other is read letter by letter, and since the names are
        prefix-free, at most one of them matches at any position."""
        if text in self.word_ids:
            return self.word_ids[text]
        w = 0
        i = 0
        while i < len(text):
            for s, g in enumerate(self.matrix.gens):
                if text.startswith(g, i):
                    w = self.right[w][s]
                    i += len(g)
                    break
            else:
                raise ValueError(f"cannot parse word {text!r} at position {i}")
        return w

    def subgroup(self, J: Iterable[int]) -> tuple[int, ...]:
        """Element ids of W_J, ascending.

        Membership uses the fact that every reduced word of an element of
        W_J has all its letters in J.
        """
        J = frozenset(J)
        return tuple(w for w in range(self.size) if J.issuperset(self.word[w]))

    def min_coset_rep(self, w: int, J: Iterable[int]) -> int:
        J = tuple(J)
        changed = True
        while changed:
            changed = False
            for t in J:
                wt = self.right[w][t]
                if self.length[wt] < self.length[w]:
                    w = wt
                    changed = True
        return w

    def longest_element(self, J: Iterable[int]) -> int:
        return self.longest[frozenset(J)]

    def max_coset_rep(self, w: int, J: Iterable[int]) -> int:
        J = tuple(J)
        return self.mult(self.min_coset_rep(w, J), self.longest_element(J))

    def gen_index(self, w: int) -> Optional[int]:
        """Generator index if w is a generator, else None."""
        if self.length[w] == 1:
            return self.word[w][0]
        return None

    def conj_by(self, w: int, s: int) -> int:
        """w^-1 * s * w."""
        return self.mult(self.mult(self.inv(w), self.gen(s)), w)

    def in_X_s(self, w: int, s: int) -> tuple[bool, Optional[int]]:
        """Membership in X_s: w^-1 s w is a generator and l(sw) = l(w) + 1."""
        if self.length[self.left[w][s]] != self.length[w] + 1:
            return False, None
        t = self.gen_index(self.conj_by(w, s))
        if t is None:
            return False, None
        return True, t

    def X_s(self, s: int) -> tuple[int, ...]:
        return tuple(w for w in range(self.size) if self.in_X_s(w, s)[0])

    def prec(self, w1: int, w2: int) -> bool:
        return (
            self.length[self.mult(self.inv(w1), w2)]
            == self.length[w2] - self.length[w1]
        )


def coset_table(
    ngens: int, words: Sequence[tuple[int, ...]], cap: int
) -> list[list[int]]:
    """Coset table of the trivial subgroup, by HLT coset enumeration
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, 5.1).

    Letters are ``2 * generator`` and ``2 * generator + 1`` for its inverse,
    so that ``a ^ 1`` is the inverse of letter ``a``; ``words`` are the
    relators.  The live cosets are numbered 0..k-1 in order of definition,
    coset 0 is the identity, and ``table[c][a]`` is c * a.

    Raises ``CapExceeded`` when it would define more than ``cap`` cosets.
    """
    width = 2 * ngens
    table: list[list[Optional[int]]] = [[None] * width]
    parent = [0]  # parent[c] == c for a live coset

    def rep(c: int) -> int:
        r = c
        while parent[r] != r:
            r = parent[r]
        while parent[c] != r:
            parent[c], c = r, parent[c]
        return r

    def define(c: int, a: int) -> None:
        if len(table) >= cap:
            raise CapExceeded(f"more than {cap} cosets")
        n = len(table)
        table.append([None] * width)
        parent.append(n)
        table[c][a] = n
        table[n][a ^ 1] = c

    def coincidence(a: int, b: int) -> None:
        queue: list[int] = []

        def merge(k: int, m: int) -> None:
            k, m = rep(k), rep(m)
            if k != m:
                k, m = min(k, m), max(k, m)
                parent[m] = k
                queue.append(m)

        merge(a, b)
        for e in queue:
            for x in range(width):
                f = table[e][x]
                if f is None:
                    continue
                table[f][x ^ 1] = None
                e1, f1 = rep(e), rep(f)
                if table[e1][x] is not None:
                    merge(f1, table[e1][x])
                elif table[f1][x ^ 1] is not None:
                    merge(e1, table[f1][x ^ 1])
                else:
                    table[e1][x] = f1
                    table[f1][x ^ 1] = e1

    def scan_and_fill(c: int, w: tuple[int, ...]) -> None:
        f, i = c, 0
        b, j = c, len(w) - 1
        while True:
            while i <= j and table[f][w[i]] is not None:
                f = table[f][w[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][w[j] ^ 1] is not None:
                b = table[b][w[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][w[i]] = b
                table[b][w[i] ^ 1] = f
                return
            define(f, w[i])

    c = 0
    while c < len(table):
        for w in words:
            if parent[c] != c:
                break
            scan_and_fill(c, w)
        if parent[c] == c:
            for a in range(width):
                if table[c][a] is None:
                    define(c, a)
        c += 1
    live = [c for c, p in enumerate(parent) if c == p]
    index = {c: k for k, c in enumerate(live)}
    return [[index[rep(d)] for d in table[c]] for c in live]


def enumerate_weyl(matrix: CoxeterMatrix) -> WeylTable:
    """Enumerate W as the coset table of the trivial subgroup in its Coxeter
    presentation <S | s^2, (st)^m(s,t)>.

    ``DEFAULT_CAP``, read at each call, bounds the cosets the enumeration
    defines.  That is at least |W|, so CapExceeded is raised whenever
    |W| > cap; but the enumeration may define a few times |W| before
    coincidences collapse them (2.2-2.7x on E6, A7 and B6), so a finite
    group of more than about 75,000 elements may hit the cap as well.  A
    matrix that is not 3-spherical (an infinite bond, or an affine or
    hyperbolic triangle such as Ã2) has an infinite parabolic subgroup of
    rank <= 3, so W is infinite, no cap can be met, and CapExceeded is
    raised before any enumeration.
    """
    cap = DEFAULT_CAP
    if not matrix.is_3_spherical():
        raise CapExceeded(
            f"more than {cap} elements; a non-spherical parabolic subgroup "
            "of rank <= 3 makes the group infinite"
        )
    n = matrix.rank
    relators = [(2 * s, 2 * s) for s in range(n)] + [
        (2 * s, 2 * t) * matrix.m[s][t] for s in range(n) for t in range(s + 1, n)
    ]
    try:
        cosets = coset_table(n, relators, cap)
    except CapExceeded:
        raise CapExceeded(f"more than {cap} cosets; group too large or infinite") from None

    # Breadth first from the identity, generators ascending, each element is
    # first reached from the least id one letter shorter by the least
    # letter, i.e. along its ShortLex-least reduced word; so ids, lengths and
    # words are in ShortLex order.
    ids = [0] + [-1] * (len(cosets) - 1)  # coset -> element id
    order, length, word = [0], [0], [()]  # element id -> coset, length, word
    for w, c in enumerate(order):
        for s in range(n):
            d = cosets[c][2 * s]
            if ids[d] < 0:
                ids[d] = len(order)
                order.append(d)
                length.append(length[w] + 1)
                word.append(word[w] + (s,))
    right = [[ids[cosets[c][2 * s]] for s in range(n)] for c in order]

    # s * w traces s followed by word[w] through right; with t the last
    # letter of word[w], that is (s * wt) * t, and wt has a smaller id.
    left = [list(right[0])]
    for w in range(1, len(order)):
        t = word[w][-1]
        left.append([right[x][t] for x in left[right[w][t]]])

    return WeylTable(matrix, len(order), length, right, left, word)
