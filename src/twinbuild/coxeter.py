"""Exact finite Coxeter-group arithmetic.

Elements are dense integer ids into a fully enumerated table.  Equality
during enumeration is decided in the reflection representation with exact
coordinates in Q(sqrt2, sqrt3, sqrt5), stored as vectors of 8 rationals, so
the word problem needs no rewriting machinery.  Ids are assigned in ShortLex
order of the canonical reduced word, which makes id order refine length
order (and id 0 the identity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import CapExceeded, UnsupportedEntry

# ---------------------------------------------------------------------------
# Arithmetic in Q(sqrt2, sqrt3, sqrt5).
#
# Basis vectors indexed by bitmasks over the primes (2, 3, 5):
# mask m represents sqrt(prod of primes selected by m), so mask 0 is 1,
# mask 0b011 is sqrt(6), mask 0b111 is sqrt(30).  Products follow
# b_i * b_j = gcd-part * b_(i xor j) with the gcd-part the product of the
# shared primes.

_ZERO8 = (Fraction(0),) * 8

_SHARED_FACTOR = [
    [1] * 8 for _ in range(8)
]
for _i in range(8):
    for _j in range(8):
        c = 1
        common = _i & _j
        if common & 1:
            c *= 2
        if common & 2:
            c *= 3
        if common & 4:
            c *= 5
        _SHARED_FACTOR[_i][_j] = c


def _fconst(r: int | Fraction) -> tuple[Fraction, ...]:
    v = [Fraction(0)] * 8
    v[0] = Fraction(r)
    return tuple(v)


def _fbasis(mask: int, coeff: Fraction = Fraction(1)) -> tuple[Fraction, ...]:
    v = [Fraction(0)] * 8
    v[mask] = coeff
    return tuple(v)


def _fadd(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _fmul(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * 8
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if not bj:
                continue
            out[i ^ j] += ai * bj * _SHARED_FACTOR[i][j]
    return tuple(out)


# 2*cos(pi/m) for the supported bond orders; 0 encodes infinity and has the
# parabolic value 2.  enumerate_weyl never builds that representation: an
# infinite bond makes the group infinite, so it raises CapExceeded up front.
_TWO_COS = {
    2: _fconst(0),
    3: _fconst(1),
    4: _fbasis(0b001),                       # sqrt 2
    5: _fadd(_fconst(Fraction(1, 2)), _fbasis(0b100, Fraction(1, 2))),
    6: _fbasis(0b010),                       # sqrt 3
    0: _fconst(2),
}

_SUPPORTED = frozenset(_TWO_COS)


def _mat_mul(a, b, n: int):
    return tuple(
        tuple(
            _reduce_sum(_fmul(a[i][k], b[k][j]) for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )


def _reduce_sum(terms: Iterable[tuple[Fraction, ...]]) -> tuple[Fraction, ...]:
    acc = _ZERO8
    for t in terms:
        acc = _fadd(acc, t)
    return acc


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoxeterMatrix:
    """A Coxeter diagram: generator names plus the symmetric order matrix.

    Entry 0 encodes an infinite bond.  Finite off-diagonal entries must lie
    in {2,3,4,5,6} so that the reflection representation stays inside
    Q(sqrt2, sqrt3, sqrt5).
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
            orders = [self.m[a][b] for a, b in
                      ((J[0], J[1]), (J[0], J[2]), (J[1], J[2]))]
            if 0 in orders:
                return False
            return sum(Fraction(1, o) for o in orders) > 1
        raise ValueError("criterion implemented for |J| <= 3 only")

    def is_3_spherical(self) -> bool:
        k = self.rank
        subsets = [
            (a, b, c)
            for a in range(k)
            for b in range(a + 1, k)
            for c in range(b + 1, k)
        ]
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
        return all(self.is_spherical_subset(J) for J in pairs) and all(
            self.is_spherical_subset(J) for J in subsets
        )


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
    _subgroup_cache: dict = field(default_factory=dict, repr=False)
    _longest_cache: dict = field(default_factory=dict, repr=False)
    _inverse: Optional[list[int]] = field(default=None, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return self.matrix.rank

    def gen(self, s: int) -> int:
        return self.right[0][s]

    def mult(self, a: int, b: int) -> int:
        w = a
        for s in self.word[b]:
            w = self.right[w][s]
        return w

    def inv(self, a: int) -> int:
        inverse = self._inverse
        if inverse is None:
            # the inverse of w*s is s*(w^-1), and word[w] minus its last
            # letter is the word of an element with a smaller id
            inverse = [0] * self.size
            for w in range(1, self.size):
                s = self.word[w][-1]
                inverse[w] = self.left[inverse[self.right[w][s]]][s]
            self._inverse = inverse
        return inverse[a]

    def word_str(self, w: int) -> str:
        if w == 0:
            return "-"
        return "".join(self.matrix.gens[s] for s in self.word[w])

    def parse_word(self, text: str) -> int:
        """Parse a word over generator names (greedy; names are prefix-free)."""
        if text == "-" or text == "":
            return 0
        w = 0
        i = 0
        names = sorted(range(self.rank), key=lambda s: -len(self.matrix.gens[s]))
        while i < len(text):
            for s in names:
                g = self.matrix.gens[s]
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
        key = frozenset(J)
        cached = self._subgroup_cache.get(key)
        if cached is None:
            cached = tuple(
                w for w in range(self.size) if set(self.word[w]) <= key
            )
            self._subgroup_cache[key] = cached
        return cached

    def in_subgroup(self, w: int, J: Iterable[int]) -> bool:
        return set(self.word[w]) <= set(J)

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
        key = frozenset(J)
        cached = self._longest_cache.get(key)
        if cached is not None:
            return cached
        w = 0
        changed = True
        while changed:
            changed = False
            for t in sorted(key):
                wt = self.right[w][t]
                if self.length[wt] > self.length[w]:
                    w = wt
                    changed = True
        self._longest_cache[key] = w
        return w

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


def _reflection_generators(matrix: CoxeterMatrix):
    """Matrices of the generators in the reflection representation."""
    n = matrix.rank
    one = _fconst(1)
    zero = _ZERO8
    mats = []
    for s in range(n):
        rows = []
        for i in range(n):
            row = []
            for t in range(n):
                if i == s:
                    if t == s:
                        row.append(_fconst(-1))
                    else:
                        row.append(_TWO_COS[matrix.m[s][t]])
                else:
                    row.append(one if i == t else zero)
            rows.append(tuple(row))
        mats.append(tuple(rows))
    return mats


def enumerate_weyl(matrix: CoxeterMatrix, cap: int = DEFAULT_CAP) -> WeylTable:
    """Enumerate W by BFS over exact reflection matrices.

    Raises CapExceeded as soon as more than ``cap`` elements appear.  A
    matrix that is not 3-spherical (an infinite bond, or an affine or
    hyperbolic triangle such as Ã2) has an infinite parabolic subgroup of
    rank <= 3, so W is infinite, no cap can be met, and CapExceeded is
    raised before any enumeration.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if not matrix.is_3_spherical():
        raise CapExceeded(
            f"more than {cap} elements; a non-spherical parabolic subgroup "
            "of rank <= 3 makes the group infinite"
        )
    n = matrix.rank
    gens = _reflection_generators(matrix)
    identity = tuple(
        tuple(_fconst(1 if i == j else 0) for j in range(n)) for i in range(n)
    )

    ids: dict = {identity: 0}
    mats = [identity]
    length = [0]
    word: list[tuple[int, ...]] = [()]
    right: list[list[int]] = [[-1] * n]

    frontier = [0]
    while frontier:
        next_frontier: list[int] = []
        for w in frontier:
            mw = mats[w]
            for s in range(n):
                prod = _mat_mul(mw, gens[s], n)
                known = ids.get(prod)
                if known is None:
                    known = len(mats)
                    if known >= cap:
                        raise CapExceeded(
                            f"more than {cap} elements; group too large or infinite"
                        )
                    ids[prod] = known
                    mats.append(prod)
                    length.append(length[w] + 1)
                    word.append(word[w] + (s,))
                    right.append([-1] * n)
                    next_frontier.append(known)
                right[w][s] = known
        frontier = next_frontier

    size = len(mats)
    left = [[-1] * n for _ in range(size)]
    for w in range(size):
        for s in range(n):
            left[w][s] = ids[_mat_mul(gens[s], mats[w], n)]

    return WeylTable(
        matrix=matrix,
        size=size,
        length=length,
        right=right,
        left=left,
        word=word,
    )
