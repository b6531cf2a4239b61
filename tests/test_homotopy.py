"""Connectivity certificates, local conditions, and residual filtrations."""

import hashlib
import random
from types import SimpleNamespace

import pytest

import twinbuild.homotopy as homotopy
from twinbuild.catalog import gen_thin, matrix_A1, product
from twinbuild.chambersys import opposite_set
from twinbuild.codistance import Codistance, from_opposite_chamber
from twinbuild.errors import NotConnected
from twinbuild.homotopy import (
    FiltrationViolation,
    PROVEN_NONTRIVIAL,
    PROVEN_TRIVIAL,
    TrivialityVerdict,
    _presentation,
    check_lco,
    check_lsco,
    connected,
    residual_filtration,
    simply_2_connected,
)


def step(b, c, s):
    """The first chamber other than c in the s-panel of c."""
    return next(z for z in b.system.panel_members(c, s) if z != c)


def coxeter_cycle(b):
    """The orbit cycle of chamber 0 under repeated 0,1,2 panel steps."""
    orbit = [0]
    c = 0
    while True:
        for s in (0, 1, 2):
            c = step(b, c, s)
            if c == 0:
                return orbit
            orbit.append(c)


# -- connectivity -------------------------------------------------------------


def test_whole_building_connected(fano):
    assert connected(range(fano.n), range(2), fano)


def test_empty_subset_connected(fano):
    assert connected((), range(2), fano)


def test_two_far_chambers_disconnected(fano):
    far = next(c for c in range(fano.n) if fano.weyl.length[fano.delta(0, c)] == 3)
    assert not connected({0, far}, range(2), fano)


def test_simply_2_connected_whole_building(fano):
    v = simply_2_connected(range(fano.n), fano)
    assert v.status == PROVEN_TRIVIAL


def test_simply_2_connected_rank3_thin(thin_a3):
    v = simply_2_connected(range(thin_a3.n), thin_a3)
    assert v.status == PROVEN_TRIVIAL


def test_coxeter_cycle_proven_nontrivial(thin_a3):
    orbit = coxeter_cycle(thin_a3)
    assert len(orbit) == 12
    v = simply_2_connected(orbit, thin_a3)
    assert v.status == PROVEN_NONTRIVIAL
    assert v.certificate == ("free", 1)


def test_disconnected_subset_raises(fano):
    far = next(c for c in range(fano.n) if fano.weyl.length[fano.delta(0, c)] == 3)
    with pytest.raises(NotConnected):
        simply_2_connected({0, far}, fano)


# -- local conditions ---------------------------------------------------------


def test_lco_passes_on_projective_planes(fano, pg23, digon33):
    for b in (fano, pg23, digon33):
        report = check_lco(b)
        assert report.ok
        assert report.entries == []


def test_lco_fails_on_symplectic_quadrangle(sp42):
    report = check_lco(sp42)
    assert not report.ok
    first = report.entries[0]
    assert first.verdict.status == PROVEN_NONTRIVIAL
    # every chamber of every residue witnesses the failure here
    assert len(report.entries) == 45


def test_opposite_set_contents(fano):
    R = fano.residue(0, (0, 1))
    opp = opposite_set(fano, R, 0)
    r = fano.weyl.longest_element((0, 1))
    assert opp == frozenset(
        y for y in range(fano.n) if fano.delta(0, y) == r
    )
    assert opp
    assert connected(opp, (0, 1), fano)


def test_lsco_on_thin_rank3(thin_a3, thin_a1cubed):
    for b in (thin_a3, thin_a1cubed):
        report = check_lsco(b)
        assert report.ok


def test_lsco_vacuous_in_rank2(fano):
    # no rank-3 residues to check
    assert check_lsco(fano).ok


def test_lsco_disconnected_opposite_sets(sp42):
    # sp4(2) x thin A1 is its own rank-3 residue; an opposite set there is an
    # sp4(2) opposite set times one chamber, and sp4(2) fails lco, so every
    # one of the 90 sets is disconnected
    b = product(sp42, gen_thin(matrix_A1()))
    assert b.n == 90
    report = check_lsco(b)
    assert not report.ok
    assert len(report.entries) == 90
    R = b.residue(0, (0, 1, 2))
    for e in report.entries:
        assert e.J == (0, 1, 2)
        assert e.verdict.status == PROVEN_NONTRIVIAL
        opp = opposite_set(b, R, e.chamber)
        assert not connected(opp, e.J, b)
        assert e.verdict.certificate == ("disconnected", tuple(sorted(opp)))


# -- residual filtration ------------------------------------------------------


def test_filtration_levels(fano):
    f = from_opposite_chamber(fano, 0)
    filt = residual_filtration(f)
    assert [len(L) for L in filt.levels] == [8, 12, 16, 18, 20, 21]
    assert filt.levels[0] == frozenset(f.fop())
    assert filt.levels[-1] == frozenset(range(fano.n))
    for n in range(1, len(filt.levels)):
        assert filt.levels[n - 1] < filt.levels[n]
        assert n in filt.witnesses


def test_filtration_level_of(fano):
    # a chamber enters the filtration at its f-value id
    f = from_opposite_chamber(fano, 0)
    filt = residual_filtration(f)
    for c in range(fano.n):
        lvl = f.values[c]
        assert c in filt.levels[lvl]
        assert lvl == 0 or c not in filt.levels[lvl - 1]


def test_filtration_on_all_fixtures(sp42, thin_a3, digon33):
    for b in (sp42, thin_a3, digon33):
        f = from_opposite_chamber(b, 0)
        filt = residual_filtration(f)
        assert filt.levels[0] == frozenset(f.fop())


def test_filtration_violation_detected(fano):
    r = fano.weyl.longest_element(range(2))
    values = [r] * fano.n
    values[0] = 0
    with pytest.raises(FiltrationViolation) as exc:
        residual_filtration(Codistance(fano, values))
    assert exc.value.axiom == "F3"


def test_filtration_aff_violation_detected(fano):
    # chambers 0, 3 and 6 form the first p-panel: its least level is chamber
    # 0's, but chamber 3's value is shorter, so aff(R) != A_f(R) there
    table = fano.weyl
    values = [table.longest_element(range(2))] * fano.n
    values[0] = table.parse_word("p")
    values[3] = table.parse_word("l")
    assert fano.panel(0, 0).members == (0, 3, 6)
    with pytest.raises(FiltrationViolation) as exc:
        residual_filtration(Codistance(fano, values))
    assert (exc.value.axiom, exc.value.level, exc.value.witness) == ("aff=A_f", 1, ((0,), 0))


def residual_filtration_reference(f):
    """The filtration of f with every axiom checked, those that hold by
    construction included: C_0 = f^op, (F1) nesting, (F2) exhaustion, then
    per residue aff(R) = A_f(R) and (F3) at every level.  Returns (levels,
    witnesses), or (axiom, level, witness) of the first violation."""
    b = f.building
    table = b.weyl
    top = max(f.values)
    levels = [
        frozenset(c for c, v in enumerate(f.values) if v <= n)
        for n in range(top + 1)
    ]
    if set(f.fop()) != levels[0]:
        return ("C0=fop", 0, tuple(sorted(levels[0])))
    for n in range(1, len(levels)):
        if not levels[n - 1] <= levels[n]:
            return ("F1", n, None)
    if levels[-1] != frozenset(range(b.n)):
        return ("F2", len(levels) - 1, None)
    rank = b.system.rank
    witnesses = {}
    for mask in range(1, 1 << rank):
        J = frozenset(s for s in range(rank) if mask & (1 << s))
        for R in b.residues_of_type(J):
            chambers = R.members
            minlevel = min(f.values[c] for c in chambers)
            aff = {c for c in chambers if f.values[c] == minlevel}
            lmin = min(table.length[f.values[c]] for c in chambers)
            afr = {c for c in chambers if table.length[f.values[c]] == lmin}
            if aff != afr:
                return ("aff=A_f", minlevel, (tuple(J), R.base))
            for n in range(1, len(levels)):
                prev = {c for c in chambers if f.values[c] <= n - 1}
                cur = [c for c in chambers if f.values[c] <= n]
                if not prev:
                    continue
                t = next((
                    t for t in sorted(J)
                    if all(any(z in prev for z in b.system.panel_members(c, t))
                           for c in cur)
                ), None)
                if t is None:
                    return ("F3", n, (tuple(sorted(J)), R.base))
                if J == frozenset(range(rank)):
                    witnesses[n] = t
    return (levels, witnesses)


def filtration_outcome(f):
    try:
        filt = residual_filtration(f)
    except FiltrationViolation as e:
        return (e.axiom, e.level, e.witness)
    return (filt.levels, filt.witnesses)


def test_filtration_matches_reference(fano, sp42, thin_a3, digon33):
    # every opposite-chamber codistance of four buildings, then 250 random
    # overwrites of one to three values per building
    rng = random.Random(5)
    axioms = set()
    for b in (fano, sp42, thin_a3, digon33):
        bases = [from_opposite_chamber(b, c).values for c in range(b.n)]
        cases = [Codistance(b, values) for values in bases]
        for _ in range(250):
            values = list(rng.choice(bases))
            for _ in range(rng.randint(1, 3)):
                values[rng.randrange(b.n)] = rng.randrange(b.weyl.size)
            cases.append(Codistance(b, values))
        for f in cases:
            outcome = filtration_outcome(f)
            assert outcome == residual_filtration_reference(f)
            axioms.add(outcome[0] if isinstance(outcome[0], str) else "pass")
    assert axioms == {"pass", "aff=A_f", "F3"}


# -- certificates pinned ------------------------------------------------------


def certificate_digest(verdicts):
    """The SHA-256 of the verdicts' reprs, certificates included, in order."""
    return hashlib.sha256(repr(list(verdicts)).encode()).hexdigest()


def test_certificates_are_pinned(fano, sp43, pg32, pg33):
    # a kill order, a kill relator, an invariant or a coset count that moves
    # changes a digest: the pg3(2) lsco entries (abelianization certificates),
    # the f^op of pg2(2) from every chamber and of sp4(3) from chamber 0 (rank
    # 2: a forest, no generator), a set whose kill closure stops short, and
    # the f^op elimination of pg3(3) from chamber 0
    rng = random.Random(26)
    subset = frozenset(c for c in range(pg32.n) if rng.random() < 0.8)
    cases = {
        "pg32 lsco": check_lsco(pg32).entries,
        "pg22 fop": [simply_2_connected(from_opposite_chamber(fano, c).fop(), fano)
                     for c in range(fano.n)],
        "sp43 fop": [simply_2_connected(from_opposite_chamber(sp43, 0).fop(), sp43)],
        "pg32 cosets": [simply_2_connected(subset, pg32)],
        "pg33 fop": [simply_2_connected(from_opposite_chamber(pg33, 0).fop(), pg33)],
    }
    assert {name: certificate_digest(v)[:16] for name, v in cases.items()} == {
        "pg32 lsco": "34b2065ea565c2ae",
        "pg22 fop": "17b57c98b0a9f869",
        "sp43 fop": "5e4ac833d078aec7",
        "pg32 cosets": "16f8099bd21c081c",
        "pg33 fop": "1a939eb2477ed5d4",
    }


def test_lco_certificates_are_pinned(sp42):
    # sp4(2) is the one catalog fixture that fails lco: each failing rank-2
    # opposite set is certified by its chambers in ascending order
    entries = check_lco(sp42).entries
    assert len(entries) == 45
    for e in entries:
        opp = opposite_set(sp42, sp42.residue(e.residue_base, e.J), e.chamber)
        assert e.verdict == TrivialityVerdict(PROVEN_NONTRIVIAL, tuple(sorted(opp)))
    assert certificate_digest(entries)[:16] == "ead68af9a7152c23"


def test_lsco_decodes_no_kill_relator(pg33, monkeypatch):
    # check_lsco's own decide path on eight sampled pg3(3) opposite sets: each
    # is eliminated, no certificate is read while deciding, and each kill
    # order is kept undecoded; read afterwards, the certificates are the
    # (generator, exponent) pairs they always were
    R = pg33.residue(0, (0, 1, 2))
    sample = random.Random(41).sample(R.members, 8)
    decide, opposite, verdicts = homotopy._decide, homotopy.opposite_set, []

    def recording(*args):
        verdicts.append(decide(*args))
        return verdicts[-1]

    def unread(verdict):
        raise AssertionError("a certificate was read while deciding")

    with monkeypatch.context() as m:
        m.setattr(homotopy, "_decide", recording)
        m.setattr(homotopy, "opposite_set", lambda b, _, x: opposite(b, R, x))
        m.setattr(pg33, "residues_of_type",
                  lambda J: [SimpleNamespace(J=R.J, base=R.base, members=sample)])
        m.setattr(TrivialityVerdict, "certificate",
                  property(unread, TrivialityVerdict.certificate.fset))
        assert check_lsco(pg33).ok
    assert [v.status for v in verdicts] == [PROVEN_TRIVIAL] * 8
    assert all(callable(vars(v)["_certificate"]) for v in verdicts)
    assert all(len(v.certificate[1]) == 703 for v in verdicts)
    assert verdicts == [simply_2_connected(opposite(pg33, R, x), pg33) for x in sample]
    assert certificate_digest(verdicts)[:16] == "67814a2744dffbe8"
    fop = simply_2_connected(from_opposite_chamber(pg33, 0).fop(), pg33)
    assert certificate_digest([fop])[:16] == "1a939eb2477ed5d4"


# -- presentations pinned -----------------------------------------------------


def presentation_outcomes(b, subsets):
    """``_presentation`` of each subset, "NotConnected" for one that is not."""
    outcomes = []
    for subset in subsets:
        try:
            outcomes.append(_presentation(b, frozenset(subset)))
        except NotConnected:
            outcomes.append("NotConnected")
    return outcomes


def test_presentations_are_pinned(pg32, pg33):
    # every generator and every relator, in order: the 315 pg3(2) lsco sets,
    # eight pg3(3) lsco sets, the pg3(3) f^op from chamber 0, and twelve
    # seeded pg3(2) subsets, five of them disconnected
    R2, R3 = pg32.residue(0, (0, 1, 2)), pg33.residue(0, (0, 1, 2))
    rng = random.Random(41)
    cases = {
        "pg32 lsco": (pg32, [opposite_set(pg32, R2, x) for x in R2.members]),
        "pg33 lsco": (pg33, [opposite_set(pg33, R3, x)
                             for x in random.Random(41).sample(R3.members, 8)]),
        "pg33 fop": (pg33, [from_opposite_chamber(pg33, 0).fop()]),
        "pg32 random": (pg32, [[c for c in range(pg32.n) if rng.random() < p]
                               for p in (0.97, 0.9, 0.8, 0.6, 0.5, 0.3) * 2]),
    }
    outcomes = {name: presentation_outcomes(b, subsets) for name, (b, subsets) in cases.items()}
    assert outcomes["pg32 random"].count("NotConnected") == 5
    assert {name: hashlib.sha256(repr(o).encode()).hexdigest()[:16]
            for name, o in outcomes.items()} == {
        "pg32 lsco": "102886171628c32b",
        "pg33 lsco": "3f46d0bd16b883ec",
        "pg33 fop": "cb45a2c57a650e45",
        "pg32 random": "de163dd119c4a5f0",
    }
