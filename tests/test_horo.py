import random

import pytest

from kfan.baserings import FlagBase
from kfan.bundle import (
    ExtendedElement,
    _ideal_products,
    bundle_presentation,
    diagonal,
    extended_check,
    extended_member_space,
    extended_relation_image,
    kunneth_surjectivity_probe,
)
from kfan.catalog import p1, p1xp1
from kfan.fan import parse_fan
from kfan.horo import (
    HorosphericalDatum,
    datum_from_obj,
    datum_to_obj,
    horo_rank,
    k_horospherical,
    sl2_basic_datum,
    sl3_datum,
    validate_horo,
)
from kfan.intlat import RowSpan
from kfan.laurent import LaurentPoly

A2 = [[2, -1], [-1, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


def rand_poly(rng, rank, radius=1, terms=3, bound=3):
    p = LaurentPoly.zero(rank)
    for _ in range(terms):
        exp = tuple(rng.randint(-radius, radius) for _ in range(rank))
        p = p + LaurentPoly.monomial(exp, rng.randint(-bound, bound))
    return p


def test_sl2_membership():
    fan, base = k_horospherical(sl2_basic_datum())
    one = LaurentPoly.one(1)
    x = LaurentPoly.monomial((1,))
    ok, fails = extended_check(ExtendedElement(fan, base, (one, x)))
    assert ok and not fails
    ok, fails = extended_check(ExtendedElement(fan, base, (one, LaurentPoly.constant(1, 2))))
    assert not ok
    assert len(fails) == 1 and fails[0]["character"] == (1,)
    # pairs differing by a multiple of (1 - x) are always members
    rng = random.Random(11)
    for _ in range(20):
        f = rand_poly(rng, 1, radius=2)
        g = rand_poly(rng, 1, radius=2)
        ok, _ = extended_check(ExtendedElement(fan, base, (g, g + (LaurentPoly.one(1) - x) * f)))
        assert ok


def test_sl2_rank_frozen():
    rep = horo_rank(sl2_basic_datum())
    assert rep.conclusive
    assert rep.rank == 4
    assert rep.history[0][:2] == (1, 5)


@pytest.mark.parametrize("datum, history", [
    (sl2_basic_datum(), ((1, 5, 4), (2, 9, 4))),
    (sl3_datum(), ((1, 8, 6), (2, 21, 6))),
    (HorosphericalDatum.make(A3, [0, 2], p1(), [(0, 1, 0)]),
     ((1, 12, 9), (2, 45, 12), (3, 112, 12))),
    (HorosphericalDatum.make(A3, [1, 2], p1(), [(1, 0, 0)]),
     ((1, 11, 8), (2, 38, 8))),
    (HorosphericalDatum.make(A3, [0, 1], p1(), [(0, 0, 1)]),
     ((1, 11, 8), (2, 38, 8))),
], ids=["sl2", "sl3", "A3{0,2}w2", "A3{1,2}w1", "A3{0,1}w3"])
def test_rank_histories_frozen(datum, history):
    rep = horo_rank(datum)
    assert rep.history == history
    assert rep.conclusive and rep.rank == history[-1][2]


def test_a3_01_w3_ideal_pivots_stay_small():
    """The radius-2 augmentation-ideal rows of A3 {0,1} w3, inserted as
    extended_box_rank inserts them.  Under RowLattice's gcd pivoting the
    pivot entries pass 500,000 bits within the first 60 of these 114 rows;
    the rational echelon keeps every entry within a machine word."""
    fan, base = k_horospherical(HorosphericalDatum.make(A3, [0, 1], p1(), [(0, 0, 1)]))
    k_s = base.scalar_radius
    scal = [(diagonal(fan, base, s), base.augmentation(s)) for s in base.scalars(k_s)]
    span = RowSpan()
    inserted = 0
    for vec in _ideal_products(extended_member_space(fan, base, 2), scal, 2 + k_s):
        span.insert(vec)
        inserted += 1
    assert inserted == 114 and span.rank > 0
    widest = max(abs(x).bit_length() for row in span.pivots.values() for x in row.values())
    assert widest < 64


def test_sl2_presentation():
    fan, base = k_horospherical(sl2_basic_datum())
    gens, cert, rels = bundle_presentation(fan, base)
    assert len(gens) == 2
    assert sorted(rel["kind"] for rel in rels) == ["character", "nonface"]
    for g in gens:
        ok, _ = extended_check(g)
        assert ok
    for rel in rels:
        assert extended_relation_image(fan, base, cert, rel).is_zero()


def test_sl3_demo():
    d = sl3_datum()
    rep = validate_horo(d)
    assert rep["ok"]
    fan, base = k_horospherical(d)
    one = base.one()
    y = LaurentPoly.monomial((0, 1))
    ok, _ = extended_check(ExtendedElement(fan, base, (one, y)))
    assert ok
    ok, _ = extended_check(ExtendedElement(fan, base, (one, base.scalar(2))))
    assert not ok
    rank = horo_rank(d)
    assert rank.conclusive and rank.rank == 6
    gens, cert, rels = bundle_presentation(fan, base)
    for rel in rels:
        assert extended_relation_image(fan, base, cert, rel).is_zero()


def test_member_space_dims_frozen():
    assert extended_member_space(*k_horospherical(sl2_basic_datum()), 1).dim == 5
    assert extended_member_space(*k_horospherical(sl3_datum()), 1).dim == 8


def test_member_space_elements_pass_check():
    space = extended_member_space(*k_horospherical(sl3_datum()), 1)
    for row in space.basis:
        e = space.to_element(row)
        ok, _ = extended_check(e)
        assert ok


def test_kunneth_probe():
    probe = kunneth_surjectivity_probe(*k_horospherical(sl2_basic_datum()),
                                       samples=15, seed=3)
    assert probe["all_hit"]
    assert probe["hits"] == 15


def test_validation_rejections():
    # embedding column not fixed by the parabolic reflections
    d = HorosphericalDatum.make(A2, [0], p1(), [(1, 0)])
    rep = validate_horo(d)
    assert not rep["ok"]
    assert any("columns" in f for f in rep["failures"])
    with pytest.raises(ValueError):
        k_horospherical(d)
    # zero column: fixed but not injective
    rep = validate_horo(HorosphericalDatum.make([[2]], [], p1(), [(0,)]))
    assert not rep["ok"]
    assert any("injective" in f for f in rep["failures"])
    # column count must match the fan rank
    rep = validate_horo(HorosphericalDatum.make([[2]], [], p1xp1(), [(1,)]))
    assert not rep["ok"]
    # incomplete fan
    half = parse_fan({"rank": 1, "rays": [[1]], "max_cones": [[0]]})
    rep = validate_horo(HorosphericalDatum.make([[2]], [], half, [(1,)]))
    assert not rep["ok"]
    assert any("cellular" in f for f in rep["failures"])


def test_validation_reports_ragged_embedding_columns():
    # columns of unequal length once escaped the injectivity check as a
    # ValueError (a traceback from `kfan horo`); they fail validation instead
    rep = validate_horo(HorosphericalDatum.make(A2, [], p1xp1(), [(1, 0), (1,)]))
    assert not rep["ok"]
    assert any(f.startswith("embedding columns:") for f in rep["failures"])


def test_make_rejects_non_integers():
    with pytest.raises(ValueError):
        HorosphericalDatum.make([[2]], [], p1(), [(1.7,)])
    with pytest.raises(ValueError):
        HorosphericalDatum.make([[2]], [0.0], p1(), [(1,)])


def test_parabolic_invariance_enforced_on_entries():
    base = validate_horo(sl3_datum())["base"]
    moved = LaurentPoly.monomial((1, 0))
    fixed = LaurentPoly.monomial((0, 1))
    # e^{(1,0)} is moved by the parabolic reflection, so it is not an entry
    assert not base.is_member(moved)
    assert base.is_member(fixed)
    with pytest.raises(ValueError):
        base.deserialize([{"exp": [1, 0], "coef": 1}])


def test_serialization_roundtrip():
    for d in (sl2_basic_datum(), sl3_datum()):
        obj = datum_to_obj(d)
        back = datum_from_obj(obj)
        assert back == d
    with pytest.raises(ValueError):
        datum_from_obj({"cartan": [[2]]})
    with pytest.raises(ValueError):
        datum_from_obj([1, 2])
    # JSON true/false and floats are not integers
    obj = datum_to_obj(sl2_basic_datum())
    for key, bad in (("cartan", [[2.0]]), ("parabolic_set", [False]),
                     ("char_embedding", [[True]])):
        with pytest.raises(ValueError):
            datum_from_obj({**obj, key: bad})
