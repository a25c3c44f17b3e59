import random

import pytest

from kfan.baserings import PointBase, ToricBase, TrivialBase
from kfan.bundle import (
    ExtendedElement,
    bundle_presentation,
    diagonal,
    extended_box_rank,
    extended_check,
    extended_from_obj,
    extended_member_space,
    extended_relation_image,
    extended_to_obj,
    generator_power,
    hirzebruch_crosscheck,
    hirzebruch_fiber_base,
    kunneth_realize,
    kunneth_surjectivity_probe,
    line_hom,
)
from kfan.catalog import p1, p2, p1xp1
from kfan.kring import GkmElement, gkm_check, member_space, sample_members
from kfan.laurent import LaurentPoly, box_points


def rand_poly(rng, rank, radius=1, terms=3):
    pts = box_points(rank, radius)
    out = LaurentPoly.zero(rank)
    for _ in range(terms):
        out = out + LaurentPoly.monomial(rng.choice(pts), rng.randint(-3, 3))
    return out


def test_extended_element_ops_and_coercion():
    fiber, base = hirzebruch_fiber_base(1)
    one = diagonal(fiber, base, base.one())
    e = one + 2
    assert e.comps[0] == base.scalar(3)
    assert (e - e).is_zero()
    assert (e * 0).is_zero()
    lifted = e * base.line_class((1,))
    assert lifted == ExtendedElement(
        fiber, base, [base.mul(c, base.line_class((1,))) for c in e.comps])
    with pytest.raises(ValueError):
        ExtendedElement(fiber, base, [base.one()])


def test_extended_check_requires_matching_ranks():
    base = TrivialBase(2)
    with pytest.raises(ValueError):
        extended_check(diagonal(p1(), base, base.one()))


def test_trivial_base_specializes_to_ordinary_check():
    # over the full character ring the extended congruence is the ordinary
    # wall congruence, verdict for verdict
    rng = random.Random(0)
    for fan in (p1(), p2(), p1xp1()):
        base = TrivialBase(fan.rank)
        space = member_space(fan, 1)
        candidates = sample_members(space, 25, seed=1)
        for t in sample_members(space, 25, seed=2):
            comps = list(t.components)
            i = rng.randrange(len(comps))
            comps[i] = comps[i] + LaurentPoly.monomial(
                tuple(rng.randint(-1, 1) for _ in range(fan.rank)),
                rng.choice([1, -1, 2]))
            candidates.append(GkmElement(fan, comps))
        verdicts = []
        for t in candidates:
            ext = ExtendedElement(fan, base, t.components)
            ok_ext = extended_check(ext)[0]
            ok_ord = gkm_check(t)[0]
            assert ok_ext == ok_ord
            verdicts.append(ok_ord)
        assert True in verdicts and False in verdicts


def test_point_base_specializes_to_equality():
    fan = p2()
    base = PointBase(char_rank=2)
    same = diagonal(fan, base, 7)
    assert extended_check(same)[0]
    mixed = ExtendedElement(fan, base, (7, 7, 8))
    ok, failures = extended_check(mixed)
    assert not ok
    assert all(7 in (f["left"], f["right"]) or True for f in failures)
    assert len(failures) == 2  # cone 2 meets both others across walls


def test_line_hom_is_a_ring_map():
    rng = random.Random(5)
    fiber, base = hirzebruch_fiber_base(2)
    for _ in range(15):
        p = rand_poly(rng, 1, radius=2)
        q = rand_poly(rng, 1, radius=2)
        lhs = line_hom(base, p * q)
        rhs = base.mul(line_hom(base, p), line_hom(base, q))
        assert base.eq(lhs, rhs)
        assert base.eq(line_hom(base, p + q),
                       base.add(line_hom(base, p), line_hom(base, q)))


def test_realized_tensors_are_members():
    rng = random.Random(6)
    fiber, base = hirzebruch_fiber_base(1)
    fib = member_space(fiber, 2)
    box = base.box_basis(1)
    checked = 0
    for p in sample_members(fib, 40, seed=7):
        b = box[rng.randrange(len(box))]
        e = kunneth_realize(fiber, base, b, p)
        assert extended_check(e)[0]
        checked += 1
    # and over a trivial base on a rank-two fiber
    fan = p2()
    tbase = TrivialBase(2)
    space = member_space(fan, 1)
    for p in sample_members(space, 40, seed=8):
        b = rand_poly(rng, 2)
        e = kunneth_realize(fan, tbase, b, p)
        assert extended_check(e)[0]
        checked += 1
    assert checked == 80


def test_extended_space_matches_ordinary_dimensions():
    for fan, d, expected in ((p1(), 1, 5), (p1(), 2, 9), (p2(), 1, 17)):
        base = TrivialBase(fan.rank)
        sp = extended_member_space(fan, base, d)
        assert sp.dim == member_space(fan, d).dim == expected


def test_sampled_extended_members_pass_the_check():
    fiber, base = hirzebruch_fiber_base(2)
    sp = extended_member_space(fiber, base, 1)
    for t in sp.sample(20, seed=9):
        assert extended_check(t)[0]
    # seeded samples are frozen: the RNG draws a term count, then a basis
    # row and a coefficient per term
    sp = extended_member_space(p1(), TrivialBase(1), 1)
    got = [[sorted(c.terms.items()) for c in t.comps] for t in sp.sample(3, seed=6)]
    assert got == [
        [[], [((-1,), 3), ((0,), -3)]],
        [[((-1,), -3), ((0,), 2)], [((-1,), -3), ((0,), 2)]],
        [[((-1,), -1), ((1,), 3)], [((-1,), 2), ((0,), -3), ((1,), 3)]],
    ]


def test_extended_rank_trivial_base():
    rep = extended_box_rank(p1(), TrivialBase(1))
    assert rep.conclusive and rep.rank == 2
    rep = extended_box_rank(p2(), TrivialBase(2), max_radius=3)
    assert rep.conclusive and rep.rank == 3


# Frozen outputs, conclusive F5/F6 = 3 included: the true rank of every F_a
# is 4, so those two verdicts are known to be wrong.  Speed work must keep
# them bit for bit; fixing the stopping rule is a separate change.
HIRZEBRUCH_HISTORIES = {
    0: ((1, 25, 4), (2, 81, 4)),
    1: ((1, 23, 4), (2, 77, 4)),
    2: ((1, 21, 4), (2, 73, 4)),
    3: ((1, 19, 3), (2, 69, 4), (3, 151, 4)),
    4: ((1, 19, 3), (2, 65, 4), (3, 145, 4)),
    5: ((1, 19, 3), (2, 61, 3)),
    6: ((1, 19, 3), (2, 61, 3)),
}


@pytest.mark.parametrize("a", sorted(HIRZEBRUCH_HISTORIES))
def test_extended_rank_histories_frozen(a):
    rep = extended_box_rank(*hirzebruch_fiber_base(a))
    history = HIRZEBRUCH_HISTORIES[a]
    assert rep.history == history
    assert rep.conclusive and rep.rank == history[-1][2]
    assert rep.stabilized_at == len(history)


def test_kunneth_probe_frozen_over_p1xp1():
    base = ToricBase(p1xp1(), 3, [[(0, 0, 1)] * 4])
    rep = kunneth_surjectivity_probe(p1(), base, seed=0)
    assert rep["tensors"] == 3645
    assert rep["lattice_rank"] == 1377
    assert rep["all_hit"], rep


def test_kunneth_probe_all_hit():
    fiber, base = hirzebruch_fiber_base(1)
    rep = kunneth_surjectivity_probe(fiber, base)
    assert rep["all_hit"], rep
    rep = kunneth_surjectivity_probe(p1(), TrivialBase(1))
    assert rep["all_hit"], rep


def test_kunneth_probe_builds_each_box_basis_once(monkeypatch):
    fiber, base = hirzebruch_fiber_base(1)
    built = []
    box_basis = base.box_basis
    monkeypatch.setattr(base, "box_basis", lambda r: built.append(r) or box_basis(r))
    kunneth_surjectivity_probe(fiber, base)
    assert sorted(built) == [1, 2]
    built.clear()
    kunneth_surjectivity_probe(fiber, base, base_radius=3, sample_radius=1)
    assert sorted(built) == [1, 2, 3]


def test_presentation_relations_vanish():
    fiber, base = hirzebruch_fiber_base(1)
    gens, cert, rels = bundle_presentation(fiber, base)
    assert len(gens) == 2
    kinds = sorted(r["kind"] for r in rels)
    assert kinds == ["character", "nonface"]
    for rel in rels:
        img = extended_relation_image(fiber, base, cert, rel)
        assert img.is_zero(), rel
    # generators satisfy the wall congruence themselves
    for g in gens:
        assert extended_check(g)[0]
    # rank-two fiber over its full character ring
    fan = p2()
    tbase = TrivialBase(2)
    gens2, cert2, rels2 = bundle_presentation(fan, tbase)
    for rel in rels2:
        assert extended_relation_image(fan, tbase, cert2, rel).is_zero(), rel


def test_generator_inverses():
    fiber, base = hirzebruch_fiber_base(2)
    _, cert, _ = bundle_presentation(fiber, base)
    one = diagonal(fiber, base, base.one())
    for j in (0, 1):
        x = generator_power(fiber, base, cert, j, 1)
        xinv = generator_power(fiber, base, cert, j, -1)
        assert x * xinv == one


def test_swapped_generators_break_a_character_relation():
    fiber, base = hirzebruch_fiber_base(1)
    gens, cert, rels = bundle_presentation(fiber, base)
    swapped = {(c, j): cert[(c, 1 - j)] for (c, j) in cert}
    broken = [rel for rel in rels
              if not extended_relation_image(fiber, base, swapped, rel).is_zero()]
    assert broken


def test_hirzebruch_crosscheck_all_twists():
    for a in (0, 1, 2):
        rep = hirzebruch_crosscheck(a)
        assert rep["all_agree"], rep
        assert rep["orientation_agree"], rep
        assert rep["realized_members_pass"], rep
        assert rep["ranks_match"] and rep["rank_direct"] == 4, rep


def test_extended_serialization_roundtrip():
    fiber, base = hirzebruch_fiber_base(1)
    sp = extended_member_space(fiber, base, 1)
    e = sp.sample(1, seed=11)[0]
    obj = extended_to_obj(e)
    back = extended_from_obj(fiber, base, obj)
    assert back == e
    with pytest.raises(ValueError):
        extended_from_obj(fiber, base, obj[:1])
