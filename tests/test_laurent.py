import random

import pytest

from kfan import catalog
from kfan.fan import Cone, walls
from kfan.laurent import (
    LaurentPoly,
    augmentation,
    box_index,
    box_points,
    divides,
    euler_class,
    exact_divide,
    face_restrict,
    poly_from_obj,
    poly_to_obj,
    restrict,
)


def random_poly(rng, rank, n_terms=4, radius=3, allow_zero=True):
    terms = {}
    for _ in range(rng.randrange(0 if allow_zero else 1, n_terms + 1)):
        exp = tuple(rng.randint(-radius, radius) for _ in range(rank))
        terms[exp] = rng.randint(-5, 5)
    return LaurentPoly(rank, terms)


def test_ring_ops():
    x = LaurentPoly.monomial((1,))
    one = LaurentPoly.one(1)
    assert (one + x) * (one - x) == one - x * x
    assert (x - x).is_zero()
    assert x + 2 == LaurentPoly(1, {(0,): 2, (1,): 1})
    assert 3 * x == LaurentPoly(1, {(1,): 3})
    assert x ** 3 == LaurentPoly.monomial((3,))
    assert (one + x) ** 2 == one + 2 * x + x * x
    assert (one + x) ** 0 == one


def test_negative_powers():
    m = LaurentPoly.monomial((2, -1), -1)
    assert m ** -1 == LaurentPoly.monomial((-2, 1), -1)
    assert m ** -2 == LaurentPoly.monomial((-4, 2), 1)
    assert m ** -1 * m == LaurentPoly.one(2)
    with pytest.raises(ValueError):
        (LaurentPoly.one(1) + LaurentPoly.monomial((1,))) ** -1


def test_rank_mismatch():
    with pytest.raises(ValueError):
        LaurentPoly.one(1) + LaurentPoly.one(2)
    with pytest.raises(ValueError):
        LaurentPoly.one(1) * LaurentPoly.one(2)
    with pytest.raises(ValueError):
        LaurentPoly(2, {(1,): 1})


def test_zero_cleanup():
    f = LaurentPoly(1, {(0,): 0, (2,): 5})
    assert f.terms == {(2,): 5}
    g = LaurentPoly(1, {(2,): -5})
    assert (f + g).is_zero()
    assert not (f + g)


def test_euler_class_identity():
    # e(u) + e(-u) = e(u) * e(-u) in K-theory
    rng = random.Random(11)
    for _ in range(50):
        rank = rng.randint(1, 3)
        u = tuple(rng.randint(-4, 4) for _ in range(rank))
        eu, emu = euler_class(u), euler_class(tuple(-x for x in u))
        assert eu + emu == eu * emu
        assert augmentation(eu) == 0
    assert euler_class((0, 0)).is_zero()
    assert euler_class((1,)) == LaurentPoly(1, {(0,): 1, (-1,): -1})


def test_augmentation_is_ring_map():
    rng = random.Random(12)
    for _ in range(30):
        f = random_poly(rng, 2)
        g = random_poly(rng, 2)
        assert augmentation(f + g) == augmentation(f) + augmentation(g)
        assert augmentation(f * g) == augmentation(f) * augmentation(g)
    assert augmentation(LaurentPoly.one(2)) == 1


def test_restrict_hand_example():
    fan = catalog.p2()
    sigma = fan.max_cones[0]  # rays (1,0), (0,1)
    f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
    g = restrict(f, fan, sigma)
    assert g.terms == {(1, 0): 1, (0, 1): 1, (-1, -1): 1}
    tau = Cone((0,))
    h = restrict(f, fan, tau)
    # (0,1) and (-1,-1) both pair to fixed values with ray (1,0): 0 and -1
    assert h.terms == {(1,): 1, (0,): 1, (-1,): 1}


def test_restrict_is_ring_hom():
    rng = random.Random(13)
    fan = catalog.p112()
    for cone in fan.max_cones:
        for _ in range(20):
            f = random_poly(rng, 2)
            g = random_poly(rng, 2)
            rf, rg = restrict(f, fan, cone), restrict(g, fan, cone)
            assert restrict(f + g, fan, cone) == rf + rg
            assert restrict(f * g, fan, cone) == rf * rg


def test_face_restrict_commutes():
    rng = random.Random(14)
    for fan in (catalog.p2(), catalog.p112(), catalog.hirzebruch(2)):
        for sigma in fan.max_cones:
            faces = [Cone(sub) for r in range(len(sigma.ray_indices) + 1)
                     for sub in __import__("itertools").combinations(sigma.ray_indices, r)]
            for tau in faces:
                for _ in range(5):
                    f = random_poly(rng, 2)
                    assert face_restrict(restrict(f, fan, sigma), tau) == restrict(f, fan, tau)


def test_face_restrict_rejects_non_face():
    fan = catalog.p2()
    g = restrict(LaurentPoly.one(2), fan, fan.max_cones[0])
    with pytest.raises(ValueError):
        face_restrict(g, Cone((2,)))


def test_divides_hand_examples():
    # 1 - e^{3u} = (1 - e^u)(1 + e^u + e^{2u})
    f = LaurentPoly(1, {(0,): 1, (3,): -1})
    ok, q = divides(f, (1,))
    assert ok and q == LaurentPoly(1, {(0,): 1, (1,): 1, (2,): 1})
    ok, q = divides(LaurentPoly(1, {(0,): 1, (1,): 1}), (1,))
    assert not ok and q is None
    # ideal is insensitive to the sign of the character
    ok2, q2 = divides(f, (-1,))
    assert ok2
    g = LaurentPoly(1, {(0,): 1, (-1,): -1})
    assert g * q2 == f
    with pytest.raises(ValueError):
        divides(f, (0,))


def test_divides_random_products():
    rng = random.Random(15)
    for _ in range(120):
        rank = rng.randint(1, 3)
        chi = tuple(rng.randint(-3, 3) for _ in range(rank))
        if not any(chi):
            chi = (1,) + chi[1:]
        h = random_poly(rng, rank)
        gen = LaurentPoly.one(rank) - LaurentPoly.monomial(chi)
        f = gen * h
        ok, q = divides(f, chi)
        assert ok
        # the ring is a domain, so quotients are unique
        assert q == h
        probe = f + LaurentPoly.monomial(tuple(rng.randint(-2, 2) for _ in range(rank)))
        ok_probe, q_probe = divides(probe, chi)
        oracle = exact_divide(probe, gen)
        assert ok_probe == (oracle is not None)
        if ok_probe:
            assert q_probe == oracle


def test_divides_membership_is_additive():
    rng = random.Random(16)
    chi = (2, -1)
    gen = LaurentPoly.one(2) - LaurentPoly.monomial(chi)
    for _ in range(40):
        f = gen * random_poly(rng, 2)
        g = gen * random_poly(rng, 2)
        assert divides(f + g, chi)[0]
        assert divides(f * random_poly(rng, 2), chi)[0]


def test_exact_divide_hand_examples():
    x = LaurentPoly.monomial((1,))
    one = LaurentPoly.one(1)
    assert exact_divide(one - x * x, one - x) == one + x
    assert exact_divide(one - x * x, one + x) == one - x
    assert exact_divide(one + x, one - x) is None
    # coefficient obstruction, not box obstruction
    assert exact_divide(LaurentPoly(1, {(1,): 3}), LaurentPoly(1, {(0,): 2})) is None
    assert exact_divide(LaurentPoly.zero(1), one - x).is_zero()
    with pytest.raises(ValueError):
        exact_divide(one, LaurentPoly.zero(1))


def test_exact_divide_random_products():
    rng = random.Random(17)
    for _ in range(120):
        rank = rng.randint(1, 3)
        g = random_poly(rng, rank, allow_zero=False)
        while g.is_zero():
            g = random_poly(rng, rank, allow_zero=False)
        h = random_poly(rng, rank)
        assert exact_divide(g * h, g) == h
        if len(g.terms) >= 2:
            # g | g*h + 1 would force g to be a unit
            assert exact_divide(g * h + 1, g) is None


def oracle_exact_divide(f: LaurentPoly, g: LaurentPoly):
    """Leading-term division that builds a new polynomial at every step,
    frozen as an oracle for the in-place exact_divide."""
    if f.is_zero():
        return LaurentPoly.zero(f.rank)
    lo, hi = [], []
    for d in range(f.rank):
        f_coords = [e[d] for e in f.terms]
        g_coords = [e[d] for e in g.terms]
        lo.append(min(f_coords) - min(g_coords))
        hi.append(max(f_coords) - max(g_coords))
        if lo[-1] > hi[-1]:
            return None
    ug = max(g.terms)
    cg = g.terms[ug]
    r = f
    out = {}
    while not r.is_zero():
        ur = max(r.terms)
        cr = r.terms[ur]
        if cr % cg:
            return None
        tu = tuple(a - b for a, b in zip(ur, ug))
        if any(t < a or t > b for t, a, b in zip(tu, lo, hi)):
            return None
        c = cr // cg
        out[tu] = c
        r = r - (g * LaurentPoly.monomial(tu, c))
    return LaurentPoly(f.rank, out)


def test_exact_divide_matches_oracle():
    rng = random.Random(23)
    outcomes = {"quotient": 0, "none": 0}
    for trial in range(400):
        rank = rng.randint(1, 3)
        g = random_poly(rng, rank, n_terms=5, allow_zero=False)
        while g.is_zero():
            g = random_poly(rng, rank, n_terms=5, allow_zero=False)
        if trial % 4 == 3:
            # a leading coefficient that rarely divides the dividend's
            g = g + LaurentPoly.monomial(tuple([4] * rank), rng.choice((2, 3, -2, -3)))
        h = random_poly(rng, rank, n_terms=5)
        f = g * h
        kind = trial % 3
        if kind == 1:
            f = f + LaurentPoly.monomial(tuple(rng.randint(-3, 3) for _ in range(rank)),
                                         rng.randint(1, 3))
        elif kind == 2:
            f = random_poly(rng, rank, n_terms=6)
        got = exact_divide(f, g)
        want = oracle_exact_divide(f, g)
        if want is None:
            assert got is None
            outcomes["none"] += 1
        else:
            assert got == want and list(got.terms) == list(want.terms)
            outcomes["quotient"] += 1
    assert min(outcomes.values()) > 50


def test_divides_agrees_with_wall_restriction():
    # membership in (1 - e^chi) for a wall character is exactly vanishing
    # of the restriction to the wall face
    rng = random.Random(18)
    for fan in (catalog.p2(), catalog.p112(), catalog.p1xp1()):
        for wall in walls(fan):
            for _ in range(25):
                f = random_poly(rng, 2)
                member = divides(f, wall.character)[0]
                vanishes = restrict(f, fan, wall.face).is_zero()
                assert member == vanishes


def test_serialization_roundtrip():
    rng = random.Random(19)
    for _ in range(30):
        f = random_poly(rng, 2)
        obj = poly_to_obj(f)
        assert poly_from_obj(2, obj) == f
        exps = [tuple(t["exp"]) for t in obj]
        assert exps == sorted(exps)
        assert all(isinstance(t["coef"], str) for t in obj)
    assert poly_from_obj(1, [{"exp": [2], "coef": 7}]) == LaurentPoly(1, {(2,): 7})


def test_serialization_rejects_malformed():
    with pytest.raises(ValueError):
        poly_from_obj(1, {"exp": [1], "coef": "1"})
    with pytest.raises(ValueError):
        poly_from_obj(1, [{"exp": [1, 2], "coef": "1"}])
    with pytest.raises(ValueError):
        poly_from_obj(1, [{"exp": [1], "coef": "x"}])
    with pytest.raises(ValueError):
        poly_from_obj(1, [{"coef": "1"}])
    # JSON true/false and floats are not integers
    for term in ({"exp": [True], "coef": 1}, {"exp": [1.0], "coef": 1},
                 {"exp": [1], "coef": True}, {"exp": [1], "coef": 2.0}):
        with pytest.raises(ValueError):
            poly_from_obj(1, [term])


def test_box_points():
    pts = box_points(2, 1)
    assert len(pts) == 9
    assert pts == sorted(pts)
    assert (0, 0) in pts
    assert box_points(1, 0) == [(0,)]


def test_box_index_matches_sorted_box():
    for rank in (1, 2, 3):
        for r in range(4):
            pts = box_points(rank, r)
            for exp in pts:
                assert box_index(exp, r) == pts.index(exp)
                # one step outside the box along any coordinate
                for i in range(rank):
                    for step in (r + 1, -r - 1):
                        out = exp[:i] + (step,) + exp[i + 1:]
                        assert box_index(out, r) is None
