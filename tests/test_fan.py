"""Fan parsing, validation, walls, completeness, smoothness, star quotients."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from kfan import catalog
from kfan.fan import (
    Cone,
    Fan,
    all_cones,
    barycentric,
    covers_point,
    fan_to_json,
    in_cone,
    is_complete,
    is_smooth_cone,
    lex_positive,
    parse_fan,
    star_quotient,
    validate_fan,
    walls,
)


def test_parse_roundtrip():
    f = catalog.p2()
    again = parse_fan(json.dumps(fan_to_json(f)))
    assert again == f


def test_parse_primitivizes_with_warning():
    src = {"rank": 2, "rays": [[2, 0], [0, 1], [-1, -1]],
           "max_cones": [[0, 1], [1, 2], [0, 2]]}
    with pytest.warns(UserWarning):
        f = parse_fan(src)
    assert f.rays[0] == (1, 0)


def test_parse_rejects_impure_fan():
    src = {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0]]}
    with pytest.raises(ValueError):
        parse_fan(src)


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_fan("{not json")
    with pytest.raises(ValueError):
        parse_fan({"rank": 2, "rays": [[1, 0]]})
    with pytest.raises(ValueError):
        parse_fan({"rank": 2, "rays": [[0, 0], [1, 0]], "max_cones": [[0, 1]]})
    with pytest.raises(ValueError):
        parse_fan({"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 5]]})
    # JSON true/false and floats are not integers
    for src in ({"rank": True, "rays": [[1], [-1]], "max_cones": [[0], [1]]},
                {"rank": 1.0, "rays": [[1], [-1]], "max_cones": [[0], [1]]},
                {"rank": 1, "rays": [[True], [-1]], "max_cones": [[0], [1]]},
                {"rank": 1, "rays": [[1.0], [-1]], "max_cones": [[0], [1]]},
                {"rank": 1, "rays": [[1], [-1]], "max_cones": [[False], [1]]}):
        with pytest.raises(ValueError):
            parse_fan(src)


@pytest.mark.parametrize("build", [
    lambda: Fan(rank=1, rays=((1.5,), (-1,)), max_cones=((0,), (1,))),
    lambda: Fan(rank=1, rays=((True,), (-1,)), max_cones=((0,), (1,))),
    lambda: Cone((0.7, True)),
    lambda: Cone((0, 1.0)),
], ids=["fan-float-ray", "fan-bool-ray", "cone-float-bool", "cone-integral-float"])
def test_constructors_reject_non_integers(build):
    # int() would truncate 1.5 to 1 and 0.7 to 0, and read True as 1
    with pytest.raises(ValueError):
        build()


def test_fan_rejects_dependent_cone_rays():
    with pytest.raises(ValueError):
        Fan(rank=2, rays=((1, 0), (-1, 0)), max_cones=((0, 1),))


def test_validate_good_fans():
    for f in catalog.acceptance_fans() + [catalog.quadrant()]:
        report = validate_fan(f)
        assert report.valid, (f.name, report.violations)


def test_validate_overlap():
    f = Fan(rank=2, rays=((1, 0), (0, 1), (1, 1)), max_cones=((0, 1), (0, 2)))
    report = validate_fan(f)
    assert not report.valid
    kinds = [v["kind"] for v in report.violations]
    assert "overlapping_interiors" in kinds
    v = report.violations[0]
    assert v["cones"] == [0, 1]
    w = v["witness"]
    assert w is not None
    # The witness really lies in both cones and outside the shared ray.
    assert in_cone(f, 0, w) and in_cone(f, 1, w)


def test_validate_duplicate_ray():
    f = Fan(rank=1, rays=((1,), (1,)), max_cones=((0,), (1,)))
    report = validate_fan(f)
    assert any(v["kind"] == "duplicate_ray" for v in report.violations)


def test_walls_p1():
    ws = walls(catalog.p1())
    assert len(ws) == 1
    w = ws[0]
    assert w.face == Cone(())
    assert w.character == (1,)
    assert (w.left, w.right) == (0, 1)


def test_walls_p2():
    ws = walls(catalog.p2())
    by_face = {w.face.ray_indices: w.character for w in ws}
    assert by_face == {(0,): (0, 1), (1,): (1, 0), (2,): (1, -1)}


def test_walls_p112_character():
    ws = walls(catalog.p112())
    by_face = {w.face.ray_indices: w.character for w in ws}
    assert by_face[(2,)] == (2, -1)


def test_wall_counts():
    assert len(walls(catalog.p1xp1())) == 4
    assert len(walls(catalog.f1())) == 4


def test_wall_characters_are_primitive_orthogonal_lexpositive():
    from math import gcd

    for f in catalog.acceptance_fans():
        for w in walls(f):
            g = 0
            for x in w.character:
                g = gcd(g, x)
            assert g == 1
            for i in w.face.ray_indices:
                assert sum(a * b for a, b in zip(w.character, f.rays[i])) == 0
            lead = next(x for x in w.character if x)
            assert lead > 0
            assert lex_positive(w.character) == w.character


def test_is_complete():
    for f in catalog.acceptance_fans():
        assert is_complete(f), f.name
    assert not is_complete(catalog.quadrant())


def test_is_complete_agrees_with_sampling():
    rng = random.Random(5)
    for f in catalog.acceptance_fans() + [catalog.quadrant()]:
        complete = is_complete(f)
        uncovered = []
        for _ in range(1000):
            v = tuple(rng.randint(-9, 9) for _ in range(f.rank))
            if not covers_point(f, v):
                uncovered.append(v)
        if complete:
            assert not uncovered, (f.name, uncovered[:3])
        else:
            assert uncovered, f.name


def test_barycentric_examples():
    f = catalog.p112()
    # cone {0, 2}: rays (1,0) and (-1,-2)
    assert barycentric(f, 1, (2, 1)) == (Fraction(3, 2), Fraction(-1, 2))
    # cone {1, 2}: rays (0,1) and (-1,-2)
    assert barycentric(f, 2, (2, 1)) == (Fraction(-3), Fraction(-2))


def test_barycentric_roundtrip_random():
    rng = random.Random(9)
    for f in catalog.acceptance_fans():
        for _ in range(25):
            k = rng.randrange(len(f.max_cones))
            cone = f.max_cones[k]
            coeffs = [rng.randint(-4, 4) for _ in cone.ray_indices]
            v = [sum(c * f.rays[i][d] for c, i in zip(coeffs, cone.ray_indices))
                 for d in range(f.rank)]
            assert barycentric(f, k, v) == tuple(Fraction(c) for c in coeffs)


def test_is_smooth_cone():
    p2 = catalog.p2()
    assert is_smooth_cone(p2, p2.max_cones[0])
    p112 = catalog.p112()
    assert not is_smooth_cone(p112, Cone((0, 2)))
    assert is_smooth_cone(p112, Cone((1, 2)))
    sheared = Fan(rank=2, rays=((1, 0), (1, 2)), max_cones=((0, 1),))
    assert not is_smooth_cone(sheared, sheared.max_cones[0])
    assert is_smooth_cone(p2, Cone(()))  # zero cone


def test_star_quotient_p112():
    f = catalog.p112()
    star = star_quotient(f, Cone((2,)))
    # Maximal cones containing ray 2 are {0,2} (index 1) and {1,2} (index 2).
    assert set(star.cone_generators) == {1, 2}
    assert star.lattice.rank == 1
    for k in (1, 2):
        gens = star.cone_generators[k]
        assert len(gens) == 1
        assert gens[0] in ((1,), (-1,))
        assert star.is_smooth_at(k)
    # The singular cone {0,2} is smooth in the star even though it is not in N.
    assert not is_smooth_cone(f, Cone((0, 2)))


def test_star_quotient_origin_and_full():
    f = catalog.p112()
    star0 = star_quotient(f, Cone(()))
    assert star0.lattice.rank == 2
    assert set(star0.cone_generators) == {0, 1, 2}
    proj = star0.lattice.project
    for k, cone in enumerate(f.max_cones):
        gens = star0.cone_generators[k]
        expected = tuple(tuple(proj.mul_vec(list(f.rays[i]))) for i in cone.ray_indices)
        assert gens == expected

    full = star_quotient(f, f.max_cones[1])
    assert full.lattice.rank == 0
    assert full.cone_generators[1] == ()
    assert full.is_smooth_at(1)


def test_star_quotient_rejects_non_cone():
    f = catalog.p2()
    with pytest.raises(ValueError):
        star_quotient(f, Cone((0, 1, 2)))


def test_all_cones():
    f = catalog.p112()
    cones = all_cones(f)
    assert len(cones) == 7  # origin, three rays, three maximal cones
    assert cones[0] == Cone(())
    assert all(c.dim <= f.rank for c in cones)
