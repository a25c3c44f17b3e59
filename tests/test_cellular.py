import random
from collections import Counter

import pytest

from kfan import catalog
from kfan.cellular import (
    CellularityReport,
    cell_dims,
    cell_order,
    cells,
    check_cellular,
    distinguished_face,
    is_generic,
    search_generic,
)
from kfan.fan import Cone, Fan, all_cones

from oracles import distinguished_face_bruteforce


ACCEPTANCE = [catalog.p1(), catalog.p2(), catalog.p1xp1(), catalog.f1(), catalog.p112()]


def random_generic(rng, fan, bound=9):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(fan.rank))
        if is_generic(fan, v):
            return v


def test_is_generic():
    fan = catalog.p2()
    assert is_generic(fan, (1, 2))
    assert not is_generic(fan, (1, 1))
    assert not is_generic(fan, (1, 0))
    assert not is_generic(fan, (0, 0))
    with pytest.raises(ValueError):
        is_generic(fan, (1, 2, 3))


def test_distinguished_faces_frozen():
    fan = catalog.p2()
    taus = [distinguished_face(fan, i, (1, 2)) for i in range(3)]
    assert [t.ray_indices for t in taus] == [(), (2,), (0, 2)]
    fan = catalog.p112()
    taus = [distinguished_face(fan, i, (2, 1)) for i in range(3)]
    assert [t.ray_indices for t in taus] == [(), (2,), (1, 2)]


def test_distinguished_face_rejects_nongeneric():
    with pytest.raises(ValueError):
        distinguished_face(catalog.p2(), 0, (1, 0))


def test_distinguished_face_matches_bruteforce():
    rng = random.Random(21)
    for fan in ACCEPTANCE:
        for _ in range(100):
            v = random_generic(rng, fan)
            for i in range(len(fan.max_cones)):
                assert distinguished_face(fan, i, v) == distinguished_face_bruteforce(fan, i, v)


def test_cell_order_frozen():
    order, cycle = cell_order(catalog.p2(), (1, 2))
    assert cycle is None and order == [0, 1, 2]
    order, cycle = cell_order(catalog.p112(), (2, 1))
    assert cycle is None and order == [0, 1, 2]


def test_cell_order_is_topological():
    rng = random.Random(22)
    for fan in ACCEPTANCE:
        for _ in range(20):
            v = random_generic(rng, fan)
            order, cycle = cell_order(fan, v)
            if order is None:
                continue
            pos = {i: p for p, i in enumerate(order)}
            taus = [distinguished_face(fan, i, v) for i in range(len(fan.max_cones))]
            for i in range(len(fan.max_cones)):
                for j in range(len(fan.max_cones)):
                    if i != j and taus[i].is_face_of(fan.max_cones[j]):
                        assert pos[i] < pos[j]


def test_cells_partition_all_cones():
    rng = random.Random(23)
    for fan in ACCEPTANCE:
        for _ in range(20):
            v = random_generic(rng, fan)
            cs = cells(fan, v)
            flat = [g for lst in cs.values() for g in lst]
            assert len(flat) == len(set(flat)) == len(all_cones(fan))
            assert set(flat) == set(all_cones(fan))


def test_cells_frozen_sizes():
    cs = cells(catalog.p112(), (2, 1))
    assert [len(cs[i]) for i in range(3)] == [4, 2, 1]


def test_cell_dims_frozen_multisets():
    expected = [
        Counter({1: 1, 0: 1}),
        Counter({2: 1, 1: 1, 0: 1}),
        Counter({2: 1, 1: 2, 0: 1}),
        Counter({2: 1, 1: 2, 0: 1}),
        Counter({2: 1, 1: 1, 0: 1}),
    ]
    for fan, want in zip(ACCEPTANCE, expected):
        rep = check_cellular(fan, seed=0)
        assert rep.verdict, fan.name
        assert Counter(rep.cell_dims) == want, fan.name
        assert rep.cell_dims == cell_dims(fan, rep.v)


def test_check_cellular_catalog():
    for fan in ACCEPTANCE:
        rep = check_cellular(fan, seed=3)
        assert isinstance(rep, CellularityReport)
        assert rep.verdict and rep.failure is None
        assert sorted(rep.order) == list(range(len(fan.max_cones)))
        assert all(rep.quotient_smooth)


def test_check_cellular_incomplete():
    rep = check_cellular(catalog.quadrant(), seed=0)
    assert not rep.verdict and "complete" in rep.failure
    rep = check_cellular(catalog.quadrant(), seed=0, require_complete=False)
    assert rep.verdict


def test_check_cellular_nongeneric_raises():
    with pytest.raises(ValueError):
        check_cellular(catalog.p2(), v=(1, 1))


def test_direction_can_break_cellularity():
    # same fan, two directions: for (2,1) every quotient is smooth, while
    # (1,-2) puts the dense cell on the singular cone
    fan = catalog.p112()
    good = check_cellular(fan, v=(2, 1))
    assert good.verdict
    bad = check_cellular(fan, v=(1, -2))
    assert not bad.verdict
    assert "singular" in bad.failure
    assert bad.quotient_smooth == [True, False, True]
    assert bad.order is not None


def test_search_generic_deterministic():
    for fan in ACCEPTANCE:
        v1 = search_generic(fan, seed=7)
        v2 = search_generic(fan, seed=7)
        assert v1 == v2
        assert is_generic(fan, v1)


def test_relabeling_invariance():
    rng = random.Random(24)
    base = catalog.p2()
    perm = [2, 0, 1]  # new index of old ray i
    new_rays = [None] * 3
    for old, new in enumerate(perm):
        new_rays[new] = base.rays[old]
    new_cones = [tuple(sorted(perm[i] for i in c.ray_indices)) for c in base.max_cones]
    new_cones = [new_cones[1], new_cones[2], new_cones[0]]
    relabeled = Fan(rank=2, rays=tuple(new_rays), max_cones=tuple(new_cones))
    for _ in range(20):
        v = random_generic(rng, base)
        a = check_cellular(base, v)
        b = check_cellular(relabeled, v)
        assert a.verdict == b.verdict
        assert Counter(a.cell_dims) == Counter(b.cell_dims)


def test_direction_scan_record():
    # records how verdicts and dimension multisets vary with the direction;
    # intentionally no assertion on cross-direction agreement
    rng = random.Random(25)
    for fan in (catalog.p2(), catalog.p112()):
        seen = set()
        for _ in range(10):
            v = random_generic(rng, fan)
            rep = check_cellular(fan, v)
            seen.add((rep.verdict, tuple(sorted(rep.cell_dims))))
        print(f"{fan.name or 'fan'}: outcomes {sorted(seen)}")
        assert seen
