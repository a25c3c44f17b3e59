import dataclasses
import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from kfan import catalog, kring
from kfan.baserings import TrivialBase
from kfan.bundle import bundle_presentation, extended_relation_image
from kfan.cellular import check_cellular
from kfan.fan import Fan, all_cones
from kfan.intlat import RowSpan
from kfan.kring import (
    CertifiedRank,
    GkmElement,
    box_stabilize,
    build_filtration_basis,
    constant_embedding,
    decompose,
    element_from_obj,
    element_to_obj,
    element_to_vector,
    gkm_check,
    is_smooth_fan,
    member_space,
    minimal_nonfaces,
    ordinary_k_rank,
    plateau,
    plp_check,
    sample_members,
    sr_presentation,
    sr_surjectivity_probe,
    vector_to_element,
    verify_generation,
)
from kfan.laurent import LaurentPoly, box_index, box_points

from oracles import augmentation_ideal_rank, member_dim, ordinary_box_rank

ACCEPTANCE = [catalog.p1(), catalog.p2(), catalog.p1xp1(), catalog.f1(), catalog.p112()]
SMOOTH = [catalog.p1(), catalog.p2(), catalog.p1xp1(), catalog.f1()]


def _p3() -> Fan:
    return Fan(rank=3, rays=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
               max_cones=tuple(itertools.combinations(range(4), 3)), name="P3")


def _p1_cubed() -> Fan:
    rays = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    cones = tuple((a, 2 + b, 4 + c) for a in (0, 1) for b in (0, 1) for c in (0, 1))
    return Fan(rank=3, rays=rays, max_cones=cones, name="P1xP1xP1")


def _polygon7() -> Fan:
    # P1xP1 blown up three times: a smooth complete polygon with 7 rays
    rays = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1))
    return Fan(rank=2, rays=rays, max_cones=tuple((i, (i + 1) % 7) for i in range(7)),
               name="polygon7")


def test_element_ops_and_coercion():
    fan = catalog.p1()
    one = constant_embedding(fan, 1)
    x = constant_embedding(fan, LaurentPoly.monomial((1,)))
    assert (one + x) * (one - x) == one - x * x
    assert 2 * one - one == one
    assert (one - one).is_zero()
    assert x ** -1 * x == one
    with pytest.raises(ValueError):
        GkmElement(fan, [LaurentPoly.one(1)])
    with pytest.raises(ValueError):
        GkmElement(fan, [LaurentPoly.one(2), LaurentPoly.one(2)])
    with pytest.raises(ValueError):
        one + constant_embedding(catalog.p2(), 1)


def test_gkm_check_p1():
    fan = catalog.p1()
    one = LaurentPoly.one(1)
    ex = LaurentPoly.monomial((1,))
    ok, fails = gkm_check(GkmElement(fan, [one, ex]))
    assert ok and not fails
    ok, _ = gkm_check(GkmElement(fan, [one, ex * ex]))
    assert ok
    ok, fails = gkm_check(GkmElement(fan, [one, one + ex]))
    assert not ok and fails[0]["wall"] == ()


def test_p2_counterexample_frozen():
    # constant on two cones, third off by (1 - e^{(0,1)}): the wall between
    # cones 0 and 2 has character (0,1) so that congruence holds, but the
    # wall between cones 1 and 2 has character (1,-1) and fails
    fan = catalog.p2()
    one = LaurentPoly.one(2)
    pert = one + (one - LaurentPoly.monomial((0, 1)))
    t = GkmElement(fan, [one, one, pert])
    ok, fails = gkm_check(t)
    assert not ok
    assert fails == [{"wall": (2,), "left": 1, "right": 2, "character": (1, -1)}]
    ok2, fails2 = plp_check(t)
    assert not ok2
    assert fails2[0]["cones"] == (1, 2)


def test_gkm_and_plp_agree():
    rng = random.Random(41)
    for fan in ACCEPTANCE:
        space = member_space(fan, 2)
        members = sample_members(space, 50, seed=rng.randrange(1 << 30))
        for t in members:
            assert gkm_check(t)[0]
            assert plp_check(t)[0]
        for t in members:
            i = rng.randrange(len(fan.max_cones))
            exp = tuple(rng.randint(-2, 2) for _ in range(fan.rank))
            bump = LaurentPoly.monomial(exp, rng.choice([1, -1, 2]))
            comps = list(t.components)
            comps[i] = comps[i] + bump
            s = GkmElement(fan, comps)
            assert gkm_check(s)[0] == plp_check(s)[0]


def test_members_closed_under_product():
    rng = random.Random(42)
    for fan in ACCEPTANCE:
        space = member_space(fan, 1)
        members = sample_members(space, 10, seed=rng.randrange(1 << 30))
        for i in range(0, 10, 2):
            prod = members[i] * members[i + 1]
            assert gkm_check(prod)[0]


def test_member_space_dims_frozen():
    assert member_space(catalog.p1(), 0).dim == 1
    assert member_space(catalog.p1(), 1).dim == 5
    assert member_space(catalog.p1(), 2).dim == 9
    assert member_space(catalog.p2(), 1).dim == 17
    assert member_space(catalog.p2(), 2).dim == 57


@pytest.mark.parametrize("fan, max_radius", [
    *((fan, 3) for fan in ACCEPTANCE + [catalog.hirzebruch(3), _polygon7()]),
    (_p3(), 2), (_p1_cubed(), 2),
], ids=lambda x: getattr(x, "name", str(x)))
def test_member_dim_is_the_member_space_dim(fan, max_radius):
    for d in range(max_radius + 1):
        assert member_dim(fan, d) == member_space(fan, d).dim, (fan.name, d)


def _kernel_radii(monkeypatch) -> list:
    """Record the box radius of every wall kernel kring builds."""
    radii = []
    build = kring.wall_kernel

    def recording(n_cones, wall_chars, exps):
        radii.append(max(abs(x) for e in exps for x in e))
        return build(n_cones, wall_chars, exps)

    monkeypatch.setattr(kring, "wall_kernel", recording)
    return radii


def test_rank_builds_no_basis_at_the_top_radius(monkeypatch):
    radii = _kernel_radii(monkeypatch)
    rep = ordinary_box_rank(_p1_cubed())
    assert len(rep.history) == 3
    assert radii == [0, 1, 2]


def test_sr_probe_builds_no_basis_above_the_sample_radius(monkeypatch):
    radii = _kernel_radii(monkeypatch)
    sr_surjectivity_probe(_p3(), sample_radius=1, seed=4)
    assert radii and max(radii) <= 1


def test_sr_probe_report_frozen():
    assert sr_surjectivity_probe(_p3(), seed=4) == {
        "monomials": 129, "samples": 25, "hits": 25, "all_hit": True}


def test_seeded_samples_frozen():
    # the RNG draws a term count, then a basis row and a coefficient per term
    space = member_space(catalog.p1(), 1)
    got = [[sorted(c.terms.items()) for c in t.components]
           for t in sample_members(space, 3, seed=5)]
    assert got == [
        [[((1,), 3)], [((-1,), 6), ((0,), -6), ((1,), 3)]],
        [[((-1,), -3), ((0,), 3)], []],
        [[((-1,), 2), ((0,), -2)], [((0,), -5), ((1,), 5)]],
    ]


def test_member_vector_roundtrip():
    fan = catalog.p2()
    space = member_space(fan, 2)
    for vec in space.basis[:10]:
        t = vector_to_element(space, vec)
        assert element_to_vector(space, t) == {k: v for k, v in vec.items() if v}
    with pytest.raises(ValueError):
        element_to_vector(member_space(fan, 1),
                          constant_embedding(fan, LaurentPoly.monomial((2, 0))))


def test_ordinary_k_rank_frozen():
    expected = {"P1": 2, "P2": 3, "P1xP1": 4, "F1": 4, "P112": 3}
    for fan in ACCEPTANCE:
        rep = ordinary_k_rank(fan)
        assert rep.conclusive, fan.name
        assert rep.rank == expected[fan.name], fan.name
        # conclusive by certificate: the rank counts a certified basis
        assert rep.rank == len(build_filtration_basis(fan).elements), fan.name


def test_ordinary_k_rank_affine_chart():
    # a single smooth cone: the K-ring collapses to the integers
    rep = ordinary_box_rank(catalog.quadrant())
    assert rep.conclusive and rep.rank == 1


def test_ordinary_k_rank_of_an_incomplete_fan_is_inconclusive():
    # the quadrant is not cellular, so no basis certifies a rank
    rep = ordinary_k_rank(catalog.quadrant())
    assert (rep.rank, rep.conclusive) == (None, False)
    assert rep.reason.startswith("fan is not cellular")


def test_ordinary_k_rank_f3_is_four():
    # the box estimate stabilized at a false 11 here
    rep = ordinary_k_rank(catalog.hirzebruch(3))
    assert (rep.rank, rep.conclusive) == (4, True)


def _bench_polygon_rays(n: int) -> list:
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return jobs.polygon_rays(n)


def test_ordinary_k_rank_polygon12_is_twelve():
    # the benchmark's 12-ray polygon, where the box estimate stabilized at 17
    fan = _polygon(12)
    assert list(fan.rays) == _bench_polygon_rays(12)
    rep = ordinary_k_rank(fan)
    assert (rep.rank, rep.conclusive) == (12, True)


def test_ordinary_k_rank_without_certificate_is_inconclusive(monkeypatch):
    def refuse(fan, basis):
        raise ValueError("basis element 0 is not a member")

    monkeypatch.setattr(kring, "_certify_basis", refuse)
    rep = ordinary_k_rank(catalog.p2())
    assert rep == CertifiedRank(rank=None, reason="basis element 0 is not a member")
    assert not rep.conclusive


def test_filtration_basis_triangular():
    for fan in ACCEPTANCE:
        basis = build_filtration_basis(fan, seed=0)
        assert len(basis.elements) == len(fan.max_cones)
        assert sorted(basis.order) == list(range(len(fan.max_cones)))
        for pos, phi in enumerate(basis.elements):
            assert gkm_check(phi)[0]
            for q in basis.order[pos + 1:]:
                assert phi.components[q].is_zero()
            diag = phi.components[basis.order[pos]]
            assert not diag.is_zero()
        # the last cell in the order is closed, and its element restricts
        # to a unit there
        last = basis.elements[-1].components[basis.order[-1]]
        assert last.is_monomial_unit()


def test_filtration_basis_deterministic():
    for fan in (catalog.p2(), catalog.p112()):
        a = build_filtration_basis(fan, seed=5)
        b = build_filtration_basis(fan, seed=5)
        assert a.v == b.v and a.order == b.order
        assert all(x == y for x, y in zip(a.elements, b.elements))


def test_verify_generation_all_samples():
    for fan in ACCEPTANCE:
        basis = build_filtration_basis(fan, seed=0)
        rep = verify_generation(fan, basis, samples=25, seed=1)
        assert rep["all_generated"], (fan.name, rep)


def test_decompose_recovers_coefficients():
    rng = random.Random(43)
    for fan in ACCEPTANCE:
        basis = build_filtration_basis(fan, seed=0)
        for _ in range(10):
            coeffs = []
            total = constant_embedding(fan, 0)
            for phi in basis.elements:
                c = LaurentPoly(fan.rank, {
                    tuple(rng.randint(-1, 1) for _ in range(fan.rank)): rng.randint(-3, 3)
                    for _ in range(rng.randint(0, 2))})
                coeffs.append(c)
                total = total + constant_embedding(fan, c) * phi
            # the module is free, so the coefficients come back exactly
            assert decompose(fan, basis, total) == coeffs


def _polygon(n: int) -> Fan:
    # P1xP1 blown up n - 4 times, each time between a fixed adjacent pair
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    step = 0
    while len(rays) < n:
        j = (2 * step) % len(rays)
        k = (j + 1) % len(rays)
        rays.insert(j + 1, (rays[j][0] + rays[k][0], rays[j][1] + rays[k][1]))
        step += 1
    return Fan(rank=2, rays=tuple(rays), max_cones=tuple((i, (i + 1) % n) for i in range(n)),
               name=f"polygon{n}")


def _closed_form_factors(fan: Fan, basis, pos: int) -> list:
    """The factors (1 - X_rho), rho in sigma_p outside tau_p, as elements."""
    cert = sr_presentation(fan).certificate
    i = basis.order[pos]
    tau = set(check_cellular(fan, v=basis.v).taus[i].ray_indices)
    one = LaurentPoly.one(fan.rank)
    return [GkmElement(fan, [one - LaurentPoly.monomial(cert[(k, rho)])
                             if rho in sigma.ray_indices else LaurentPoly.zero(fan.rank)
                             for k, sigma in enumerate(fan.max_cones)])
            for rho in fan.max_cones[i].ray_indices if rho not in tau]


SMOOTH_BASIS_CASES = (
    [(catalog.hirzebruch(a), None) for a in range(7)]
    + [(_polygon(n), None) for n in range(4, 13)]
    + [(_p3(), (2, 1, 4)), (_p3(), (-2, 7, 4)), (_p1_cubed(), None)])


@pytest.mark.parametrize("fan, v", SMOOTH_BASIS_CASES,
                         ids=[f"{f.name}-{v}" for f, v in SMOOTH_BASIS_CASES])
def test_smooth_basis_is_the_certified_closed_form(fan, v):
    basis = build_filtration_basis(fan, v=v, seed=0)
    assert len(basis.elements) == len(fan.max_cones)
    kring._certify_basis(fan, basis)
    one = constant_embedding(fan, 1)
    for pos, phi in enumerate(basis.elements):
        product = one
        for factor in _closed_form_factors(fan, basis, pos):
            product = product * factor
        assert phi == product, pos
    assert basis.radius == max(phi.support_radius() for phi in basis.elements)


def test_p3_basis_along_minus_2_7_4():
    # the box search gave up here: no dividing generator at order position 2
    fan = _p3()
    basis = build_filtration_basis(fan, v=(-2, 7, 4))
    assert len(basis.elements) == 4
    kring._certify_basis(fan, basis)
    assert verify_generation(fan, basis, samples=25, seed=1)["all_generated"]


def test_smooth_basis_ignores_the_search_radius():
    # max_radius bounds only the singular-fan search
    fan = catalog.p2()
    assert build_filtration_basis(fan, seed=3, max_radius=0) == \
        build_filtration_basis(fan, seed=3)


@pytest.mark.parametrize("fan", [_p3(), _p1_cubed()], ids=["P3", "P1xP1xP1"])
def test_decompose_splits_every_radius_2_member(fan):
    basis = build_filtration_basis(fan, seed=0)
    space = member_space(fan, 2)
    for vec in space.basis:
        t = vector_to_element(space, vec)
        coeffs = decompose(fan, basis, t)
        assert coeffs is not None
        total = constant_embedding(fan, 0)
        for c, phi in zip(coeffs, basis.elements):
            total = total + constant_embedding(fan, c) * phi
        assert total == t


def test_certificate_rejects_a_dropped_factor():
    fan = _p3()
    basis = build_filtration_basis(fan, v=(2, 1, 4))
    one = constant_embedding(fan, 1)
    corrupted = 0
    for pos in range(len(basis.order)):
        factors = _closed_form_factors(fan, basis, pos)
        for drop in range(len(factors)):
            phi = one
            for k, factor in enumerate(factors):
                if k != drop:
                    phi = phi * factor
            assert gkm_check(phi)[0]  # still a member: only the certificate fails
            elements = basis.elements[:pos] + (phi,) + basis.elements[pos + 1:]
            with pytest.raises(ValueError):
                kring._certify_basis(fan, dataclasses.replace(basis, elements=elements))
            corrupted += 1
    assert corrupted == 6  # cell dimensions 3, 2, 1, 0


@pytest.mark.parametrize("seed, v", [(s, None) for s in range(6)] + [(0, (2, 1))])
def test_singular_box_search_basis_passes_the_certificate(seed, v):
    fan = catalog.p112()
    assert not is_smooth_fan(fan)
    basis = build_filtration_basis(fan, v=v, seed=seed)
    kring._certify_basis(fan, basis)


def test_decompose_rejects_nonmember():
    fan = catalog.p2()
    basis = build_filtration_basis(fan, seed=0)
    one = LaurentPoly.one(2)
    bad = GkmElement(fan, [one, one, one + LaurentPoly.monomial((1, 0))])
    assert not gkm_check(bad)[0]
    assert decompose(fan, basis, bad) is None


def test_minimal_nonfaces_frozen():
    assert minimal_nonfaces(catalog.p1()) == [(0, 1)]
    assert minimal_nonfaces(catalog.p2()) == [(0, 1, 2)]
    assert minimal_nonfaces(catalog.p1xp1()) == [(0, 2), (1, 3)]
    assert minimal_nonfaces(catalog.f1()) == [(0, 2), (1, 3)]


@pytest.mark.parametrize("fan", [_polygon(8), _p3(), _p1_cubed(), catalog.quadrant()],
                         ids=lambda f: f.name)
def test_minimal_nonfaces_match_every_subset(fan):
    # the search stops at rank + 1 rays; the oracle tries every ray subset
    faces = {frozenset(c.ray_indices) for c in all_cones(fan)}
    n = len(fan.rays)
    oracle = [s for size in range(1, n + 1) for s in itertools.combinations(range(n), size)
              if frozenset(s) not in faces
              and all(frozenset(t) in faces for t in itertools.combinations(s, size - 1))]
    assert minimal_nonfaces(fan) == oracle


def test_smoothness_gate():
    assert is_smooth_fan(catalog.p2())
    assert not is_smooth_fan(catalog.p112())
    with pytest.raises(ValueError):
        sr_presentation(catalog.p112())
    with pytest.raises(ValueError):
        bundle_presentation(catalog.p112(), TrivialBase(2))


def test_sr_generators_frozen_p1():
    xs, cert, _ = bundle_presentation(catalog.p1(), TrivialBase(1))
    assert xs[0].comps[0] == LaurentPoly.monomial((1,))
    assert xs[0].comps[1] == LaurentPoly.one(1)
    assert xs[1].comps[0] == LaurentPoly.one(1)
    assert xs[1].comps[1] == LaurentPoly.monomial((-1,))
    assert cert[(0, 0)] == (1,) and cert[(1, 1)] == (-1,)


def test_sr_certificate_duality():
    for fan in SMOOTH:
        cert = sr_presentation(fan).certificate
        for k, sigma in enumerate(fan.max_cones):
            for j in range(len(fan.rays)):
                u = cert[(k, j)]
                if j in sigma.ray_indices:
                    for r in sigma.ray_indices:
                        pair = sum(a * b for a, b in zip(u, fan.rays[r]))
                        assert pair == (1 if r == j else 0)
                else:
                    assert u == tuple([0] * fan.rank)


def test_sr_generators_are_members():
    for fan in SMOOTH:
        xs, _, _ = bundle_presentation(fan, TrivialBase(fan.rank))
        for x in xs:
            assert gkm_check(GkmElement(fan, x.comps))[0]
            assert plp_check(GkmElement(fan, x.comps))[0]


def test_sr_relations_vanish():
    for fan in SMOOTH:
        pres = sr_presentation(fan)
        base = TrivialBase(fan.rank)
        kinds = [r["kind"] for r in pres.relations]
        assert kinds.count("character") == fan.rank
        assert kinds.count("nonface") == len(minimal_nonfaces(fan))
        for rel in pres.relations:
            assert extended_relation_image(fan, base, pres.certificate, rel).is_zero(), \
                (fan.name, rel)


def test_sr_relation_images_detect_wrong_assignment():
    # swapping two generator images (certificate columns) must break some relation
    fan = catalog.p2()
    pres = sr_presentation(fan)
    swap = {0: 1, 1: 0, 2: 2}
    swapped = {(k, j): pres.certificate[(k, swap[j])] for (k, j) in pres.certificate}
    assert any(not extended_relation_image(fan, TrivialBase(2), swapped, rel).is_zero()
               for rel in pres.relations)


def test_sr_surjectivity_probe():
    for fan in SMOOTH:
        rep = sr_surjectivity_probe(fan, samples=25, seed=3)
        assert rep["all_hit"], (fan.name, rep)


def test_element_serialization_roundtrip():
    fan = catalog.p2()
    space = member_space(fan, 1)
    for t in sample_members(space, 5, seed=9):
        obj = element_to_obj(t)
        assert element_from_obj(fan, obj) == t
    with pytest.raises(ValueError):
        element_from_obj(fan, [[], []])
    with pytest.raises(ValueError):
        element_from_obj(fan, "nope")


def test_ordinary_k_rank_histories_frozen_rank_three():
    # the ideal rank inserts its products in its own order; the estimates
    # (radius, member_dim, ideal_rank, estimate) must not move
    rep = ordinary_box_rank(_p3())
    assert rep.history == ((1, 51, 26, 25), (2, 317, 313, 4), (3, 991, 987, 4))
    assert (rep.rank, rep.stabilized_at, rep.conclusive) == (4, 3, True)
    rep = ordinary_box_rank(_p1_cubed())
    assert rep.history == ((1, 125, 26, 99), (2, 729, 721, 8), (3, 2197, 2189, 8))
    assert (rep.rank, rep.stabilized_at, rep.conclusive) == (8, 3, True)


def _full_shift_ideal_rank(fan, radius, inner):
    """Oracle: every shift u != 0 of the radius-1 box times every inner
    basis vector, (e^u - 1) * b pushed into the radius box."""
    block = (2 * radius + 1) ** fan.rank
    lat = RowSpan()
    for u in box_points(fan.rank, 1):
        if not any(u):
            continue
        for b in inner.basis:
            row = {}
            for pos, x in b.items():
                cone, k = divmod(pos, inner.block)
                exp = inner.exps[k]
                moved = tuple(a + c for a, c in zip(exp, u))
                for e, y in ((moved, x), (exp, -x)):
                    col = cone * block + box_index(e, radius)
                    row[col] = row.get(col, 0) + y
            lat.insert({c: y for c, y in row.items() if y})
    return lat.rank


IDEAL_ORACLE_CASES = [
    (fan, d)
    for fan, top in [(catalog.p1(), 4), (catalog.p2(), 4), (catalog.p1xp1(), 4),
                     (catalog.f1(), 4), (catalog.p112(), 4), (catalog.hirzebruch(3), 4),
                     (catalog.hirzebruch(5), 4), (_polygon7(), 4), (_p3(), 2),
                     (_p1_cubed(), 2)]
    for d in range(1, top + 1)
]


@pytest.mark.parametrize("fan, radius", IDEAL_ORACLE_CASES,
                         ids=[f"{f.name}-d{d}" for f, d in IDEAL_ORACLE_CASES])
def test_augmentation_ideal_rank_matches_full_shift_oracle(fan, radius):
    # radius 1 has inner radius 0, where every basis vector touches every face
    inner = member_space(fan, radius - 1)
    assert (augmentation_ideal_rank(fan, radius, inner)
            == _full_shift_ideal_rank(fan, radius, inner))


@pytest.mark.parametrize("fan, inserts", [(_p1_cubed(), 1356), (_p3(), 860)],
                         ids=["P1xP1xP1", "P3"])
def test_augmentation_ideal_inserts_only_kept_rows(monkeypatch, fan, inserts):
    # the full shift set inserts 3,250 rows for P1xP1xP1 and 1,326 for P3
    calls = []
    insert = RowSpan.insert
    monkeypatch.setattr(RowSpan, "insert", lambda self, row: calls.append(1) or insert(self, row))
    augmentation_ideal_rank(fan, 2, member_space(fan, 1))
    assert len(calls) == inserts


def test_box_stabilize_without_plateau_is_inconclusive():
    estimates = {1: 7, 2: 5, 3: 6}
    rep = box_stabilize(lambda d: (d, estimates[d]), 3)
    assert rep.history == ((1, 7), (2, 5), (3, 6))
    assert (rep.rank, rep.stabilized_at, rep.conclusive) == (6, None, False)


def test_box_stabilize_stops_at_the_first_repeat():
    steps = []

    def step(d):
        steps.append(d)
        return d, 10 * d, (9, 4, 4, 4)[d - 1]

    rep = box_stabilize(step, 4)
    assert steps == [1, 2, 3]
    assert (rep.rank, rep.stabilized_at, rep.conclusive) == (4, 3, True)


def test_box_stabilize_with_no_radius_has_no_rank():
    rep = box_stabilize(lambda d: pytest.fail("no radius to step"), 0)
    assert (rep.rank, rep.stabilized_at, rep.conclusive, rep.history) == (
        None, None, False, ())
    # max_radius bounds only the singular search; P1 is smooth
    assert ordinary_k_rank(catalog.p1(), max_radius=0) == CertifiedRank(rank=2)


def test_plateau_returns_the_first_repeat_or_the_last_value():
    assert plateau([3, 1, 2]) == 2
    assert plateau([]) is None
    values = iter([5, 2, 2, 7])
    assert plateau(values) == 2
    assert list(values) == [7]  # drawn no further than the repeat


RANK_CASES = (
    [(catalog.hirzebruch(a), 4) for a in range(7)]
    + [(_polygon(n), n) for n in range(4, 13)]
    + [(_p3(), 4), (_p1_cubed(), 8), (catalog.p112(), 3)])


@pytest.mark.parametrize("fan, rank", RANK_CASES, ids=[f.name for f, _ in RANK_CASES])
def test_ordinary_k_rank_is_the_cell_count(fan, rank):
    # one certified basis element per cell; P112 goes through the box search
    assert ordinary_k_rank(fan) == CertifiedRank(rank=rank)


def test_box_oracle_is_not_monotone():
    # the box estimate stabilizes on every case and agrees with the
    # certified rank on all but two, where two successive estimates agree
    # on a false value (F3 runs 11, 11; polygon12 runs 35, 17, 17)
    false_ranks = {}
    for fan, rank in RANK_CASES:
        rep = ordinary_box_rank(fan)
        assert rep.conclusive, fan.name
        if rep.rank != rank:
            false_ranks[fan.name] = rep.rank
    assert false_ranks == {"F3": 11, "polygon12": 17}
