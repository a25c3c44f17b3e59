import itertools
import random

import pytest

from kfan.baserings import (
    CharRemap,
    FlagBase,
    PointBase,
    ToricBase,
    TrivialBase,
    base_from_obj,
    flag_rank_probe,
    simple_reflection,
    weyl_group_order,
    weyl_orbit,
)
from kfan.catalog import f1, p1, p112, p1xp1, p2
from kfan.intlat import IntMatrix, RowLattice, solve_integer
from kfan.kring import member_space, vector_to_element
from kfan.laurent import LaurentPoly, box_points, coset_rep, divides, poly_to_obj

A2 = [[2, -1], [-1, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
B2 = [[2, -1], [-2, 2]]
G2 = [[2, -1], [-3, 2]]
B3 = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
C3 = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]


def rand_poly(rng, rank, radius=1, terms=3):
    pts = box_points(rank, radius)
    out = LaurentPoly.zero(rank)
    for _ in range(terms):
        out = out + LaurentPoly.monomial(rng.choice(pts), rng.randint(-3, 3))
    return out


def rand_member(rng, ring, radius=1, terms=3):
    basis = ring.box_basis(radius)
    out = ring.zero()
    for _ in range(terms):
        c = rng.randint(-3, 3)
        out = ring.add(out, ring.mul(ring.scalar(c), rng.choice(basis)))
    return out


# --- point ---------------------------------------------------------------------


def test_point_base_is_equality():
    ring = PointBase(char_rank=2)
    assert ring.line_class((3, -1)) == 1
    assert ring.congruent(5, 5, (1, 0))
    assert not ring.congruent(5, 4, (1, 0))
    assert ring.mul(ring.add(2, 3), ring.neg(4)) == -20
    assert ring.scalar(-3) == -3
    assert ring.coeff_vector(7, 1) == {0: 7}
    assert ring.deserialize(ring.serialize(9)) == 9
    for bad in (True, 9.0):
        with pytest.raises(ValueError):
            ring.deserialize(bad)
    with pytest.raises(ValueError):
        ring.line_class((1,))


# --- trivial -------------------------------------------------------------------


def test_trivial_line_class_is_multiplicative():
    ring = TrivialBase(2)
    rng = random.Random(3)
    for _ in range(20):
        a = (rng.randint(-2, 2), rng.randint(-2, 2))
        b = (rng.randint(-2, 2), rng.randint(-2, 2))
        ab = tuple(x + y for x, y in zip(a, b))
        assert ring.mul(ring.line_class(a), ring.line_class(b)) == ring.line_class(ab)


def test_trivial_congruence_matches_division():
    ring = TrivialBase(2)
    rng = random.Random(4)
    for _ in range(25):
        chi = (rng.randint(-2, 2), rng.randint(-2, 2))
        if not any(chi):
            continue
        h = rand_poly(rng, 2)
        b = rand_poly(rng, 2)
        a = b + (LaurentPoly.one(2) - ring.line_class(chi)) * h
        assert ring.congruent(a, b, chi)
        # a unit offset cannot be a multiple of the wall class
        assert not ring.congruent(a + 1, b, chi)


def test_trivial_zero_character_is_equality():
    ring = TrivialBase(1)
    x = LaurentPoly.monomial((1,))
    assert ring.congruent(x, x, (0,))
    assert not ring.congruent(x, x + 1, (0,))


def test_trivial_box_and_coeffs_roundtrip():
    ring = TrivialBase(2)
    basis = ring.box_basis(1)
    assert len(basis) == 9 == ring.coeff_dim(1)
    f = basis[0] + basis[3] * 4
    vec = ring.coeff_vector(f, 1)
    rebuilt = ring.zero()
    exps = box_points(2, 1)
    for k, c in vec.items():
        rebuilt = rebuilt + LaurentPoly.monomial(exps[k], c)
    assert rebuilt == f
    with pytest.raises(ValueError):
        ring.coeff_vector(LaurentPoly.monomial((2, 0)), 1)


# --- toric ---------------------------------------------------------------------


def test_toric_box_basis_matches_member_space():
    # with the identity character lattice the ring is the ordinary
    # wall-congruence ring, whose box dimensions are known
    ring = ToricBase(p1())
    assert len(ring.box_basis(1)) == member_space(p1(), 1).dim == 5
    assert len(ring.box_basis(2)) == member_space(p1(), 2).dim == 9
    for m in ring.box_basis(1):
        assert ring.is_member(m)
    # the same kernel, element by element and in order
    for fan in (p1(), p2(), f1()):
        for radius in (1, 2):
            space = member_space(fan, radius)
            expected = [vector_to_element(space, vec).components for vec in space.basis]
            assert ToricBase(fan).box_basis(radius) == expected, (fan.name, radius)


def test_toric_rejects_bad_bases():
    with pytest.raises(ValueError):
        ToricBase(p112())  # singular
    with pytest.raises(ValueError):
        ToricBase(p1(), coeff_rank=0)


def test_toric_line_class_needs_membership():
    # exponents differing off the wall lattice cannot glue
    with pytest.raises(ValueError):
        ToricBase(p1(), coeff_rank=2, line_data=[[(0, 1), (1, 2)]])
    ring = ToricBase(p1(), coeff_rank=2, line_data=[[(0, 1), (1, 1)]])
    cls = ring.line_class((1,))
    assert ring.is_member(cls)
    assert ring.is_member(ring.line_class((-2,)))


def hirzebruch_base(a):
    # base P1 inside a rank-2 character lattice; the fiber character acts
    # through a line class twisted by a along the base
    return ToricBase(p1(), coeff_rank=2, line_data=[[(0, 1), (a, 1)]])


def test_toric_congruence_accepts_multiples():
    rng = random.Random(5)
    ring = hirzebruch_base(1)
    one = ring.one()
    for _ in range(15):
        chi = (rng.choice([-2, -1, 1, 2]),)
        h = rand_member(rng, ring, radius=1, terms=2)
        b = rand_member(rng, ring, radius=1, terms=2)
        cls = ring.line_class(chi)
        a = ring.add(b, ring.mul(ring.sub(one, cls), h))
        assert ring.congruent(a, b, chi)


def test_toric_congruence_agrees_with_lattice_oracle():
    # independent check: box-truncated lattice membership of the difference
    # in (1 - line class) times the member lattice
    rng = random.Random(6)
    ring = hirzebruch_base(2)
    one = ring.one()
    chi = (1,)
    cls = ring.line_class(chi)
    radius = 4
    lat = RowLattice()
    for m in ring.box_basis(2):
        prod = ring.mul(ring.sub(one, cls), m)
        lat.insert(ring.coeff_vector(prod, radius))
    agree = 0
    for _ in range(30):
        h = rand_member(rng, ring, radius=1, terms=2)
        b = rand_member(rng, ring, radius=1, terms=2)
        diff = ring.mul(ring.sub(one, cls), h)
        if rng.random() < 0.5:
            diff = ring.add(diff, rand_member(rng, ring, radius=1, terms=1))
        a = ring.add(b, diff)
        got = ring.congruent(a, b, chi)
        oracle = lat.contains(ring.coeff_vector(diff, radius))
        # the oracle is box-truncated so it may miss wide multiples, but a
        # positive oracle must always be confirmed
        if oracle:
            assert got
        if got == oracle:
            agree += 1
    assert agree >= 25


def test_toric_zero_component_congruence():
    # line class trivial on the first cone: difference must vanish there
    # and the quotient is completed on the free component
    ring = ToricBase(p1(), coeff_rank=2, line_data=[[(0, 0), (1, 0)]])
    one = ring.one()
    cls = ring.line_class((1,))
    assert next(iter(cls[0].terms)) == (0, 0)
    rng = random.Random(7)
    for _ in range(10):
        h = rand_member(rng, ring, radius=1, terms=2)
        b = rand_member(rng, ring, radius=1, terms=2)
        a = ring.add(b, ring.mul(ring.sub(one, cls), h))
        assert ring.congruent(a, b, (1,))
    # nonzero difference on the trivial component can never be congruent
    bump = (LaurentPoly.one(2), LaurentPoly.zero(2))
    assert not ring.congruent(ring.add(b, bump), b, (1,))


def _free_cone_oracle(ring, a, b, chi) -> bool:
    """ToricBase.congruent in its first formulation: divide componentwise,
    then solve the glue conditions for the components where the line class
    is trivial as one dense integer system per box radius."""
    quotients, free = [], []
    for k, (d, c) in enumerate(zip(ring.sub(a, b), ring.line_class(chi))):
        exp = next(iter(c.terms))
        if not any(exp):
            if not d.is_zero():
                return False
            quotients.append(None)
            free.append(k)
        else:
            ok, q = divides(d, exp)
            if not ok:
                return False
            quotients.append(q)
    wall_chars = ring._wall_chars()
    if not free:
        return all(divides(quotients[l] - quotients[r], w)[0] for l, r, w in wall_chars)
    radius = max([q.support_radius() for q in quotients if q is not None]
                 + [abs(x) for _, _, w in wall_chars for x in w] + [1])
    for attempt in (radius, radius + 1):
        exps = box_points(ring.coeff_rank, attempt)
        index = {e: i for i, e in enumerate(exps)}
        block = len(exps)
        free_pos = {k: n for n, k in enumerate(free)}
        rows, rhs = [], []
        glued = all(exp in index for q in quotients if q is not None for exp in q.terms)
        for l, r, w in wall_chars:
            if l not in free_pos and r not in free_pos:
                glued = glued and divides(quotients[l] - quotients[r], w)[0]
                continue
            classes = {}
            for e in exps:
                classes.setdefault(coset_rep(e, w), []).append(e)
            fixed = {}
            for side, sign in ((l, 1), (r, -1)):
                if side not in free_pos:
                    for exp, coef in quotients[side].terms.items():
                        fixed[exp] = fixed.get(exp, 0) + sign * coef
            for members in classes.values():
                row = [0] * (block * len(free))
                for e in members:
                    if l in free_pos:
                        row[free_pos[l] * block + index[e]] += 1
                    if r in free_pos:
                        row[free_pos[r] * block + index[e]] -= 1
                rows.append(row)
                rhs.append(-sum(fixed.get(e, 0) for e in members))
        if glued and (not rows or solve_integer(
                IntMatrix(rows, cols=block * len(free)), rhs) is not None):
            return True
    return False


@pytest.mark.parametrize("fan, line_data, coeff_rank", [
    (p1(), [(0, 0), (1, 0)], 2),
    (p2(), [(0, 0), (1, 0), (0, 1)], None),
    (p1xp1(), [(0, 0), (0, 0), (0, 1), (0, 1)], None),
    (p1xp1(), [(0, 0), (1, 0), (1, 1), (0, 1)], None),
    (p1xp1(), [(0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 0, 0)], 3),
], ids=["p1", "p2", "p1xp1-two-free", "p1xp1-one-free", "p1xp1-rank3"])
def test_toric_free_cone_congruence_matches_integer_solve(fan, line_data, coeff_rank):
    # most differences divide by (1 - line class) on every cone, so whether
    # the quotients glue decides the verdict; on P1 they always glue, and a
    # bumped component is what fails there
    ring = ToricBase(fan, coeff_rank=coeff_rank, line_data=[line_data])
    rng = random.Random(11)
    verdicts = []
    for n in range(60):
        chi = (rng.choice([-2, -1, 1, 2]),)
        b = rand_member(rng, ring, radius=1, terms=2)
        q = rand_member(rng, ring, radius=1, terms=2)
        if n % 4 in (1, 2):
            noise = tuple(rand_poly(rng, ring.coeff_rank, radius=1, terms=2)
                          for _ in fan.max_cones)
            q = noise if n % 4 == 2 else ring.add(q, noise)
        a = ring.add(b, ring.mul(ring.sub(ring.one(), ring.line_class(chi)), q))
        if n % 4 == 3:
            k = rng.randrange(len(fan.max_cones))
            a = tuple(c + LaurentPoly.monomial(rng.choice(box_points(ring.coeff_rank, 1)))
                      if i == k else c for i, c in enumerate(a))
        got = ring.congruent(a, b, chi)
        assert got == _free_cone_oracle(ring, a, b, chi), (n, chi, q)
        verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


def test_toric_serialize_roundtrip():
    ring = hirzebruch_base(1)
    rng = random.Random(8)
    m = rand_member(rng, ring, radius=1)
    assert ring.deserialize(ring.serialize(m)) == m
    with pytest.raises(ValueError):
        ring.deserialize([])


# --- weyl machinery -------------------------------------------------------------


def test_simple_reflection_is_involution():
    rng = random.Random(9)
    for _ in range(20):
        lam = (rng.randint(-4, 4), rng.randint(-4, 4))
        for j in (0, 1):
            assert simple_reflection(A2, j, simple_reflection(A2, j, lam)) == lam


def test_weyl_orbit_frozen_a2():
    assert weyl_orbit(A2, [0, 1], (1, 0)) == [(-1, 1), (0, -1), (1, 0)]
    assert weyl_orbit(A2, [0, 1], (0, 0)) == [(0, 0)]
    assert len(weyl_orbit(A2, [0, 1], (1, 1))) == 6
    assert weyl_orbit(A2, [0], (1, 0)) == [(-1, 1), (1, 0)]


def test_weyl_group_orders():
    assert weyl_group_order([[2]], [0]) == 2
    assert weyl_group_order(A2, []) == 1
    assert weyl_group_order(A2, [0]) == 2
    assert weyl_group_order(A2, [0, 1]) == 6
    assert weyl_group_order([[2, -1], [-2, 2]], [0, 1]) == 8
    assert weyl_group_order([[2, -1], [-3, 2]], [0, 1]) == 12


def _group_order_by_matrices(cartan, gens):
    # oracle: breadth-first enumeration of the subgroup as matrices acting
    # on weight coordinates
    r = len(cartan)
    eye = tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))
    seen = {eye}
    frontier = [eye]
    while frontier:
        nxt = []
        for mat in frontier:
            for j in gens:
                new = tuple(simple_reflection(cartan, j, row) for row in mat)
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize("cartan, order", [([[2]], 2), (A2, 6), (B2, 8), (G2, 12),
                                           (A3, 24), (B3, 48), (C3, 48)],
                         ids=["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_weyl_group_order_matches_matrix_enumeration(cartan, order):
    r = len(cartan)
    assert _group_order_by_matrices(cartan, range(r)) == order
    for size in range(r + 1):
        for gens in itertools.combinations(range(r), size):
            assert weyl_group_order(cartan, gens) == _group_order_by_matrices(cartan, gens)


def test_cartan_validation():
    with pytest.raises(ValueError):
        FlagBase([[2, 1], [1, 2]], [])
    with pytest.raises(ValueError):
        FlagBase([[1]], [])
    with pytest.raises(ValueError):
        FlagBase([[2, -1], [0, 2]], [])
    with pytest.raises(ValueError):
        FlagBase(A2, [5])


@pytest.mark.parametrize("build", [
    lambda: ToricBase(p1(), coeff_rank=2, line_data=[[(0, 1.9), (1, 1)]]),
    lambda: ToricBase(p1(), coeff_rank=2, base_embed=[(1.0, 0)]),
    lambda: FlagBase(A2, [True]),
    lambda: FlagBase([[2.0]], []),
    lambda: CharRemap(TrivialBase(2), [[0, 1.5]]),
], ids=["toric-line-data", "toric-base-embed", "flag-parabolic-bool", "cartan-float",
        "remap-column"])
def test_constructors_reject_non_integers(build):
    # int() would truncate 1.9 to 1 and read True as 1
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("call", [
    lambda: FlagBase(A2, [0]).line_class((0, 1.9)),
    lambda: FlagBase(A2, []).line_class((True, 0)),
    lambda: weyl_orbit(A2, [0], (0, 1.5)),
    lambda: ToricBase(p1(), coeff_rank=1, line_data=[[(1,), (0,)]]).line_class((1.5,)),
    lambda: ToricBase(p1(), coeff_rank=1, line_data=[[(1,), (0,)]]).line_class((False,)),
], ids=["flag-line-class-float", "flag-line-class-bool", "weyl-orbit-float",
        "toric-line-class-float", "toric-line-class-bool"])
def test_characters_reject_non_integers(call):
    # int() would truncate (0, 1.9) to e^(0,1)
    with pytest.raises(ValueError):
        call()


# --- flag ----------------------------------------------------------------------


def test_flag_membership_and_orbit_sums():
    ring = FlagBase([[2]], [0])
    x = LaurentPoly.monomial((1,))
    assert not ring.is_member(x)
    assert ring.is_member(x + LaurentPoly.monomial((-1,)))
    assert ring.orbit_sum((2,)) == LaurentPoly.monomial((2,)) + LaurentPoly.monomial((-2,))
    free = FlagBase([[2]], [])
    assert free.is_member(x)


def test_flag_box_basis_spans_invariants():
    ring = FlagBase(A2, [0])
    basis = ring.box_basis(1)
    # one orbit sum per orbit inside the box, in order of first box point
    assert [sorted(b.terms) for b in basis] == [
        [(-1, 0), (1, -1)], [(-1, 1), (1, 0)], [(0, -1)], [(0, 0)], [(0, 1)]]
    assert [sorted(s.terms) for s in ring.scalars(1)] == [
        [(-1, 0), (0, 1), (1, -1)], [(-1, 1), (0, -1), (1, 0)], [(0, 0)]]
    for b in basis:
        assert ring.is_member(b)
    # an invariant supported in the box must be an integer combination
    lat = RowLattice()
    for b in basis:
        lat.insert(ring.coeff_vector(b, 1))
    f = ring.orbit_sum((0, 1)) * 3 - ring.orbit_sum((0, 0))
    assert ring.is_member(f) and f.support_radius() <= 1
    assert lat.contains(ring.coeff_vector(f, 1))


def test_flag_line_class_requires_fixed_character():
    ring = FlagBase(A2, [0])
    cls = ring.line_class((0, 2))
    assert cls == LaurentPoly.monomial((0, 2))
    with pytest.raises(ValueError):
        ring.line_class((1, 0))


def test_flag_congruence():
    ring = FlagBase(A2, [0])
    rng = random.Random(10)
    chi = (0, 1)
    one = ring.one()
    for _ in range(10):
        h = rand_member(rng, ring, radius=1, terms=2)
        b = rand_member(rng, ring, radius=1, terms=2)
        a = ring.add(b, ring.mul(ring.sub(one, ring.line_class(chi)), h))
        assert ring.congruent(a, b, chi)
        assert not ring.congruent(ring.add(a, ring.scalar(1)), b, chi)


def test_flag_serialize_rejects_noninvariant():
    ring = FlagBase([[2]], [0])
    x = LaurentPoly.monomial((1,))
    with pytest.raises(ValueError):
        ring.deserialize(poly_to_obj(x))
    inv = x + LaurentPoly.monomial((-1,))
    assert ring.deserialize(ring.serialize(inv)) == inv


def test_flag_rank_probe_frozen_values():
    # rank of the parabolic invariants over the full invariants equals the
    # index of the Weyl subgroup; the (radius, basis, ideal rank, estimate)
    # histories are frozen too
    cases = [
        ([[2]], [], 2, [(1, 3, 1, 2), (2, 5, 3, 2)]),
        ([[2]], [0], 1, [(1, 2, 1, 1), (2, 3, 2, 1)]),
        (A2, [], 6, [(1, 9, 3, 6), (2, 25, 19, 6)]),
        (A2, [0], 3, [(1, 5, 2, 3), (2, 12, 9, 3)]),
        (B2, [], 8, [(1, 9, 1, 8), (2, 25, 17, 8)]),
        (B2, [0], 4, [(1, 4, 1, 3), (2, 9, 5, 4), (3, 16, 12, 4)]),
    ]
    for cartan, ps, expected, history in cases:
        rep = flag_rank_probe(cartan, ps, max_radius=5)
        assert rep["conclusive"], rep
        assert rep["rank"] == expected == rep["expected_index"], rep
        assert rep["history"] == history, rep
        assert rep["stabilized_at"] == len(history), rep


@pytest.mark.parametrize("cartan", [[[2]], A2, B2, G2])
@pytest.mark.parametrize("radius", [1, 2])
def test_flag_scalars_are_full_group_box_basis(cartan, radius):
    full = FlagBase(cartan, range(len(cartan))).box_basis(radius)
    for size in range(len(cartan) + 1):
        for ps in itertools.combinations(range(len(cartan)), size):
            assert FlagBase(cartan, ps).scalars(radius) == full


# --- character remap -------------------------------------------------------------


def test_char_remap_composes_line_classes():
    inner = FlagBase(A2, [0])
    remap = CharRemap(inner, [(0, 1)])
    assert remap.char_rank == 1
    assert remap.line_class((3,)) == LaurentPoly.monomial((0, 3))
    rng = random.Random(11)
    h = rand_member(rng, inner, radius=1, terms=2)
    b = rand_member(rng, inner, radius=1, terms=2)
    a = inner.add(b, inner.mul(inner.sub(inner.one(), remap.line_class((1,))), h))
    assert remap.congruent(a, b, (1,))
    assert remap.congruent(a, b, (1,)) == inner.congruent(a, b, (0, 1))


def test_char_remap_rejects_unfixed_columns():
    inner = FlagBase(A2, [0])
    with pytest.raises(ValueError):
        CharRemap(inner, [(1, 0)])
    with pytest.raises(ValueError):
        CharRemap(inner, [(0, 1, 2)])


# --- shared behaviour ------------------------------------------------------------


def _bases():
    return (PointBase(char_rank=1), TrivialBase(2),
            ToricBase(p1(), coeff_rank=2, line_data=[[(0, 1), (1, 1)]]),
            FlagBase(A2, [0]), CharRemap(FlagBase(A2, [0]), [(0, 1)]))


def test_scalar_is_closed_form():
    big = 10 ** 30
    for ring in _bases():
        for n in range(-3, 4):
            summed = ring.zero()
            for _ in range(abs(n)):
                summed = ring.add(summed, ring.one() if n > 0 else ring.neg(ring.one()))
            assert ring.eq(ring.scalar(n), summed)
        assert ring.augmentation(ring.scalar(big)) == big
    assert PointBase().scalar(big) == big
    assert TrivialBase(2).scalar(big) == LaurentPoly.constant(2, big)
    assert FlagBase(A2, [0]).scalar(-big) == LaurentPoly.constant(2, -big)
    toric = ToricBase(p1(), coeff_rank=2, line_data=[[(0, 1), (1, 1)]])
    assert toric.scalar(big) == (LaurentPoly.constant(2, big),) * 2
    assert CharRemap(FlagBase(A2, [0]), [(0, 1)]).scalar(big) == \
        LaurentPoly.constant(2, big)


def test_coeff_vector_positions_follow_box_points():
    rng = random.Random(5)
    for ring, rank in ((TrivialBase(3), 3), (FlagBase(A3, []), 3)):
        for radius in (1, 2):
            pts = box_points(rank, radius)
            f = rand_poly(rng, rank, radius=radius, terms=6)
            assert ring.coeff_vector(f, radius) == {
                pts.index(e): c for e, c in f.terms.items()}
    toric = ToricBase(p1(), coeff_rank=2, line_data=[[(0, 1), (1, 1)]])
    pts = box_points(2, 2)
    a = (rand_poly(rng, 2, radius=2), rand_poly(rng, 2, radius=1))
    expected = {k * len(pts) + pts.index(e): c
                for k, comp in enumerate(a) for e, c in comp.terms.items()}
    assert toric.coeff_vector(a, 2) == expected


def test_coeff_vector_rejects_exponents_outside_the_box():
    msg = "element exponent outside the box"
    far = LaurentPoly.monomial((2, 0))
    with pytest.raises(ValueError, match=msg):
        TrivialBase(2).coeff_vector(far + 1, 1)
    with pytest.raises(ValueError, match=msg):
        FlagBase(A2, []).coeff_vector(far, 1)
    toric = ToricBase(p1(), coeff_rank=2, line_data=[[(0, 1), (1, 1)]])
    with pytest.raises(ValueError, match=msg):
        toric.coeff_vector((LaurentPoly.one(2), far), 1)
    # an exponent of the wrong length is not in the box either
    with pytest.raises(ValueError, match=msg):
        TrivialBase(2).coeff_vector(LaurentPoly.monomial((0, 0, 0)), 1)


P1_JSON = {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}


@pytest.mark.parametrize("obj", [
    {"kind": "point", "char_rank": True},
    {"kind": "trivial", "char_rank": 2.9},
    {"kind": "trivial", "char_rank": True},
    {"kind": "trivial", "char_rank": -1},
    {"kind": "toric", "fan": P1_JSON, "coeff_rank": 2.0},
    {"kind": "toric", "fan": P1_JSON, "coeff_rank": 2, "line_data": [[[0, True], [1, 1]]]},
    {"kind": "toric", "fan": P1_JSON, "coeff_rank": 2, "line_data": [[[0, 1.5], [1, 1]]]},
    {"kind": "toric", "fan": P1_JSON, "coeff_rank": 2, "base_embed": [[1, False]]},
    {"kind": "flag", "cartan": [[2.5, -1], [-1, 2]]},
    {"kind": "flag", "cartan": [[2, -1], [-1, 2]], "parabolic_set": [True]},
    {"kind": "remap", "inner": {"kind": "trivial", "char_rank": 1}, "embedding": [[1.5]]},
], ids=["point-bool", "trivial-float", "trivial-bool", "trivial-negative", "toric-float-rank",
        "line-data-bool", "line-data-float", "base-embed-bool", "flag-float-cartan",
        "flag-bool-parabolic", "remap-float-embedding"])
def test_base_from_obj_rejects_non_integers(obj):
    with pytest.raises(ValueError):
        base_from_obj(obj)


def test_base_from_obj_reads_integers():
    assert base_from_obj({"kind": "point"}).char_rank == 0
    assert base_from_obj({"kind": "trivial", "char_rank": 2}).char_rank == 2
    ring = base_from_obj({"kind": "toric", "fan": P1_JSON, "coeff_rank": 2,
                          "line_data": [[[0, 1], [1, 1]]], "base_embed": [[1, 0]]})
    assert (ring.coeff_rank, ring.line_data, ring.base_embed) == (
        2, (((0, 1), (1, 1)),), ((1, 0),))
