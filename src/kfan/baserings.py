"""Coefficient rings for extended wall-congruence descriptions.

A fibration over a base space turns the wall congruence a_i = a_j mod
(1 - e^chi) into a congruence in the K-ring of the base, with e^chi
replaced by the class of the line bundle the character chi induces.  Each
ring here packages exactly what that check and the rank/sampling
computations need: ring operations, the line class of a character, the
congruence test itself, and finite box bases with coefficient coordinates
for the integer linear algebra.

Elements are plain values (integers, Laurent polynomials, or tuples of
them); all structure lives on the ring object.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Optional, Sequence

from .cellular import check_cellular
from .fan import Fan, is_json_int, json_int_rows, json_ints, parse_fan, walls
from .intlat import RowLattice, RowSpan
from .kring import box_stabilize, is_smooth_fan, plateau, wall_kernel
from .laurent import (
    LaurentPoly,
    box_index,
    box_points,
    divides,
    poly_from_obj,
    poly_to_obj,
)


class BaseRing(ABC):
    """Coefficients for extended wall congruences over a fixed base."""

    #: rank of the character lattice line_class accepts
    char_rank: int

    @abstractmethod
    def scalar(self, n: int):
        """The integer n as an element: n times one."""

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    # the ring operations default to the elements' own operators
    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def scale(self, a, n: int):
        """n times a; the same value as mul(scalar(n), a).  Integers and
        Laurent polynomials multiply by an int directly."""
        return a * n

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero())

    @abstractmethod
    def is_member(self, a) -> bool:
        """Whether the value is a legitimate element of this ring."""

    @abstractmethod
    def line_class(self, chi: Sequence[int]):
        """The invertible class of the character chi."""

    @abstractmethod
    def congruent(self, a, b, chi: Sequence[int]) -> bool:
        """Whether a - b lies in (1 - line_class(chi)) times this ring."""

    @abstractmethod
    def augmentation(self, a) -> int: ...

    @abstractmethod
    def box_basis(self, radius: int) -> list:
        """Elements spanning every member supported in the radius box."""

    @abstractmethod
    def coeff_vector(self, a, radius: int) -> dict:
        """Sparse coordinates of the value in the radius-box coefficient
        space (raises when the support leaves the box)."""

    @abstractmethod
    def coeff_dim(self, radius: int) -> int:
        """Dimension of the radius-box coefficient space."""

    def scalars(self, radius: int) -> list:
        """Box of the scalar subring acting on everything over this base:
        the classes whose augmentation ideal ordinary K-theory collapses.
        Defaults to the box basis."""
        return self.box_basis(radius)

    @property
    def scalar_radius(self) -> int:
        """Box size whose scalars generate the scalar subring."""
        return 1

    @abstractmethod
    def support_radius(self, a) -> int:
        """Smallest box radius containing the value's support."""

    @abstractmethod
    def serialize(self, a): ...

    @abstractmethod
    def deserialize(self, obj): ...

    @abstractmethod
    def describe(self) -> dict: ...


def _poly_coeffs(p: LaurentPoly, rank: int, radius: int, offset: int,
                 out: dict) -> dict:
    """Add the box coordinates of p, shifted by offset, to out.  Positions
    follow box_points(rank, radius); an exponent outside the box, or of the
    wrong length, raises."""
    if p.terms and p.rank != rank:
        raise ValueError("element exponent outside the box")
    for exp, coef in p.terms.items():
        k = box_index(exp, radius)
        if k is None:
            raise ValueError("element exponent outside the box")
        out[offset + k] = coef
    return out


class PointBase(BaseRing):
    """Integers: the base is a point with trivial character action, so the
    wall congruence collapses to equality."""

    def __init__(self, char_rank: int = 0):
        self.char_rank = char_rank

    def scalar(self, n):
        return n

    def is_member(self, a):
        return isinstance(a, int)

    def line_class(self, chi):
        if len(chi) != self.char_rank:
            raise ValueError("character length does not match")
        return 1

    def congruent(self, a, b, chi):
        if len(chi) != self.char_rank:
            raise ValueError("character length does not match")
        return a == b

    def augmentation(self, a):
        return a

    def box_basis(self, radius):
        return [1]

    def coeff_vector(self, a, radius):
        return {0: a} if a else {}

    def coeff_dim(self, radius):
        return 1

    def support_radius(self, a):
        return 0

    @property
    def scalar_radius(self):
        return 0

    def serialize(self, a):
        return a

    def deserialize(self, obj):
        if not is_json_int(obj):
            raise ValueError("point base elements are integers")
        return obj

    def describe(self):
        return {"kind": "point", "char_rank": self.char_rank}


class TrivialBase(BaseRing):
    """The full representation ring: Laurent polynomials with line_class
    the character itself.  Extended congruences specialize to the ordinary
    wall congruences."""

    def __init__(self, char_rank: int):
        if char_rank < 1:
            raise ValueError("character lattice must have positive rank")
        self.char_rank = char_rank

    def scalar(self, n):
        return LaurentPoly.constant(self.char_rank, n)

    def is_member(self, a):
        return isinstance(a, LaurentPoly) and a.rank == self.char_rank

    def line_class(self, chi):
        if len(chi) != self.char_rank:
            raise ValueError("character length does not match")
        return LaurentPoly.monomial(chi)

    def congruent(self, a, b, chi):
        if not any(chi):
            return a == b
        return divides(a - b, chi)[0]

    def augmentation(self, a):
        return sum(a.terms.values())

    def box_basis(self, radius):
        return [LaurentPoly.monomial(u) for u in box_points(self.char_rank, radius)]

    def coeff_vector(self, a, radius):
        return _poly_coeffs(a, self.char_rank, radius, 0, {})

    def coeff_dim(self, radius):
        return (2 * radius + 1) ** self.char_rank

    def support_radius(self, a):
        return a.support_radius()

    def serialize(self, a):
        return poly_to_obj(a)

    def deserialize(self, obj):
        return poly_from_obj(self.char_rank, obj)

    def describe(self):
        return {"kind": "trivial", "char_rank": self.char_rank}


class ToricBase(BaseRing):
    """K-ring of a smooth complete cellular base fan, with coefficients in
    a character lattice that may be larger than the fan's own.

    Elements are tuples of Laurent polynomials (one per maximal base cone)
    satisfying the base wall congruences in the embedded base characters.
    line_data assigns each fiber character generator its piecewise
    monomial class: a list of exponent vectors, one per base cone.
    """

    def __init__(self, fan: Fan, coeff_rank: Optional[int] = None,
                 line_data: Optional[Sequence] = None,
                 base_embed: Optional[Sequence] = None):
        if not is_smooth_fan(fan):
            raise ValueError("toric base must be smooth")
        rep = check_cellular(fan, seed=0)
        if not rep.verdict:
            raise ValueError(f"toric base must be cellular: {rep.failure}")
        self.fan = fan
        self.coeff_rank = fan.rank if coeff_rank is None else coeff_rank
        if self.coeff_rank < fan.rank:
            raise ValueError("coefficient lattice cannot be smaller than the fan's")
        if base_embed is None:
            base_embed = [tuple(1 if j == i else 0 for j in range(self.coeff_rank))
                          for i in range(fan.rank)]
        self.base_embed = tuple(json_ints(row, "base_embed") for row in base_embed)
        if len(self.base_embed) != fan.rank or any(len(r) != self.coeff_rank
                                                   for r in self.base_embed):
            raise ValueError("base embedding must map fan characters to the "
                             "coefficient lattice")
        line_data = line_data or []
        self.char_rank = len(line_data)
        self.line_data = tuple(tuple(json_ints(exp, "line_data") for exp in per_cone)
                               for per_cone in line_data)
        n_cones = len(fan.max_cones)
        for per_cone in self.line_data:
            if len(per_cone) != n_cones or any(len(e) != self.coeff_rank
                                               for e in per_cone):
                raise ValueError("line data needs one exponent per base cone")
        for i in range(self.char_rank):
            cls = self.line_class(tuple(1 if j == i else 0
                                        for j in range(self.char_rank)))
            if not self.is_member(cls):
                raise ValueError(f"line data {i} violates the base congruences")

    def _embed(self, chi_base: Sequence[int]) -> tuple:
        return tuple(sum(c * row[d] for c, row in zip(chi_base, self.base_embed))
                     for d in range(self.coeff_rank))

    def _wall_chars(self):
        return [(w.left, w.right, self._embed(w.character)) for w in walls(self.fan)]

    def scalar(self, n):
        c = LaurentPoly.constant(self.coeff_rank, n)
        return tuple([c] * len(self.fan.max_cones))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        return tuple(x * y for x, y in zip(a, b))

    def scale(self, a, n):
        return tuple(x * n for x in a)

    def is_member(self, a):
        if not isinstance(a, tuple) or len(a) != len(self.fan.max_cones):
            return False
        if not all(isinstance(x, LaurentPoly) and x.rank == self.coeff_rank
                   for x in a):
            return False
        return all(divides(a[l] - a[r], chi)[0] for l, r, chi in self._wall_chars())

    def line_class(self, chi):
        if len(chi) != self.char_rank:
            raise ValueError("character length does not match")
        chi = json_ints(tuple(chi), "character")
        terms = [(c, per_cone) for c, per_cone in zip(chi, self.line_data) if c]
        comps = []
        for k in range(len(self.fan.max_cones)):
            exp = [0] * self.coeff_rank
            for c, per_cone in terms:
                for d, x in enumerate(per_cone[k]):
                    exp[d] += c * x
            # a fresh tuple of ints with coefficient 1: clean, as _raw needs
            comps.append(LaurentPoly._raw(self.coeff_rank, {tuple(exp): 1}))
        return tuple(comps)

    def congruent(self, a, b, chi):
        """Componentwise exact division by (1 - line class), then a check
        that the quotients glue to a member of this ring.

        Components where the line class is trivial force the difference to
        vanish and leave the quotient free there; whether free components
        complete the others is decided exactly in a bounded box.
        """
        cls = self.line_class(chi)
        diff = self.sub(a, b)
        quotients = []
        free = set()
        for k, (d, c) in enumerate(zip(diff, cls)):
            exp = next(iter(c.terms))
            if not any(exp):
                if not d.is_zero():
                    return False
                quotients.append(None)
                free.add(k)
            else:
                ok, q = divides(d, exp)
                if not ok:
                    return False
                quotients.append(q)
        wall_chars = self._wall_chars()
        if not free:
            return all(divides(quotients[l] - quotients[r], chi_w)[0]
                       for l, r, chi_w in wall_chars)
        # glue conditions fix each free component modulo wall ideals; decide
        # them in a box wide enough for the determined quotients
        radius = max([q.support_radius() for q in quotients if q is not None]
                     + [max(abs(x) for ch in (w[2] for w in wall_chars) for x in ch)]
                     + [1])
        for attempt in (radius, radius + 1):
            if self._complete_free(quotients, free, wall_chars, attempt):
                return True
        return False

    def _complete_free(self, quotients, free, wall_chars, radius) -> bool:
        """Free components inside the radius box complete the fixed
        quotients exactly when the fixed part lies in the projection of the
        box member lattice onto the fixed cones."""
        exps = box_points(self.coeff_rank, radius)
        block = len(exps)
        lat = RowLattice()
        for vec in wall_kernel(len(self.fan.max_cones), wall_chars, exps):
            lat.insert({pos: x for pos, x in vec.items() if pos // block not in free})
        fixed = {}
        for k, q in enumerate(quotients):
            if q is not None:
                _poly_coeffs(q, self.coeff_rank, radius, k * block, fixed)
        return lat.contains(fixed)

    def augmentation(self, a):
        return sum(a[0].terms.values())

    def box_basis(self, radius):
        exps = box_points(self.coeff_rank, radius)
        block = len(exps)
        out = []
        for vec in wall_kernel(len(self.fan.max_cones), self._wall_chars(), exps):
            comps = [{} for _ in self.fan.max_cones]
            for pos, x in vec.items():
                comps[pos // block][exps[pos % block]] = x
            out.append(tuple(LaurentPoly(self.coeff_rank, c) for c in comps))
        return out

    def coeff_vector(self, a, radius):
        block = (2 * radius + 1) ** self.coeff_rank
        out = {}
        for k, comp in enumerate(a):
            _poly_coeffs(comp, self.coeff_rank, radius, k * block, out)
        return out

    def coeff_dim(self, radius):
        return len(self.fan.max_cones) * (2 * radius + 1) ** self.coeff_rank

    def scalars(self, radius):
        # the ambient character ring embeds diagonally as constant tuples
        n = len(self.fan.max_cones)
        return [tuple([LaurentPoly.monomial(w)] * n)
                for w in box_points(self.coeff_rank, radius)]

    def support_radius(self, a):
        return max(c.support_radius() for c in a)

    def serialize(self, a):
        return [poly_to_obj(c) for c in a]

    def deserialize(self, obj):
        if not isinstance(obj, list) or len(obj) != len(self.fan.max_cones):
            raise ValueError("toric base elements list one polynomial per base cone")
        return tuple(poly_from_obj(self.coeff_rank, item) for item in obj)

    def describe(self):
        return {"kind": "toric", "base_fan": self.fan.name or "unnamed",
                "coeff_rank": self.coeff_rank, "char_rank": self.char_rank}


# --- Weyl group machinery -------------------------------------------------------


def _validate_cartan(cartan) -> tuple:
    cartan = tuple(json_ints(row, "cartan") for row in cartan)
    r = len(cartan)
    if any(len(row) != r for row in cartan):
        raise ValueError("Cartan matrix must be square")
    for i in range(r):
        if cartan[i][i] != 2:
            raise ValueError("Cartan diagonal entries must be 2")
        for j in range(r):
            if i != j:
                if cartan[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise ValueError("Cartan zero pattern must be symmetric")
    return cartan


def simple_reflection(cartan, j: int, lam: Sequence[int]) -> tuple:
    """Reflection s_j on weights in fundamental-weight coordinates: subtract
    lam_j times the j-th simple root, whose coordinates are column j."""
    return tuple(x - lam[j] * cartan[i][j] for i, x in enumerate(lam))


def weyl_orbit(cartan, gens: Sequence[int], lam: Sequence[int],
               guard: int = 10 ** 6) -> list:
    """Orbit of a weight under the subgroup generated by the listed simple
    reflections (breadth-first, exact)."""
    lam = json_ints(tuple(lam), "weight")
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for j in gens:
                nu = simple_reflection(cartan, j, mu)
                if nu not in seen:
                    seen.add(nu)
                    nxt.append(nu)
                    if len(seen) > guard:
                        raise ValueError("orbit exceeded the safety bound")
        frontier = nxt
    return sorted(seen)


def weyl_group_order(cartan, gens: Sequence[int], guard: int = 10 ** 6) -> int:
    """Order of the subgroup generated by the listed simple reflections:
    the size of the orbit of rho = (1, ..., 1), which is regular, so the
    subgroup acts freely on it."""
    return len(weyl_orbit(cartan, gens, (1,) * len(cartan), guard))


class FlagBase(TrivialBase):
    """Weyl-subgroup invariants of the weight-lattice Laurent ring.

    Weights use fundamental-weight coordinates of a simply-connected group
    with the given Cartan matrix; parabolic_set lists the simple roots
    whose reflections must fix every element.  line_class accepts only
    characters fixed by those reflections (coordinates in the set vanish).
    The Laurent arithmetic and box coordinates are the trivial base's.
    """

    def __init__(self, cartan, parabolic_set: Sequence[int]):
        self.cartan = _validate_cartan(cartan)
        self.rank = len(self.cartan)
        self.char_rank = self.rank
        ps = sorted(set(json_ints(tuple(parabolic_set), "parabolic_set")))
        if ps and (ps[0] < 0 or ps[-1] >= self.rank):
            raise ValueError("parabolic set indexes simple roots")
        self.parabolic_set = tuple(ps)

    def reflect(self, j: int, a: LaurentPoly) -> LaurentPoly:
        return LaurentPoly(self.rank, {
            simple_reflection(self.cartan, j, exp): coef
            for exp, coef in a.terms.items()})

    def is_member(self, a):
        return (super().is_member(a)
                and all(self.reflect(j, a) == a for j in self.parabolic_set))

    def orbit_sum(self, lam: Sequence[int]) -> LaurentPoly:
        orbit = weyl_orbit(self.cartan, self.parabolic_set, lam)
        return LaurentPoly(self.rank, {mu: 1 for mu in orbit})

    def line_class(self, chi):
        chi = json_ints(tuple(chi), "character")
        if len(chi) != self.rank:
            raise ValueError("character length does not match")
        if any(chi[i] for i in self.parabolic_set):
            raise ValueError("character is not fixed by the parabolic reflections")
        return LaurentPoly.monomial(chi)

    def congruent(self, a, b, chi):
        self.line_class(chi)  # raises unless the parabolic reflections fix chi
        return super().congruent(a, b, chi)

    def _orbit_sums(self, gens, radius) -> list:
        """Sums over the orbits of the reflections gens that lie entirely
        inside the box; these span exactly the gens-invariants supported
        there."""
        pts = box_points(self.rank, radius)
        inside = set(pts)
        out = []
        seen = set()
        for lam in pts:
            if lam in seen:
                continue
            orbit = weyl_orbit(self.cartan, gens, lam)
            seen.update(orbit)
            if all(mu in inside for mu in orbit):
                out.append(LaurentPoly(self.rank, {mu: 1 for mu in orbit}))
        return out

    def box_basis(self, radius):
        return self._orbit_sums(self.parabolic_set, radius)

    def scalars(self, radius):
        # full-group invariants, whatever the parabolic set
        return self._orbit_sums(range(self.rank), radius)

    @property
    def scalar_radius(self):
        # fundamental-weight orbit sums generate the full invariants
        return max(abs(x)
                   for i in range(self.rank)
                   for mu in weyl_orbit(self.cartan, range(self.rank),
                                        tuple(1 if j == i else 0
                                              for j in range(self.rank)))
                   for x in mu)

    def deserialize(self, obj):
        a = super().deserialize(obj)
        if not self.is_member(a):
            raise ValueError("polynomial is not invariant under the parabolic "
                             "reflections")
        return a

    def describe(self):
        return {"kind": "flag", "cartan": [list(r) for r in self.cartan],
                "parabolic_set": list(self.parabolic_set)}


def flag_rank_probe(cartan, parabolic_set, max_radius: int = 4) -> dict:
    """Box estimate of the rank of the parabolic invariants over the
    full-group invariants; the index of the Weyl subgroup when consistent.

    The scalar ideal (zero-augmentation full invariants) is intersected
    with each box exactly: products against cofactors from a padded box
    are echeloned with the outside-the-box exponents ordered first, so the
    rows pivoted inside the box are precisely the intersection.  Cofactor
    padding grows until that intersection rank plateaus; truncating the
    cofactors at the box itself provably undercounts already in rank two.
    """
    inv = FlagBase(cartan, parabolic_set)
    r = inv.rank
    expected = (weyl_group_order(cartan, range(r)) //
                weyl_group_order(cartan, parabolic_set))
    # multipliers: the full invariants in the box of the fundamental-weight
    # orbit sums, which generate them as a ring
    k_s = inv.scalar_radius
    mults = [(g, inv.augmentation(g)) for g in inv.scalars(k_s)]
    box = lru_cache(maxsize=None)(inv.box_basis)  # each step re-reads the padded boxes

    def ideal_rank_in_box(d: int) -> int:
        inside = box_points(r, d)
        inside_set = set(inside)

        def pad_ranks():
            for pad in range(0, 6):
                big = box_points(r, d + pad + k_s)
                col = {}
                n_out = 0
                for e in big:
                    if e not in inside_set:
                        col[e] = n_out
                        n_out += 1
                for k, e in enumerate(inside):
                    col[e] = n_out + k
                lat = RowSpan()
                for g, aug in mults:
                    for h in box(d + pad):
                        prod = g * h - aug * h
                        lat.insert({col[exp]: c for exp, c in prod.terms.items()})
                yield sum(1 for c in lat.pivots if c >= n_out)

        return plateau(pad_ranks())

    def step(d: int) -> tuple:
        n_basis = len(box(d))
        ideal_rank = ideal_rank_in_box(d)
        return d, n_basis, ideal_rank, n_basis - ideal_rank

    rep = box_stabilize(step, max_radius)
    return {"rank": rep.rank, "stabilized_at": rep.stabilized_at,
            "conclusive": rep.conclusive, "history": list(rep.history),
            "expected_index": expected}


class CharRemap(BaseRing):
    """Adapter composing a base ring with a character embedding: characters
    of a smaller lattice are sent through an integer matrix before reaching
    the wrapped ring."""

    def __init__(self, inner: BaseRing, embedding: Sequence[Sequence[int]]):
        self.inner = inner
        cols = [json_ints(col, "embedding") for col in embedding]
        if any(len(c) != inner.char_rank for c in cols):
            raise ValueError("embedding columns must be characters of the "
                             "inner ring")
        self.columns = tuple(cols)
        self.char_rank = len(cols)
        for col in cols:
            inner.line_class(col)  # raises when the column is not allowed

    def _map(self, chi):
        if len(chi) != self.char_rank:
            raise ValueError("character length does not match")
        return tuple(sum(c * col[d] for c, col in zip(chi, self.columns))
                     for d in range(self.inner.char_rank))

    def scalar(self, n):
        return self.inner.scalar(n)

    def add(self, a, b):
        return self.inner.add(a, b)

    def neg(self, a):
        return self.inner.neg(a)

    def mul(self, a, b):
        return self.inner.mul(a, b)

    def scale(self, a, n):
        return self.inner.scale(a, n)

    def eq(self, a, b):
        return self.inner.eq(a, b)

    def is_member(self, a):
        return self.inner.is_member(a)

    def line_class(self, chi):
        return self.inner.line_class(self._map(chi))

    def congruent(self, a, b, chi):
        return self.inner.congruent(a, b, self._map(chi))

    def augmentation(self, a):
        return self.inner.augmentation(a)

    def box_basis(self, radius):
        return self.inner.box_basis(radius)

    def coeff_vector(self, a, radius):
        return self.inner.coeff_vector(a, radius)

    def coeff_dim(self, radius):
        return self.inner.coeff_dim(radius)

    def scalars(self, radius):
        return self.inner.scalars(radius)

    @property
    def scalar_radius(self):
        return self.inner.scalar_radius

    def support_radius(self, a):
        return self.inner.support_radius(a)

    def serialize(self, a):
        return self.inner.serialize(a)

    def deserialize(self, obj):
        return self.inner.deserialize(obj)

    def describe(self):
        return {"kind": "remap", "inner": self.inner.describe(),
                "embedding": [list(c) for c in self.columns]}


def _json_count(obj, key: str, default=None):
    """obj[key] when it is a nonnegative integer, default when key is absent."""
    if key not in obj:
        return default
    if not is_json_int(obj[key]) or obj[key] < 0:
        raise ValueError(f"{key} must be a nonnegative integer")
    return obj[key]


def base_from_obj(obj) -> BaseRing:
    """Build a base ring from its JSON description.

    Kinds: point {char_rank?}, trivial {char_rank}, toric {fan, coeff_rank?,
    line_data?, base_embed?}, flag {cartan, parabolic_set?}, and remap
    {inner, embedding} wrapping any of the others.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("base ring JSON must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "point":
        return PointBase(_json_count(obj, "char_rank", 0))
    if kind == "trivial":
        if "char_rank" not in obj:
            raise ValueError("trivial base needs char_rank")
        return TrivialBase(_json_count(obj, "char_rank"))
    if kind == "toric":
        if "fan" not in obj:
            raise ValueError("toric base needs a fan")
        line_data = obj.get("line_data")
        if line_data is not None:
            if not isinstance(line_data, list):
                raise ValueError("line_data must be a list of generators")
            line_data = [json_int_rows(gen, "line_data generator") for gen in line_data]
        base_embed = obj.get("base_embed")
        if base_embed is not None:
            base_embed = json_int_rows(base_embed, "base_embed")
        return ToricBase(parse_fan(obj["fan"]), coeff_rank=_json_count(obj, "coeff_rank"),
                         line_data=line_data, base_embed=base_embed)
    if kind == "flag":
        if "cartan" not in obj:
            raise ValueError("flag base needs a Cartan matrix")
        return FlagBase(json_int_rows(obj["cartan"], "cartan"),
                        json_ints(obj.get("parabolic_set", []), "parabolic_set"))
    if kind == "remap":
        if "inner" not in obj or "embedding" not in obj:
            raise ValueError("remap base needs inner and embedding")
        return CharRemap(base_from_obj(obj["inner"]),
                         json_int_rows(obj["embedding"], "embedding"))
    raise ValueError(f"unknown base ring kind {kind!r}")
