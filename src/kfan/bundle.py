"""Extended wall-congruence rings: fiber fans with base-ring coefficients.

The K-ring of a fibration whose fibers are T-cellular toric varieties is a
tuple ring over the fiber fan's maximal cones with entries in the K-ring
of the base, subject to one congruence per fiber wall: the two sides must
differ by (1 - L) times a base class, where L is the line class the wall
character induces on the base.  The base ring abstraction carries L and
the congruence; this module assembles the tuple ring, its box-truncated
member lattice, the tensor-product realization map, and rank estimates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional

from .baserings import BaseRing, ToricBase
from .catalog import hirzebruch, p1
from .fan import Fan, walls
from .intlat import RowLattice, RowSpan, sparse_kernel_basis
from .kring import (
    GkmElement,
    RankReport,
    box_stabilize,
    gkm_check,
    member_space,
    ordinary_k_rank,
    plateau,
    sample_members,
    sample_vectors,
    sr_presentation,
    vector_to_element,
)
from .laurent import LaurentPoly


def _validate_pair(fan: Fan, base: BaseRing) -> None:
    if fan.rank != base.char_rank:
        raise ValueError("fiber fan rank must match the base character rank")


class ExtendedElement:
    """One base-ring entry per maximal cone of the fiber fan."""

    __slots__ = ("fan", "base", "comps")

    def __init__(self, fan: Fan, base: BaseRing, comps):
        comps = tuple(comps)
        if len(comps) != len(fan.max_cones):
            raise ValueError("one component per maximal cone required")
        self.fan = fan
        self.base = base
        self.comps = comps

    def _coerce(self, other):
        if isinstance(other, ExtendedElement):
            if other.fan is not self.fan and other.fan != self.fan:
                raise ValueError("fiber fans differ")
            if other.base is not self.base:
                raise ValueError("base rings differ")
            return other
        if isinstance(other, int):
            other = self.base.scalar(other)
        return diagonal(self.fan, self.base, other)

    def __add__(self, other):
        other = self._coerce(other)
        return ExtendedElement(self.fan, self.base,
                               [self.base.add(a, b)
                                for a, b in zip(self.comps, other.comps)])

    __radd__ = __add__

    def __neg__(self):
        return ExtendedElement(self.fan, self.base,
                               [self.base.neg(a) for a in self.comps])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return ExtendedElement(self.fan, self.base,
                               [self.base.mul(a, b)
                                for a, b in zip(self.comps, other.comps)])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtendedElement):
            return NotImplemented
        return (self.fan == other.fan
                and all(self.base.eq(a, b)
                        for a, b in zip(self.comps, other.comps)))

    def is_zero(self) -> bool:
        return all(self.base.is_zero(a) for a in self.comps)

    def __repr__(self) -> str:
        return f"ExtendedElement({self.comps!r})"


def diagonal(fan: Fan, base: BaseRing, b) -> ExtendedElement:
    """The base class placed on every fiber cone."""
    return ExtendedElement(fan, base, [b] * len(fan.max_cones))


def extended_check(e: ExtendedElement) -> tuple:
    """Every fiber wall congruence, in the base ring.

    Returns (ok, failures); each failure records the wall and its
    character."""
    _validate_pair(e.fan, e.base)
    failures = []
    for w in walls(e.fan):
        if not e.base.congruent(e.comps[w.left], e.comps[w.right], w.character):
            failures.append({"wall": w.face.ray_indices, "left": w.left,
                             "right": w.right, "character": w.character})
    return not failures, failures


def line_hom(base: BaseRing, p: LaurentPoly):
    """The ring map from fiber characters to base classes: e^u goes to the
    line class of u, extended additively."""
    terms = [base.scale(base.line_class(u), c) for u, c in p.terms.items()]
    return reduce(base.add, terms) if terms else base.zero()


def kunneth_realize(fan: Fan, base: BaseRing, b, p: GkmElement) -> ExtendedElement:
    """Image of the tensor b (x) p: componentwise, the base class times the
    line-class realization of the fiber component."""
    _validate_pair(fan, base)
    if p.fan != fan:
        raise ValueError("fiber member belongs to a different fan")
    return ExtendedElement(fan, base,
                           [base.mul(b, line_hom(base, c)) for c in p.components])


# --- box-truncated member lattice ------------------------------------------------


@dataclass(frozen=True)
class ExtendedSpace:
    """Lattice of extended members whose base entries live in a coefficient
    box, with the wall quotients drawn from a slightly larger one."""

    fan: Fan
    base: BaseRing
    radius: int
    aux_radius: int
    box: tuple      # base box basis the coordinates refer to
    basis: tuple    # echelon rows, sparse {cone*block + i: coeff}

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def block(self) -> int:
        return len(self.box)

    def to_element(self, vec) -> ExtendedElement:
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        comps = [self.base.zero() for _ in self.fan.max_cones]
        for pos, x in items:
            if not x:
                continue
            k, i = divmod(pos, self.block)
            comps[k] = self.base.add(comps[k], self.base.scale(self.box[i], x))
        return ExtendedElement(self.fan, self.base, comps)

    def sample(self, count: int, seed: int = 0, coeff_bound: int = 3,
               max_terms: int = 4) -> list:
        return [self.to_element(vec)
                for vec in sample_vectors(self.basis, count, seed, coeff_bound, max_terms)]


def extended_member_space(fan: Fan, base: BaseRing, radius: int,
                          aux_radius: Optional[int] = None) -> ExtendedSpace:
    """Solve the wall congruences jointly: unknown box coefficients for
    each cone entry plus, per wall, box coefficients of the quotient class
    the congruence demands.  The kernel's cone part spans honest members;
    a wider quotient box can only enlarge the lattice."""
    _validate_pair(fan, base)
    if aux_radius is None:
        aux_radius = radius + 1
    return _member_space(fan, base, radius, aux_radius,
                         base.box_basis(radius), base.box_basis(aux_radius))


def _member_space(fan: Fan, base: BaseRing, radius: int, aux_radius: int,
                  bb: list, ab: list) -> ExtendedSpace:
    """extended_member_space on box bases bb (radius) and ab (aux_radius)
    the caller already holds."""
    ws = walls(fan)
    n_cones = len(fan.max_cones)
    blk = len(bb)
    cone_vars = n_cones * blk
    n_vars = cone_vars + len(ws) * len(ab)

    one = base.one()
    mults = [base.sub(one, base.line_class(w.character)) for w in ws]
    aux_products = [[base.mul(m, h) for h in ab] for m in mults]
    coeff_radius = max(
        [radius]
        + [base.support_radius(p) for per_wall in aux_products for p in per_wall])

    cone_vecs = [base.coeff_vector(b, coeff_radius) for b in bb]
    rows = {}

    def touch(wi, c):
        key = (wi, c)
        if key not in rows:
            rows[key] = {}
        return rows[key]

    for wi, w in enumerate(ws):
        for i, vec in enumerate(cone_vecs):
            for c, x in vec.items():
                row = touch(wi, c)
                lv = w.left * blk + i
                rv = w.right * blk + i
                row[lv] = row.get(lv, 0) + x
                row[rv] = row.get(rv, 0) - x
        for j, prod in enumerate(aux_products[wi]):
            av = cone_vars + wi * len(ab) + j
            for c, x in base.coeff_vector(prod, coeff_radius).items():
                row = touch(wi, c)
                row[av] = row.get(av, 0) - x
    kernel = sparse_kernel_basis(n_vars, list(rows.values()))
    lat = RowLattice()
    for vec in kernel:
        lat.insert({pos: x for pos, x in vec.items() if pos < cone_vars})
    basis = tuple(lat.pivots[c] for c in sorted(lat.pivots))
    return ExtendedSpace(fan=fan, base=base, radius=radius,
                         aux_radius=aux_radius, box=tuple(bb), basis=basis)


def element_coeffs(e: ExtendedElement, radius: int) -> dict:
    """Concatenated base coefficient coordinates, one block per cone."""
    dim = e.base.coeff_dim(radius)
    out = {}
    for k, comp in enumerate(e.comps):
        for c, x in e.base.coeff_vector(comp, radius).items():
            out[k * dim + c] = x
    return out


# --- rank estimate ----------------------------------------------------------------


def extended_box_rank(fan: Fan, base: BaseRing, max_radius: int = 3,
                      pad_limit: int = 3) -> RankReport:
    """Rank of the extended members modulo the scalar augmentation ideal,
    estimated on growing boxes until two estimates agree.

    For each box the ideal is spanned by (scalar minus its augmentation)
    times a padded member lattice; the estimate is rank(members + ideal) -
    rank(ideal), which subtracts exactly the members caught in the ideal
    span.  Padding grows until the estimate plateaus, and the radius until
    box_stabilize stops it.

    The ideal part of step (d, pad) depends only on big = d + pad, so its
    lattice is echeloned once per big, from the products
    coeffs(s*t) - aug*coeffs(t) over the cofactor rows t of the radius-big
    members.  Each step inserts the radius-d members into a copy() of that
    lattice, which leaves the shared one untouched; when d advances, the
    lattices and member spaces with radius below d are dropped, as no later
    step reads them.  The base box bases are built once per radius, as the
    radius-r space reads those at r and r + 1.

    Only ranks are read, so the ideal lattices are RowSpan echelons."""
    _validate_pair(fan, base)
    box = lru_cache(maxsize=None)(base.box_basis)
    spaces = {}

    def space(r: int) -> ExtendedSpace:
        if r not in spaces:
            spaces[r] = _member_space(fan, base, r, r + 1, box(r), box(r + 1))
        return spaces[r]

    k_s = base.scalar_radius
    scal = [(diagonal(fan, base, s), base.augmentation(s))
            for s in base.scalars(k_s)] if k_s else []
    ideals = {}

    def ideal(big: int) -> RowSpan:
        if big not in ideals:
            lat = RowSpan()
            for vec in _ideal_products(space(big), scal, big + k_s):
                lat.insert(vec)
            ideals[big] = lat
        return ideals[big]

    def step(d: int) -> tuple:
        for cache in (ideals, spaces):
            for r in [r for r in cache if r < d]:
                del cache[r]
        members = space(d)
        member_elems = [members.to_element(row) for row in members.basis]

        def pad_estimates():
            for big in range(d, d + pad_limit + 1):
                ideal_lat = ideal(big)
                lat = ideal_lat.copy()
                for e in member_elems:
                    lat.insert(element_coeffs(e, big + k_s))
                yield lat.rank - ideal_lat.rank

        return d, members.dim, plateau(pad_estimates())

    return box_stabilize(step, max_radius)


def _ideal_products(cof: ExtendedSpace, scal: list, coeff_radius: int):
    """The nonzero rows coeffs(s*t) - aug*coeffs(t), for each cofactor row t
    of cof and each (diagonal scalar s, its augmentation aug) in scal."""
    for row in cof.basis:
        t = cof.to_element(row)
        ct = element_coeffs(t, coeff_radius)
        for s, aug in scal:
            vec = element_coeffs(s * t, coeff_radius)
            for pos, x in ct.items():
                v = vec.get(pos, 0) - aug * x
                if v:
                    vec[pos] = v
                else:
                    del vec[pos]
            if vec:
                yield vec


# --- tensor-product surjectivity ---------------------------------------------------


def kunneth_surjectivity_probe(fan: Fan, base: BaseRing, base_radius: int = 2,
                               fiber_radius: int = 2, sample_radius: int = 1,
                               samples: int = 25, seed: int = 0) -> dict:
    """Sampled extended members must be integer combinations of realized
    tensors of box base classes with box fiber members.  Each base box
    basis is built once, as the sampled space reads the one at
    sample_radius + 1 (by default the base_radius one)."""
    _validate_pair(fan, base)
    fib = member_space(fan, fiber_radius)
    box = lru_cache(maxsize=None)(base.box_basis)
    base_box = box(base_radius)
    realized = []
    for vec in fib.basis:
        p = vector_to_element(fib, vec)
        for b in base_box:
            realized.append(kunneth_realize(fan, base, b, p))
    space = _member_space(fan, base, sample_radius, sample_radius + 1,
                          box(sample_radius), box(sample_radius + 1))
    coeff_radius = max([sample_radius]
                       + [max(base.support_radius(c) for c in e.comps)
                          for e in realized])
    lat = RowLattice()
    for e in realized:
        lat.insert(element_coeffs(e, coeff_radius))
    members = space.sample(samples, seed=seed)
    hits = sum(1 for t in members
               if lat.contains(element_coeffs(t, coeff_radius)))
    return {"tensors": len(realized), "lattice_rank": lat.rank,
            "samples": len(members), "hits": hits,
            "all_hit": hits == len(members)}


# --- presentation ------------------------------------------------------------------


def bundle_presentation(fan: Fan, base: BaseRing) -> tuple:
    """Monomial presentation of the extended ring: the fiber presentation
    with every character exponential replaced by its base line class.  Over
    TrivialBase(fan.rank) this is the fan's own presentation.

    Returns (generators, certificate, relations); generator j restricts to
    the line class of the dual character on cones containing ray j and to
    one elsewhere."""
    _validate_pair(fan, base)
    pres = sr_presentation(fan)
    gens = [generator_power(fan, base, pres.certificate, j, 1)
            for j in range(len(fan.rays))]
    return gens, pres.certificate, pres.relations


def generator_power(fan: Fan, base: BaseRing, certificate: dict, j: int,
                    k: int) -> ExtendedElement:
    """Integer power of a presentation generator, exact for negative k
    because every component is a line class."""
    comps = []
    for c in range(len(fan.max_cones)):
        u = certificate[(c, j)]
        comps.append(base.line_class(tuple(k * x for x in u)))
    return ExtendedElement(fan, base, comps)


def extended_relation_image(fan: Fan, base: BaseRing, certificate: dict,
                            rel: dict) -> ExtendedElement:
    """Image of a presentation relation; zero exactly when it holds."""
    one = diagonal(fan, base, base.one())
    if rel["kind"] == "nonface":
        out = one
        for j in rel["rays"]:
            out = out * (one - generator_power(fan, base, certificate, j, 1))
        return out
    if rel["kind"] == "character":
        u = tuple(rel["u"])
        out = one
        for j in range(len(fan.rays)):
            a = sum(ui * vi for ui, vi in zip(u, fan.rays[j]))
            if a:
                out = out * generator_power(fan, base, certificate, j, a)
        return out - diagonal(fan, base, base.line_class(u))
    raise ValueError(f"unknown relation kind {rel.get('kind')!r}")


# --- Hirzebruch crosscheck ----------------------------------------------------------


def hirzebruch_fiber_base(a: int) -> tuple:
    """The two-model data for the twist-a plane bundle over the line: the
    fiber fan and the base ring whose fiber character acts by the twisted
    line class."""
    base = ToricBase(p1(), coeff_rank=2, line_data=[[(0, 1), (a, 1)]])
    return p1(), base


def _direct_to_extended(fiber: Fan, base: BaseRing, t: GkmElement) -> ExtendedElement:
    # total-fan cones (0,1),(1,2),(2,3),(0,3) sit over (fiber, base) slots
    # (+,+), (+,-), (-,-), (-,+)
    plus = (t.components[0], t.components[1])
    minus = (t.components[3], t.components[2])
    return ExtendedElement(fiber, base, (plus, minus))


def _extended_to_direct(total: Fan, e: ExtendedElement) -> GkmElement:
    plus, minus = e.comps
    return GkmElement(total, (plus[0], plus[1], minus[1], minus[0]))


def hirzebruch_crosscheck(a: int, samples: int = 100, seed: int = 0,
                          radius: int = 1) -> dict:
    """Compare the rank-two total fan's ordinary wall-congruence ring with
    the extended description over the line.

    Random members and perturbed non-members must get identical verdicts
    from both models (and from both orientations of the fiber wall), the
    certified ordinary rank must equal the extended box-rank estimate, and
    realized tensors must map to direct members."""
    total = hirzebruch(a)
    fiber, base = hirzebruch_fiber_base(a)
    space = member_space(total, radius)
    rng = random.Random(seed)
    candidates = sample_members(space, samples // 2, seed=seed)
    for t in sample_members(space, samples - len(candidates), seed=seed + 1):
        # bump one component by a monomial; usually breaks membership
        comps = list(t.components)
        i = rng.randrange(len(comps))
        w = (rng.randint(-radius, radius), rng.randint(-radius, radius))
        comps[i] = comps[i] + LaurentPoly.monomial(w, rng.choice([1, -1, 2]))
        candidates.append(GkmElement(total, comps))

    disagreements = []
    orientation_ok = True
    for n, t in enumerate(candidates):
        direct_ok = gkm_check(t)[0]
        e = _direct_to_extended(fiber, base, t)
        ext_ok = (base.is_member(e.comps[0]) and base.is_member(e.comps[1])
                  and extended_check(e)[0])
        flipped = (base.is_member(e.comps[0]) and base.is_member(e.comps[1])
                   and base.congruent(e.comps[1], e.comps[0], (-1,)))
        if ext_ok != flipped:
            orientation_ok = False
        if direct_ok != ext_ok:
            disagreements.append(n)

    realized_ok = True
    fib_space = member_space(fiber, radius)
    base_box = base.box_basis(radius)
    for p in sample_members(fib_space, 10, seed=seed + 2):
        b = base_box[rng.randrange(len(base_box))]
        e = kunneth_realize(fiber, base, b, p)
        if not gkm_check(_extended_to_direct(total, e))[0]:
            realized_ok = False

    rank_direct = ordinary_k_rank(total)
    rank_ext = extended_box_rank(fiber, base)
    return {
        "a": a,
        "samples": len(candidates),
        "disagreements": disagreements,
        "all_agree": not disagreements,
        "orientation_agree": orientation_ok,
        "realized_members_pass": realized_ok,
        "rank_direct": rank_direct.rank,
        "rank_extended": rank_ext.rank,
        "ranks_match": (rank_direct.conclusive and rank_ext.conclusive
                        and rank_direct.rank == rank_ext.rank),
    }


# --- serialization -----------------------------------------------------------------


def extended_to_obj(e: ExtendedElement) -> list:
    return [e.base.serialize(c) for c in e.comps]


def extended_from_obj(fan: Fan, base: BaseRing, obj) -> ExtendedElement:
    if not isinstance(obj, list) or len(obj) != len(fan.max_cones):
        raise ValueError("extended elements list one entry per maximal cone")
    return ExtendedElement(fan, base, [base.deserialize(item) for item in obj])
