"""Equivariant K-rings of complete cellular fans, in two exact models.

An element assigns a Laurent polynomial to each maximal cone.  The GKM
model accepts a tuple when the two polynomials across every wall agree
modulo (1 - e^chi) for the wall character chi; the piecewise model accepts
it when the restrictions of neighbouring components agree on every shared
face.  For complete fans the two conditions coincide, and the test suite
exercises that equivalence rather than assuming it.

Free-module structure over the representation ring is computed exactly:
box-truncated member lattices, a certified filtration basis (in closed form
on smooth fans), the ordinary K-ring rank as the size of that basis, and a
monomial presentation for smooth fans.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .cellular import check_cellular
from .fan import Fan, all_cones, cone_frames, walls
from .intlat import RowLattice, sparse_kernel_basis
from .laurent import (
    LaurentPoly,
    box_index,
    box_points,
    coset_rep,
    divides,
    exact_divide,
    poly_from_obj,
    poly_to_obj,
    restrict,
)


class GkmElement:
    """Tuple of Laurent polynomials indexed by the maximal cones."""

    __slots__ = ("fan", "components")

    def __init__(self, fan: Fan, components):
        components = tuple(components)
        if len(components) != len(fan.max_cones):
            raise ValueError("need one component per maximal cone")
        for c in components:
            if not isinstance(c, LaurentPoly):
                raise ValueError("components must be Laurent polynomials")
            if c.rank != fan.rank:
                raise ValueError("component rank does not match fan")
        self.fan = fan
        self.components = components

    def _coerce(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return constant_embedding(self.fan, other)
        if isinstance(other, GkmElement):
            if other.fan != self.fan:
                raise ValueError("elements live over different fans")
            return other
        raise TypeError(f"cannot combine GkmElement with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        return GkmElement(self.fan, [a + b for a, b in zip(self.components, other.components)])

    __radd__ = __add__

    def __neg__(self):
        return GkmElement(self.fan, [-a for a in self.components])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        return GkmElement(self.fan, [a * b for a, b in zip(self.components, other.components)])

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return GkmElement(self.fan, [a ** k for a in self.components])

    def __eq__(self, other) -> bool:
        return (isinstance(other, GkmElement) and self.fan == other.fan
                and self.components == other.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def support_radius(self) -> int:
        return max(c.support_radius() for c in self.components)

    def __repr__(self) -> str:
        return f"GkmElement({list(self.components)!r})"


def constant_embedding(fan: Fan, f) -> GkmElement:
    """The diagonal copy of a Laurent polynomial (or integer)."""
    if isinstance(f, int):
        f = LaurentPoly.constant(fan.rank, f)
    return GkmElement(fan, [f] * len(fan.max_cones))


def gkm_check(e: GkmElement) -> tuple:
    """Wall congruences: components across each wall must differ by a
    multiple of (1 - e^chi).  Returns (ok, failures)."""
    failures = []
    for w in walls(e.fan):
        diff = e.components[w.left] - e.components[w.right]
        ok, _ = divides(diff, w.character)
        if not ok:
            failures.append({
                "wall": w.face.ray_indices,
                "left": w.left,
                "right": w.right,
                "character": w.character,
            })
    return not failures, failures


def plp_check(e: GkmElement) -> tuple:
    """Piecewise condition: restrictions of any two components must agree
    on every common face of their cones.  Returns (ok, failures)."""
    failures = []
    cones = e.fan.max_cones
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            for g in all_cones(e.fan):
                if g.is_face_of(cones[i]) and g.is_face_of(cones[j]):
                    ri = restrict(e.components[i], e.fan, g)
                    rj = restrict(e.components[j], e.fan, g)
                    if ri != rj:
                        failures.append({"cones": (i, j), "face": g.ray_indices})
    return not failures, failures


def element_to_obj(e: GkmElement) -> list:
    return [poly_to_obj(c) for c in e.components]


def element_from_obj(fan: Fan, obj) -> GkmElement:
    if not isinstance(obj, list) or len(obj) != len(fan.max_cones):
        raise ValueError("element JSON must list one polynomial per maximal cone")
    return GkmElement(fan, [poly_from_obj(fan.rank, item) for item in obj])


# --- box-truncated member lattices --------------------------------------------


@dataclass(frozen=True)
class MemberSpace:
    """Lattice of GKM members with all exponents in a coordinate box."""

    fan: Fan
    radius: int
    exps: tuple
    basis: tuple  # sparse {variable: coeff} vectors

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def block(self) -> int:
        return len(self.exps)


def _wall_rows(wall_chars, exps):
    """The wall congruences on box-supported tuples, one sparse row each.

    wall_chars yields (left, right, chi) per wall; position
    cone * len(exps) + k holds the coefficient of e^exps[k] on that cone.
    The congruences are integer-linear: within each coset of Z*chi the
    coefficients of the two wall components must have equal sums, one row
    per coset, in order of the coset's first box point.
    """
    block = len(exps)
    for left, right, chi in wall_chars:
        classes = {}
        for k, e in enumerate(exps):
            classes.setdefault(coset_rep(e, chi), []).append(k)
        for members in classes.values():
            row = {}
            for k in members:
                row[left * block + k] = 1
                row[right * block + k] = -1
            yield row


def wall_kernel(n_cones: int, wall_chars, exps) -> list:
    """Saturated kernel of the wall congruences (see _wall_rows); the rows
    are generated, so the kernel holds the system once, by columns."""
    return sparse_kernel_basis(len(exps) * n_cones, _wall_rows(wall_chars, exps))


def member_space(fan: Fan, radius: int) -> MemberSpace:
    """Saturated lattice of box-supported tuples passing every wall
    congruence."""
    exps = tuple(box_points(fan.rank, radius))
    wall_chars = ((w.left, w.right, w.character) for w in walls(fan))
    basis = wall_kernel(len(fan.max_cones), wall_chars, exps)
    return MemberSpace(fan=fan, radius=radius, exps=exps, basis=tuple(basis))


def vector_to_element(space: MemberSpace, vec) -> GkmElement:
    if isinstance(vec, dict):
        items = vec.items()
    else:
        items = ((i, x) for i, x in enumerate(vec))
    comps = [{} for _ in space.fan.max_cones]
    for pos, x in items:
        if not x:
            continue
        comps[pos // space.block][space.exps[pos % space.block]] = x
    return GkmElement(space.fan, [LaurentPoly(space.fan.rank, c) for c in comps])


def element_to_vector(space: MemberSpace, e: GkmElement) -> dict:
    return _box_vector(e, space.radius)


def _box_vector(e: GkmElement, radius: int) -> dict:
    """Coordinates of e in the radius box, laid out as in member_space."""
    block = (2 * radius + 1) ** e.fan.rank
    vec = {}
    for i, c in enumerate(e.components):
        for exp, coef in c.terms.items():
            k = box_index(exp, radius)
            if k is None:
                raise ValueError("element exponent outside the box")
            vec[i * block + k] = coef
    return vec


def _add_scaled(out: dict, f: int, row: dict) -> None:
    """out += f * row, dropping the entries that cancel."""
    for pos, x in row.items():
        v = out.get(pos, 0) + f * x
        if v:
            out[pos] = v
        else:
            out.pop(pos, None)


def sample_vectors(basis, count: int, seed: int = 0, coeff_bound: int = 3,
                   max_terms: int = 4) -> list:
    """Random small integer combinations of sparse basis rows: per sample,
    a term count, then a row and a coefficient per term."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        vec = {}
        for _ in range(rng.randint(1, max_terms)):
            row = rng.choice(basis)
            _add_scaled(vec, rng.randint(-coeff_bound, coeff_bound), row)
        out.append(vec)
    return out


def sample_members(space: MemberSpace, count: int, seed: int = 0,
                   coeff_bound: int = 3, max_terms: int = 4) -> list:
    """Random small integer combinations of the member basis."""
    return [vector_to_element(space, vec)
            for vec in sample_vectors(space.basis, count, seed, coeff_bound, max_terms)]


# --- box-stabilized ranks ------------------------------------------------------


@dataclass(frozen=True)
class RankReport:
    """A box-stabilized rank estimate, as the extended rings of bundles and
    horospherical embeddings give it; each history row ends with its
    estimate."""

    rank: Optional[int]
    stabilized_at: Optional[int]
    conclusive: bool
    history: tuple


def plateau(values):
    """The first value equal to the one before it, else the last value
    (None for no values).  Values are drawn lazily, so none is computed
    past the plateau."""
    prev = None
    for n, v in enumerate(values):
        if n and v == prev:
            return v
        prev = v
    return prev


def box_stabilize(step, max_radius: int) -> RankReport:
    """The stopping rule of every box-rank estimate: step(d) returns the
    history row at radius d, estimate last, for d = 1, 2, ... until two
    successive estimates agree or max_radius is passed."""
    history = []

    def estimates():
        for d in range(1, max_radius + 1):
            history.append(tuple(step(d)))
            yield history[-1][-1]

    rank = plateau(estimates())
    conclusive = len(history) > 1 and history[-2][-1] == rank
    return RankReport(rank=rank, stabilized_at=len(history) if conclusive else None,
                      conclusive=conclusive, history=tuple(history))


# --- filtration basis ----------------------------------------------------------


@dataclass(frozen=True)
class FiltrationBasis:
    v: tuple
    order: tuple        # cell order, maximal cone indices
    elements: tuple     # GkmElement per order position
    radius: int         # largest support radius of the elements


def _combine_basis(basis, combo: dict) -> dict:
    out = {}
    for k, f in combo.items():
        _add_scaled(out, f, basis[k])
    return out


def build_filtration_basis(fan: Fan, v: Optional[Sequence] = None, seed: int = 0,
                           max_radius: int = 4) -> FiltrationBasis:
    """Module basis adapted to the cell filtration, certified exactly.

    The cells after position p in the order form a closed union, and the
    basis element of position p vanishes on their cones while restricting
    on its own cone to a generator of the ideal of such restrictions.  (The
    opposite orientation, vanishing on earlier cells, admits no generator
    for some cellular structures: the restriction ideal need not be
    principal there.)

    On a smooth fan each element has a closed form (_closed_form_basis).  A
    singular fan falls back to a search of growing coordinate boxes, up to
    max_radius (_box_search_basis).  Either way the result is returned only
    when _certify_basis proves it a basis; radius is the largest support
    radius of its elements.
    """
    rep = check_cellular(fan, v=v, seed=seed)
    if not rep.verdict:
        raise ValueError(f"fan is not cellular: {rep.failure}")
    order = tuple(rep.order)
    if is_smooth_fan(fan):
        elements = _closed_form_basis(fan, rep.taus, order)
    else:
        elements = _box_search_basis(fan, order, max_radius)
    basis = FiltrationBasis(v=rep.v, order=order, elements=elements,
                            radius=max(e.support_radius() for e in elements))
    _certify_basis(fan, basis)
    return basis


def _closed_form_basis(fan: Fan, taus, order) -> tuple:
    """phi_p = prod (1 - X_rho) over the rays rho of sigma_p outside tau_p,
    with X_rho the generators of the monomial presentation: e^u on a cone
    containing rho, u the dual character there, and 1 elsewhere.  So the
    component on a cone missing one of those rays is zero."""
    cert = sr_presentation(fan).certificate
    one = LaurentPoly.one(fan.rank)
    zero = LaurentPoly.zero(fan.rank)
    elements = []
    for i in order:
        outside = set(fan.max_cones[i].ray_indices) - set(taus[i].ray_indices)
        comps = []
        for k, sigma in enumerate(fan.max_cones):
            if not outside <= set(sigma.ray_indices):
                comps.append(zero)
                continue
            c = one
            for rho in sorted(outside):
                c = c * (one - LaurentPoly.monomial(cert[(k, rho)]))
            comps.append(c)
        elements.append(GkmElement(fan, comps))
    return tuple(elements)


def _box_search_basis(fan: Fan, order, max_radius: int) -> tuple:
    """For each position, a member vanishing on the later cones whose
    restriction to its own cone divides the restriction of every other
    such member in the box, exactly.  The box radius grows until every
    position has one."""
    last_error = "no radius attempted"
    for radius in range(1, max_radius + 1):
        space = member_space(fan, radius)
        elements = []
        for pos, i in enumerate(order):
            forced = set()
            for q in order[pos + 1:]:
                forced.update(range(q * space.block, (q + 1) * space.block))
            rows = []
            for p in sorted(forced):
                row = {k: b[p] for k, b in enumerate(space.basis) if p in b}
                if row:
                    rows.append(row)
            combos = sparse_kernel_basis(space.dim, rows)
            vectors = [_combine_basis(space.basis, c) for c in combos]
            diags = []
            for vec in vectors:
                terms = {space.exps[pos2 % space.block]: x for pos2, x in vec.items()
                         if pos2 // space.block == i}
                diags.append(LaurentPoly(fan.rank, terms))
            chosen = None
            for k, d in enumerate(diags):
                if d.is_zero():
                    continue
                if all(g.is_zero() or exact_divide(g, d) is not None for g in diags):
                    chosen = k
                    break
            if chosen is None:
                last_error = f"no dividing generator at order position {pos} (radius {radius})"
                elements = None
                break
            elements.append(vector_to_element(space, vectors[chosen]))
        if elements is not None:
            return tuple(elements)
    raise ValueError(f"filtration basis not found: {last_error}")


def _certify_basis(fan: Fan, basis: FiltrationBasis) -> None:
    """Raise ValueError unless basis.elements is a basis of the members
    over the representation ring Z[M], by three exact checks:
      - every phi_p is a member (gkm_check);
      - phi_p vanishes on every cone later in the order;
      - the diagonal phi_p[sigma_p] is a monomial unit times the Euler
        product E_p = prod (1 - e^chi_w) over the walls w from sigma_p to
        later cones.

    Why this is a proof.  Peel a member t from the end of the order, as
    decompose does: suppose the remainder r vanishes on the cones after
    position p.  Across each wall w from sigma_p to a later cone,
    r[sigma_p] - 0 is divisible by 1 - e^chi_w.  On a smooth cell the
    chi_w are part of a lattice basis of M, so these factors are pairwise
    non-associate irreducibles of the UFD Z[M] (1 - x_1 in suitable
    coordinates), and their product E_p divides r[sigma_p].  Then so does
    the diagonal, which is a unit times E_p, and subtracting the quotient
    times phi_p makes r vanish on sigma_p as well.  Induction ends at
    r = 0, so the phi_p generate; they are triangular with nonzero
    diagonals, so they are free.  The argument needs only that the chi_w
    are primitive and pairwise non-proportional, which holds for the walls
    of any simplicial cone; so the same checks certify the box-search
    bases of singular fans.
    """
    order = basis.order
    if sorted(order) != list(range(len(fan.max_cones))) or len(basis.elements) != len(order):
        raise ValueError("basis must have one element per maximal cone")
    position = {i: pos for pos, i in enumerate(order)}
    one = LaurentPoly.one(fan.rank)
    euler = [one] * len(order)
    for w in walls(fan):
        p = min(position[w.left], position[w.right])
        euler[p] = euler[p] * (one - LaurentPoly.monomial(w.character))
    for pos, (i, phi) in enumerate(zip(order, basis.elements)):
        if not gkm_check(phi)[0]:
            raise ValueError(f"basis element {pos} is not a member")
        if any(not phi.components[q].is_zero() for q in order[pos + 1:]):
            raise ValueError(f"basis element {pos} does not vanish on later cones")
        unit = exact_divide(phi.components[i], euler[pos])
        if unit is None or not unit.is_monomial_unit():
            raise ValueError(f"basis element {pos} is not a unit times its Euler product")


def decompose(fan: Fan, basis: FiltrationBasis, t: GkmElement) -> Optional[list]:
    """Coefficients c with t = sum c_p * phi_p, or None when the triangular
    division fails.  Coefficients are Laurent polynomials acting diagonally.

    Positions are peeled from the end of the order: there the remaining
    element is supported on a single basis element's cone."""
    coeffs = [LaurentPoly.zero(fan.rank)] * len(basis.order)
    rem = t
    for pos in reversed(range(len(basis.order))):
        i = basis.order[pos]
        phi = basis.elements[pos]
        target = rem.components[i]
        if target.is_zero():
            continue
        c = exact_divide(target, phi.components[i])
        if c is None:
            return None
        coeffs[pos] = c
        rem = rem - constant_embedding(fan, c) * phi
    if not rem.is_zero():
        return None
    return coeffs


def verify_generation(fan: Fan, basis: FiltrationBasis, samples: int = 25,
                      seed: int = 0, sample_radius: int = 1) -> dict:
    """Decompose random box members against the basis and recompose."""
    space = member_space(fan, sample_radius)
    members = sample_members(space, samples, seed=seed)
    generated = 0
    for t in members:
        coeffs = decompose(fan, basis, t)
        if coeffs is None:
            continue
        total = constant_embedding(fan, 0)
        for c, phi in zip(coeffs, basis.elements):
            total = total + constant_embedding(fan, c) * phi
        if total == t:
            generated += 1
    return {"samples": len(members), "generated": generated,
            "all_generated": generated == len(members)}


# --- ordinary K-ring rank ------------------------------------------------------


@dataclass(frozen=True)
class CertifiedRank:
    """The ordinary K-ring rank, or None with the reason no basis was
    certified."""

    rank: Optional[int]
    reason: Optional[str] = None

    @property
    def conclusive(self) -> bool:
        return self.rank is not None


def ordinary_k_rank(fan: Fan, max_radius: int = 4) -> CertifiedRank:
    """Rank of the K-ring with the torus action forgotten.

    K(X) = K_T(X) (x) Z over the representation ring (Merkurjev), so the
    rank is the size of a module basis of the members: the one
    build_filtration_basis certifies, with max_radius bounding its
    singular-fan search.  Where that raises (an incomplete or non-cellular
    fan, or a search that runs out of radius) the rank is unknown and the
    error is the reason.
    """
    try:
        basis = build_filtration_basis(fan, max_radius=max_radius)
    except ValueError as exc:
        return CertifiedRank(rank=None, reason=str(exc))
    return CertifiedRank(rank=len(basis.elements))


# --- monomial presentation for smooth fans -------------------------------------


def is_smooth_fan(fan: Fan) -> bool:
    """Whether every maximal cone's rays are a lattice basis: each cone's
    multiplicity |det| in cone_frames is one."""
    return all(frame.mult == 1 for frame in cone_frames(fan))


def minimal_nonfaces(fan: Fan) -> list:
    """Inclusion-minimal ray sets spanning no cone of the fan.

    Every proper subset of a minimal nonface is a face, and a face has at
    most rank rays, so no minimal nonface has more than rank + 1: the sizes
    searched stop there, not at the number of rays."""
    faces = {frozenset(c.ray_indices) for c in all_cones(fan)}
    n = len(fan.rays)
    out = []
    for size in range(1, min(n, fan.rank + 1) + 1):
        for subset in itertools.combinations(range(n), size):
            fs = frozenset(subset)
            if fs in faces:
                continue
            if all(frozenset(sub) in faces
                   for sub in itertools.combinations(subset, size - 1)):
                out.append(subset)
    return out


@dataclass(frozen=True)
class SRPresentation:
    relations: tuple  # dicts: {"kind": "nonface", "rays": ...} or {"kind": "character", "u": ...}
    certificate: dict  # (cone, ray) -> u: the dual character of the ray there, else zero


def sr_presentation(fan: Fan) -> SRPresentation:
    """The monomial presentation of a smooth fan.

    Relations: one product (1 - X_j) per minimal nonface, and one per
    lattice character identifying the representation-ring action with a
    monomial in the generators.  Generator X_j is e^u on a cone containing
    ray j, with u the character dual to ray j in that cone's ray basis, and
    1 elsewhere; the certificate records each such u (zero off the star of
    ray j).  Smoothness makes every cone's multiplicity one, so u is the
    dual row of cone_frames itself."""
    if not is_smooth_fan(fan):
        raise ValueError("monomial presentation requires a smooth fan")
    rels = [{"kind": "nonface", "rays": nf} for nf in minimal_nonfaces(fan)]
    for i in range(fan.rank):
        u = tuple(1 if j == i else 0 for j in range(fan.rank))
        rels.append({"kind": "character", "u": u})
    zero = (0,) * fan.rank
    certificate = {}
    for k, (sigma, frame) in enumerate(zip(fan.max_cones, cone_frames(fan))):
        duals = dict(zip(sigma.ray_indices, frame.duals))
        for j in range(len(fan.rays)):
            certificate[(k, j)] = duals.get(j, zero)
    return SRPresentation(relations=tuple(rels), certificate=certificate)


def _signed_compositions(n_slots: int, max_total: int):
    for total in range(max_total + 1):
        for cuts in itertools.combinations(range(total + n_slots - 1), n_slots - 1):
            parts = []
            prev = -1
            for c in list(cuts) + [total + n_slots - 1]:
                parts.append(c - prev - 1)
                prev = c
            for signs in itertools.product((1, -1), repeat=n_slots):
                vec = tuple(p * s for p, s in zip(parts, signs))
                if all(p or s == 1 for p, s in zip(parts, signs)):
                    yield vec


def sr_surjectivity_probe(fan: Fan, max_degree: int = 3, mult_radius: int = 1,
                          sample_radius: int = 1, samples: int = 25,
                          seed: int = 0) -> dict:
    """Monomials of bounded total degree in the generators, multiplied by a
    small box of characters, must span every sampled member over Z.

    The monomial images go into a lattice on the box wide enough for all
    of them, indexed directly by box_index; no member basis is built there,
    since membership in that lattice is all that is asked of the samples.
    The only basis built is the sampling one, at sample_radius.
    """
    cert = sr_presentation(fan).certificate
    duals = [[cert[(k, j)] for j in range(len(fan.rays))] for k in range(len(fan.max_cones))]
    # the image of prod X_j^a_j is the single monomial e^(sum_j a_j u_kj) on cone k
    images = [[tuple(sum(a * u[i] for a, u in zip(powers, us)) for i in range(fan.rank))
               for us in duals]
              for powers in _signed_compositions(len(fan.rays), max_degree)]
    shift_box = box_points(fan.rank, mult_radius)
    need = max(abs(x) for img in images for exp in img for x in exp) + mult_radius
    need = max(need, sample_radius)
    block = (2 * need + 1) ** fan.rank
    lat = RowLattice()
    for img in images:
        for w in shift_box:
            lat.insert({k * block + box_index(tuple(a + b for a, b in zip(exp, w)), need): 1
                        for k, exp in enumerate(img)})
    space = member_space(fan, sample_radius)
    members = sample_members(space, samples, seed=seed)
    hits = sum(lat.contains(_box_vector(t, need)) for t in members)
    return {"monomials": len(images), "samples": len(members), "hits": hits,
            "all_hit": hits == len(members)}
