"""Simplicial fans in a lattice, given by primitive rays and maximal cones.

A fan here is always pure: every maximal cone has exactly rank-many rays and
full dimension.  Faces are ray-index subsets (cones are simplicial), walls
are the codimension-one faces shared by exactly two maximal cones, and each
wall carries the primitive lattice character vanishing on it, with the sign
fixed lexicographically.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence

from .intlat import (
    IntMatrix,
    QuotientLattice,
    adjugate,
    det,
    invariant_factors,
    primitive,
    quotient_lattice,
)


@dataclass(frozen=True)
class Cone:
    """A cone of the fan, identified by its sorted ray indices."""

    ray_indices: tuple

    def __post_init__(self):
        indices = json_ints(tuple(self.ray_indices), "cone ray indices")
        object.__setattr__(self, "ray_indices", tuple(sorted(set(indices))))

    @property
    def dim(self) -> int:
        return len(self.ray_indices)

    def is_face_of(self, other: "Cone") -> bool:
        return set(self.ray_indices) <= set(other.ray_indices)


@dataclass(frozen=True)
class Wall:
    """Codimension-one face shared by the maximal cones left and right.

    character is the primitive element of the dual lattice vanishing on the
    face, sign-normalized so its first nonzero entry is positive.
    """

    face: Cone
    left: int
    right: int
    character: tuple


@dataclass(frozen=True)
class Fan:
    rank: int
    rays: tuple
    max_cones: tuple
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(json_ints(tuple(r), "each ray")
                                              for r in self.rays))
        cones = tuple(c if isinstance(c, Cone) else Cone(tuple(c)) for c in self.max_cones)
        object.__setattr__(self, "max_cones", cones)
        if self.rank < 1:
            raise ValueError("fan rank must be at least 1")
        for i, r in enumerate(self.rays):
            if len(r) != self.rank:
                raise ValueError(f"ray {i} has wrong length")
            if not any(r):
                raise ValueError(f"ray {i} is zero")
            if primitive(r) != r:
                raise ValueError(f"ray {i} is not primitive")
        for k, cone in enumerate(self.max_cones):
            if any(i < 0 or i >= len(self.rays) for i in cone.ray_indices):
                raise ValueError(f"cone {k} references a missing ray")
            if cone.dim != self.rank:
                raise ValueError(f"cone {k} is not full-dimensional simplicial "
                                 f"({cone.dim} rays, rank {self.rank})")
            if det(self.ray_matrix(cone)) == 0:
                raise ValueError(f"cone {k} has linearly dependent rays")

    def ray_matrix(self, cone: Cone) -> IntMatrix:
        return IntMatrix.from_columns([self.rays[i] for i in cone.ray_indices], rows=self.rank)


def is_json_int(x) -> bool:
    """The one integer check of JSON input: an int, never a bool (JSON
    true/false decode as bools, which Python counts as ints) and never a
    float, integral or not."""
    return isinstance(x, int) and not isinstance(x, bool)


def json_ints(value, what: str) -> tuple:
    """A list (or tuple) of integers (see is_json_int) as a tuple."""
    if not isinstance(value, (list, tuple)) or not all(map(is_json_int, value)):
        raise ValueError(f"{what} must be a list of integers")
    return tuple(value)


def json_int_rows(value, what: str) -> list:
    """A JSON list of integer lists as a list of tuples."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of integer lists")
    return [json_ints(row, what) for row in value]


def parse_fan(source) -> Fan:
    """Parse a fan from JSON text / bytes / an already-decoded dict.

    Non-primitive rays are divided by their gcd with a warning; structural
    errors (purity, dependent cone rays, bad indices) raise ValueError.
    """
    if isinstance(source, (str, bytes)):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid fan JSON: {exc}") from exc
    else:
        obj = source
    if not isinstance(obj, dict):
        raise ValueError("fan JSON must be an object")
    for key in ("rank", "rays", "max_cones"):
        if key not in obj:
            raise ValueError(f"fan JSON missing {key!r}")
    rank = obj["rank"]
    if not is_json_int(rank) or rank < 1:
        raise ValueError("fan rank must be a positive integer")
    rays = []
    for i, r in enumerate(obj["rays"]):
        if not isinstance(r, list) or len(r) != rank or not all(map(is_json_int, r)):
            raise ValueError(f"ray {i} must be a list of {rank} integers")
        if not any(r):
            raise ValueError(f"ray {i} is zero")
        p = primitive(r)
        if p != tuple(r):
            warnings.warn(f"ray {i} {tuple(r)} was not primitive; replaced by {p}")
        rays.append(p)
    cones = []
    for k, c in enumerate(obj["max_cones"]):
        if not isinstance(c, list) or not all(map(is_json_int, c)):
            raise ValueError(f"max cone {k} must be a list of ray indices")
        if len(set(c)) != len(c):
            raise ValueError(f"max cone {k} repeats a ray index")
        cones.append(tuple(sorted(c)))
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ValueError("fan name must be a string")
    return Fan(rank=rank, rays=tuple(rays), max_cones=tuple(cones), name=name)


def fan_to_json(f: Fan) -> dict:
    out = {"rank": f.rank,
           "rays": [list(r) for r in f.rays],
           "max_cones": [list(c.ray_indices) for c in f.max_cones]}
    if f.name:
        out["name"] = f.name
    return out


def lex_positive(v: Sequence[int]) -> tuple:
    """Negate v if needed so its first nonzero entry is positive."""
    v = tuple(v)
    for x in v:
        if x:
            return v if x > 0 else tuple(-y for y in v)
    raise ValueError("zero vector has no lexicographic sign")


@dataclass(frozen=True)
class ConeFrame:
    """The dual basis of a maximal cone's rays, scaled to be integral.

    mult is |det| of the ray matrix (the cone's multiplicity) and duals[i]
    is the i-th row of the sign-corrected adjugate, so that
    <duals[i], v_j> = mult * delta_ij for the cone's rays v_j in sorted
    order.  duals[i] is the inner normal of the facet opposite ray i.
    """

    mult: int
    duals: tuple


@lru_cache(maxsize=None)
def cone_frames(f: Fan) -> tuple:
    """One ConeFrame per maximal cone, from one adjugate pass per cone."""
    frames = []
    for cone in f.max_cones:
        d, adj = adjugate(f.ray_matrix(cone))
        s = 1 if d > 0 else -1
        frames.append(ConeFrame(abs(d), tuple(tuple(s * x for x in row) for row in adj.data)))
    return tuple(frames)


def barycentric(f: Fan, cone_index: int, v: Sequence[int]) -> tuple:
    """Exact coordinates of v in the ray basis of the given maximal cone:
    <w_i, v> / mult over the rows w_i of the cone's frame."""
    if len(v) != f.rank:
        raise ValueError("vector length does not match fan rank")
    frame = cone_frames(f)[cone_index]
    return tuple(Fraction(sum(a * b for a, b in zip(w, v)), frame.mult) for w in frame.duals)


def in_cone(f: Fan, cone_index: int, v: Sequence[int]) -> bool:
    return all(c >= 0 for c in barycentric(f, cone_index, v))


def covers_point(f: Fan, v: Sequence[int]) -> bool:
    """Whether some maximal cone contains v (exact membership)."""
    return any(in_cone(f, k, v) for k in range(len(f.max_cones)))


# --- fan axiom validation ---------------------------------------------------


@dataclass
class ValidationReport:
    valid: bool
    violations: list = field(default_factory=list)


def _fm_feasible(ineqs: list, n_vars: int) -> bool:
    """Fourier-Motzkin feasibility for integer inequalities sum(a*x) <= b."""
    system = []
    seen = set()
    for coeffs, const in ineqs:
        g = 0
        for x in coeffs:
            g = gcd(g, x)
        g = gcd(g, const)
        if g > 1:
            coeffs = tuple(x // g for x in coeffs)
            const = const // g
        key = (coeffs, const)
        if key not in seen:
            seen.add(key)
            system.append(key)
    for var in range(n_vars):
        pos, neg, rest = [], [], []
        for coeffs, const in system:
            a = coeffs[var]
            if a > 0:
                pos.append((coeffs, const))
            elif a < 0:
                neg.append((coeffs, const))
            else:
                rest.append((coeffs, const))
        new = []
        seen = set()
        for pc, pb in pos:
            for nc, nb in neg:
                ap, an = pc[var], nc[var]
                coeffs = tuple(-an * p + ap * q for p, q in zip(pc, nc))
                const = -an * pb + ap * nb
                g = 0
                for x in coeffs:
                    g = gcd(g, x)
                g = gcd(g, const)
                if g > 1:
                    coeffs = tuple(x // g for x in coeffs)
                    const = const // g
                if not any(coeffs):
                    if const < 0:
                        return False
                    continue
                key = (coeffs, const)
                if key not in seen:
                    seen.add(key)
                    new.append(key)
        system = rest + new
    return all(const >= 0 for coeffs, const in system if not any(coeffs))


def _pair_separates(f: Fan, a: int, b: int) -> bool:
    """Whether cones a and b intersect exactly in the cone on their common rays.

    Equivalent (for full-dimensional simplicial cones) to the existence of a
    functional vanishing on the common rays, strictly positive on the other
    rays of a and strictly negative on the other rays of b; u is expanded in
    the facet-normal basis of cone a (its frame's duals) and the strictly
    positive coefficient region is searched exactly.
    """
    ca, cb = f.max_cones[a], f.max_cones[b]
    common = set(ca.ray_indices) & set(cb.ray_indices)
    pos_rays = [i for i in ca.ray_indices if i not in common]
    neg_rays = [i for i in cb.ray_indices if i not in common]
    if not pos_rays or not neg_rays:
        return False  # identical cones; reported separately
    dual_by_ray = dict(zip(ca.ray_indices, cone_frames(f)[a].duals))
    g_rows = []
    for j in neg_rays:
        vj = f.rays[j]
        g_rows.append([sum(dual_by_ray[i][k] * vj[k] for k in range(f.rank)) for i in pos_rays])
    n_vars = len(pos_rays)
    ineqs = []
    for i in range(n_vars):
        coeffs = tuple(-1 if k == i else 0 for k in range(n_vars))
        ineqs.append((coeffs, -1))
    for row in g_rows:
        ineqs.append((tuple(row), -1))
    return _fm_feasible(ineqs, n_vars)


def _pair_witness(f: Fan, a: int, b: int):
    """A point of both cones outside their common face, if easily found."""
    ca, cb = f.max_cones[a], f.max_cones[b]
    common = set(ca.ray_indices) & set(cb.ray_indices)
    candidates = []
    total = [0] * f.rank
    for i in sorted(set(ca.ray_indices) | set(cb.ray_indices)):
        candidates.append(f.rays[i])
        total = [t + x for t, x in zip(total, f.rays[i])]
    candidates.append(tuple(total))
    for i in ca.ray_indices:
        for j in cb.ray_indices:
            candidates.append(tuple(x + y for x, y in zip(f.rays[i], f.rays[j])))
    boundary_hit = None
    for x in candidates:
        ba = barycentric(f, a, x)
        bb = barycentric(f, b, x)
        if any(c < 0 for c in ba) or any(c < 0 for c in bb):
            continue
        outside = any(c > 0 for c, i in zip(ba, ca.ray_indices) if i not in common)
        if not outside:
            continue
        if all(c > 0 for c in ba) and all(c > 0 for c in bb):
            return list(x), True
        if boundary_hit is None:
            boundary_hit = list(x)
    return boundary_hit, False


def validate_fan(f: Fan) -> ValidationReport:
    """Check the fan axiom: distinct rays, and every pairwise intersection of
    maximal cones is a common face (via exact separating functionals)."""
    violations = []
    seen = {}
    for i, r in enumerate(f.rays):
        if r in seen:
            violations.append({"kind": "duplicate_ray", "rays": [seen[r], i]})
        else:
            seen[r] = i
    cone_seen = {}
    for k, c in enumerate(f.max_cones):
        if c.ray_indices in cone_seen:
            violations.append({"kind": "duplicate_cone", "cones": [cone_seen[c.ray_indices], k]})
        else:
            cone_seen[c.ray_indices] = k
    for a in range(len(f.max_cones)):
        for b in range(a + 1, len(f.max_cones)):
            if f.max_cones[a].ray_indices == f.max_cones[b].ray_indices:
                continue
            if not _pair_separates(f, a, b):
                witness, interior = _pair_witness(f, a, b)
                kind = "overlapping_interiors" if interior else "intersection_not_face"
                violations.append({"kind": kind, "cones": [a, b], "witness": witness})
    return ValidationReport(valid=not violations, violations=violations)


# --- walls and completeness -------------------------------------------------


def _facet_incidence(f: Fan) -> dict:
    facets = {}
    for k, cone in enumerate(f.max_cones):
        for sub in itertools.combinations(cone.ray_indices, f.rank - 1):
            facets.setdefault(tuple(sub), []).append(k)
    return facets


@lru_cache(maxsize=None)
def walls(f: Fan) -> tuple:
    """All codimension-one faces lying in exactly two maximal cones.

    Each wall records its primitive character: the generator of the rank-one
    lattice of functionals vanishing on the face, first nonzero entry
    positive.  That is the primitive part of the left cone's dual to its
    one ray off the face, read from cone_frames.
    """
    frames = cone_frames(f)
    out = []
    for face, cones in sorted(_facet_incidence(f).items()):
        if len(cones) != 2:
            continue
        left, right = sorted(cones)
        rays = f.max_cones[left].ray_indices
        off = next(i for i, r in enumerate(rays) if r not in face)
        character = lex_positive(primitive(frames[left].duals[off]))
        out.append(Wall(face=Cone(face), left=left, right=right, character=character))
    return tuple(out)


@lru_cache(maxsize=None)
def is_complete(f: Fan) -> bool:
    """Completeness test for a pure simplicial fan satisfying the fan axiom:
    every codimension-one face lies in exactly two maximal cones and the
    wall-adjacency graph of maximal cones is connected."""
    if not f.max_cones:
        return False
    incidence = _facet_incidence(f)
    if any(len(cones) != 2 for cones in incidence.values()):
        return False
    adj = {k: set() for k in range(len(f.max_cones))}
    for cones in incidence.values():
        a, b = cones
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        k = stack.pop()
        for nxt in adj[k]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(f.max_cones)


@lru_cache(maxsize=None)
def all_cones(f: Fan) -> tuple:
    """Every cone of the fan (all faces of maximal cones), origin included."""
    seen = set()
    for cone in f.max_cones:
        for size in range(f.rank + 1):
            for sub in itertools.combinations(cone.ray_indices, size):
                seen.add(sub)
    return tuple(Cone(s) for s in sorted(seen, key=lambda s: (len(s), s)))


def cones_containing(f: Fan, face: Cone) -> list:
    """Indices of maximal cones having the given cone as a face."""
    fs = set(face.ray_indices)
    return [k for k, c in enumerate(f.max_cones) if fs <= set(c.ray_indices)]


# --- smoothness and star quotients -------------------------------------------


def _is_basis_part(gens: Sequence, rows: int) -> bool:
    """Whether the generators are part of a basis of Z^rows: all invariant
    factors of their matrix equal one.  Dependent generators raise."""
    if not gens:
        return True
    factors = invariant_factors(IntMatrix.from_columns(list(gens), rows=rows))
    if len(factors) != len(gens):
        raise ValueError("dependent generators")
    return all(x == 1 for x in factors)


def is_smooth_cone(f: Fan, cone: Cone) -> bool:
    """Whether the cone's rays form part of a basis of the lattice (Smith
    invariant factors; for a maximal cone, kring.is_smooth_fan reads the
    same from cone_frames).  Dependent rays raise ValueError."""
    return _is_basis_part([f.rays[i] for i in cone.ray_indices], f.rank)


@dataclass(frozen=True)
class StarQuotient:
    """The star of tau, viewed in the quotient lattice N / span(tau)."""

    tau: Cone
    lattice: QuotientLattice
    cone_generators: dict  # max cone index -> tuple of projected primitive generators

    def is_smooth_at(self, cone_index: int) -> bool:
        return _is_basis_part(self.cone_generators[cone_index], self.lattice.rank)


def star_quotient(f: Fan, tau: Cone) -> StarQuotient:
    """Project the maximal cones containing tau to N / span(tau rays).

    The generator map sends each such cone to the primitivized images of its
    rays outside tau (rays of tau project to zero and are dropped).
    """
    containing = cones_containing(f, tau)
    if not containing:
        raise ValueError(f"{tau} is not a cone of the fan")
    sub = IntMatrix.from_columns([f.rays[i] for i in tau.ray_indices], rows=f.rank)
    lattice = quotient_lattice(f.rank, sub)
    gens = {}
    tau_set = set(tau.ray_indices)
    for k in containing:
        cone = f.max_cones[k]
        images = []
        for i in cone.ray_indices:
            if i in tau_set:
                continue
            w = lattice.project_vec(f.rays[i])
            if not any(w):
                raise ValueError(f"ray {i} projects to zero in star of {tau}")
            images.append(primitive(w))
        gens[k] = tuple(images)
    return StarQuotient(tau=tau, lattice=lattice, cone_generators=gens)
