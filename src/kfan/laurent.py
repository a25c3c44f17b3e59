"""Sparse Laurent polynomials over Z with exact ideal membership.

A polynomial is a map from exponent vectors (tuples of ints, one slot per
lattice coordinate) to nonzero integer coefficients.  All arithmetic is
arbitrary precision.  The two division routines are deliberately
independent implementations:

* divides(f, chi) tests membership in the principal ideal (1 - e^chi) by
  grouping exponents into cosets of Z*chi and checking that every coset's
  coefficient sum vanishes, rebuilding the quotient by prefix sums;
* exact_divide(f, g) divides by an arbitrary g using lexicographic leading
  terms, bounded by the exact Newton-box of the would-be quotient.

They cross-check each other in the test suite.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .fan import Cone, Fan, is_json_int


class LaurentPoly:
    """Laurent polynomial in `rank` variables with integer coefficients."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Optional[dict] = None):
        self.rank = rank
        clean = {}
        if terms:
            for exp, coef in terms.items():
                exp = tuple(int(x) for x in exp)
                if len(exp) != rank:
                    raise ValueError("exponent length does not match rank")
                coef = int(coef)
                if coef:
                    clean[exp] = coef
        self.terms = clean

    @classmethod
    def _raw(cls, rank: int, terms: dict) -> "LaurentPoly":
        """Wrap terms without validation.  Precondition: `terms` is already
        clean, i.e. every key is a tuple of `rank` ints and every value a
        nonzero int, and the dict is not shared with anything else.  Only
        arithmetic that builds such a dict itself may call this."""
        p = object.__new__(cls)
        p.rank = rank
        p.terms = terms
        return p

    @classmethod
    def zero(cls, rank: int) -> "LaurentPoly":
        return cls(rank, {})

    @classmethod
    def constant(cls, rank: int, c: int) -> "LaurentPoly":
        return cls(rank, {tuple([0] * rank): c})

    @classmethod
    def one(cls, rank: int) -> "LaurentPoly":
        return cls.constant(rank, 1)

    @classmethod
    def monomial(cls, exponent: Sequence[int], coef: int = 1) -> "LaurentPoly":
        exponent = tuple(int(x) for x in exponent)
        return cls(len(exponent), {exponent: coef})

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial_unit(self) -> bool:
        if len(self.terms) != 1:
            return False
        return next(iter(self.terms.values())) in (1, -1)

    def _check(self, other: "LaurentPoly") -> None:
        if self.rank != other.rank:
            raise ValueError("mismatched ambient lattices")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.rank, other)
        self._check(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            s = out.get(exp, 0) + coef
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return LaurentPoly._raw(self.rank, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.rank, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly._raw(self.rank, {})
            return LaurentPoly._raw(self.rank, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, 0) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return LaurentPoly._raw(self.rank, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            # unit monomials are the only invertible elements
            if not self.is_monomial_unit():
                raise ValueError("negative powers only for unit monomials")
            exp, coef = next(iter(self.terms.items()))
            return LaurentPoly(self.rank, {tuple(k * x for x in exp): coef if k % 2 else 1})
        out = LaurentPoly.one(self.rank)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(self.rank, other)
        return isinstance(other, LaurentPoly) and self.rank == other.rank and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exp, coef in self.sorted_terms():
            if any(exp):
                mono = "*".join(f"t{i}^{e}" for i, e in enumerate(exp) if e)
                bits.append(f"{coef}*{mono}" if coef != 1 else mono)
            else:
                bits.append(str(coef))
        return " + ".join(bits)

    def support_radius(self) -> int:
        return max((abs(x) for exp in self.terms for x in exp), default=0)


def augmentation(f: LaurentPoly) -> int:
    """Sum of coefficients: the image under e^u -> 1."""
    return sum(f.terms.values())


def euler_class(u: Sequence[int]) -> LaurentPoly:
    """1 - e^{-u}."""
    u = tuple(int(x) for x in u)
    zero = tuple([0] * len(u))
    neg = tuple(-x for x in u)
    if neg == zero:
        return LaurentPoly.zero(len(u))
    return LaurentPoly(len(u), {zero: 1, neg: -1})


# --- restriction to cones ----------------------------------------------------


class RestrictedPoly:
    """Image of a Laurent polynomial in the restriction ring of a cone.

    The class of e^u is recorded by its pairing vector (<u, v_i>) over the
    cone's rays; exponents with equal pairings are identified, which is
    exactly the quotient by the functionals vanishing on the cone.
    """

    __slots__ = ("cone", "terms")

    def __init__(self, cone: Cone, terms: Optional[dict] = None):
        self.cone = cone
        clean = {}
        if terms:
            for key, coef in terms.items():
                key = tuple(int(x) for x in key)
                if len(key) != cone.dim:
                    raise ValueError("pairing key length does not match cone dimension")
                coef = int(coef)
                if coef:
                    clean[key] = coef
        self.terms = clean

    def __eq__(self, other) -> bool:
        return (isinstance(other, RestrictedPoly)
                and self.cone == other.cone and self.terms == other.terms)

    def __add__(self, other: "RestrictedPoly") -> "RestrictedPoly":
        if self.cone != other.cone:
            raise ValueError("mismatched cones")
        out = dict(self.terms)
        for key, coef in other.terms.items():
            s = out.get(key, 0) + coef
            if s:
                out[key] = s
            else:
                del out[key]
        return RestrictedPoly(self.cone, out)

    def __mul__(self, other: "RestrictedPoly") -> "RestrictedPoly":
        if self.cone != other.cone:
            raise ValueError("mismatched cones")
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return RestrictedPoly(self.cone, out)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return f"RestrictedPoly({self.cone.ray_indices}, {sorted(self.terms.items())!r})"


def restrict(f: LaurentPoly, fan: Fan, cone: Cone) -> RestrictedPoly:
    """Restriction of f to the cone: exponents collapse to pairing vectors."""
    if f.rank != fan.rank:
        raise ValueError("polynomial rank does not match fan rank")
    rays = [fan.rays[i] for i in cone.ray_indices]
    out = {}
    for exp, coef in f.terms.items():
        key = tuple(sum(e * v[d] for d, e in enumerate(exp)) for v in rays)
        s = out.get(key, 0) + coef
        if s:
            out[key] = s
        else:
            del out[key]
    return RestrictedPoly(cone, out)


def face_restrict(g: RestrictedPoly, face: Cone) -> RestrictedPoly:
    """Further restriction from a cone to one of its faces: drop the pairing
    coordinates of the rays not in the face."""
    if not face.is_face_of(g.cone):
        raise ValueError("face is not a face of the cone")
    keep = [g.cone.ray_indices.index(i) for i in face.ray_indices]
    out = {}
    for key, coef in g.terms.items():
        sub = tuple(key[p] for p in keep)
        s = out.get(sub, 0) + coef
        if s:
            out[sub] = s
        else:
            del out[sub]
    return RestrictedPoly(face, out)


# --- division ----------------------------------------------------------------


def coset_rep(exp: Sequence[int], chi: Sequence[int]) -> tuple:
    """Canonical representative of exp modulo Z*chi (chi nonzero): shift by
    the floor multiple at chi's first nonzero coordinate."""
    p = next(i for i, x in enumerate(chi) if x)
    step = chi[p]
    t = exp[p] // step if step > 0 else -(exp[p] // -step)
    return tuple(e - t * c for e, c in zip(exp, chi))


def divides(f: LaurentPoly, chi: Sequence[int]) -> tuple:
    """Membership of f in the ideal (1 - e^chi), with the exact quotient.

    Returns (True, h) with f = (1 - e^chi) * h, or (False, None).  The test
    is linear: within each coset of Z*chi the coefficients must sum to zero.
    """
    chi = tuple(int(x) for x in chi)
    if len(chi) != f.rank:
        raise ValueError("character length does not match rank")
    if not any(chi):
        raise ValueError("character must be nonzero")
    if f.is_zero():
        return True, LaurentPoly.zero(f.rank)
    # group the terms by coset of Z*chi, keyed by coset_rep's representative
    p = next(i for i, x in enumerate(chi) if x)
    step = chi[p]
    groups = {}
    for exp, coef in f.terms.items():
        t = exp[p] // step if step > 0 else -(exp[p] // -step)
        rep = tuple(e - t * c for e, c in zip(exp, chi))
        groups.setdefault(rep, {})[t] = coef
    for coeffs in groups.values():
        if sum(coeffs.values()) != 0:
            return False, None
    quotient = {}
    for rep, coeffs in groups.items():
        ks = sorted(coeffs)
        running = 0
        for k in range(ks[0], ks[-1]):
            running += coeffs.get(k, 0)
            if running:
                quotient[tuple(r + k * c for r, c in zip(rep, chi))] = running
    return True, LaurentPoly._raw(f.rank, quotient)


def exact_divide(f: LaurentPoly, g: LaurentPoly) -> Optional[LaurentPoly]:
    """The exact quotient f / g when it exists in the Laurent ring, else None.

    Uses lexicographic leading-term division; candidate quotient exponents
    are confined to the coordinate box forced by Newton polytopes, which
    bounds the loop and makes failure detection exact.  The remainder is
    one working dict that each step subtracts c * e^t * g from in place.
    """
    if f.rank != g.rank:
        raise ValueError("mismatched ambient lattices")
    if g.is_zero():
        raise ValueError("division by zero")
    if f.is_zero():
        return LaurentPoly.zero(f.rank)
    lo = []
    hi = []
    for d in range(f.rank):
        f_coords = [e[d] for e in f.terms]
        g_coords = [e[d] for e in g.terms]
        lo.append(min(f_coords) - min(g_coords))
        hi.append(max(f_coords) - max(g_coords))
        if lo[-1] > hi[-1]:
            return None
    ug = max(g.terms)
    cg = g.terms[ug]
    r = dict(f.terms)
    out = {}
    while r:
        ur = max(r)
        cr = r[ur]
        if cr % cg:
            return None
        tu = tuple(a - b for a, b in zip(ur, ug))
        if any(t < a or t > b for t, a, b in zip(tu, lo, hi)):
            return None
        c = cr // cg
        out[tu] = c
        for eg, x in g.terms.items():
            exp = tuple(a + b for a, b in zip(eg, tu))
            v = r.get(exp, 0) - c * x
            if v:
                r[exp] = v
            else:
                del r[exp]
    return LaurentPoly._raw(f.rank, out)


# --- serialization and boxes --------------------------------------------------


def poly_to_obj(f: LaurentPoly) -> list:
    return [{"exp": list(exp), "coef": str(coef)} for exp, coef in f.sorted_terms()]


def poly_from_obj(rank: int, obj) -> LaurentPoly:
    if not isinstance(obj, list):
        raise ValueError("polynomial JSON must be a list of terms")
    terms = {}
    for item in obj:
        if not isinstance(item, dict) or "exp" not in item or "coef" not in item:
            raise ValueError("each term needs exp and coef")
        exp = item["exp"]
        if not isinstance(exp, list) or len(exp) != rank or not all(map(is_json_int, exp)):
            raise ValueError(f"term exponent must be a list of {rank} integers")
        coef = item["coef"]
        if isinstance(coef, str):
            try:
                coef = int(coef)
            except ValueError as exc:
                raise ValueError(f"bad coefficient {coef!r}") from exc
        elif not is_json_int(coef):
            raise ValueError("coefficient must be an integer or decimal string")
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + coef
    return LaurentPoly(rank, terms)


def box_points(rank: int, radius: int) -> list:
    """All exponent vectors with coordinates in [-radius, radius], sorted."""
    return sorted(itertools.product(range(-radius, radius + 1), repeat=rank))


def box_index(exp: Sequence[int], radius: int) -> Optional[int]:
    """Position of exp in box_points(len(exp), radius), or None when exp
    lies outside the box.  The sorted box is the lexicographic product
    order, so the position is exp + radius read in base 2*radius + 1."""
    side = 2 * radius + 1
    k = 0
    for x in exp:
        x += radius
        if x < 0 or x >= side:
            return None
        k = k * side + x
    return k
