"""Cell decompositions of complete simplicial fans from a generic vector.

A generic direction v assigns to each maximal cone sigma its distinguished
face: the face spanned by the rays whose barycentric coefficient of v is
negative.  The cells Y_i = {gamma : tau_i <= gamma <= sigma_i} then stratify
the fan.  The variety is T-cellular when the closure relation i -> j
(tau_i <= sigma_j) admits a topological order and every quotient cone
sigma_i / span(tau_i) is smooth.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .fan import Cone, Fan, all_cones, barycentric, is_complete, star_quotient


def is_generic(f: Fan, v: Sequence) -> bool:
    """True when v has nonzero barycentric coordinates in every maximal cone."""
    if len(v) != f.rank:
        raise ValueError("vector length does not match fan rank")
    for i in range(len(f.max_cones)):
        if any(c == 0 for c in barycentric(f, i, v)):
            return False
    return True


def distinguished_face(f: Fan, cone_index: int, v: Sequence) -> Cone:
    """The face of max cone `cone_index` spanned by the rays where v has a
    negative barycentric coefficient."""
    cone = f.max_cones[cone_index]
    coords = barycentric(f, cone_index, v)
    if any(c == 0 for c in coords):
        raise ValueError("vector is not generic for this cone")
    rays = tuple(r for r, c in zip(cone.ray_indices, coords) if c < 0)
    return Cone(rays)


def cell_order(f: Fan, v: Sequence):
    """Topological order of the closure relation i -> j when tau_i <= sigma_j.

    Returns (order, None) on success, (None, cycle_members) when the relation
    has a cycle.  Ties are broken by input index, so the order is a function
    of the fan and v alone.
    """
    m = len(f.max_cones)
    taus = [distinguished_face(f, i, v) for i in range(m)]
    succ = [set() for _ in range(m)]
    indeg = [0] * m
    for i in range(m):
        for j in range(m):
            if i != j and taus[i].is_face_of(f.max_cones[j]):
                succ[i].add(j)
                indeg[j] += 1
    heap = [i for i in range(m) if indeg[i] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        i = heapq.heappop(heap)
        order.append(i)
        for j in sorted(succ[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    if len(order) < m:
        return None, sorted(set(range(m)) - set(order))
    return order, None


def cells(f: Fan, v: Sequence) -> dict:
    """Cell i as the list of cones between tau_i and sigma_i."""
    out = {}
    for i in range(len(f.max_cones)):
        tau = distinguished_face(f, i, v)
        sigma = f.max_cones[i]
        out[i] = [g for g in all_cones(f) if tau.is_face_of(g) and g.is_face_of(sigma)]
    return out


def cell_dims(f: Fan, v: Sequence) -> list:
    return [f.rank - distinguished_face(f, i, v).dim for i in range(len(f.max_cones))]


def search_generic(f: Fan, seed: int = 0, attempts: int = 1000) -> tuple:
    """Deterministic search for a generic integer vector."""
    rng = random.Random(seed)
    for trial in range(attempts):
        bound = 7 + 4 * (trial // 50)
        v = tuple(rng.randint(-bound, bound) for _ in range(f.rank))
        if is_generic(f, v):
            return v
    raise ValueError("no generic vector found; fan degenerate or rank zero")


@dataclass(frozen=True)
class CellularityReport:
    verdict: bool
    v: tuple
    order: Optional[list]
    taus: list
    cell_dims: list
    quotient_smooth: Optional[list]
    failure: Optional[str]


def check_cellular(f: Fan, v: Optional[Sequence] = None, seed: int = 0,
                   require_complete: bool = True, attempts: int = 60) -> CellularityReport:
    """Decide T-cellularity of the fan.

    With an explicit direction v the verdict is for that direction alone:
    the closure relation of its cells must be acyclic and each distinguished
    quotient cone smooth.  A non-generic supplied v raises.

    Without v the routine searches seeded generic directions and returns the
    first witness report; cellularity is existence of a good direction, so a
    single failing sample proves nothing.  When every candidate fails, the
    last report is returned with the search failure noted.
    """
    if require_complete and not is_complete(f):
        probe = tuple(v) if v is not None else search_generic(f, seed)
        return CellularityReport(False, probe, None, [], [], None,
                                 "fan is not complete")
    if v is None:
        rng = random.Random(seed)
        last = None
        tried = set()
        while len(tried) < attempts:
            cand = search_generic(f, seed=rng.randrange(1 << 30))
            if cand in tried:
                continue
            tried.add(cand)
            rep = check_cellular(f, cand, require_complete=False)
            if rep.verdict:
                return rep
            last = rep
        return CellularityReport(
            False, last.v, last.order, last.taus, last.cell_dims,
            last.quotient_smooth,
            f"no cellular direction among {attempts} sampled; last: {last.failure}")
    v = tuple(v)
    if not is_generic(f, v):
        raise ValueError("supplied vector is not generic")
    m = len(f.max_cones)
    taus = [distinguished_face(f, i, v) for i in range(m)]
    dims = [f.rank - t.dim for t in taus]
    order, cycle = cell_order(f, v)
    if order is None:
        return CellularityReport(False, v, None, taus, dims, None,
                                 f"closure relation has a cycle among cones {cycle}")
    smooth = []
    for i in range(m):
        sq = star_quotient(f, taus[i])
        smooth.append(sq.is_smooth_at(i))
    if not all(smooth):
        bad = [i for i, s in enumerate(smooth) if not s]
        return CellularityReport(False, v, order, taus, dims, smooth,
                                 f"singular cell quotient at cones {bad}")
    return CellularityReport(True, v, order, taus, dims, smooth, None)
