"""Independent characterizations the library is tested against."""

import itertools
from fractions import Fraction
from typing import Sequence

from kfan.fan import Cone, Fan
from kfan.intlat import solve_rational


def distinguished_face_bruteforce(f: Fan, cone_index: int, v: Sequence) -> Cone:
    """Oracle for cellular.distinguished_face: the inclusion-wise minimal
    face tau of sigma with v in span(tau) + sigma.

    Enumerates every face and solves the membership exactly; asserts the
    minimal face is unique.
    """
    cone = f.max_cones[cone_index]
    n = len(cone.ray_indices)
    # rays are a rational basis, so membership in span(tau) + sigma reduces
    # to the unique expansion having nonnegative coefficients off tau
    coords = solve_rational(f.ray_matrix(cone), [Fraction(x) for x in v])
    hits = []
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            if all(coords[j] >= 0 for j in range(n) if j not in subset):
                hits.append(frozenset(subset))
    minimal = [h for h in hits if not any(o < h for o in hits)]
    assert len(minimal) == 1, "minimal face is not unique"
    return Cone(tuple(cone.ray_indices[j] for j in sorted(minimal[0])))
