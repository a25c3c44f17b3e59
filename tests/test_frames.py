"""Cone frames and their consumers against the dense oracles.

Every maximal cone's scaled dual basis comes from one adjugate pass
(fan.cone_frames); walls, barycentric coordinates, the monomial
presentation's certificate and the smoothness test all read it.  Each is
checked here against an independent dense computation: the HNF kernel of a
face, a Fraction Gauss-Jordan solve, and Smith invariant factors.
"""

import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from kfan import catalog
from kfan.fan import (
    Fan,
    barycentric,
    cone_frames,
    is_smooth_cone,
    lex_positive,
    walls,
)
from kfan.intlat import IntMatrix
from kfan.kring import is_smooth_fan, sr_presentation

from oracles import kernel_basis, leibniz_det, solve_rational


def _bench_jobs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return jobs


BENCH_JOBS = _bench_jobs()


def _polygon(n: int) -> Fan:
    rays = tuple(BENCH_JOBS.polygon_rays(n))
    return Fan(rank=2, rays=rays, max_cones=tuple((i, (i + 1) % n) for i in range(n)),
               name=f"polygon{n}")


def _simplex_fan(rays, name) -> Fan:
    # every rank-sized subset of rank + 1 rays: P3, or a weighted projective space
    return Fan(rank=len(rays[0]), rays=tuple(rays),
               max_cones=tuple(itertools.combinations(range(len(rays)), len(rays) - 1)),
               name=name)


def _p1_cubed() -> Fan:
    rays = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    cones = tuple((a, 2 + b, 4 + c) for a in (0, 1) for b in (0, 1) for c in (0, 1))
    return Fan(rank=3, rays=rays, max_cones=cones, name="P1xP1xP1")


FANS = (
    [catalog.p1(), catalog.p2(), catalog.p1xp1(), catalog.f1(), catalog.p112(),
     catalog.quadrant()]
    + [catalog.hirzebruch(a) for a in range(7)]
    + [_polygon(n) for n in range(4, 13)]
    + [_simplex_fan(((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)), "P3"),
       _p1_cubed(),
       # singular in rank three: P(1,1,2,3), cone multiplicities 1, 1, 2 and 3
       _simplex_fan(((-1, -2, -3), (1, 0, 0), (0, 1, 0), (0, 0, 1)), "P1123")]
)
IDS = [f.name for f in FANS]


def _probes(f: Fan, seed: int) -> list:
    """The rays, their sum, and a few seeded integer vectors."""
    rng = random.Random(seed)
    out = [list(r) for r in f.rays]
    out.append([sum(col) for col in zip(*f.rays)])
    out += [[rng.randint(-9, 9) for _ in range(f.rank)] for _ in range(6)]
    return out


@pytest.mark.parametrize("f", FANS, ids=IDS)
def test_frames_are_scaled_dual_bases(f):
    frames = cone_frames(f)
    assert len(frames) == len(f.max_cones)
    for cone, frame in zip(f.max_cones, frames):
        assert frame.mult == abs(leibniz_det(f.ray_matrix(cone)))
        for i, w in enumerate(frame.duals):
            for j, r in enumerate(cone.ray_indices):
                assert sum(a * b for a, b in zip(w, f.rays[r])) == frame.mult * (i == j)


@pytest.mark.parametrize("f", FANS, ids=IDS)
def test_wall_characters_match_the_face_kernel(f):
    for w in walls(f):
        kb = kernel_basis(IntMatrix([list(f.rays[i]) for i in w.face.ray_indices],
                                    cols=f.rank))
        assert kb.cols == 1
        assert w.character == lex_positive(kb.column(0))


@pytest.mark.parametrize("f", FANS, ids=IDS)
def test_barycentric_matches_the_fraction_solve(f):
    for k, cone in enumerate(f.max_cones):
        for v in _probes(f, seed=k):
            got = barycentric(f, k, v)
            assert got == tuple(solve_rational(f.ray_matrix(cone), v))
            assert all(isinstance(c, Fraction) for c in got)


@pytest.mark.parametrize("f", FANS, ids=IDS)
def test_sr_certificate_matches_the_per_ray_solve(f):
    if not is_smooth_fan(f):
        with pytest.raises(ValueError):
            sr_presentation(f)
        return
    cert = sr_presentation(f).certificate
    assert len(cert) == len(f.max_cones) * len(f.rays)
    for k, sigma in enumerate(f.max_cones):
        a = f.ray_matrix(sigma).transpose()
        for j in range(len(f.rays)):
            if j in sigma.ray_indices:
                target = [int(r == j) for r in sigma.ray_indices]
                want = tuple(int(x) for x in solve_rational(a, target))
            else:
                want = (0,) * f.rank
            assert cert[(k, j)] == want


@pytest.mark.parametrize("f", FANS, ids=IDS)
def test_is_smooth_fan_matches_invariant_factors(f):
    assert is_smooth_fan(f) == all(is_smooth_cone(f, c) for c in f.max_cones)


def test_the_corpus_has_singular_fans():
    assert [f.name for f in FANS if not is_smooth_fan(f)] == ["P112", "P1123"]
