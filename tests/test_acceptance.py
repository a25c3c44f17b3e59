"""End-to-end acceptance gate.

Each test exercises one headline guarantee of the library at desk scale and
prints a single PASS line; a failure shows up as the usual pytest report for
that criterion.  Run with -s (or read captured output) to see the lines.
"""

import json
import random
import subprocess
import sys
import time

from kfan.baserings import PointBase, TrivialBase
from kfan.bundle import (
    ExtendedElement,
    bundle_presentation,
    extended_check,
    extended_relation_image,
    hirzebruch_crosscheck,
    hirzebruch_fiber_base,
    kunneth_realize,
)
from kfan.catalog import f1, p1, p1xp1, p112, p2
from kfan.cellular import check_cellular
from kfan.horo import (
    horo_rank,
    k_horospherical,
    sl2_basic_datum,
    sl3_datum,
    validate_horo,
)
from kfan.kring import (
    GkmElement,
    build_filtration_basis,
    gkm_check,
    member_space,
    ordinary_k_rank,
    plp_check,
    sample_members,
    sr_surjectivity_probe,
    verify_generation,
)
from kfan.laurent import LaurentPoly

from oracles import distinguished_face_bruteforce

FANS = [(p1(), [1, 0], 2), (p2(), [2, 1, 0], 3), (p1xp1(), [2, 1, 1, 0], 4),
        (f1(), [2, 1, 1, 0], 4), (p112(), [2, 1, 0], 3)]


def _passed(n: int, message: str) -> None:
    print(f"PASS criterion {n}: {message}")


def _bumped(fan, t, rng):
    """Add a nonzero constant to one component: breaks that cone's walls."""
    comps = list(t.components)
    i = rng.randrange(len(comps))
    comps[i] = comps[i] + LaurentPoly.constant(fan.rank, rng.choice([1, -1, 2]))
    return GkmElement(fan, comps)


def test_criterion_1_cellularity():
    for fan, dims, _ in FANS:
        t0 = time.perf_counter()
        v = (2, 1) if fan.name == "P112" else None
        rep = check_cellular(fan, v=v)
        elapsed = time.perf_counter() - t0
        assert rep.verdict, fan.name
        assert sorted(rep.cell_dims, reverse=True) == dims, fan.name
        for cone_index in range(len(fan.max_cones)):
            oracle = distinguished_face_bruteforce(fan, cone_index, rep.v)
            assert rep.taus[cone_index] == oracle, (fan.name, cone_index)
        assert elapsed < 1.0, (fan.name, elapsed)
    _passed(1, "cellularity verdicts, cell dimensions, and distinguished "
               "faces match the brute-force oracle on all five fans")


def test_criterion_2_gkm_plp_equivalence():
    for fan, _, _ in FANS:
        space = member_space(fan, 1)
        rng = random.Random(21)
        members = sample_members(space, 50, seed=2)
        candidates = [(t, True) for t in members]
        candidates += [(_bumped(fan, t, rng), False)
                       for t in sample_members(space, 50, seed=3)]
        for t, expected in candidates:
            g = gkm_check(t)[0]
            p = plp_check(t)[0]
            assert g == p, fan.name
            assert g == expected, fan.name
    _passed(2, "wall congruences and piecewise compatibility agree on "
               "100 tuples per fan (50 members, 50 perturbed)")


def test_criterion_3_rank_equals_cells():
    for fan, _, expected in FANS:
        t0 = time.perf_counter()
        rep = ordinary_k_rank(fan)
        assert rep.conclusive and rep.rank == expected, fan.name
        v = (2, 1) if fan.name == "P112" else None
        basis = build_filtration_basis(fan, v=v)
        # conclusive by certificate: the rank counts a certified basis
        assert len(basis.elements) == len(fan.max_cones) == rep.rank
        gen = verify_generation(fan, basis, samples=25, seed=5)
        assert gen["all_generated"], fan.name
        assert time.perf_counter() - t0 < 60, fan.name
    _passed(3, "certified ranks equal the cell counts 2,3,4,4,3 and the "
               "filtration bases generate 25/25 samples per fan")


def test_criterion_4_monomial_presentation():
    for fan in (p2(), p1xp1(), f1()):
        base = TrivialBase(fan.rank)
        _, cert, rels = bundle_presentation(fan, base)
        for rel in rels:
            img = extended_relation_image(fan, base, cert, rel)
            assert all(c.is_zero() for c in img.comps), fan.name
        probe = sr_surjectivity_probe(fan, max_degree=3, samples=25, seed=4)
        assert probe["all_hit"], (fan.name, probe)
    _passed(4, "monomial presentation relations map to zero and degree-3 "
               "monomials hit 25/25 box members on the three smooth surfaces")


def test_criterion_5_hirzebruch_crosscheck():
    for a in (0, 1, 2):
        rep = hirzebruch_crosscheck(a, samples=100, seed=6)
        assert rep["all_agree"], rep
        assert rep["orientation_agree"] and rep["realized_members_pass"], rep
        assert rep["ranks_match"] and rep["rank_direct"] == 4, rep
    _passed(5, "direct and fibered descriptions agree on 100 tuples and "
               "both rank estimates are 4 for the three Hirzebruch surfaces")


def test_criterion_6_specialization_coherence():
    realized = 0
    for fan, _, _ in FANS:
        base = TrivialBase(fan.rank)
        space = member_space(fan, 1)
        rng = random.Random(61)
        pool = sample_members(space, 25, seed=7)
        pool += [_bumped(fan, t, rng) for t in sample_members(space, 25, seed=8)]
        for t in pool:
            e = ExtendedElement(fan, base, t.components)
            assert extended_check(e)[0] == gkm_check(t)[0], fan.name
        point = PointBase(fan.rank)
        m = len(fan.max_cones)
        for trial in range(10):
            comps = tuple(rng.randint(-3, 3) for _ in range(m))
            e = ExtendedElement(fan, point, comps)
            assert extended_check(e)[0] == (len(set(comps)) == 1), fan.name
    fiber, tor_base = hirzebruch_fiber_base(1)
    configs = [(fan, TrivialBase(fan.rank)) for fan, _, _ in FANS]
    configs.append((fiber, tor_base))
    rng = random.Random(62)
    for fan, base in configs:
        fib_space = member_space(fan, 1)
        box = base.box_basis(1)
        for t in sample_members(fib_space, 34, seed=9):
            b = box[rng.randrange(len(box))]
            e = kunneth_realize(fan, base, b, t)
            assert extended_check(e)[0], fan.name
            realized += 1
    assert realized >= 200
    _passed(6, "the extended check reproduces wall congruences over the "
               "trivial base, equality over the point base, and accepts "
               f"{realized} realized tensors")


def test_criterion_7_horospherical_demo():
    t0 = time.perf_counter()
    d2 = sl2_basic_datum()
    fan2, base2 = k_horospherical(d2)
    one = LaurentPoly.one(1)
    assert extended_check(ExtendedElement(fan2, base2, (one, LaurentPoly.monomial((1,)))))[0]
    assert not extended_check(ExtendedElement(fan2, base2, (one, LaurentPoly.constant(1, 2))))[0]
    rank = horo_rank(d2)
    assert rank.conclusive and rank.rank == 4
    for datum, want_rank in ((d2, 4), (sl3_datum(), 6)):
        assert validate_horo(datum)["ok"]
        fan, base = k_horospherical(datum)
        gens, cert, rels = bundle_presentation(fan, base)
        kinds = sorted(rel["kind"] for rel in rels)
        assert kinds == ["character", "nonface"]
        for rel in rels:
            assert extended_relation_image(fan, base, cert, rel).is_zero()
        rep = horo_rank(datum)
        assert rep.conclusive and rep.rank == want_rank
    assert time.perf_counter() - t0 < 60
    _passed(7, "rank-one horospherical embeddings: memberships, box ranks "
               "4 and 6, and verified presentations for both demos")


def test_criterion_8_cli_determinism(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"fiber": "p1", "base": {"kind": "trivial", "char_rank": 1}}))
    tup = '[[], [{"exp": [0], "coef": 1}]]'
    commands = [
        ["validate", "p112"],
        ["complete", "p1xp1"],
        ["cellular", "p112", "--v", "2,1"],
        ["gkm-check", "p1", tup],
        ["plp-check", "p1", tup],
        ["basis", "p2", "--seed", "3"],
        ["rank", "p1xp1"],
        ["sr", "f1", "--seed", "7", "--samples", "10"],
        ["bundle", str(spec), "--box", "2", "--samples", "5"],
        ["horo", "sl2"],
        ["crosscheck", "--hirzebruch", "1", "--samples", "20", "--seed", "5"],
    ]
    for argv in commands:
        outs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "kfan.cli"] + argv,
                                  capture_output=True, timeout=300)
            assert proc.returncode == 0, (argv, proc.stderr.decode())
            outs.append(proc.stdout)
        assert outs[0] == outs[1], argv
    _passed(8, "all eleven subcommands emit byte-identical reports across "
               "independent runs with fixed seeds")
