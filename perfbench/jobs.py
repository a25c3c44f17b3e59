"""The fixed job lists of the three workloads.

`build(workload, seed)` imports kfan afresh and returns the workload's jobs;
the `cli-small` corpus comes in a seeded shuffled order.  A job's `call()` returns `(conclusive,
observed, stdout)`: whether kfan claims a verdict, the verdict fields that
`reference.py` lists for the job, and the captured standard output of a
command-line job (None for library calls).
"""

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("cli-small", "toric-ladder", "extended")

A2 = [[2, -1], [-1, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


@dataclass(frozen=True)
class Job:
    name: str
    call: Callable[[], tuple]


def job_seed(seed: int, name: str) -> int:
    """The per-job seed handed to kfan: fixed by the workload seed and the
    job name, so a repeated job gets the same inputs."""
    return random.Random(f"{seed}/{name}").randrange(1 << 16)


def import_kfan():
    """Import kfan from scratch, as a new process would."""
    for mod in [m for m in sys.modules if m == "kfan" or m.startswith("kfan.")]:
        del sys.modules[mod]
    import kfan
    import kfan.cli
    return kfan


def build(workload: str, seed: int) -> list:
    kfan = import_kfan()
    return _BUILDERS[workload](kfan, seed)


# --- cli-small ------------------------------------------------------------------


def _poly(*terms):
    return [{"exp": list(e), "coef": c} for e, c in terms]


_P1_MEMBER = json.dumps([_poly(((1,), 1)), _poly(((0,), 1))])
_P1_NON_MEMBER = json.dumps([[], _poly(((0,), 1))])
_P2_MEMBER = json.dumps([_poly(((0, 0), 1), ((1, 0), -1), ((0, 1), -1), ((1, 1), 1)),
                         [], []])
_P2_NON_MEMBER = json.dumps([_poly(((0, 0), 1), ((1, 0), -1)), [], []])
_INVALID_FAN = '{"rank":2,"rays":[[1,0],[0,1],[1,1]],"max_cones":[[0,1],[0,2]]}'


def cli_corpus() -> dict:
    """Job name -> argv (without the per-job --seed)."""
    corpus = {}
    for fan in ("p1", "p2", "p1xp1", "f1", "p112", "quadrant", "hirzebruch:2"):
        for cmd in ("validate", "complete", "cellular"):
            corpus[f"{cmd} {fan}"] = [cmd, fan]
    for fan in ("p1", "p2", "p1xp1", "f1", "p112", "hirzebruch:2"):
        corpus[f"rank {fan}"] = ["rank", fan]
        corpus[f"basis {fan}"] = ["basis", fan]
    for fan in ("p1", "p2", "p1xp1", "f1", "p112"):
        corpus[f"sr {fan}"] = ["sr", fan]
    corpus.update({
        "gkm-check p1 member": ["gkm-check", "p1", _P1_MEMBER],
        "gkm-check p1 non-member": ["gkm-check", "p1", _P1_NON_MEMBER],
        "gkm-check p2 member": ["gkm-check", "p2", _P2_MEMBER],
        "gkm-check p2 non-member": ["gkm-check", "p2", _P2_NON_MEMBER],
        "plp-check p1 member": ["plp-check", "p1", _P1_MEMBER],
        "plp-check p2 non-member": ["plp-check", "p2", _P2_NON_MEMBER],
        "horo sl2": ["horo", "sl2"],
        "horo sl3": ["horo", "sl3"],
        "bundle p1 over trivial": [
            "bundle", '{"fiber":"p1","base":{"kind":"trivial","char_rank":1}}'],
        "crosscheck 1": ["crosscheck", "--hirzebruch", "1"],
        "complete invalid fan": ["complete", _INVALID_FAN],
        "crosscheck -1": ["crosscheck", "--hirzebruch", "-1"],
        "bundle fiber rank != base char_rank": [
            "bundle", '{"fiber":"p2","base":{"kind":"trivial","char_rank":1}}'],
        "validate unknown builtin": ["validate", "no-such-builtin"],
        "validate broken json": ["validate", '{"rank": 2,'],
    })
    return corpus


# subcommands that take --seed
_SEEDED = {"cellular", "basis", "sr", "bundle", "horo", "crosscheck"}


def _report_fields(report: dict) -> dict:
    """The verdict fields of a report that reference.py checks."""
    cmd, r = report["command"], report["result"]
    if cmd in ("validate", "complete", "cellular", "gkm-check", "plp-check", "rank"):
        key = {"validate": "valid", "complete": "complete", "cellular": "verdict",
               "gkm-check": "member", "plp-check": "member", "rank": "rank"}[cmd]
        return {key: r[key]}
    if cmd == "basis":
        return {"built": r["built"], "elements": len(r.get("elements", [])),
                "all_generated": r.get("generation", {}).get("all_generated")}
    if cmd == "sr":
        return {"generators": r["n_generators"],
                "all_images_zero": r["all_images_zero"],
                "all_hit": r["surjectivity"]["all_hit"]}
    if cmd in ("bundle", "horo"):
        out = {"rank": r["rank"]["rank"],
               "all_images_zero": (r["presentation"] or {}).get("all_images_zero")}
        if cmd == "bundle":
            out["all_hit"] = r["kunneth"]["all_hit"]
        else:
            out["ok"] = r["ok"]
        return out
    if cmd == "crosscheck":
        return {k: r[k] for k in ("ranks_match", "rank_direct", "rank_extended",
                                  "all_agree")}
    raise ValueError(f"no verdict fields for command {cmd!r}")


def _cli_job(cli, name: str, argv: list) -> Job:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)  # looked up per call, so tracing sees it
            except SystemExit as exc:  # argparse rejecting the arguments
                code = exc.code
        text = out.getvalue()
        observed = {"exit": code}
        if code in (0, 3):
            observed.update(_report_fields(json.loads(text)))
        return code != 3, observed, text
    return Job(name, call)


def _cli_small(kfan, seed: int) -> list:
    kfan.cli.build_parser()
    jobs = []
    for name, argv in cli_corpus().items():
        if argv[0] in _SEEDED:
            argv = argv + ["--seed", str(job_seed(seed, name))]
        jobs.append(_cli_job(kfan.cli, name, argv))
    random.Random(seed).shuffle(jobs)
    return jobs


# --- toric-ladder ---------------------------------------------------------------


def polygon_rays(n: int) -> list:
    """Rays of a smooth complete polygon with n >= 4 rays, in cyclic order:
    P1xP1 blown up n - 4 times, each time between a fixed adjacent pair."""
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    step = 0
    while len(rays) < n:
        j = (2 * step) % len(rays)
        k = (j + 1) % len(rays)
        rays.insert(j + 1, (rays[j][0] + rays[k][0], rays[j][1] + rays[k][1]))
        step += 1
    return rays


def _polygon(kfan, n: int):
    rays = polygon_rays(n)
    cones = [(i, (i + 1) % n) for i in range(n)]
    return kfan.Fan(rank=2, rays=tuple(rays), max_cones=tuple(cones), name=f"polygon{n}")


def _p3(kfan):
    rays = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
    return kfan.Fan(rank=3, rays=rays,
                    max_cones=tuple(itertools.combinations(range(4), 3)), name="P3")


def _p1_cubed(kfan):
    rays = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    cones = tuple((a, 2 + b, 4 + c) for a in (0, 1) for b in (0, 1) for c in (0, 1))
    return kfan.Fan(rank=3, rays=rays, max_cones=cones, name="P1xP1xP1")


def _rank_job(kfan, name: str, fan) -> Job:
    def call():
        rep = kfan.ordinary_k_rank(fan)
        return rep.conclusive, {"rank": rep.rank}, None
    return Job(name, call)


def _toric_ladder(kfan, seed: int) -> list:
    jobs = [_rank_job(kfan, f"rank F{a}", kfan.hirzebruch(a)) for a in range(7)]
    jobs += [_rank_job(kfan, f"rank polygon{n}", _polygon(kfan, n)) for n in range(4, 13)]
    p3 = _p3(kfan)
    jobs += [_rank_job(kfan, "rank P3", p3),
             _rank_job(kfan, "rank P1xP1xP1", _p1_cubed(kfan))]

    # Two fixed generic directions: the cell order, and with it the work,
    # depends on the direction, so it is an input here rather than a seed.
    # kfan finds no basis along the second one: it gives up after box radius
    # 3 in about 5 s (after radius 4, its default, in about 20 s).
    for v in ((2, 1, 4), (-2, 7, 4)):
        name = "basis P3 along " + ",".join(map(str, v))
        s = job_seed(seed, name)

        def basis(v=v, s=s):
            try:
                b = kfan.build_filtration_basis(p3, v=v, max_radius=3)
            except ValueError:  # no basis in the box: inconclusive, as `kfan basis` says
                return False, {}, None
            gen = kfan.verify_generation(p3, b, seed=s)
            return True, {"elements": len(b.elements),
                          "all_generated": gen["all_generated"]}, None
        jobs.append(Job(name, basis))

    s_probe = job_seed(seed, "sr-probe P3")

    def sr_probe():
        rep = kfan.sr_surjectivity_probe(p3, seed=s_probe)
        return True, {"all_hit": rep["all_hit"]}, None

    return jobs + [Job("sr-probe P3", sr_probe)]


# --- extended ---------------------------------------------------------------------


def _extended(kfan, seed: int) -> list:
    jobs = []
    for a in range(7):
        fiber, base = kfan.hirzebruch_fiber_base(a)

        def box_rank(fiber=fiber, base=base):
            rep = kfan.extended_box_rank(fiber, base)
            return rep.conclusive, {"rank": rep.rank}, None
        jobs.append(Job(f"box-rank F{a}", box_rank))

    for a in (1, 3):
        s = job_seed(seed, f"crosscheck F{a}")

        def crosscheck(a=a, s=s):
            rep = kfan.hirzebruch_crosscheck(a, seed=s)
            return True, {k: rep[k] for k in ("ranks_match", "rank_direct",
                                              "rank_extended", "all_agree")}, None
        jobs.append(Job(f"crosscheck F{a}", crosscheck))

    # P1 over P1xP1: coefficient characters (base x, base y, fiber t); the
    # fiber character acts by t on every base cone (trivial line data)
    fiber = kfan.p1()
    product_base = kfan.ToricBase(kfan.p1xp1(), coeff_rank=3, line_data=[[(0, 0, 1)] * 4])
    s_kunneth = job_seed(seed, "kunneth P1 over P1xP1")

    def kunneth():
        rep = kfan.kunneth_surjectivity_probe(fiber, product_base, seed=s_kunneth)
        return True, {"all_hit": rep["all_hit"]}, None
    jobs.append(Job("kunneth P1 over P1xP1", kunneth))

    make = kfan.HorosphericalDatum.make
    data = {
        "sl2": kfan.sl2_basic_datum(),
        "sl3": kfan.sl3_datum(),
        "A3{0,2} w2": make(A3, [0, 2], kfan.p1(), [(0, 1, 0)]),
        "A3{1,2} w1": make(A3, [1, 2], kfan.p1(), [(1, 0, 0)]),
        "A3{0,1} w3": make(A3, [0, 1], kfan.p1(), [(0, 0, 1)]),
    }
    for label, datum in data.items():
        def horo(datum=datum):
            rep = kfan.horo_rank(datum)
            return rep.conclusive, {"rank": rep.rank}, None
        jobs.append(Job(f"horo-rank {label}", horo))

    probes = {"A2{}": (A2, []), "A2{0}": (A2, [0]),
              "A3{0,1}": (A3, [0, 1]), "A3{0,2}": (A3, [0, 2])}
    for label, (cartan, ps) in probes.items():
        def flag(cartan=cartan, ps=ps):
            rep = kfan.flag_rank_probe(cartan, ps)
            return rep["conclusive"], {"rank": rep["rank"]}, None
        jobs.append(Job(f"flag-probe {label}", flag))
    return jobs


_BUILDERS = {"cli-small": _cli_small, "toric-ladder": _toric_ladder,
             "extended": _extended}
