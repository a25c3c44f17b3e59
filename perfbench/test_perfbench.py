"""Self-tests of the benchmark: python3 -m pytest perfbench

The smoke runs take each workload through one pass (about 60 s together).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_run(workload, trace=0, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke():
    return {w: parsed(bench_run(w)) for w in run.WORKLOADS}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_checks_every_job(smoke, workload):
    info, result = smoke[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["unexpected"]
    assert set(info["outcomes"]) == set(reference.REFERENCE[workload])
    assert result["attempted"] >= len(reference.REFERENCE[workload])


def test_reference_agrees_with_kfan_where_the_seed_is_right(smoke):
    # jobs outside KNOWN_DEFECTS decide; the basis along -2,7,4 is inconclusive
    for workload, (info, _) in smoke.items():
        for name, outcome in info["outcomes"].items():
            if name in reference.KNOWN_DEFECTS:
                assert outcome in ("wrong", "error"), (name, outcome)
            elif name != "basis P3 along -2,7,4":
                assert outcome == "decided", (workload, name, info["problems"].get(name))


def test_seed_baseline_shows_the_known_defects(smoke):
    assert smoke["cli-small"][0]["error_share"] > 0
    assert smoke["toric-ladder"][0]["wrong_share"] > 0
    assert smoke["extended"][0]["wrong_share"] > 0
    assert smoke["extended"][0]["error_share"] > 0


def test_metric_names_and_units_match_benchmark_json(smoke):
    end_to_end = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for _, result in smoke.values():
        assert {k: v["unit"] for k, v in result["metrics"].items()} == end_to_end
    _, result = parsed(bench_run("cli-small", trace=1))
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCH["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    extended = next(w for w in BENCH["workloads"] if w["name"] == "extended")
    assert f"after {run.JOB_LIMIT_S:g} s" in extended["why"]


def test_reference_is_written_by_hand():
    source = (HERE / "reference.py").read_text(encoding="utf-8")
    assert "import kfan" not in source and "from kfan" not in source
    assert set(reference.KNOWN_DEFECTS) <= {
        name for table in reference.REFERENCE.values() for name in table}
    # the polygon ranks are their cone counts: check the inputs are smooth
    # complete polygons with n rays
    for n in range(4, 13):
        rays = jobs.polygon_rays(n)
        assert len(set(rays)) == n == reference.TORIC_LADDER[f"rank polygon{n}"]["rank"]
        for (a, b), (c, d) in zip(rays, rays[1:] + rays[:1]):
            assert a * d - b * c == 1  # consecutive rays: a unimodular, convex turn


def test_wall_limit_stops_a_runaway_job():
    def spin():
        while True:
            pass

    tally = run.Tally({"spin": {}}, {})
    meter = run.SpeedMeter()
    meter.start()
    try:
        _, seconds = run.run_job(jobs.Job("spin", spin), 0.2, [], tally, meter)
    finally:
        meter.stop()
    assert tally.outcome["spin"] == "error"
    assert "wall limit" in tally.errors["spin"]
    assert tally.unexpected == {"spin"}
    assert 0.2 <= seconds < 0.5


def test_stdout_mismatch_counts_as_error():
    tally = run.Tally({"job": {"exit": 0}}, {})
    times = (0.1, 0.1)
    assert tally.record("job", times, (True, {"exit": 0}, "a"), None) == "decided"
    assert tally.record("job", times, (True, {"exit": 0}, "b"), None) == "error"


def test_fails_without_the_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench_run("cli-small", cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
