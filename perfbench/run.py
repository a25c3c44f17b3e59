"""kfan benchmark: time to a verdict, and whether the verdict is right.

One workload runs per process, as a closed loop with one client: each job
starts when the previous one has finished.  Every verdict is checked against
the hand-written table in reference.py.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

With `--trace 0` the last line of standard output is the result object with
the end-to-end metrics; with `--trace 1` it carries the per-layer metrics of
a traced run (see tracer.py).  The line before it is an `info` object with
the counts that are not bounded metrics.  `--workload all` runs the three
workloads one after another, each in a fresh interpreter, and prints every
metric by name with its unit.
"""

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as workload_jobs
import reference
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = workload_jobs.WORKLOADS
# set-ups before the timed passes, and after them (end-to-end runs only),
# so that the median spans the run
SETUP_REPS = (5, 4)
# wall limit of each extended job, in reference-speed seconds: above the
# slowest job that finishes (the Kunneth probe, about 1.8 s), and short
# enough that the one job that passes it does not swamp the pass
JOB_LIMIT_S = 3.0

# The speed reference: the calibration loop takes REF_CAL_S on an idle core
# of a 2.1 GHz Xeon; it is timed every SAMPLE_EVERY_S of CPU time.
CAL_ROUNDS = 235
REF_CAL_S = 0.00175
SAMPLE_EVERY_S = 0.1
# samples taken before an interval that count towards its speed
SPEED_WINDOW = 5
# kfan's time moves as the loop's time to this power: fitted on 60 runs of
# the three workloads at 0.45-0.92 of the reference speed (0.5-0.9 per
# metric), it keeps slowdowns of the loop from over-correcting kfan's
SPEED_ELASTICITY = 0.75

# name -> unit, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p95_ms": "ms",
    "decided_share": "ratio",
    "sound_share": "ratio",
    "clean_share": "ratio",
    "peak_rss_mb": "MB",
}


class JobTimeout(BaseException):
    """Raised by the SpeedMeter's sampler when a job passes its wall limit.
    A BaseException, so no `except Exception` inside kfan can swallow it."""


def calibration_loop() -> float:
    """Seconds for a fixed piece of interpreter work.  All its integers stay
    below 257, where CPython keeps cached objects, so it allocates nothing
    and kfan's heap cannot change its speed."""
    x = 0
    t0 = time.perf_counter()
    for _ in range(CAL_ROUNDS):
        for j in range(256):
            x = ((x ^ j) + 1) & 255
    return time.perf_counter() - t0


def speed_scale(samples) -> float:
    """The factor that restates a time measured while the calibration loop
    took these sample times at the reference speed."""
    return (REF_CAL_S / statistics.median(samples)) ** SPEED_ELASTICITY


class SpeedMeter:
    """Restates measured times at the reference speed.

    The CPU speed a process gets on a shared machine drifts by tens of
    percent over seconds to minutes.  SIGPROF times the calibration loop
    every SAMPLE_EVERY_S of CPU time; an interval measured with perf_counter
    is scaled by REF_CAL_S over the median loop time sampled during it and
    in the SPEED_WINDOW samples before it, to the power SPEED_ELASTICITY,
    after taking out the sampler's own time.

    The sampler also enforces a job's wall limit, in reference-speed
    seconds, so a stopped job has done the same work at any speed.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.deadline = None  # (mark, limit_s) while a limited job runs

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append(calibration_loop())
        self.spent += time.perf_counter() - t0
        if self.deadline is not None:
            mark, limit = self.deadline
            if self.since(mark)[1] >= limit:
                self.deadline = None
                raise JobTimeout

    def start(self) -> None:
        for _ in range(30):  # let the interpreter specialize the loop first
            calibration_loop()
        self._sample()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def mark(self) -> tuple:
        return len(self.samples), self.spent, time.perf_counter()

    def since(self, mark) -> tuple:
        """(raw seconds, seconds at the reference speed) since mark."""
        end = time.perf_counter()
        k, spent, start = mark
        raw = end - start - (self.spent - spent)
        return raw, raw * speed_scale(self.samples[max(k - SPEED_WINDOW, 0):])

    def speed(self) -> float:
        """Median speed over the run, relative to the reference."""
        return REF_CAL_S / statistics.median(self.samples)


class Tally:
    """Outcomes of every job run, checked against the reference table."""

    def __init__(self, expected: dict, known_defects: dict):
        self.expected = expected
        self.known = known_defects
        self.counts = {"decided": 0, "wrong": 0, "inconclusive": 0, "error": 0}
        self.latencies = []       # (raw, reference-speed) seconds per job run
        self.job_seconds = {}
        self.stdout = {}
        self.outcome = {}
        self.errors = {}
        self.unexpected = set()

    def record(self, name: str, times: tuple, result, error) -> str:
        expected = self.expected[name]
        if error is None:
            conclusive, observed, stdout = result
            if stdout is not None and self.stdout.setdefault(name, stdout) != stdout:
                error = "stdout differs from an earlier run of the same argv"
            elif "exit" in expected and observed["exit"] not in (expected["exit"], 3):
                error = f"exit code {observed['exit']}, expected {expected['exit']}"
        if error is not None:
            outcome = "error"
            self.errors[name] = error
        elif not conclusive:
            outcome = "inconclusive"
        elif all(observed.get(k) == v for k, v in expected.items()):
            outcome = "decided"
        else:
            outcome = "wrong"
            self.errors[name] = f"observed {observed}"
        if outcome in ("wrong", "error") and name not in self.known:
            self.unexpected.add(name)
        self.counts[outcome] += 1
        self.latencies.append(times)
        self.job_seconds.setdefault(name, []).append(times[1])
        self.outcome[name] = outcome
        return outcome

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    def share(self, outcome: str) -> float:
        return self.counts[outcome] / self.attempted


def run_job(job, limit, caches, tally, meter, tracer=None) -> tuple:
    """Run one job from cold kfan caches, as a fresh process would; return
    its (raw, reference-speed) time."""
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    if tracer is not None:
        tracer.begin_job(job.name)
    result = error = None
    mark = meter.mark()
    try:
        meter.deadline = (mark, limit) if limit else None
        try:
            result = job.call()
        finally:
            meter.deadline = None
    except JobTimeout:
        error = f"passed the {limit} s wall limit"
    except Exception as exc:  # a kfan failure is a measured outcome
        error = f"{type(exc).__name__}: {exc}"
    times = meter.since(mark)
    outcome = tally.record(job.name, times, result, error)
    if tracer is not None:
        tracer.end_job(outcome)
    return times


def run_passes(jobs, budget_s, min_passes, limit, caches, tally, meter,
               tracer=None) -> list:
    """Whole passes over the job list until budget_s has passed; returns
    each pass's summed (raw, reference-speed) job time."""
    walls = []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < budget_s:
        times = [run_job(job, limit, caches, tally, meter, tracer) for job in jobs]
        walls.append(tuple(map(sum, zip(*times))))
    return walls


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, each weighted by the Beta(p(n+1), (1-p)(n+1)) mass of its
    rank cell.  It reads a neighbourhood of ranks instead of one or two
    samples, so on a 20-job pass it moves less from run to run."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 50  # midpoint rule inside each rank cell
    weights = [sum(math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
                   for u in ((i + (j + 0.5) / steps) / n for j in range(steps)))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def span_cost(meter, calls=100_000) -> float:
    """Reference-speed seconds that tracing adds to one call: a traced
    empty function against the bare one, the median of three rounds."""
    def noop():
        pass

    # a span kind that is timed but not kept, as nearly all spans are
    traced = tracing.Tracer().wrap("laurent.add", noop)
    costs = []
    for _ in range(3):
        times = []
        for fn in (traced, noop):
            mark = meter.mark()
            for _ in range(calls):
                fn()
            times.append(meter.since(mark)[1])
        costs.append((times[0] - times[1]) / calls)
    return statistics.median(costs)


def median_of(pairs, i) -> float:
    return statistics.median(p[i] for p in pairs)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "kfan").rglob("*.py")))


def kfan_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "kfan" or n.startswith("kfan.")}


def cached_functions(modules: dict) -> list:
    """kfan's functools caches, emptied before each job."""
    found = {}
    for mod in modules.values():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def measure(args, meter) -> tuple:
    """Set up, run the workload, and return (info, result)."""
    def set_up():
        mark = meter.mark()
        jobs = workload_jobs.build(args.workload, args.seed)
        setup.append(meter.since(mark))
        return jobs

    setup = []
    for _ in range(SETUP_REPS[0]):
        jobs = set_up()
    modules = kfan_modules()
    if not Path(modules["kfan"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"kfan imported from {modules['kfan'].__file__}, not {SRC}")
    caches = cached_functions(modules)
    limit = JOB_LIMIT_S if args.workload == "extended" else None
    tally = Tally(reference.REFERENCE[args.workload], reference.KNOWN_DEFECTS)

    info = {"workload": args.workload, "seed": args.seed, "jobs_per_pass": len(jobs),
            "job_limit_s": limit, "src_lines": src_lines()}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(modules)
        first = len(meter.samples)
        traced = run_passes(jobs, args.seconds, 1, limit, caches, tally, meter, tracer)
        scale = speed_scale(meter.samples[first:])
        metrics = tracer.metrics(len(traced), span_cost(meter), scale)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)
        info.update(traced_pass_wall_s=traced,
                    trace_file=str(trace_file.relative_to(ROOT)),
                    job_max_bits={j["job"]: j["max_bits"] for j in tracer.jobs})
    else:
        walls = run_passes(jobs, args.seconds, 2 if args.workload == "cli-small" else 1,
                           limit, caches, tally, meter)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for _ in range(SETUP_REPS[1]):
            set_up()
        values, raw = {}, {}
        for i, out in enumerate((raw, values)):
            lat_ms = [1000 * t[i] for t in tally.latencies]
            out.update(setup_s=median_of(setup, i), wall_s=median_of(walls, i),
                       job_p50_ms=hd_quantile(lat_ms, 0.5),
                       job_p95_ms=hd_quantile(lat_ms, 0.95))
        values.update(
            decided_share=tally.share("decided"),
            sound_share=1 - tally.share("wrong"),
            clean_share=1 - tally.share("error"),
            peak_rss_mb=peak_rss_mb,
        )
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        info.update(pass_wall_s=walls, job_samples=len(tally.latencies), raw=raw)
    info.update(
        speed=meter.speed(),
        wrong_share=tally.share("wrong"),
        error_share=tally.share("error"),
        inconclusive_share=tally.share("inconclusive"),
        outcomes=dict(sorted(tally.outcome.items())),
        job_ms={n: 1000 * statistics.median(v) for n, v in sorted(tally.job_seconds.items())},
        problems=dict(sorted(tally.errors.items())),
        unexpected=sorted(tally.unexpected),
    )
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.counts["wrong"] + tally.counts["error"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    return info, result


def run_all(args) -> int:
    """Each workload in its own interpreter; print every metric by name."""
    status = 0
    print(f"{'workload':14s} {'metric':34s} {'value':>14s}  unit")
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload:14s} failed with exit code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            print(f"{workload:14s} {name:34s} {m['value']:14.6g}  {m['unit']}")
        for name, value in info.get("raw", {}).items():
            print(f"{workload:14s} {'raw ' + name:34s} {value:14.6g}  (info)")
        for name in ("speed", "wrong_share", "error_share", "inconclusive_share"):
            print(f"{workload:14s} {name:34s} {info[name]:14.6g}  ratio (info)")
        print(f"{workload:14s} {'src_lines':34s} {info['src_lines']:14d}  lines (info)")
        print(f"{workload:14s} correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']} problems={info['problems']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "kfan" / "__init__.py").is_file():
        print(f"perfbench: kfan sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    meter = SpeedMeter()
    meter.start()
    try:
        info, result = measure(args, meter)
    finally:
        meter.stop()
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
