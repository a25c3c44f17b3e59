"""Span recorder for the traced run (`--trace 1`).

The recorder wraps kfan's public functions from the benchmark's side; no
code under src/ changes.  A function is replaced in every kfan namespace
that binds it (modules import each other's names with `from .x import y`),
and a method on its class under every attribute that aliases it
(`__radd__ = __add__`).

Each call is a span: name, start, end, parent span and the job it belongs
to.  Self time is the span's duration minus the time its child spans cover.
Spans stay in memory and are written out when the run ends.  The spans in
HOT occur hundreds of thousands of times per pass, so they are timed like
the others, and count towards their parents' child time, but only their
per-job totals are written out.
"""

import functools
import json
import time
from collections import defaultdict

# span name -> (module, function) pairs, by the kfan module that defines them
FUNCTIONS = {
    "intlat.kernel": [("intlat", "sparse_kernel_basis")],
    "intlat.hnf": [("intlat", "hermite_normal_form"), ("intlat", "smith_normal_form")],
    "laurent.divides": [("laurent", "divides")],
    "laurent.exact_divide": [("laurent", "exact_divide")],
    "baserings.flag_probe": [("baserings", "flag_rank_probe")],
    "kring.member_space": [("kring", "member_space")],
    "kring.rank": [("kring", "ordinary_k_rank")],
    "kring.basis": [("kring", "build_filtration_basis")],
    "kring.verify": [("kring", "verify_generation")],
    "kring.sr_probe": [("kring", "sr_surjectivity_probe")],
    "kring.gkm_check": [("kring", "gkm_check")],
    "kring.plp_check": [("kring", "plp_check")],
    "bundle.member_space": [("bundle", "extended_member_space")],
    "bundle.box_rank": [("bundle", "extended_box_rank")],
    "bundle.kunneth": [("bundle", "kunneth_surjectivity_probe")],
    "bundle.crosscheck": [("bundle", "hirzebruch_crosscheck")],
    "bundle.check": [("bundle", "extended_check")],
    "horo.validate": [("horo", "validate_horo")],
    "horo.rank": [("horo", "horo_rank")],
    "cellular.check": [("cellular", "check_cellular")],
    "fan.walls": [("fan", "walls")],
    "fan.validate": [("fan", "validate_fan")],
    "fan.is_complete": [("fan", "is_complete")],
    "cli.run": [("cli", "run")],
    "cli.load": [("cli", "load_fan")],
}

# CharRemap is left out: it forwards each of these to a wrapped ring, and
# wrapping it too would count every call twice.
_RINGS = ("PointBase", "TrivialBase", "ToricBase", "FlagBase")

# span name -> (module, class, method) triples
METHODS = {
    "intlat.insert": [("intlat", "RowLattice", "insert")],
    "intlat.contains": [("intlat", "RowLattice", "contains")],
    "laurent.mul": [("laurent", "LaurentPoly", "__mul__")],
    "laurent.add": [("laurent", "LaurentPoly", "__add__")],
}
METHODS["intlat.hnf"] = [("intlat", "IntSolver", "solve")]
for _m in ("coeff_vector", "box_basis", "congruent", "line_class"):
    METHODS[f"baserings.{_m}"] = [("baserings", c, _m) for c in _RINGS]

HOT = {"intlat.insert", "intlat.contains", "laurent.mul", "laurent.add",
       "laurent.divides", "laurent.exact_divide", "baserings.coeff_vector",
       "baserings.congruent", "baserings.line_class"}

# calls whose arguments repeat an earlier call of the same job
REPEATS = ("kring.member_space", "baserings.box_basis", "cellular.check", "fan.walls")

# The per-layer metrics, in BENCHMARK.json order: name -> unit.
PER_LAYER = {}
for _n in ("intlat.insert", "intlat.kernel", "intlat.contains"):
    PER_LAYER[f"{_n}.calls"] = "count"
    PER_LAYER[f"{_n}.self_s"] = "s"
PER_LAYER.update({
    "intlat.kernel.cols": "count",
    "intlat.hnf.self_s": "s",
    "intlat.insert.rank_gain_ratio": "ratio",
    "intlat.echelon.fill": "ratio",
    "intlat.echelon.max_bits": "bits",
})
for _n in ("laurent.mul", "laurent.add", "laurent.divides", "laurent.exact_divide",
           "baserings.coeff_vector", "baserings.box_basis", "baserings.congruent",
           "baserings.line_class"):
    PER_LAYER[f"{_n}.calls"] = "count"
    PER_LAYER[f"{_n}.self_s"] = "s"
PER_LAYER.update({
    "baserings.box_basis.repeat_ratio": "ratio",
    "baserings.flag_probe.self_s": "s",
    "kring.member_space.calls": "count",
    "kring.member_space.self_s": "s",
    "kring.member_space.dim": "count",
    "kring.member_space.repeat_ratio": "ratio",
})
for _n in ("rank", "basis", "verify", "sr_probe", "gkm_check", "plp_check"):
    PER_LAYER[f"kring.{_n}.self_s"] = "s"
PER_LAYER.update({
    "bundle.member_space.calls": "count",
    "bundle.member_space.self_s": "s",
    "bundle.member_space.dim": "count",
})
for _n in ("box_rank", "kunneth", "crosscheck", "check"):
    PER_LAYER[f"bundle.{_n}.self_s"] = "s"
PER_LAYER.update({
    "horo.validate.calls": "count",
    "horo.validate.self_s": "s",
    "horo.rank.self_s": "s",
    "cellular.check.calls": "count",
    "cellular.check.self_s": "s",
    "cellular.check.repeat_ratio": "ratio",
    "fan.walls.calls": "count",
    "fan.walls.self_s": "s",
    "fan.walls.repeat_ratio": "ratio",
    "fan.validate.self_s": "s",
    "fan.is_complete.self_s": "s",
    "cli.run.self_s": "s",
    "cli.load.self_s": "s",
    "trace.overhead_s": "s",
})


def _frozen(x):
    """A hashable stand-in for a call argument: lists become tuples, and an
    unhashable object stands for itself by identity."""
    if isinstance(x, (list, tuple)):
        return tuple(_frozen(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _frozen(v)) for k, v in x.items()))
    try:
        hash(x)
    except TypeError:
        return ("id", id(x))
    return x


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.stack = []           # open frames: [span id, parent id, start, child time]
        self.spans = []           # kept spans: (name, job, id, parent, start, end)
        self.totals = defaultdict(lambda: [0, 0.0])   # name -> [calls, self_s]
        self.counts = defaultdict(int)                 # counters kept by the hooks
        self.seen = defaultdict(set)                   # name -> argument keys, per job
        self.lattices = {}                             # RowLattices touched by the job
        self.jobs = []                                 # per-job summaries
        self.max_bits = 0
        self.nnz = 0
        self.cells = 0
        self.next_id = 0
        self.job = None
        self._before = {}                              # totals when the job began

    # --- wrapping -------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        clock = time.perf_counter
        stack = self.stack
        totals = self.totals[name]
        keep = None if name in HOT else self.spans
        t0 = self.t0
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer.next_id += 1
            frame = [tracer.next_id, stack[-1][0] if stack else 0, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                totals[0] += 1
                totals[1] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                if keep is not None:
                    keep.append((name, tracer.job, frame[0], frame[1],
                                 frame[2] - t0, end - t0))
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def _hooks(self, name):
        """(before, after) hooks that keep the counters of a span."""
        counts, lattices, seen = self.counts, self.lattices, self.seen[name]
        before = after = None
        if name in ("intlat.insert", "intlat.contains"):
            def before(args, kwargs):
                lattices[id(args[0])] = args[0]
        elif name == "intlat.kernel":
            def before(args, kwargs):
                counts["intlat.kernel.cols"] += args[0] if args else kwargs["n_cols"]
        if name == "intlat.insert":
            def after(args, kwargs, result):
                if result:
                    counts["intlat.insert.gains"] += 1
        elif name in REPEATS or name.endswith(".member_space"):
            def after(args, kwargs, result):
                if name in REPEATS:
                    key = _frozen((args, kwargs))
                    if key in seen:
                        counts[name + ".repeats"] += 1
                    else:
                        seen.add(key)
                if name.endswith(".member_space"):
                    counts[name + ".dim"] = max(counts[name + ".dim"], result.dim)
        return before, after

    def install(self, modules: dict) -> None:
        """Wrap every listed function and method in the kfan modules given
        as {dotted name: module}."""
        for name, targets in FUNCTIONS.items():
            before, after = self._hooks(name)
            for mod, attr in targets:
                original = getattr(modules[f"kfan.{mod}"], attr)
                traced = self.wrap(name, original, before, after)
                for m in modules.values():
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, traced)
        for name, targets in METHODS.items():
            before, after = self._hooks(name)
            for mod, cls_name, meth in targets:
                cls = getattr(modules[f"kfan.{mod}"], cls_name)
                if meth not in vars(cls):
                    continue
                original = vars(cls)[meth]
                traced = self.wrap(name, original, before, after)
                for key, value in list(vars(cls).items()):
                    if value is original:
                        setattr(cls, key, traced)

    # --- jobs ---------------------------------------------------------------------

    def begin_job(self, job: str) -> None:
        self.job = job
        for s in self.seen.values():
            s.clear()
        self.lattices.clear()
        self._before = {k: tuple(v) for k, v in self.totals.items()}
        self.stack.clear()
        self.next_id += 1
        self.stack.append([self.next_id, 0, time.perf_counter(), 0.0])

    def end_job(self, outcome: str) -> None:
        """Close the job's root span, then scan the lattices the job touched
        (also after a timeout) for size, fill and coefficient bits."""
        end = time.perf_counter()
        root = self.stack[0]
        self.stack.clear()
        self.spans.append(("job", self.job, root[0], 0, root[2] - self.t0, end - self.t0))
        max_bits = nnz = cells = 0
        for lat in self.lattices.values():
            cols = set()
            for row in lat.pivots.values():
                nnz += len(row)
                cols.update(row)
                if row:
                    max_bits = max(max_bits, max(map(abs, row.values())).bit_length())
            cells += len(lat.pivots) * len(cols)
        self.lattices.clear()
        self.max_bits = max(self.max_bits, max_bits)
        self.nnz += nnz
        self.cells += cells
        self_s = {k: v[1] - self._before.get(k, (0, 0.0))[1]
                  for k, v in self.totals.items()}
        self.jobs.append({
            "job": self.job, "outcome": outcome, "seconds": end - root[2],
            "max_bits": max_bits, "fill": nnz / cells if cells else 0.0,
            "self_s": {k: v for k, v in sorted(self_s.items()) if v > 0},
        })
        self.job = None

    # --- results ------------------------------------------------------------------

    def metrics(self, passes: int, span_cost_s: float, scale: float) -> dict:
        """The per-layer metrics, per traced pass: name -> (value, unit).
        Self times are multiplied by scale, the factor that restates them at
        the reference speed (see run.SpeedMeter).  trace.overhead_s is the
        number of spans times span_cost_s, the reference-speed cost of one."""
        out = {}
        counts = self.counts
        for name, unit in PER_LAYER.items():
            layer, _, kind = name.rpartition(".")
            calls, self_s = self.totals.get(layer, (0, 0.0))
            if kind == "calls":
                value = calls / passes
            elif kind == "self_s":
                value = self_s * scale / passes
            elif kind == "repeat_ratio":
                value = counts[layer + ".repeats"] / calls if calls else 0.0
            elif kind == "dim":
                value = counts[layer + ".dim"]
            elif name == "intlat.kernel.cols":
                value = counts[name] / passes
            elif name == "intlat.insert.rank_gain_ratio":
                value = counts["intlat.insert.gains"] / calls if calls else 0.0
            elif name == "intlat.echelon.fill":
                value = self.nnz / self.cells if self.cells else 0.0
            elif name == "intlat.echelon.max_bits":
                value = self.max_bits
            elif name == "trace.overhead_s":
                value = span_cost_s * sum(c for c, _ in self.totals.values()) / passes
            else:
                raise KeyError(name)
            out[name] = (value, unit)
        return out

    def write(self, path) -> None:
        """Write the kept spans and the per-job summaries as JSON."""
        doc = {
            "span_fields": ["name", "job", "id", "parent", "start_s", "end_s"],
            "aggregated_spans": sorted(HOT),
            "spans": self.spans,
            "jobs": self.jobs,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
