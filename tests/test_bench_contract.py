"""The benchmark's view of kfan: every name perfbench wraps or calls exists.

perfbench/tracer.py wraps kfan functions and methods by name, and
perfbench/jobs.py calls kfan through attribute reads.  A rename in src/
would otherwise only show up as a failing benchmark run.  Short runs of
perfbench/run.py itself check that nothing escapes its per-job handler.
"""

import argparse
import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import kfan
import kfan.cli  # noqa: F401  (jobs.py reads kfan.cli)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("span", sorted(TRACER.FUNCTIONS))
def test_traced_functions_exist(span):
    for mod, attr in TRACER.FUNCTIONS[span]:
        module = importlib.import_module(f"kfan.{mod}")
        assert callable(getattr(module, attr, None)), f"kfan.{mod}.{attr}"


@pytest.mark.parametrize("span", sorted(TRACER.METHODS))
def test_traced_methods_exist(span):
    # the tracer wraps a method where its class defines it, so each span
    # needs at least one class that does
    defined = []
    for mod, cls_name, meth in TRACER.METHODS[span]:
        cls = getattr(importlib.import_module(f"kfan.{mod}"), cls_name, None)
        assert isinstance(cls, type), f"kfan.{mod}.{cls_name}"
        assert callable(getattr(cls, meth, None)), f"kfan.{mod}.{cls_name}.{meth}"
        defined.append(meth in vars(cls))
    assert any(defined), span


def _kfan_chains(tree):
    """Dotted attribute chains read off the name `kfan`, e.g. ("cli", "run")."""
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == "kfan":
            yield tuple(reversed(chain))


def test_job_reads_exist():
    tree = ast.parse((PERFBENCH / "jobs.py").read_text(encoding="utf-8"))
    chains = set(_kfan_chains(tree))
    assert ("ordinary_k_rank",) in chains
    for chain in sorted(chains):
        obj = kfan
        for attr in chain:
            assert hasattr(obj, attr), "kfan." + ".".join(chain)
            obj = getattr(obj, attr)


def test_build_parser_is_an_argument_parser():
    # jobs.build calls it with no arguments while setting up cli-small
    assert isinstance(kfan.cli.build_parser(), argparse.ArgumentParser)


def test_benchmark_clears_the_cone_frames_cache(monkeypatch):
    # run.py imports its siblings by bare name; the monkeypatch drops them
    # from sys.modules again afterwards
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("jobs", "reference", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    modules = run.kfan_modules()
    caches = run.cached_functions(modules)
    assert modules["kfan.fan"].cone_frames in caches
    assert modules["kfan.fan"].walls in caches


@pytest.mark.parametrize("workload,seed", [("cli-small", 1), ("cli-small", 2),
                                           ("cli-small", 3), ("toric-ladder", 1)])
def test_benchmark_smoke_run(workload, seed):
    # one pass of each job (two for cli-small), in a fresh interpreter
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0"],
        capture_output=True, text=True, cwd=PERFBENCH.parent, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout.strip().splitlines()[-2][-4000:]
    assert result["failed"] == 0
