"""The benchmark's view of kfan: every name perfbench wraps or calls exists.

perfbench/tracer.py wraps kfan functions and methods by name, and
perfbench/jobs.py calls kfan through attribute reads.  A rename in src/
would otherwise only show up as a failing benchmark run.
"""

import ast
import importlib
import importlib.util
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
