"""Retired names stay retired.

Search tuning is a ``SearchConfig`` passed as ``config=``; the legacy
tuning keywords and positional arguments are ``TypeError``s.  The
``*_wire`` aliases of the parallel wire forms, the
``repro.parallel.faults`` re-export module, ``compile_loopnest``,
``compile_nest`` and the CLI's re-exports of :mod:`repro.core.spec` are
gone.  These tests pin each removal.
"""

from __future__ import annotations

import importlib
import warnings

import pytest

from repro.api import SearchConfig, analyze, parse_nest, search
from repro.optimize.search import parallelism_score

STENCIL = """
do i = 2, n-1
  do j = 2, n-1
    a(i, j) = a(i-1, j) + a(i, j-1)
  enddo
enddo
"""


@pytest.fixture
def nest_deps():
    nest = parse_nest(STENCIL)
    return nest, analyze(nest)


def test_keyword_search_is_a_type_error(nest_deps):
    nest, deps = nest_deps
    with pytest.raises(TypeError, match="unexpected keyword"):
        search(nest, deps, depth=1)
    with pytest.raises(TypeError, match="unexpected keyword"):
        search(nest, deps, score=parallelism_score, depth=1, beam=4)


def test_config_search_does_not_warn(nest_deps):
    nest, deps = nest_deps
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        search(nest, deps, config=SearchConfig(depth=1, beam=4))
        search(nest, deps)  # all-defaults call is clean too


def test_positional_tuning_is_now_a_type_error(nest_deps):
    nest, deps = nest_deps
    with pytest.raises(TypeError, match="SearchConfig"):
        search(nest, deps, None, parallelism_score)
    with pytest.raises(TypeError):
        search(nest, deps, None, parallelism_score, 1, 4)


def test_config_plus_legacy_keywords_is_a_type_error(nest_deps):
    nest, deps = nest_deps
    with pytest.raises(TypeError, match="unexpected keyword"):
        search(nest, deps, config=SearchConfig(depth=1), beam=4)


def test_unknown_keyword_is_a_type_error(nest_deps):
    nest, deps = nest_deps
    with pytest.raises(TypeError, match="unexpected keyword"):
        search(nest, deps, depht=1)


@pytest.mark.parametrize("old", [
    "step_to_wire", "step_from_wire", "candidate_to_wire",
    "candidate_from_wire",
])
def test_old_wire_names_are_gone(old):
    import repro.parallel as parallel
    from repro.parallel import worker

    with pytest.raises(AttributeError):
        getattr(parallel, old)
    with pytest.raises(AttributeError):
        getattr(worker, old)


def test_spec_wire_functions_roundtrip():
    from repro.api import ReversePermute
    from repro.parallel import worker

    step = ReversePermute(2, [False, False], [2, 1])
    back = worker.step_from_spec(worker.step_to_spec(step))
    assert back.signature() == step.signature()


def test_parallel_faults_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.parallel.faults")


@pytest.mark.parametrize("module,name", [
    ("repro.runtime", "compile_loopnest"),
    ("repro.runtime.compiled", "compile_loopnest"),
    ("repro.ir.emit", "compile_nest"),
    ("repro.cli", "SpecError"),
    ("repro.cli", "build_step"),
])
def test_removed_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)
