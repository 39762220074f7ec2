"""Documentation gates (tier-1).

Two kinds of honesty checks:

* **Docstring presence** for the modules whose public surface carries
  caching or scheduling contracts: `sim/bundle.py`,
  `arch/batch_replay.py`, and the whole `experiments/` package (store
  keys, chunked-pool semantics, figure drivers, plotting helpers) —
  every public class, function, method and property must have a
  docstring, so cache keys, invalidation rules and pool contracts stay
  documented next to the code.
* **docs/ integrity** via :func:`run_tiers.check_docs`: every module
  path named in ``docs/architecture.md`` / ``docs/experiments.md`` /
  ``docs/scaling.md`` exists and every internal link in ``docs/*.md``
  resolves.  The same phase runs ``examples/*.py`` through
  :func:`run_tiers.check_examples`; here only its failure reporting is
  checked, on a throwaway script.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro.arch.batch_replay
import repro.experiments
import repro.experiments.store
import repro.sim.bundle

REPO = Path(__file__).resolve().parent.parent

#: Every module in the experiments package (drivers, sweep scheduler,
#: store, plotting, golden collection) is docstring-gated.
EXPERIMENT_MODULES = [
    importlib.import_module(f"repro.experiments.{info.name}")
    for info in pkgutil.iter_modules(repro.experiments.__path__)
]

DOCUMENTED_MODULES = [
    repro.sim.bundle,
    repro.arch.batch_replay,
] + EXPERIMENT_MODULES


def _public_objects(module):
    """(qualname, object) for the module's public classes/functions."""
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are documented where they live
        yield f"{module.__name__}.{name}", obj
        if inspect.isclass(obj):
            for mname, member in vars(obj).items():
                if mname.startswith("_"):
                    continue
                if isinstance(member, property):
                    yield f"{module.__name__}.{name}.{mname}", member.fget
                elif inspect.isfunction(member):
                    yield f"{module.__name__}.{name}.{mname}", member


@pytest.mark.parametrize(
    "module", DOCUMENTED_MODULES, ids=lambda m: m.__name__
)
def test_module_docstring_present(module):
    assert module.__doc__ and module.__doc__.strip()


@pytest.mark.parametrize(
    "module", DOCUMENTED_MODULES, ids=lambda m: m.__name__
)
def test_public_api_docstrings_present(module):
    missing = [
        qualname
        for qualname, obj in _public_objects(module)
        if not (getattr(obj, "__doc__", None) or "").strip()
    ]
    assert not missing, f"undocumented public API: {missing}"


def test_cache_contract_docstrings_mention_keys():
    """The caching entry points must actually describe their keys."""
    assert "trace_scale" in repro.sim.bundle.interaction_bundle.__doc__
    assert "key" in repro.experiments.store.ResultStore.__doc__.lower() or (
        "key" in repro.experiments.store.__doc__.lower()
    )


def _load_run_tiers():
    spec = importlib.util.spec_from_file_location(
        "run_tiers", REPO / "tools" / "run_tiers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_links_and_module_map_resolve():
    run_tiers = _load_run_tiers()
    assert run_tiers.check_docs() == []


def test_docs_check_catches_missing_path(tmp_path):
    """The checker is not vacuous: a bogus path/link must fail."""
    run_tiers = _load_run_tiers()
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "architecture.md").write_text(
        "see `src/repro/does_not_exist.py` and [x](missing.md)\n",
        encoding="utf-8",
    )
    failures = run_tiers.check_docs(tmp_path)
    assert len(failures) == 2


def test_examples_check_catches_failing_script(tmp_path):
    """A script exiting non-zero is named with its last stderr line."""
    run_tiers = _load_run_tiers()
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "fine.py").write_text("print('ok')\n", encoding="utf-8")
    (examples / "broken.py").write_text(
        "import sys\nsys.exit('broken on purpose')\n", encoding="utf-8"
    )
    assert run_tiers.check_examples(tmp_path) == [
        "examples/broken.py exited 1: broken on purpose"
    ]
