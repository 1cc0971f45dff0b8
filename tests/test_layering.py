"""The import-layering lint (``scripts/check_layering.py``)."""

import importlib.util
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "check_layering.py"


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("check_layering", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_source_tree_is_clean(lint):
    assert lint.check() == []


@pytest.mark.parametrize(
    "line",
    [
        "from tests.oracles.scalar_greedy import absorb_scalar",
        "import tests.oracles.argmin_greedy",
        "import oracles",
        "from oracles import scalar_greedy",
    ],
)
def test_production_may_not_import_oracles(lint, tmp_path, line):
    package = tmp_path / "src" / "repro" / "core"
    package.mkdir(parents=True)
    (package / "engine.py").write_text(f"def f():\n    {line}\n")
    (violation,) = lint.check(tmp_path / "src" / "repro")
    assert violation.startswith("src/repro/core/engine.py:2: ")
    assert "oracles" in violation


@pytest.mark.parametrize(
    "line",
    [
        "from multiprocessing import shared_memory",
        "from multiprocessing.shared_memory import SharedMemory",
        "import multiprocessing.shared_memory",
    ],
)
def test_production_may_not_import_shared_memory(lint, tmp_path, line):
    package = tmp_path / "src" / "repro" / "core"
    package.mkdir(parents=True)
    (package / "arena.py").write_text(f"import pickle\n{line}\n")
    (violation,) = lint.check(tmp_path / "src" / "repro")
    assert violation.startswith("src/repro/core/arena.py:2: ")
    assert "multiprocessing.shared_memory" in violation


def test_plain_multiprocessing_import_allowed(lint, tmp_path):
    package = tmp_path / "src" / "repro" / "core"
    package.mkdir(parents=True)
    (package / "pool.py").write_text(
        "import multiprocessing\nfrom multiprocessing import Pool\n"
    )
    assert lint.check(tmp_path / "src" / "repro") == []


@pytest.mark.parametrize(
    "line",
    [
        "from repro.core.partition import OptionalPolicy, _private_helper",
        "from repro.core import _private_helper",
    ],
)
def test_outside_core_may_not_import_private_core_names(lint, tmp_path, line):
    package = tmp_path / "src" / "repro" / "network"
    package.mkdir(parents=True)
    (package / "nodes.py").write_text(f"import numpy\n{line}\n")
    (violation,) = lint.check(tmp_path / "src" / "repro")
    assert violation.startswith("src/repro/network/nodes.py:2: ")
    assert "_private_helper" in violation


def test_core_may_import_its_own_private_names(lint, tmp_path):
    package = tmp_path / "src" / "repro" / "core"
    package.mkdir(parents=True)
    (package / "engine.py").write_text(
        "from repro.core.partition import _partition_page\n"
    )
    assert lint.check(tmp_path / "src" / "repro") == []


def test_function_local_import_cycle_reported(lint, tmp_path):
    package = tmp_path / "src" / "repro" / "core"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from repro.core.engine import run\n")
    (package / "engine.py").write_text(
        "from repro.core.stats import Stats\n\ndef run():\n    return Stats()\n"
    )
    (package / "stats.py").write_text(
        "class Stats:\n    def engine(self):\n        from repro.core import engine\n"
        "        return engine\n"
    )
    (violation,) = lint.check(tmp_path / "src" / "repro")
    assert violation == (
        "src/repro/core/engine.py:1: import cycle "
        "repro.core.engine -> repro.core.stats -> repro.core.engine"
    )


def test_package_reexports_are_not_cycles(lint, tmp_path):
    package = tmp_path / "src" / "repro" / "obs"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from repro.obs.registry import get\n")
    (package / "registry.py").write_text("from repro import obs\n\ndef get():\n    pass\n")
    assert lint.check(tmp_path / "src" / "repro") == []
