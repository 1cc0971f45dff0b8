#!/usr/bin/env python
"""Import-layering lint: keep the dependency DAG of ``src/repro`` acyclic.

The package is layered (ROADMAP/DESIGN): ``util`` and ``obs`` at the
bottom, ``core`` above them, and the orchestration layers
(``simulation``, ``baselines``, ``dynamic``, ``experiments``,
``analysis``) on top.  Two rules keep the shared-state work of the
EvalContext refactor honest:

* ``repro.core`` must never import the layers above it —
  ``experiments``, ``simulation``, ``baselines``, ``dynamic``,
  ``analysis`` — so the kernels and the evaluation context stay usable
  from any orchestrator (and from the executor's worker processes)
  without dragging the experiment stack in;
* ``repro.obs`` imports nothing above ``util`` — observability must be
  embeddable everywhere, so it can depend on nothing that depends on it.

A third rule spans every layer: no module under ``src/repro`` imports
the ``tests`` package or anything named ``oracles``.  Each greedy phase
has one production engine; the scalar reference loops it is checked
against live in ``tests/oracles/`` and must not leak back into it.
A fourth does too: no module imports ``multiprocessing.shared_memory``.
The sharded kernel's tasks carry their own pickled submodels, so
nothing needs a segment that a crashed run could leak into
``/dev/shm``.  A fifth keeps ``repro.core``'s private names private: no
module outside ``src/repro/core/`` imports an underscore-prefixed name
from ``repro.core.*``, so an orchestrator cannot come to depend on a
helper the engines may reshape or drop.  A sixth forbids import
cycles among the modules of ``src/repro``: each module's decision rule
lives in one place, so no module needs a module that needs it back.
Function-local imports count; ``from repro import obs`` counts as an
import of ``repro.obs``; a package ``__init__``'s re-exports do not.

On top of the layer rules, ``MODULE_FORBIDDEN`` pins *module-specific*
contracts with their rationale: ``core/shard.py`` fans work out to
processes but must receive its pool **by injection** (the ``ShardPool``
protocol) — importing ``repro.experiments`` (e.g. the executor's
persistent pool) from there would invert the layering that lets the
sharded kernel run inside executor workers in the first place.

The check is purely static (``ast`` parse, no imports executed), walks
every module including function-local imports, and prints each
violation as ``file:line: <importing layer> imports <forbidden>``.

Usage::

    python scripts/check_layering.py        # exit 0 clean, 1 violations

Run alongside ``scripts/coverage_gate.py`` (the gate invokes this first;
a layering break fails the build before any test runs).
"""

from __future__ import annotations

import ast
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

#: layer -> subpackages it must never import (directly or via
#: ``from repro.<x> import ...`` anywhere in the module, including
#: function bodies).
FORBIDDEN: dict[str, frozenset[str]] = {
    "core": frozenset(
        {"experiments", "simulation", "baselines", "dynamic", "analysis"}
    ),
    # obs may import only util below itself (and itself).
    "obs": frozenset(
        {
            "analysis",
            "baselines",
            "cli",
            "core",
            "dynamic",
            "experiments",
            "io",
            "network",
            "refdb",
            "simulation",
            "workload",
        }
    ),
}


#: module (path relative to src/repro) -> (forbidden subpackages, why).
#: These refine the layer rules with a per-file contract and a message
#: explaining the sanctioned alternative.
MODULE_FORBIDDEN: dict[str, tuple[frozenset[str], str]] = {
    "core/shard.py": (
        frozenset(
            {"experiments", "analysis", "cli", "network", "simulation"}
        ),
        "the sharded kernel must take its worker pool by injection "
        "(ShardPool protocol) — pass experiments.executor."
        "persistent_pool(n) in from above, never import it here — and "
        "its worker entry point (_run_shard) must stay below "
        "experiments/cli/network so pool workers import nothing above "
        "core when they unpickle a task",
    ),
    "core/types.py": (
        frozenset(
            {
                "analysis",
                "baselines",
                "cli",
                "dynamic",
                "experiments",
                "network",
                "simulation",
                "workload",
            }
        ),
        "StreamTopology/resolve_streams are consumed by the workload "
        "generator, the CLI, and every layer above — the foundation "
        "module must stay import-free of them all (notably "
        "repro.workload, which the core-layer rule alone does not "
        "forbid), or replica-mesh scenario plumbing would cycle back "
        "into the type definitions it is built from",
    ),
    "core/context.py": (
        frozenset({"dynamic", "experiments"}),
        "the frequency-clone adoption hook (adopt_frequency_context) is "
        "called *from* repro.dynamic.drift — the dependency must point "
        "down only, or the incremental re-planner would drag the "
        "dynamic/experiment stack into every kernel import",
    ),
}


#: Import roots no production module may reach (see the module docstring).
TEST_ONLY = frozenset({"tests", "oracles"})

#: Modules (and their submodules) no production module may import, with
#: the reason printed alongside each violation.
FORBIDDEN_MODULES: dict[str, str] = {
    "multiprocessing.shared_memory": (
        "shard tasks ship their own pickled submodels; a shared-memory "
        "segment is one more resource a failed run can leak"
    ),
}


def _layer_of(path: pathlib.Path, package_root: pathlib.Path) -> str:
    """The top-level subpackage (or module stem) a file belongs to."""
    rel = path.relative_to(package_root)
    return rel.parts[0] if len(rel.parts) > 1 else rel.stem


def _imported_subpackages(tree: ast.AST):
    """Yield ``(lineno, subpackage)`` for every ``repro.*`` import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    yield node.lineno, parts[1]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            parts = (node.module or "").split(".")
            if parts[0] == "repro":
                if len(parts) > 1:
                    yield node.lineno, parts[1]
                else:
                    # ``from repro import X``: the imported names are
                    # the subpackages being depended on.
                    for alias in node.names:
                        yield node.lineno, alias.name


def _imported_test_code(tree: ast.AST):
    """Yield ``(lineno, module)`` for every import of test-only code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] in TEST_ONLY or "oracles" in parts:
                yield node.lineno, name


def _imported_forbidden_modules(tree: ast.AST):
    """Yield ``(lineno, module)`` for each import of a
    :data:`FORBIDDEN_MODULES` entry, once per import statement.
    ``from a import b`` counts as importing ``a.b``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            names = [module] + [f"{module}.{a.name}" for a in node.names]
        else:
            continue
        hits = {
            banned
            for name in names
            for banned in FORBIDDEN_MODULES
            if name == banned or name.startswith(banned + ".")
        }
        for banned in sorted(hits):
            yield node.lineno, banned


def _imported_private_core_names(tree: ast.AST):
    """Yield ``(lineno, "module.name")`` for every underscore-prefixed
    name imported from ``repro.core`` or one of its modules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module == "repro.core" or module.startswith("repro.core."):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        yield node.lineno, f"{module}.{alias.name}"


def _module_name(path: pathlib.Path, package_root: pathlib.Path) -> str:
    """The dotted name of the module at ``path`` (a package's
    ``__init__`` is the package)."""
    parts = list(path.relative_to(package_root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join([package_root.name, *parts])


def _import_edges(tree: ast.AST, module: str, modules: set):
    """Yield ``(lineno, target)`` for every import of a module in
    ``modules``; ``from a import b`` imports ``a.b`` when that is a
    module, and ``a`` otherwise."""
    package = module.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            for alias in node.names:
                sub = f"{base}.{alias.name}"
                if sub in modules:
                    yield node.lineno, sub
                elif base in modules:
                    yield node.lineno, base


def _import_cycles(package_root: pathlib.Path) -> list[str]:
    """One violation per import cycle among the package's modules: each
    strongly connected component of the import graph, reported as one
    cycle through it at its first edge's import."""
    repo_root = package_root.parent.parent
    paths = {_module_name(p, package_root): p for p in sorted(package_root.rglob("*.py"))}
    modules = set(paths)
    edges: dict[str, dict[str, int]] = {}
    for name, path in paths.items():
        out: dict[str, int] = {}
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            for lineno, target in _import_edges(tree, name, modules):
                if target != name:
                    out.setdefault(target, lineno)
        edges[name] = out
    violations = []
    for component in _strongly_connected(edges):
        if len(component) < 2:
            continue
        start = min(component)
        cycle = _cycle_through(edges, start, component)
        path = paths[start].relative_to(repo_root)
        violations.append(
            f"{path}:{edges[start][cycle[1]]}: import cycle "
            + " -> ".join(cycle)
        )
    return violations


def _strongly_connected(edges: dict[str, dict[str, int]]) -> list[set[str]]:
    """Tarjan's strongly connected components of the import graph."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    out: list[set[str]] = []

    def visit(v: str) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in edges[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            component = set()
            while True:
                w = stack.pop()
                on_stack.discard(w)
                component.add(w)
                if w == v:
                    break
            out.append(component)

    for v in sorted(edges):
        if v not in index:
            visit(v)
    return out


def _cycle_through(edges, start: str, component: set[str]) -> list[str]:
    """A shortest import path from ``start`` back to itself inside
    ``component``, both ends included."""
    parent = {start: None}
    queue = [start]
    for v in queue:
        for w in sorted(edges[v]):
            if w == start:
                path = [v]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return [*reversed(path), start]
            if w in component and w not in parent:
                parent[w] = v
                queue.append(w)
    raise AssertionError("a strongly connected component has a cycle")


def check(package_root: pathlib.Path = PACKAGE_ROOT) -> list[str]:
    """All layering violations in the tree, as printable strings."""
    violations = _import_cycles(package_root)
    repo_root = package_root.parent.parent
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(repo_root)
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, target in _imported_test_code(tree):
            violations.append(
                f"{rel}:{lineno}: production module imports {target} "
                "(reference oracles live with the tests only)"
            )
        for lineno, target in _imported_forbidden_modules(tree):
            violations.append(
                f"{rel}:{lineno}: production module imports {target} "
                f"({FORBIDDEN_MODULES[target]})"
            )
        layer = _layer_of(path, package_root)
        if layer != "core":
            for lineno, target in _imported_private_core_names(tree):
                violations.append(
                    f"{rel}:{lineno}: repro.{layer} imports private {target} "
                    "(underscore names of repro.core stay inside core)"
                )
        forbidden = FORBIDDEN.get(layer, frozenset())
        module_key = path.relative_to(package_root).as_posix()
        module_forbidden, module_why = MODULE_FORBIDDEN.get(
            module_key, (frozenset(), "")
        )
        if not forbidden and not module_forbidden:
            continue
        for lineno, target in _imported_subpackages(tree):
            if target in module_forbidden:
                violations.append(
                    f"{rel}:{lineno}: {module_key} imports repro.{target} "
                    f"({module_why})"
                )
            elif target in forbidden:
                violations.append(
                    f"{rel}:{lineno}: repro.{layer} imports repro.{target}"
                )
    return violations


def main() -> int:
    violations = check()
    if violations:
        print("import layering violations:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    n = len(FORBIDDEN)
    m = len(MODULE_FORBIDDEN)
    print(
        f"layering check: OK ({n} constrained layers, "
        f"{m} module rules, no import cycles, no test-code, shared-memory "
        "or private core imports, no violations)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
