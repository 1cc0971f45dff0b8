"""Static guard: ``repro.core`` has one code path for every stream count.

The paper's two-stream model is the k-stream engine with the repository
as its only remote stream, so no engine may branch on the stream count.
This scans every module of ``src/repro/core`` for a comparison of
``n_streams``, ``n_rem`` or an attribute ``.k`` against a constant.  The
only exemptions are the guards that refuse a k>2 mesh outright with
``NotImplementedError`` (OFF_LOADING's negotiation and its absorption,
through ``_require_two_streams``; the sharded kernel; and the exact ILP
and its LP bound), whose
k-stream forms are planned follow-ups.
"""

from __future__ import annotations

import ast
import pathlib

import repro.core

CORE = pathlib.Path(repro.core.__file__).parent

#: names and attributes that carry the stream count
_STREAM_NAMES = {"n_streams", "n_rem"}
_STREAM_ATTRS = {"n_streams", "n_rem", "k"}

#: (module, function) of each ``NotImplementedError`` k>2 guard
GUARDS = {
    ("offload.py", "_require_two_streams"),
    ("shard.py", "run_shard_fanout"),
    ("ilp.py", "_solve"),
}


def _names_stream_count(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in _STREAM_NAMES:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in _STREAM_ATTRS:
            return True
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "getattr"
            and len(sub.args) >= 2
            and isinstance(sub.args[1], ast.Constant)
            and sub.args[1].value in _STREAM_NAMES
        ):
            return True
    return False


def _is_stream_branch(node: ast.AST) -> bool:
    """A comparison of the stream count against a constant."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(isinstance(o, ast.Constant) for o in operands) and any(
        _names_stream_count(o) for o in operands
    )


def _raises_not_implemented(stmt: ast.If) -> bool:
    return (
        len(stmt.body) == 1
        and isinstance(stmt.body[0], ast.Raise)
        and isinstance(stmt.body[0].exc, ast.Call)
        and isinstance(stmt.body[0].exc.func, ast.Name)
        and stmt.body[0].exc.func.id == "NotImplementedError"
    )


def _scan() -> tuple[list[str], set[tuple[str, str]]]:
    """``(offending sites, guards found)`` over ``src/repro/core``."""
    offending: list[str] = []
    guards: set[tuple[str, str]] = set()
    for path in sorted(CORE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for stmt in ast.walk(func):
                if (
                    isinstance(stmt, ast.If)
                    and _is_stream_branch(stmt.test)
                    and _raises_not_implemented(stmt)
                ):
                    guards.add((path.name, func.name))
        exempt = {
            id(stmt.test)
            for stmt in ast.walk(tree)
            if isinstance(stmt, ast.If) and _raises_not_implemented(stmt)
        }
        for node in ast.walk(tree):
            if _is_stream_branch(node) and id(node) not in exempt:
                offending.append(
                    f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                )
    return offending, guards


def test_no_stream_count_branches_in_core():
    offending, _ = _scan()
    assert not offending, "stream-count branches:\n" + "\n".join(offending)


def test_only_the_k2_guards_refuse_a_mesh():
    _, guards = _scan()
    assert guards == GUARDS


def test_scan_catches_a_twin_branch():
    twin = ast.parse("if ctx.n_streams == 2:\n    pass\nx = n_rem > 1\n")
    assert sum(_is_stream_branch(n) for n in ast.walk(twin)) == 2
    assert not any(
        _is_stream_branch(n)
        for n in ast.walk(ast.parse("for r in range(1, ctx.n_streams): pass"))
    )
