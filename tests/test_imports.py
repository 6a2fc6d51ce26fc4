"""Every top-level import of the package is used in its module, and every
function parameter is read in its function.

No linter ships with the project, so this parses the sources with ``ast``.
A name counts as used when the module reads it, lists it in ``__all__``
(a re-export), or names it inside a quoted annotation.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "darkqubit"


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                names[name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted)
                            if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


# Parameters no body reads, each with the reason it stays.
INERT_PARAMETERS = {
    ("noise.py", "evolve_noisy", "threads"):
        "bench/jobs.py passes threads=1",
    ("cli.py", "run_scenario", "threads"):
        "bench/jobs.py passes threads=1; --threads feeds it",
    **{("cli.py", runner, name): "_RUNNERS share one signature"
       for runner in ("_run_analyze", "_run_gates", "_run_compare")
       for name in ("out_dir", "fmt")},
}


def _unread_parameters(path: pathlib.Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [arg.arg for arg in (args.posonlyargs + args.args
                                      + args.kwonlyargs
                                      + [args.vararg, args.kwarg])
                  if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        for param in params:
            if param not in read:
                yield path.name, name, param


def test_every_parameter_is_read():
    unread = {key for path in sorted(SRC.glob("*.py"))
              for key in _unread_parameters(path)}
    assert unread <= set(INERT_PARAMETERS), \
        f"parameters never read: {sorted(unread - set(INERT_PARAMETERS))}"
    assert set(INERT_PARAMETERS) <= unread, \
        f"allowlisted but read: {sorted(set(INERT_PARAMETERS) - unread)}"
