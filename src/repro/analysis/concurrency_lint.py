"""Pass 3 — async-blocking and unbounded-wait lint over the serving stack.

Two families of rules, both AST-static:

**No blocking calls in async code** (over ``serve/source.py`` /
``serve/batcher.py`` / ``serve/gateway.py``, whose deadline math and
session handling assume the event loop is never stalled):

``CL010`` (error)
    Inside an ``async def``: ``time.sleep``, ``os.system``,
    ``subprocess.*``, ``socket.*`` constructors, ``urllib``/``requests``
    calls, bare ``open()``, or ``Future.result()`` — each blocks the loop;
    use the ``asyncio`` equivalents or hand off to an executor.

**Unbounded pool-future waits** (over every ``serve/*.py`` module; the
supervision layer's per-unit deadlines only work when no wait can block
forever):

``CL020`` (warning)
    A ``.result()`` call with no ``timeout=`` keyword: under a hung
    worker this wait never returns and wedges the stream.  Pass a
    timeout (even a generous one) or route the wait through the
    supervised engine.  Grandfathered call sites live in the baseline.

The scoped serving sources currently lint clean on the first family;
grandfathered CL020 findings live in the baseline like every other
pass's.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .diagnostics import Diagnostic

__all__ = [
    "default_async_targets",
    "default_result_targets",
    "lint_async_paths",
    "lint_async_source",
    "lint_result_timeout_paths",
    "lint_result_timeout_source",
]

#: Module-level blocking calls disallowed under ``async def`` (CL010).
BLOCKING_CALLS = frozenset({
    ("time", "sleep"), ("os", "system"), ("os", "wait"), ("os", "waitpid"),
    ("socket", "create_connection"), ("socket", "getaddrinfo"),
    ("urllib", "urlopen"), ("requests", "get"), ("requests", "post"),
    ("requests", "request"), ("shutil", "copyfile"),
})

#: Blocking attribute-call names regardless of receiver (CL010).
BLOCKING_METHODS = frozenset({"check_call", "check_output", "run_sync"})


def default_async_targets(root: str | Path) -> list[Path]:
    """The async deadline-sensitive files the blocking check covers."""

    root = Path(root)
    return [root / "serve" / "source.py", root / "serve" / "batcher.py",
            root / "serve" / "gateway.py"]


def default_result_targets(root: str | Path) -> list[Path]:
    """Every serving module: any of them may wait on a pool future."""

    root = Path(root)
    return sorted((root / "serve").glob("*.py"))


def lint_async_paths(paths, rel_to: str | Path | None = None) -> list[Diagnostic]:
    """Async-blocking rules over source files."""

    out: list[Diagnostic] = []
    for path in paths:
        path = Path(path)
        label = str(path.relative_to(rel_to)) if rel_to else str(path)
        out.extend(lint_async_source(path.read_text(), label))
    return out


def lint_result_timeout_paths(
    paths, rel_to: str | Path | None = None
) -> list[Diagnostic]:
    """Unbounded ``.result()`` rule over source files."""

    out: list[Diagnostic] = []
    for path in paths:
        path = Path(path)
        label = str(path.relative_to(rel_to)) if rel_to else str(path)
        out.extend(lint_result_timeout_source(path.read_text(), label))
    return out


def _functions(tree: ast.AST):
    """Yield ``(node, qualname)`` for every function, nested included."""

    def rec(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                yield child, qual
                yield from rec(child, qual)
            elif isinstance(child, ast.ClassDef):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                yield from rec(child, qual)
            else:
                yield from rec(child, prefix)

    yield from rec(tree, "")


# ----------------------------------------------------------------------
# Async blocking calls
# ----------------------------------------------------------------------

def lint_async_source(source: str, path: str) -> list[Diagnostic]:
    """Run the no-blocking-in-async rules over one module's source."""

    tree = ast.parse(source, filename=path)
    diags: list[Diagnostic] = []
    for func, qual in _functions(tree):
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        for node in _walk_own_body(func):
            if not isinstance(node, ast.Call):
                continue
            token = _blocking_token(node)
            if token is not None:
                diags.append(Diagnostic(
                    pass_name="concurrency", rule="CL010", severity="error",
                    location=f"{path}:{node.lineno}",
                    scope=f"{path}:{qual}",
                    message=(f"{token} blocks the event loop inside "
                             "async def — use the asyncio equivalent or an "
                             "executor"),
                    token=token,
                ))
    return diags


def _walk_own_body(func):
    """Walk a function's nodes without descending into nested defs (sync
    helpers defined inside an async def run in their own scope)."""

    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _blocking_token(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open()"
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name):
            pair = (func.value.id, func.attr)
            if pair in BLOCKING_CALLS:
                return f"{pair[0]}.{pair[1]}"
            if func.value.id == "subprocess":
                return f"subprocess.{func.attr}"
        if func.attr in BLOCKING_METHODS:
            return f".{func.attr}"
    return None


# ----------------------------------------------------------------------
# Unbounded pool-future waits
# ----------------------------------------------------------------------

def lint_result_timeout_source(source: str, path: str) -> list[Diagnostic]:
    """Run the unbounded-``.result()`` rule (CL020) over one module.

    Flags every ``something.result()`` call with neither a positional
    argument nor a ``timeout=`` keyword — ``Future.result``'s timeout is
    its only parameter, so any argument bounds the wait.  AST-static, so
    non-future receivers that happen to have a ``result`` method are
    flagged too; baseline such sites rather than weakening the rule.
    """

    tree = ast.parse(source, filename=path)
    diags: list[Diagnostic] = []
    for func, qual in _functions(tree):
        for node in _walk_own_body(func):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "result"):
                continue
            if node.args or any(kw.arg == "timeout" for kw in node.keywords):
                continue
            receiver = node.func.value
            token = (f"{receiver.id}.result"
                     if isinstance(receiver, ast.Name) else ".result")
            diags.append(Diagnostic(
                pass_name="concurrency", rule="CL020", severity="warning",
                location=f"{path}:{node.lineno}",
                scope=f"{path}:{qual}",
                message=(f"{token}() without a timeout: a hung worker makes "
                         "this wait block forever — pass timeout= or route "
                         "the wait through the supervised engine"),
                token=token,
            ))
    return diags
