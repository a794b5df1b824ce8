"""Unused imports and undefined names, stdlib only (``make lint`` without ruff).

``make lint`` runs ``ruff check`` when ruff is importable and this file when
it is not, so the two pyflakes checks that have caught real defects here —
F401 (imported but unused) and F821 (undefined name) — run in any image.
It reads ``src/`` and ``tests/`` and writes nothing.

The walk is deliberately lenient where being exact would take a type
checker: bindings are per scope but not per control-flow path, a module
with ``from x import *`` is skipped for F821, and names inside string
annotations count as uses but are never reported. ``match`` captures are
not modelled (the repo has none). ``# noqa`` on the line is honoured. A file that does not parse is reported as E999.
"""

from __future__ import annotations

import ast
import builtins
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TREES = ("src", "tests")

_BUILTINS = set(dir(builtins)) | {
    "__file__", "__name__", "__doc__", "__package__", "__spec__", "__path__", "__class__",
}


class _Scope:
    def __init__(self, kind: str, parent: "_Scope | None") -> None:
        self.kind = kind  # "module" | "function" | "class" | "comprehension"
        self.parent = parent
        self.bound: set[str] = set()
        self.globals: set[str] = set()

    def defines(self, name: str) -> bool:
        """Is ``name`` visible from this scope (class bodies do not nest)?"""
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.bound and (scope is self or scope.kind != "class"):
                return True
            scope = scope.parent
        return name in _BUILTINS


class _Walker(ast.NodeVisitor):
    def __init__(self) -> None:
        self.module = self.scope = _Scope("module", None)
        self.loads: list[tuple[_Scope, str, int]] = []
        self.imports: list[tuple[str, str, int]] = []  # (bound name, shown name, line)
        self.used: set[str] = set()
        self.star_import = False

    # -- bindings ------------------------------------------------------
    def _bind(self, name: str) -> None:
        (self.module if name in self.scope.globals else self.scope).bound.add(name)

    def _in_scope(self, kind: str, nodes: list[ast.AST], bind: list[str] = ()) -> None:
        outer, self.scope = self.scope, _Scope(kind, self.scope)
        self.scope.bound.update(bind)
        for node in nodes:
            self.visit(node)
        self.scope = outer

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.used.add(node.id)
            self.loads.append((self.scope, node.id, node.lineno))
        elif isinstance(node.ctx, ast.Store):
            self._bind(node.id)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        scope = self.scope  # a walrus inside a comprehension binds outside it
        while scope.kind == "comprehension":
            scope = scope.parent
        scope.bound.add(node.target.id)
        self.visit(node.value)

    def visit_Global(self, node: ast.Global) -> None:
        self.scope.globals.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.scope.bound.update(node.names)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            self._bind(bound)
            self.imports.append((bound, alias.name, alias.lineno))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name == "*":
                self.star_import = True
            elif node.module != "__future__":
                self._bind(alias.asname or alias.name)
                shown = f"{'.' * node.level}{node.module or ''}.{alias.name}"
                self.imports.append((alias.asname or alias.name, shown, alias.lineno))

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self._bind(node.name)
        self.generic_visit(node)

    # -- scopes --------------------------------------------------------
    def _annotation(self, node: ast.AST | None) -> None:
        """Visit an annotation; names inside quoted parts count as uses only."""
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    quoted = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                self.used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
        self.visit(node)

    def _function(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
        args = node.args
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        every = [a for a in every if a is not None]
        for default in [*args.defaults, *args.kw_defaults]:
            if default is not None:
                self.visit(default)
        for arg in every:
            self._annotation(arg.annotation)
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        self._in_scope("function", body, [a.arg for a in every])

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        self._annotation(node.returns)
        self._bind(node.name)
        self._function(node)

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = _function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for expr in [*node.decorator_list, *node.bases, *node.keywords]:
            self.visit(expr)
        self._bind(node.name)
        self._in_scope("class", node.body)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._annotation(node.annotation)
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def _comprehension(self, node: ast.AST) -> None:
        first, *rest = node.generators
        self.visit(first.iter)  # evaluated in the enclosing scope
        elements = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        self._in_scope("comprehension", [first.target, *first.ifs, *rest, *elements])

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _comprehension


def _exported(tree: ast.Module) -> set[str]:
    """String entries of a module-level ``__all__ = [...]``."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return names


def lint_source(source: str, path: str) -> list[str]:
    """Findings for one file, as ``path:line: CODE message`` lines."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno}: E999 {exc.msg}"]
    lines = source.splitlines()
    walker = _Walker()
    walker.visit(tree)
    used = walker.used | _exported(tree)
    findings = [
        (line, f"F401 `{shown}` imported but unused")
        for bound, shown, line in walker.imports
        if bound not in used and "# noqa" not in lines[line - 1]
    ]
    if not walker.star_import:
        findings += [
            (line, f"F821 undefined name `{name}`")
            for scope, name, line in walker.loads
            if not scope.defines(name) and "# noqa" not in lines[line - 1]
        ]
    return [f"{path}:{line}: {message}" for line, message in sorted(set(findings))]


def main() -> int:
    findings: list[str] = []
    files = sorted(p for tree in TREES for p in (REPO / tree).rglob("*.py"))
    for file in files:
        findings += lint_source(file.read_text(), str(file.relative_to(REPO)))
    print("\n".join(findings) or f"lint OK: {len(files)} files under {', '.join(TREES)}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
