"""Lint driver: parse files, build the project index, run rules.

The run is two-phase.  Phase A parses every file once and builds the
:class:`~tools.lint.callgraph.ProjectIndex` — ownership summaries,
execution contexts and the class hierarchy.  Phase B lints each file
against that shared index; with ``jobs > 1`` phase B fans out over a
multiprocessing pool (the index is plain picklable data; workers
re-parse only their own file).

``lint_source`` without an explicit index builds a single-file index
on the fly, so the interprocedural rules still see helpers defined in
the same source — which is exactly what the unit tests exercise.

noqa handling is statement-aware: a ``# repro: noqa [RULE]`` anywhere
within the smallest enclosing simple statement (or the header of a
compound statement — decorator stacks included) suppresses matching
findings of that statement, not just findings on its first physical
line.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Sequence
from pathlib import Path

from tools.lint.callgraph import ProjectIndex, build_index
from tools.lint.ownership import check_ownership
from tools.lint.races import check_races
from tools.lint.violations import RULES, FileReport, Violation

#: trailing per-line suppression: `# repro: noqa` or `# repro: noqa OWN001[, OWN002]`
_NOQA = re.compile(
    r"#\s*repro:\s*noqa(?P<rules>(?:\s*:?\s*[A-Z]+\d+[,\s]*)+)?", re.ASCII
)

_COMPOUND = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.If, ast.While,
    ast.For, ast.AsyncFor, ast.With, ast.AsyncWith, ast.Try, ast.Match,
) + ((ast.TryStar,) if hasattr(ast, "TryStar") else ())


def _noqa_rules(line: str) -> frozenset[str] | None:
    """Rules suppressed on ``line``: a set, ``ALL`` for bare noqa, or None."""
    match = _NOQA.search(line)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return frozenset(RULES)  # bare noqa: everything
    return frozenset(re.findall(r"[A-Z]+\d+", rules))


def _stmt_spans(tree: ast.AST) -> list[tuple[int, int]]:
    """(first, last) physical-line spans a noqa comment covers.

    Simple statements span all their lines.  Compound statements span
    only their *header* (decorators through the line before the first
    body statement) — a noqa inside a function must not blanket the
    whole function.
    """
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        if isinstance(node, _COMPOUND):
            start = node.lineno
            decorators = getattr(node, "decorator_list", None)
            if decorators:
                start = min([d.lineno for d in decorators] + [start])
            body = getattr(node, "body", None)
            header_end = body[0].lineno - 1 if body else end
            spans.append((start, max(start, header_end)))
        else:
            spans.append((node.lineno, end))
    return spans


def _suppressed_rules(
    line: int, lines: list[str], spans: list[tuple[int, int]]
) -> frozenset[str]:
    """Union of noqa rules on ``line`` and its smallest enclosing span."""
    covered = {line}
    containing = [s for s in spans if s[0] <= line <= s[1]]
    if containing:
        start, end = min(containing, key=lambda s: s[1] - s[0])
        covered.update(range(start, end + 1))
    suppressed: set[str] = set()
    for lineno in covered:
        if 1 <= lineno <= len(lines):
            rules = _noqa_rules(lines[lineno - 1])
            if rules is not None:
                suppressed.update(rules)
    return frozenset(suppressed)


class _OwnershipVisitor(ast.NodeVisitor):
    """Runs the OWN checker over every function scope (and the module)."""

    def __init__(self, path: str, index: ProjectIndex) -> None:
        self.path = path
        self.index = index
        self.violations: list[Violation] = []
        self._stack: list[str] = []
        self._class: list[str] = []

    def visit_Module(self, node: ast.Module) -> None:
        body = [
            s for s in node.body
            if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
        ]
        resolve = self.index.make_resolver(self.path, None, None)
        self.violations.extend(
            check_ownership(self.path, "<module>", body, resolve=resolve)
        )
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node.name)
        self._class.append(node.name)
        self.generic_visit(node)
        self._class.pop()
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        qualname = ".".join(self._stack + [node.name])
        cls = self._class[-1] if self._class else None
        resolve = self.index.make_resolver(self.path, cls, qualname)
        self.violations.extend(
            check_ownership(self.path, qualname, node.body, resolve=resolve)
        )
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


def _parse(source: str, path: str) -> ast.Module | str:
    """The module's AST, or a parse-error message.

    On Python 3.10 (and early 3.11) a NUL byte raises ``ValueError``,
    not ``SyntaxError``; both are the file's fault, not the linter's.
    """
    try:
        return ast.parse(source, filename=path)
    except SyntaxError as exc:
        return f"{path}:{exc.lineno}: {exc.msg}"
    except ValueError as exc:
        return f"{path}: {exc}"


def lint_source(
    source: str, path: str, index: ProjectIndex | None = None
) -> FileReport:
    """Lint one file's source text; ``path`` is used verbatim in output.

    Without ``index``, a single-file index is built from this source —
    helpers defined in the same file still feed the interprocedural
    rules.  CLI runs share one project-wide index across all files.
    """
    tree = _parse(source, path)
    if isinstance(tree, str):
        return FileReport(path=path, parse_error=tree)

    if index is None:
        index = build_index([(path, tree)])

    visitor = _OwnershipVisitor(path, index)
    visitor.visit(tree)
    violations = visitor.violations + check_races(path, tree, index)

    lines = source.splitlines()
    spans = _stmt_spans(tree)
    for violation in violations:
        if violation.rule in _suppressed_rules(violation.line, lines, spans):
            violation.suppressed = True

    violations.sort(key=lambda v: (v.line, v.col, v.rule))
    return FileReport(path=path, violations=violations)


def iter_python_files(
    paths: Sequence[str | Path], exclude: Sequence[str] = ()
) -> list[Path]:
    """Expand files/directories into sorted .py paths, minus excludes.

    Excludes match on resolved paths, so ``tests/analysis/fixtures``
    also drops the fixtures when they are reached through an absolute
    path or from another working directory.
    """
    excluded_roots = [Path(e).resolve() for e in exclude]
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            found.add(path)

    def excluded(p: Path) -> bool:
        resolved = p.resolve()
        return any(
            resolved == root or root in resolved.parents
            for root in excluded_roots
        )

    return sorted(p for p in found if not excluded(p))


def build_project_index(items: list[tuple[str, str]]) -> ProjectIndex:
    """Parse ``(path, source)`` items and build the shared index.

    Unparseable files are skipped here; the per-file lint pass reports
    the parse error itself.
    """
    units: list[tuple[str, ast.Module]] = []
    for path, source in items:
        tree = _parse(source, path)
        if isinstance(tree, ast.Module):
            units.append((path, tree))
    return build_index(units)


#: per-worker shared index (set once by the pool initializer)
_WORKER_INDEX: ProjectIndex | None = None


def _worker_init(index: ProjectIndex) -> None:
    global _WORKER_INDEX
    _WORKER_INDEX = index


def _worker_lint(item: tuple[str, str]) -> FileReport:
    path, source = item
    return lint_source(source, path, index=_WORKER_INDEX)


def lint_paths(
    paths: Sequence[str | Path], exclude: Sequence[str] = (),
    jobs: int | None = None,
) -> list[FileReport]:
    """Lint files/directories; ``jobs > 1`` fans phase B out to a pool.

    A file that is not UTF-8 gets a parse-error report, like a syntax
    error, instead of aborting the run.
    """
    files = [p.as_posix() for p in iter_python_files(paths, exclude)]
    reports: dict[str, FileReport] = {}
    items: list[tuple[str, str]] = []
    for path in files:
        try:
            items.append((path, Path(path).read_text(encoding="utf-8")))
        except UnicodeDecodeError as exc:
            reports[path] = FileReport(
                path=path, parse_error=f"{path}: not UTF-8 ({exc.reason} "
                f"at byte {exc.start})")
    index = build_project_index(items)

    effective = min(jobs or 1, len(items))
    if effective > 1 and len(items) >= 4:
        import multiprocessing

        with multiprocessing.Pool(
            effective, initializer=_worker_init, initargs=(index,)
        ) as pool:
            linted = pool.map(_worker_lint, items)
    else:
        linted = [lint_source(source, path, index=index)
                  for path, source in items]
    reports.update((r.path, r) for r in linted)
    return [reports[path] for path in files]
