"""DSP001 / TID001 / EXC001: dispatch, addressing and handler hygiene.

* **DSP001** — a ``<x>.table.bind(CODE, ...)`` call whose function code
  is not defined in :mod:`repro.i2o.function_codes`.  ``Listener.bind``
  (private xfunctions under ``Function=0xFF``) is deliberately out of
  scope: xfunction spaces are per-application.
* **TID001** — an integer literal passed where a TiD is expected
  (``target=``/``initiator=``/``tid=``-style keywords).  TiDs are
  allocated, well-known (``EXECUTIVE_TID``, ``PTA_TID``) or proxy
  values; a literal is either dead wrong or an unexplained magic
  number.
* **EXC001** — a bare ``except:`` anywhere, or a broad
  ``except (Base)Exception`` whose body neither re-raises nor calls
  anything: the paper's bounded-handler discipline (§3.2) demands that
  dispatch-path failures are *handled* (counted, logged, replied to),
  never silently discarded.
"""

from __future__ import annotations

import ast

from repro.analysis.violations import Violation

#: the known function-code namespace, loaded once
def _function_code_namespace() -> tuple[frozenset[str], frozenset[int]]:
    from repro.i2o import function_codes

    names = frozenset(
        name
        for name, value in vars(function_codes).items()
        if name.isupper() and isinstance(value, int)
    )
    values = frozenset(
        value
        for name, value in vars(function_codes).items()
        if name.isupper() and isinstance(value, int)
    )
    return names, values


_FC_NAMES, _FC_VALUES = _function_code_namespace()

#: keyword arguments that carry TiDs throughout the framework API
TID_KEYWORDS = frozenset(
    {"target", "initiator", "tid", "remote_tid", "proxy_tid"}
)

BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _qualname(stack: list[str]) -> str:
    return ".".join(stack)


class FrameworkVisitor(ast.NodeVisitor):
    """One pass collecting DSP001, TID001 and EXC001."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.violations: list[Violation] = []
        self._stack: list[str] = []

    # -- scope bookkeeping -------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def _report(
        self, rule: str, node: ast.AST, message: str, detail: str
    ) -> None:
        self.violations.append(
            Violation(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                context=_qualname(self._stack),
                detail=detail,
            )
        )

    # -- DSP001 + TID001 ---------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_dispatch_binding(node)
        self._check_tid_literals(node)
        self.generic_visit(node)

    def _check_dispatch_binding(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "bind"):
            return
        receiver = func.value
        # Only DispatchTable.bind takes function codes: `self.table.bind`,
        # `device.table.bind`, or a bare `table.bind`.
        is_table = (
            isinstance(receiver, ast.Attribute) and receiver.attr == "table"
        ) or (isinstance(receiver, ast.Name) and receiver.id == "table")
        if not is_table or not node.args:
            return
        code = node.args[0]
        # Lowercase identifiers are dynamic values (loop vars, params);
        # only constant-style UPPERCASE names are judged against the
        # function-code namespace.
        if isinstance(code, ast.Name):
            if code.id.isupper() and code.id not in _FC_NAMES:
                self._report(
                    "DSP001",
                    code,
                    f"dispatch binding for {code.id!r}, which is not a "
                    "code in repro.i2o.function_codes",
                    code.id,
                )
        elif isinstance(code, ast.Attribute):
            if code.attr.isupper() and code.attr not in _FC_NAMES:
                self._report(
                    "DSP001",
                    code,
                    f"dispatch binding for {code.attr!r}, which is not a "
                    "code in repro.i2o.function_codes",
                    code.attr,
                )
        elif isinstance(code, ast.Constant) and isinstance(code.value, int):
            if code.value not in _FC_VALUES:
                self._report(
                    "DSP001",
                    code,
                    f"dispatch binding for unknown function code "
                    f"0x{code.value:02X}",
                    f"0x{code.value:02X}",
                )

    def _check_tid_literals(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg not in TID_KEYWORDS:
                continue
            value = keyword.value
            if (
                isinstance(value, ast.Constant)
                and type(value.value) is int
            ):
                self._report(
                    "TID001",
                    value,
                    f"raw integer literal {value.value} passed as "
                    f"{keyword.arg}=; use an allocated TiD or a named "
                    "constant (EXECUTIVE_TID, PTA_TID, a proxy)",
                    keyword.arg,
                )

    # -- EXC001 ------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                "EXC001",
                node,
                "bare `except:` swallows KeyboardInterrupt and framework "
                "faults alike; catch a specific exception",
                "bare",
            )
        else:
            names = _exception_names(node.type)
            broad = names & BROAD_EXCEPTIONS
            if broad and _swallows(node.body):
                name = sorted(broad)[0]
                self._report(
                    "EXC001",
                    node,
                    f"`except {name}` discards the failure without "
                    "re-raising, logging, counting or replying",
                    name,
                )
        self.generic_visit(node)


def _exception_names(node: ast.expr) -> set[str]:
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def _swallows(body: list[ast.stmt]) -> bool:
    """A broad handler 'swallows' when it neither re-raises nor calls
    anything — no logger, no counter hook, no failure reply."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Raise, ast.Call, ast.Return)):
                return False
    return True


def check_framework(path: str, tree: ast.AST) -> list[Violation]:
    visitor = FrameworkVisitor(path)
    visitor.visit(tree)
    return visitor.violations
