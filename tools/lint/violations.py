"""The linter's finding type and the rule registry.

Every rule is an error: a finding fails the run until it is fixed or
carries a ``# repro: noqa RULE`` on its statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: rule id -> one-line description
RULES: dict[str, str] = {
    "OWN001": "use of a frame after its ownership was transferred or released",
    "OWN002": "frame or block acquired but not released on some path",
    "OWN003": "frame or block released twice on one path",
    "RACE001": (
        "device/executive state mutated from an rx-thread context "
        "without a lock or dispatch marshalling"
    ),
    "RACE002": (
        "shared class/module-level state mutated from an rx-thread "
        "context without a lock"
    ),
}


@dataclass
class Violation:
    """One finding: a rule fired at a location."""

    rule: str
    path: str  # as given on the command line, forward slashes
    line: int
    col: int
    message: str
    #: enclosing function/class qualname ("" at module level)
    context: str = ""
    #: rule-specific stable detail (variable or attribute name)
    detail: str = ""
    suppressed: bool = False

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "context": self.context,
            "detail": self.detail,
            "suppressed": self.suppressed,
        }

    def render(self) -> str:
        ctx = f" [{self.context}]" if self.context else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.message}{ctx}"
        )


@dataclass
class FileReport:
    """All findings for one source file."""

    path: str
    violations: list[Violation] = field(default_factory=list)
    parse_error: str | None = None
