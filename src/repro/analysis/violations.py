"""The linter's finding type and the rule registry.

Every rule reports :class:`Violation` records.  A violation's
*fingerprint* deliberately excludes the line number: baselines pin the
accepted findings of a file, and pure line churn (an added import, a
reflowed docstring) must not invalidate them.  Two findings of the same
rule on the same symbol in the same file share a fingerprint and are
disambiguated by count (see :mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How a finding gates the build."""

    ERROR = "error"  # ownership/dispatch bugs: never baselined
    WARNING = "warning"  # style/hygiene: baselinable

    def __str__(self) -> str:
        return self.value


#: rule id -> (severity, one-line description).  OWN and DSP rules are
#: errors by policy: they indicate real protocol violations and are
#: fixed, not baselined (see DESIGN.md §9).
RULES: dict[str, tuple[Severity, str]] = {
    "OWN001": (
        Severity.ERROR,
        "use of a frame after its ownership was transferred or released",
    ),
    "OWN002": (
        Severity.ERROR,
        "frame or block acquired but not released on some path",
    ),
    "OWN003": (
        Severity.ERROR,
        "frame or block released twice on one path",
    ),
    "DSP001": (
        Severity.ERROR,
        "dispatch binding for a function code not in repro.i2o.function_codes",
    ),
    "TID001": (
        Severity.WARNING,
        "raw integer literal where a TiD is expected",
    ),
    "EXC001": (
        Severity.WARNING,
        "broad except swallows exceptions inside a dispatch path",
    ),
    "DFL002": (
        Severity.ERROR,
        "device emits a message type absent from its declared emits",
    ),
    "DFL003": (
        Severity.ERROR,
        "handler bound for a message type matching neither consumes "
        "nor emits",
    ),
    "RACE001": (
        Severity.ERROR,
        "device/executive state mutated from an rx-thread context "
        "without a lock or dispatch marshalling",
    ),
    "RACE002": (
        Severity.ERROR,
        "shared class/module-level state mutated from an rx-thread "
        "context without a lock",
    ),
}


@dataclass
class Violation:
    """One finding: a rule fired at a location."""

    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    col: int
    message: str
    #: enclosing function/class qualname ("" at module level)
    context: str = ""
    #: rule-specific stable detail (variable or constant name)
    detail: str = ""
    suppressed: bool = False
    baselined: bool = False

    @property
    def severity(self) -> Severity:
        return RULES[self.rule][0]

    @property
    def fingerprint(self) -> tuple[str, str, str, str]:
        """Line-number-free identity used for baseline matching."""
        return (self.path, self.rule, self.context, self.detail)

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "context": self.context,
            "detail": self.detail,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
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
