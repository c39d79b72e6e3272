"""Baseline files: pin accepted findings, fail only on new ones.

A baseline is a JSON document mapping fingerprints to accepted counts::

    {
      "version": 1,
      "entries": [
        {"path": "src/repro/x.py", "rule": "TID001",
         "context": "Thing.method", "detail": "target", "count": 2},
        ...
      ]
    }

Matching consumes baseline budget per fingerprint: if a file has two
accepted TID001 findings in ``Thing.method`` and a refactor adds a
third, exactly one is reported as new.  Fingerprints carry no line
numbers, so unrelated edits do not invalidate the pin.

Policy (enforced by :func:`check_policy`): OWN*, DSP*, RACE* and the
contract-conformance rules DFL002/DFL003 are *errors* and may never be
baselined — they get fixed.  Regenerate with
``python -m repro.analysis.lint <paths> --write-baseline``.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from repro.analysis.violations import Severity, Violation

BASELINE_VERSION = 1
#: rules that the baseline refuses to pin (ownership/dispatch bugs)
NEVER_BASELINE_PREFIXES = ("OWN", "DSP", "RACE")
#: exact rules outside those prefixes that are also never pinned:
#: the contract-conformance errors DFL002/DFL003 must be fixed
NEVER_BASELINE_RULES = frozenset({"DFL002", "DFL003"})


def never_baselined(rule: str) -> bool:
    """Is ``rule`` excluded from baselines by policy?"""
    return rule.startswith(NEVER_BASELINE_PREFIXES) or rule in NEVER_BASELINE_RULES


class BaselineError(ValueError):
    """Malformed or policy-violating baseline file."""


def load(path: str | Path) -> Counter:
    """Load a baseline into a fingerprint -> accepted-count counter."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict) or raw.get("version") != BASELINE_VERSION:
        raise BaselineError(f"{path}: not a version-{BASELINE_VERSION} baseline")
    budget: Counter = Counter()
    for entry in raw.get("entries", []):
        fp = (
            str(entry["path"]),
            str(entry["rule"]),
            str(entry.get("context", "")),
            str(entry.get("detail", "")),
        )
        budget[fp] += int(entry.get("count", 1))
    check_policy(budget)
    return budget


def check_policy(budget: Counter) -> None:
    """Refuse baselines that pin never-baseline rules."""
    for (path, rule, _ctx, _detail), count in budget.items():
        if count and never_baselined(rule):
            raise BaselineError(
                f"baseline pins {count} {rule} finding(s) in {path}; "
                "ownership/dispatch/race/contract findings must be "
                "fixed, not baselined"
            )


def save(path: str | Path, violations: list[Violation]) -> int:
    """Write a baseline covering ``violations``; returns entries written.

    Suppressed findings are excluded (the noqa already accepts them) and
    never-baseline rules are excluded by policy — a lint run over a tree
    that still has OWN/DSP findings writes a baseline that will keep
    failing on them, which is the point.
    """
    budget: Counter = Counter()
    for v in violations:
        if v.suppressed or never_baselined(v.rule):
            continue
        budget[v.fingerprint] += 1
    entries = [
        {"path": fp[0], "rule": fp[1], "context": fp[2], "detail": fp[3],
         "count": count}
        for fp, count in sorted(budget.items())
    ]
    doc = {
        "version": BASELINE_VERSION,
        "comment": (
            "Accepted pre-existing lint findings. Regenerate with "
            "`python -m repro.analysis.lint src tests examples "
            "--write-baseline`; OWN*/DSP* findings are never baselined."
        ),
        "entries": entries,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return len(entries)


def apply(violations: list[Violation], budget: Counter) -> list[Violation]:
    """Mark baselined findings; returns the list of *new* ones.

    Mutates ``violations`` in place (sets ``baselined``) and consumes
    budget per fingerprint in file order.  Suppressed findings neither
    consume budget nor count as new.
    """
    remaining = Counter(budget)
    fresh: list[Violation] = []
    for v in violations:
        if v.suppressed:
            continue
        if remaining[v.fingerprint] > 0:
            remaining[v.fingerprint] -= 1
            v.baselined = True
        else:
            fresh.append(v)
    return fresh


def gating(violations: list[Violation]) -> list[Violation]:
    """The findings that fail the build: new errors and new warnings."""
    return [v for v in violations if not v.suppressed and not v.baselined]


__all__ = [
    "BaselineError", "Severity", "apply", "check_policy", "gating",
    "load", "never_baselined", "save",
]
