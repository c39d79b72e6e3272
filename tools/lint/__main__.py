"""CLI: ``python -m tools.lint src tests examples tools``.

Exit status: 0 when no unsuppressed findings, 1 when findings exist, 2
on parse/usage errors (a file that is not UTF-8 or holds a NUL byte is
a parse error).  With ``--expect RULE`` the gate inverts: the run
succeeds only if every expected rule fired at least once (the tier-1
suite uses this to prove the seeded fixtures under
``tests/analysis/fixtures`` are still detected).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from tools.lint.engine import lint_paths
from tools.lint.violations import RULES

REPO_ROOT = Path(__file__).resolve().parents[2]
#: seeded-violation fixtures must never pollute a normal run; relative
#: to the repository root, so the exclusion holds from any cwd
DEFAULT_EXCLUDES = ["tests/analysis/fixtures"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description="Frame-ownership and race lint for the repro tree.",
    )
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument(
        "--exclude", action="append", default=None, metavar="PREFIX",
        help="path prefix to skip (repeatable), in addition to the "
        f"built-in excludes: {DEFAULT_EXCLUDES}",
    )
    parser.add_argument(
        "--no-default-excludes", action="store_true",
        help="lint the built-in excluded paths too (the fixture tests "
        "use this to prove the seeded bugs are still detected)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stdout format",
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="also write the full JSON report to FILE (CI artifact)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="parallel per-file analysis processes "
        "(default: os.cpu_count(); 1 = serial)",
    )
    parser.add_argument(
        "--expect", action="append", default=[], metavar="RULE",
        help="invert the gate: succeed only if RULE fired (repeatable)",
    )
    parser.add_argument(
        "--rules", action="store_true", help="list rules and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule}  {description}")
        return 0

    for rule in args.expect:
        if rule not in RULES:
            parser.error(f"--expect {rule}: unknown rule")

    excludes = list(args.exclude or [])
    if not args.no_default_excludes:
        excludes.extend(str(REPO_ROOT / e) for e in DEFAULT_EXCLUDES)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        parser.error(f"--jobs {jobs}: must be >= 1")
    reports = lint_paths(args.paths, exclude=excludes, jobs=jobs)
    parse_errors = [r.parse_error for r in reports if r.parse_error]
    violations = [v for r in reports for v in r.violations]
    new = [v for v in violations if not v.suppressed]

    suppressed = len(violations) - len(new)
    summary = {
        "files": len(reports),
        "findings": len(violations),
        "suppressed": suppressed,
        "new": len(new),
        "parse_errors": parse_errors,
    }
    doc = {"summary": summary,
           "violations": [v.to_json() for v in violations]}

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(
            json.dumps(doc, indent=2) + "\n", encoding="utf-8"
        )

    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for v in new:
            print(v.render())
        for error in parse_errors:
            print(f"parse error: {error}", file=sys.stderr)
        print(
            f"{len(reports)} files, {len(violations)} findings "
            f"({suppressed} suppressed, {len(new)} new)"
        )

    if parse_errors:
        return 2
    if args.expect:
        fired = {v.rule for v in violations}
        missing = [rule for rule in args.expect if rule not in fired]
        if missing:
            print(
                f"expected rules did not fire: {', '.join(missing)}",
                file=sys.stderr,
            )
            return 1
        return 0
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
