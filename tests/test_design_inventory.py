"""DESIGN §3 is the list of what earns its place in ``src/repro``.

The subtraction rule — a package stays only if an experiment, a paper
claim or a named invariant reaches it — is enforced where it is
written down: every package directory needs a §3 row with a non-empty
"Why it exists" cell, and a row may not outlive its package.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE_ROOT = ROOT / "src" / "repro"


def _inventory_rows() -> list[list[str]]:
    section = (ROOT / "DESIGN.md").read_text(encoding="utf-8").split(
        "## 3. System inventory"
    )[1].split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    # header and |---| separator dropped; cells without the outer pipes
    return [
        [cell.strip() for cell in row.strip("|").split(" | ")]
        for row in rows[1:]
    ]


def test_every_package_has_a_row_with_a_reason():
    rows = _inventory_rows()
    named = {
        name
        for _subsystem, package, _contents, why in rows
        for name in re.findall(r"`(repro(?:\.\w+)+)`", package)
        if why  # a row without a reason does not count
    }
    packages = {
        f"repro.{path.name}"
        for path in PACKAGE_ROOT.iterdir()
        if path.is_dir() and (path / "__init__.py").exists()
    }
    assert len(packages) >= 15
    missing = sorted(p for p in packages if p not in named)
    assert not missing, f"no DESIGN §3 row (with a reason) for {missing}"


def test_no_row_names_a_package_that_is_gone():
    for _subsystem, package, _contents, _why in _inventory_rows():
        for name in re.findall(r"`(repro(?:\.\w+)+)`", package):
            path = PACKAGE_ROOT.joinpath(*name.split(".")[1:])
            assert path.is_dir() or path.with_suffix(".py").exists(), (
                f"DESIGN §3 names {name}, which no longer exists"
            )
