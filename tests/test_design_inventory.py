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


def _taxonomy() -> tuple[list[list[str]], str]:
    """DESIGN §13's taxonomy: the table's rows (cells) and the
    "kinds that bound no segment" sentence after it."""
    section = (ROOT / "DESIGN.md").read_text(encoding="utf-8").split(
        "### Taxonomy: record kind → segment → Table-1 stage"
    )[1].split("\n**")[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split(" | ")]
        for line in section.splitlines() if line.startswith("| ")
    ][1:]
    rest = section.split("Kinds that bound no segment")[1]
    return rows, rest


def _names(text: str) -> list[str]:
    return re.findall(r"`([\w-]+)`", text)


def test_taxonomy_table_matches_the_code():
    """One table, three vocabularies: segments (the analyzer), record
    kinds (the ring) and Table-1 stages (the probes).  A name that
    drifts from the code fails here, not in a reader's head."""
    from repro.core.probes import PAPER_TABLE1_COSTS_NS
    from repro.flightrec.records import KIND_NAMES
    from repro.profile.critical import ADDITIVE_SEGMENTS, SEGMENTS

    rows, unbounded = _taxonomy()
    assert all(len(row) == 5 for row in rows)
    assert tuple(_names(row[0])[0] for row in rows) == SEGMENTS
    assert tuple(
        _names(row[0])[0] for row in rows if row[4] == "✔"
    ) == ADDITIVE_SEGMENTS
    kinds = set(KIND_NAMES.values())
    bounding = {
        name for row in rows for name in _names(row[1] + row[2])
        if name != "c"  # the begin record's argument, not a kind
    }
    assert bounding <= kinds, bounding - kinds
    # Every kind is either a segment boundary or listed as context.
    assert bounding | set(_names(unbounded)) == kinds
    assert not bounding & set(_names(unbounded))
    stages = [name for row in rows for name in _names(row[3])]
    assert sorted(stages) == sorted(PAPER_TABLE1_COSTS_NS), (
        "every Table-1 stage falls inside exactly one segment"
    )


def test_observability_sections_link_to_the_one_table():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    for heading in ("## 8. Observability", "## 11. Flight recorder"):
        section = text.split(heading)[1].split("\n## ")[0]
        assert "§13" in section, f"{heading} does not point at the table"
        # ... instead of restating it.
        assert "| segment |" not in section


# -- request/reply correlation (DESIGN §5) ----------------------------------

REQUEST_MODULE = PACKAGE_ROOT / "core" / "request.py"


def _sources() -> dict[Path, str]:
    return {
        path: path.read_text(encoding="utf-8")
        for path in PACKAGE_ROOT.rglob("*.py")
    }


def test_request_users_list_matches_the_subclasses():
    """The "Users" sentence under "Request/reply correlation" names
    exactly the classes that derive from ``Requester``."""
    import ast

    section = (ROOT / "DESIGN.md").read_text(encoding="utf-8").split(
        "### Request/reply correlation"
    )[1].split("\n### ")[0]
    listed = set(_names(section.split("Users (")[1]))
    users = {
        node.name
        for source in _sources().values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(base, ast.Name) and base.id == "Requester"
            for base in node.bases
        )
    }
    assert len(users) == 7
    assert listed == users


def test_one_context_allocator_and_one_wait_loop():
    """An eighth private copy of the mechanism fails here: the wait
    loop, its ``max_pumps`` bound and the request-context counter each
    live in ``core/request.py`` and nowhere else, and the old per-class
    reply tables stay gone."""
    allocator = re.compile(
        r"_contexts?\s*=\s*itertools\.count|self\._context\s*\+=\s*1"
    )
    tables = re.compile(
        r"\b(_replies|_context_node|_context_tid|_outstanding)\b"
    )
    sources = _sources()
    # ``max_pumps`` anywhere else means a second loop or a per-class knob.
    for pattern in (re.compile(r"max_pumps"), allocator):
        holders = {
            path for path, source in sources.items() if pattern.search(source)
        }
        assert holders == {REQUEST_MODULE}, (pattern.pattern, holders)
    assert "range(self.max_pumps)" in sources[REQUEST_MODULE]
    clients = [
        "config/control.py", "core/discovery.py", "devclasses/block.py",
        "devclasses/sequential.py", "rmi/stub.py", "core/telemetry.py",
        "daq/monitor.py",
    ]
    for name in clients:
        source = sources[PACKAGE_ROOT / name]
        assert "Requester" in source, name
        assert not tables.search(source), name


# -- the frame header cache (DESIGN §5 decision 2) ---------------------------

HEADER_FIELDS = (
    "version", "flags", "priority", "function", "target", "initiator",
    "payload_size", "organization", "xfunction", "initiator_context",
    "transaction_context",
)


def test_no_header_getter_decodes_the_buffer():
    """A re-decoding getter cannot come back unnoticed: every header
    getter in ``i2o/frame.py`` is a slot read, the one bulk unpack lives
    in one helper, and no other module reaches into ``_buf``."""
    import ast

    sources = _sources()
    frame_py = PACKAGE_ROOT / "i2o" / "frame.py"
    source = sources[frame_py]
    assert "int.from_bytes(self._buf[" not in source
    assert source.count("_HEADER.unpack_from") == 1
    getters = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        and node.name in HEADER_FIELDS
        and any(ast.unparse(d) == "property" for d in node.decorator_list)
    ]
    assert {g.name for g in getters} == set(HEADER_FIELDS)
    for getter in getters:
        assert "_buf" not in ast.unparse(getter), getter.name
    readers = {
        path for path, text in sources.items() if re.search(r"\._buf\b", text)
    }
    assert readers == {frame_py}


# -- one instrument on the dispatch path (DESIGN §8) -------------------------


def test_the_dispatch_path_carries_no_probes():
    """The sim-plane cost model is an observer (``core/simnode.py``),
    not spans inside the executive: the hot modules never name it,
    ``_dispatch_one`` enters no context manager but the watchdog guard,
    and ``core/probes.py`` is cost tables only."""
    import ast
    import inspect

    from repro.core.executive import Executive

    sources = _sources()
    for name in ("core/executive.py", "core/device.py", "transports/base.py"):
        assert "probes" not in sources[PACKAGE_ROOT / name], name
    assert "probes" not in inspect.signature(Executive.__init__).parameters
    dispatch = next(
        node
        for node in ast.walk(ast.parse(sources[PACKAGE_ROOT / "core/executive.py"]))
        if isinstance(node, ast.FunctionDef) and node.name == "_dispatch_one"
    )
    entered = [
        ast.unparse(item.context_expr)
        for node in ast.walk(dispatch) if isinstance(node, ast.With)
        for item in node.items
    ]
    assert entered == ["self.watchdog.guard(label=device.name)"]
    span_classes = [
        node.name
        for node in ast.walk(ast.parse(sources[PACKAGE_ROOT / "core/probes.py"]))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "__enter__"
            for item in node.body
        )
    ]
    assert not span_classes


# -- frame memory (DESIGN §5, §7) -------------------------------------------


def test_every_pool_frame_is_a_plain_frame():
    """A live pool frame is its block's one ``Frame``, with no
    exception: with every ``repro`` module imported, nothing derives
    from ``Frame`` (a subclass is a second frame kind the hop, the
    forward path and the reuse invariant would each have to know)."""
    import importlib
    import pkgutil

    import repro
    from repro.i2o.frame import Frame

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    assert Frame.__subclasses__() == []
