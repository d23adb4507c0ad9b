"""The benchmark may only lean on the program's stable surface.

A later refactor is free to move anything behind ``repro.api`` and the
package-level exports; it is not allowed to edit this benchmark, so the
benchmark must not reach deeper than that.
"""

from __future__ import annotations

import ast

from conftest import E2E

#: ``repro.api`` namespaces plus the package-level exports of the tiers
#: that have no namespace of their own. ``repro.letkf`` is here for one
#: name: ``letkf_transform``, the default behind the documented
#: ``LETKFSolver.transform_runner`` hook.
ALLOWED = {
    "repro.api.core", "repro.api.config", "repro.api.ingest", "repro.api.serving",
    "repro.radar", "repro.jitdt", "repro.ingest", "repro.eigen", "repro.letkf",
}


def _violations(path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Import):
            bad += [f"{where}: import {a.name}" for a in node.names
                    if a.name.split(".")[0] == "repro"]
        elif isinstance(node, ast.ImportFrom) and node.module and (
            node.module.split(".")[0] == "repro"
        ):
            if node.module not in ALLOWED:
                bad.append(f"{where}: from {node.module} import ...")
            bad += [f"{where}: imports private {a.name}" for a in node.names
                    if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_") and not (
            node.attr.startswith("__") and node.attr.endswith("__")
        ):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                bad.append(f"{where}: underscore attribute .{node.attr}")
    return bad


def test_only_stable_imports_and_no_underscore_attributes():
    files = sorted(p for p in E2E.glob("*.py"))
    assert len(files) >= 6
    bad = [v for p in files for v in _violations(p)]
    assert not bad, "\n".join(bad)


def test_the_scan_catches_a_violation(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro.core.bda import BDASystem\n"
        "def f(bda):\n    bda._inject_additive_spread()\n"
    )
    found = _violations(probe)
    assert any("repro.core.bda" in v for v in found)
    assert any("_inject_additive_spread" in v for v in found)
