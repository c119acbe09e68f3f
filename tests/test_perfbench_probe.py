"""The benchmark's probe reaches into the program by name and silently skips a
name it cannot find, so a renamed or deleted target would quietly drop a
per-layer metric.  These tests load ``perfbench/probe.py`` as it is and
resolve every name it uses."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def _load_probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PATCHES = _load_probe().PATCHES


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in PATCHES])
def test_patch_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module}.{attr}"
        owner = getattr(owner, part)


def test_every_qkfmag_name_the_probe_reads_exists():
    # ``cli.<name>`` reads and ``from qkfmag.<module> import <name>`` in any function
    tree = ast.parse(PROBE.read_text(encoding="utf-8"))
    wanted = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == "cli"):
            wanted.add(("qkfmag.cli", node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qkfmag"):
            wanted.update((node.module, alias.name) for alias in node.names)
    assert ("qkfmag.cli", "build_parser") in wanted and ("qkfmag.cli", "main") in wanted
    missing = [f"{m}.{n}" for m, n in sorted(wanted)
               if not hasattr(importlib.import_module(m), n)]
    assert not missing
