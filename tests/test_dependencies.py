"""The package's only third-party dependency is numpy: its modules import
nothing else, pyproject.toml declares nothing else, and it runs with scipy
unimportable."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "patchmoe"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "patchmoe"}


def absolute_imports(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {f"{path.name}: {name}" for path in sources
               for name in absolute_imports(path) if name not in ALLOWED}
    assert not foreign


def test_pyproject_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    assert [d.split(">")[0].split("=")[0].strip() for d in deps] == ["numpy"]


def test_runs_without_scipy():
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "import patchmoe.cli\n"
        "from patchmoe import backbone\n"
        "from patchmoe.tensor import Rng\n"
        "cfg = backbone.ModelConfig(num_classes=3, image_size=8, patch_size=4,\n"
        "                           d_model=8, d_ff=16, layers=2)\n"
        "images = np.zeros((2, 8, 8, 3), dtype=np.uint8)\n"
        "logits = backbone.Model(cfg, Rng(0)).forward(images).logits.data\n"
        "assert logits.shape == (2, 3) and np.isfinite(logits).all()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
