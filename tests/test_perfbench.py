"""Wiring guard for the benchmark harness under perfbench/.

The per-layer tracer wraps qgalton functions by module and attribute name
and reads a vanished or renamed target as zero work, so a refactor can blind
the per-layer metrics without any error.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, check=False, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_traced_target_exists(monkeypatch):
    # the self-test skips absent targets, so check them here
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)
    spec.loader.exec_module(layers)
    missing = [t.span for t in layers.TARGETS
               if not callable(getattr(importlib.import_module(t.module),
                                       t.attr, None))]
    assert missing == []
