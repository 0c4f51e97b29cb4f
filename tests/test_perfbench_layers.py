"""The benchmark's trace mode (``perfbench/layers.py``) against the program.

``install()`` wraps program functions by exact name, through
``vars(owner)[attr]``: a renamed or moved name makes every ``--trace 1``
run fail with ``KeyError``, and a name that still exists but is no longer
on the call path silently moves its time into the ``other`` layer. Both
run in a fresh interpreter, because ``install()`` patches the modules it
imports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=300,
    )


def test_install_finds_every_wrapped_name():
    proc = _run([
        "-c",
        "import sys; sys.path.insert(0, 'perfbench'); import layers; "
        "layers.install(layers.SpanRecorder())",
    ])
    assert proc.returncode == 0, proc.stderr


def test_traced_threads_train_charges_each_layer(tmp_path):
    out = tmp_path / "layers.json"
    proc = _run([
        "perfbench/layers.py", str(out), "train", "netflix-syn",
        "--executor", "threads", "--procs", "2", "--epochs", "1",
        "--save", str(tmp_path / "model.npz"),
    ])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    layers = json.loads(out.read_text())["layers"]
    # a module-level import of a wrapped name would bypass its wrapper and
    # move that layer's time into "other"
    for name in ("data", "split", "plan", "kernel", "eval", "save"):
        assert layers[name] > 0, layers
