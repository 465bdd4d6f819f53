"""Every demo script runs to completion against the library in ``src`` and
prints exactly its pinned output, ``demo_stdout/<name>.txt``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stab

HERE = Path(__file__).resolve().parent
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # The child runs in ``tmp_path``, so a relative PYTHONPATH would not find stab.
    src = os.path.dirname(os.path.dirname(os.path.abspath(stab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == (HERE / "demo_stdout" / f"{demo.stem}.txt").read_text()


def test_every_demo_is_collected():
    assert len(DEMOS) >= 6
