"""Each script in demos/ runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cl3

_DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
_ENV = dict(os.environ, PYTHONPATH=str(Path(cl3.__file__).parents[1]))


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # The working directory is tmp_path: spin_flip_sweep writes its CSVs there.
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=_ENV, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
