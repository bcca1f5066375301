import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# each demo with a line its output must contain
DEMOS = {
    "01_shift_geometry": "displacement 16.0 m",
    "02_vegetation_indices": "cell (0, 0) NIR series: [0.2 0.3 0.4] observed: [ True False  True]",
    "03_cnn_engine": "predictions identical: True",
    "04_street_images": "held-out accuracy",
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert DEMOS[demo] in proc.stdout
