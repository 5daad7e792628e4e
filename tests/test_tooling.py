"""The benchmark's tracer still finds every function it wraps.

perfbench/spans.py wraps prefractal's public functions by name, so
deleting or renaming one of them breaks every traced benchmark run. This
installs the tracer in a fresh interpreter, without running a workload.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tracer_installs(tmp_path):
    code = ("import sys; sys.path.insert(0, %r)\n"
            "from spans import Tracer\n"
            "Tracer().install()\n" % str(ROOT / "perfbench"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
