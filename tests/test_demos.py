"""The demos run end to end through the public API.

Each runs as a script in a fresh interpreter, as a reader would run it,
and must exit 0 with nothing on stderr (a warning counts as a failure).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)], env=env,
        capture_output=True, text=True, timeout=120)


def test_ejection_demo_runs_clean():
    # kicked simulate_trajectory over 20 thermal |b> atoms, scan_fig2 and
    # collimation_stats, about a second
    proc = run_demo("ejection_trajectories.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "escape fraction: " in proc.stdout
