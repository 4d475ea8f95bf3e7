"""The end-to-end trace's wrap targets exist in ``src/``.

``benchmarks/e2e/trace.py`` times each layer by wrapping public entry
points by name; a renamed or removed target makes a traced run report
``correct: false``.  Installing the full (server) wrap list in a fresh
interpreter catches that here.  The module is loaded by file path
because its name shadows the standard library's ``trace``, and in a
subprocess because installing patches classes process-wide.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

INSTALL = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("e2e_trace", sys.argv[1])
trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace)
recorder = trace.Recorder()
trace.install(recorder, server=True)
print(json.dumps(recorder.missing))
"""


def test_every_wrap_target_exists():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "benchmarks" / "e2e" / "trace.py")],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
