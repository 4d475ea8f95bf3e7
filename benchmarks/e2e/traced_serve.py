"""``slider-reason`` with the benchmark's span wrappers installed.

The traced run starts the server through this file instead of
``python -m repro.cli``: it wraps the layer boundaries (see
:mod:`trace`), hands the remaining arguments to the unmodified CLI, and
writes the recorded spans as JSON lines once the CLI returns — after
``serve`` has drained and logged "stopped cleanly".

    python traced_serve.py SPANS.jsonl serve seed.nt --port 0 ...
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import trace as e2e_trace  # noqa: E402 - this directory's trace.py, not the stdlib's


def main(argv: list[str]) -> int:
    """Install the wrappers, run the CLI, dump the spans."""
    from repro.cli import main as cli_main

    recorder = e2e_trace.Recorder()
    e2e_trace.install(recorder, server=True)
    try:
        return cli_main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
