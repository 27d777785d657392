"""Run ``repro serve`` with the benchmark's layer wrappers installed.

    PYTHONPATH=src python3 perfbench/traced_serve.py SPANS.json -- \\
        --data-dir DIR serve --port 0

The wrappers go in before the CLI builds the deployment, so the server is
the unmodified ``repro serve``.  Requests whose operation header is
``start`` or ``end`` open and close the measured window; the spans are
written to SPANS.json when the server exits (SIGINT).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    recorder = spans.Recorder()
    spans.install(recorder, window_requests=True)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[2:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
