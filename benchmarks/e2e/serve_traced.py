#!/usr/bin/env python3
"""Campaign server with server-side layer spans, for traced service runs.

Wraps the scheduler's submission, the supervised pool run, and the
artifact store's write and verified read (``trace.SERVER_PROBES``), then
serves exactly as ``repro-sim serve --port 0`` does.  After SIGTERM has
drained the service, the spans are written as JSONL to ``--spans-out``.
Pool-worker internals are not traced here.

    PYTHONPATH=src python3 benchmarks/e2e/serve_traced.py \
        --state-dir DIR --spans-out FILE
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from trace import SERVER_PROBES, Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args()

    from repro.service.server import run_service

    tracer = Tracer("service_mix", f"server-{os.getpid()}")
    tracer.install(SERVER_PROBES)
    try:
        run_service(args.state_dir, port=0, ready=lambda port: print(
            f"campaign service listening on http://127.0.0.1:{port}",
            flush=True))
    finally:
        tracer.uninstall()
        tracer.dump(Path(args.spans_out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
